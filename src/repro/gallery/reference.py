"""The persistent reference gallery: fit once, identify many times.

The paper's attack is a one-shot fit-and-identify; a production
identification service is the opposite shape — one fixed (but growing)
reference cohort, many probe batches.  :class:`ReferenceGallery` is that
service's core object:

* **Fit once** — the Principal Features Subspace is fitted on the reference
  group matrix through the content-keyed artifact cache
  (:mod:`repro.gallery.factors`), so the SVD factors (``svd`` kind), leverage
  scores (``leverage`` kind), and the reduced signature matrix (``gallery``
  kind) are computed once and persist through the cache's disk tier.
* **Identify many** — :meth:`identify` builds the probe group matrix through
  the batched runtime (a cache hit for repeated probes) and matches against
  the stored signatures in one in-process contraction.
* **Grow** — :meth:`enroll` appends new subjects and re-fits the leverage
  scores only when the content key of the reference actually changed.
* **Persist** — :meth:`save`/:meth:`load` round-trip the fitted state through
  a directory, so a service restart costs a file read, not an SVD.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.attack.matching import MatchResult
from repro.connectome.correlation import vector_index_to_region_pair
from repro.connectome.group import GroupMatrix
from repro.datasets.base import ScanRecord
from repro.exceptions import AttackError, ValidationError
from repro.gallery.factors import (
    _UNSTABLE,
    _stable_seed,
    cacheable_fit,
    fit_principal_features_cached,
    leverage_cache_key,
)
from repro.gallery.index import DEFAULT_INDEX_RANK, PruningIndex
from repro.gallery.matching import match_against_gallery, normalize_columns
from repro.linalg.leverage import PrincipalFeaturesSubspace
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import ArtifactCache, get_default_cache
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_positive_int

PathLike = Union[str, Path]

#: On-disk layout of a saved gallery.  Archives written by earlier versions
#: may carry extra ``gallery.json`` keys (a since-removed matching block
#: size); :meth:`ReferenceGallery.load` reads only the keys it knows.
_ARRAYS_FILE = "gallery.npz"
_META_FILE = "gallery.json"
_FORMAT_VERSION = 1


class ReferenceGallery:
    """A fitted, persistent, incrementally growable identification gallery.

    Parameters
    ----------
    reference:
        De-anonymized reference :class:`~repro.connectome.group.GroupMatrix`
        (columns are enrolled subjects).
    n_features:
        Number of leverage-selected signature features.
    rank:
        Rank for the leverage scores (``None`` = full column space).
    fisher:
        Fisher-transform connectome features when building group matrices
        from scans (:meth:`identify`/:meth:`enroll`); must match how
        ``reference`` was built.
    method:
        ``"exact"`` or ``"randomized"`` SVD backend for the fit.
    random_state:
        Seed for the randomized backend.
    cache:
        Artifact cache backing the fit; defaults to the process-wide cache.
        Give it a ``cache_dir`` to persist factors across processes.
    backend:
        Matching-backend name for :meth:`identify` (``None`` = the bit-exact
        ``numpy64`` default; see :mod:`repro.runtime.backend`).  A runtime
        deployment knob — it is not persisted by :meth:`save`.
    metadata:
        Free-form JSON-serializable dict persisted alongside the gallery
        (the CLI stores its dataset recipe here).
    index_rank / index_top_c:
        When ``index_rank`` is set, a :class:`~repro.gallery.index.PruningIndex`
        is fitted alongside the gallery (and *re*-fitted on every
        enroll-driven refit, so it can never serve stale candidates) for
        the serving layer's opt-in ``precision="indexed"`` tier.
        ``index_top_c`` overrides the per-probe candidate budget.

    Attributes
    ----------
    selector_:
        The fitted :class:`~repro.linalg.leverage.PrincipalFeaturesSubspace`.
    signatures_:
        ``(n_features, n_subjects)`` reduced reference matrix (the gallery).
    refit_count_:
        How many times the leverage fit actually ran for this object
        (enrollments that change nothing do not bump it).
    index_:
        The fitted :class:`~repro.gallery.index.PruningIndex`, or ``None``
        when no index tier was requested.
    """

    def __init__(
        self,
        reference: GroupMatrix,
        n_features: int = 100,
        rank: Optional[int] = None,
        fisher: bool = False,
        method: str = "exact",
        random_state: RandomStateLike = None,
        cache: Optional[ArtifactCache] = None,
        backend: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
        index_rank: Optional[int] = None,
        index_top_c: Optional[int] = None,
    ):
        check_positive_int(n_features, name="n_features")
        if n_features > reference.n_features:
            raise AttackError(
                f"n_features ({n_features}) exceeds the connectome feature count "
                f"({reference.n_features})"
            )
        self.n_features = int(n_features)
        self.rank = rank
        self.fisher = bool(fisher)
        self.method = method
        self.random_state = random_state
        self.cache = cache if cache is not None else get_default_cache()
        self.backend = backend
        self.metadata: Dict[str, Any] = dict(metadata) if metadata else {}
        self.reference = reference
        self.refit_count_ = 0
        self.selector_: Optional[PrincipalFeaturesSubspace] = None
        self.signatures_: Optional[np.ndarray] = None
        self._leverage_key: Optional[str] = None
        self._fingerprint: Optional[str] = None
        if index_rank is not None:
            check_positive_int(index_rank, name="index_rank")
        if index_top_c is not None:
            check_positive_int(index_top_c, name="index_top_c")
        self.index_rank = None if index_rank is None else int(index_rank)
        self.index_top_c = None if index_top_c is None else int(index_top_c)
        self.index_: Optional[PruningIndex] = None
        self._fit()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scans(
        cls,
        scans: Sequence[ScanRecord],
        n_features: int = 100,
        rank: Optional[int] = None,
        fisher: bool = False,
        method: str = "exact",
        random_state: RandomStateLike = None,
        cache: Optional[ArtifactCache] = None,
        backend: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
        index_rank: Optional[int] = None,
        index_top_c: Optional[int] = None,
    ) -> "ReferenceGallery":
        """Build and fit a gallery from reference scans.

        The group matrix goes through the batched runtime path (one GEMM for
        the whole session, memoized under the ``group_matrix`` kind).
        """
        scans = list(scans)
        if not scans:
            raise AttackError("cannot build a gallery from zero scans")
        cache = cache if cache is not None else get_default_cache()
        reference = build_group_matrix_batched(scans, fisher=fisher, cache=cache)
        return cls(
            reference,
            n_features=n_features,
            rank=rank,
            fisher=fisher,
            method=method,
            random_state=random_state,
            cache=cache,
            backend=backend,
            metadata=metadata,
            index_rank=index_rank,
            index_top_c=index_top_c,
        )

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _fit(self) -> None:
        """(Re-)fit the selector and signature matrix through the cache.

        Fits whose results cannot be content-keyed (randomized SVD driven by
        a generator object) bypass the ``gallery`` cache entirely — a shared
        key would otherwise serve one draw's signatures to another draw's
        selected indices.
        """
        data = self.reference.data
        selector = fit_principal_features_cached(
            data,
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
            cache=self.cache,
        )
        self.selector_ = selector
        if self._cacheable:
            self.signatures_ = self.cache.get_or_compute(
                "gallery",
                self._gallery_key(data),
                lambda: np.ascontiguousarray(data[selector.selected_indices_, :]),
            )
        else:
            self.signatures_ = np.ascontiguousarray(data[selector.selected_indices_, :])
        self._leverage_key = leverage_cache_key(
            self.cache, data, rank=self.rank, method=self.method,
            random_state=self.random_state,
        )
        self._fingerprint = self._gallery_key(data)
        self.refit_count_ += 1
        # Any refit invalidates a previously fitted pruning index: the
        # signature matrix (and therefore the sketch) changed.  Rebuild it
        # here rather than lazily, so a stale index can never be observed.
        if self.index_rank is not None or self.index_ is not None:
            self._fit_index()

    def _fit_index(self) -> None:
        """(Re-)fit the pruning index over the current signature matrix."""
        rank = self.index_rank
        if rank is None:
            rank = (
                self.index_.rank if self.index_ is not None else DEFAULT_INDEX_RANK
            )
        normalized, _ = normalize_columns(self.signatures_)
        self.index_ = PruningIndex.fit(
            normalized,
            rank=rank,
            top_c=self.index_top_c,
            cache=self.cache if self._cacheable else None,
            fingerprint=self.fingerprint,
        )

    def ensure_index(
        self, rank: Optional[int] = None, top_c: Optional[int] = None
    ) -> PruningIndex:
        """The pruning index, fitted (or re-fitted) if absent or stale.

        ``rank``/``top_c`` update the gallery's index parameters when
        given; a fitted index whose fingerprint still matches the gallery
        is returned as-is.
        """
        if rank is not None:
            check_positive_int(rank, name="rank")
            if self.index_rank != int(rank):
                self.index_rank = int(rank)
                self.index_ = None
        if top_c is not None:
            check_positive_int(top_c, name="top_c")
            if self.index_top_c != int(top_c):
                self.index_top_c = int(top_c)
                self.index_ = None
        stale = (
            self.index_ is None
            or self.index_.sketch_.shape[1] != self.n_subjects
            or (
                self.index_.fingerprint is not None
                and self.index_.fingerprint != self.fingerprint
            )
        )
        if stale:
            self._fit_index()
        return self.index_

    @property
    def _cacheable(self) -> bool:
        """Whether this gallery's fit artifacts may be shared through the cache."""
        return cacheable_fit(self.rank, self.method, self.random_state)

    def _gallery_key(self, data: np.ndarray) -> str:
        """Content key of the reduced signature matrix under the ``gallery`` kind."""
        return self.cache.key(
            "gallery",
            data,
            n_features=self.n_features,
            rank=-1 if self.rank is None else int(self.rank),
            method=str(self.method),
            seed=self._seed_for_key(),
        )

    def _seed_for_key(self) -> int:
        seed = _stable_seed(self.random_state)
        if seed is None or seed is _UNSTABLE:
            return -1
        return int(seed)

    # ------------------------------------------------------------------ #
    # Identification
    # ------------------------------------------------------------------ #
    def identify(self, probe_scans: Sequence[ScanRecord]) -> MatchResult:
        """Identify a batch of anonymous probe scans against the gallery.

        The probe group matrix is built through the batched runtime and the
        artifact cache, so identifying the same probes again skips the
        connectome construction entirely.
        """
        probe_scans = list(probe_scans)
        if not probe_scans:
            raise AttackError("cannot identify zero probe scans")
        probe = build_group_matrix_batched(
            probe_scans, fisher=self.fisher, cache=self.cache
        )
        return self.identify_group(probe)

    def identify_group(self, probe: GroupMatrix) -> MatchResult:
        """Identify a pre-built probe group matrix against the gallery."""
        if probe.n_features != self.reference.n_features:
            raise AttackError(
                "probe and gallery must share the connectome feature space, "
                f"got {probe.n_features} and {self.reference.n_features} features"
            )
        reduced_probe = probe.data[self.selector_.selected_indices_, :]
        return match_against_gallery(
            self.signatures_,
            reduced_probe,
            reference_subject_ids=self.reference.subject_ids,
            target_subject_ids=probe.subject_ids,
            backend=self.backend,
        )

    # ------------------------------------------------------------------ #
    # Incremental enrollment
    # ------------------------------------------------------------------ #
    def enroll(self, scans: Sequence[ScanRecord]) -> int:
        """Append new subjects to the gallery; returns how many were added.

        Scans whose ``(subject_id, task, session)`` identity is already
        enrolled are skipped, so re-submitting a session is a no-op.  When
        anything was actually appended, the reference content key changes and
        the leverage scores are re-fitted (rank-aware, through the cache —
        re-enrolling a previously seen cohort state is a pure cache hit).
        """
        scans = list(scans)
        enrolled = set(self._scan_keys())
        new_scans = [
            scan
            for scan in scans
            if (scan.subject_id, scan.task or "", scan.session or "") not in enrolled
        ]
        if not new_scans:
            return 0
        addition = build_group_matrix_batched(
            new_scans, fisher=self.fisher, cache=self.cache
        )
        if addition.n_features != self.reference.n_features:
            raise AttackError(
                "enrolled scans must share the gallery's connectome feature space, "
                f"got {addition.n_features} and {self.reference.n_features} features"
            )
        merged = GroupMatrix(
            data=np.hstack([self.reference.data, addition.data]),
            subject_ids=self.reference.subject_ids + addition.subject_ids,
            tasks=self._merged_labels(self.reference.tasks, addition.tasks),
            sessions=self._merged_labels(self.reference.sessions, addition.sessions),
        )
        self.reference = merged
        self._fingerprint = None
        new_key = leverage_cache_key(
            self.cache, merged.data, rank=self.rank, method=self.method,
            random_state=self.random_state,
        )
        if new_key != self._leverage_key:
            self._fit()
        elif self.index_ is not None or self.index_rank is not None:
            # Content-keyed leverage keys change on every real append, so
            # this branch is defensive: even if the fit were skipped, the
            # index must track the new column set.
            self._fit_index()
        return len(new_scans)

    def _scan_keys(self) -> List[tuple]:
        tasks = self.reference.tasks or [""] * self.reference.n_scans
        sessions = self.reference.sessions or [""] * self.reference.n_scans
        return list(zip(self.reference.subject_ids, tasks, sessions))

    @staticmethod
    def _merged_labels(
        existing: Optional[List[str]], added: Optional[List[str]]
    ) -> Optional[List[str]]:
        if existing is None and added is None:
            return None
        existing = existing if existing is not None else []
        added = added if added is not None else []
        return list(existing) + list(added)

    # ------------------------------------------------------------------ #
    # Signature introspection
    # ------------------------------------------------------------------ #
    def signature_region_pairs(self, n_regions: int, top: Optional[int] = None) -> list:
        """Region pairs carrying the gallery's signature (most important first)."""
        indices = self.selector_.selected_indices_
        if top is not None:
            indices = indices[:top]
        return [vector_index_to_region_pair(int(i), n_regions) for i in indices]

    def as_attack(self):
        """A fitted :class:`~repro.attack.deanonymize.LeverageScoreAttack` view.

        Lets code written against the attack object (signature introspection,
        reference-override identify) reuse the gallery's fitted state without
        re-fitting.
        """
        from repro.attack.deanonymize import LeverageScoreAttack

        attack = LeverageScoreAttack(
            n_features=self.n_features,
            rank=self.rank,
            method=self.method,
            random_state=self.random_state,
        )
        attack.selector_ = self.selector_
        attack.selected_features_ = self.selector_.selected_indices_
        attack._reference = self.reference
        return attack

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Content hash of the fitted gallery (reference data + fit params).

        Memoized at fit/load time: serving paths key per-request artifacts
        on the fingerprint, and re-hashing megabytes of reference data per
        request would dominate a warm identify.  Every mutation of the
        fitted state (``_fit``, including enroll-driven refits) refreshes
        the memo.
        """
        if self._fingerprint is None:
            self._fingerprint = self._gallery_key(self.reference.data)
        return self._fingerprint

    def _integrity_digest(
        self,
        reference: np.ndarray,
        signatures: np.ndarray,
        selected_indices: np.ndarray,
        scores: np.ndarray,
        index_arrays: Optional[Sequence[np.ndarray]] = None,
    ) -> str:
        """Digest over *every* persisted array plus the fit parameters.

        This is what :meth:`load` verifies — unlike :attr:`fingerprint` it
        also covers the derived arrays (signatures, indices, scores, and
        the pruning-index arrays when one is persisted), so a corrupted or
        tampered archive cannot load silently.  Archives without an index
        hash exactly as before, keeping pre-index archives loadable.
        """
        parts = [reference, signatures, selected_indices, scores]
        if index_arrays is not None:
            parts.extend(index_arrays)
        return self.cache.key(
            "gallery-archive",
            *parts,
            n_features=self.n_features,
            rank=-1 if self.rank is None else int(self.rank),
            method=str(self.method),
            seed=self._seed_for_key(),
        )

    def save(self, directory: PathLike) -> Path:
        """Persist the fitted gallery into ``directory`` (created if needed)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {
            "reference": self.reference.data,
            "signatures": self.signatures_,
            "selected_indices": self.selector_.selected_indices_,
            "leverage_scores": self.selector_.scores_,
        }
        index_meta = None
        index_arrays = None
        if self.index_ is not None:
            index_arrays = (
                self.index_.projection_,
                self.index_.sketch_,
                self.index_.residual_,
            )
            arrays["index_projection"] = self.index_.projection_
            arrays["index_sketch"] = self.index_.sketch_
            arrays["index_residual"] = self.index_.residual_
            index_meta = {
                "rank": self.index_.rank,
                "top_c": self.index_.top_c,
                "method": self.index_.method,
                "seed": self.index_.seed,
            }
        np.savez_compressed(directory / _ARRAYS_FILE, **arrays)
        meta = {
            "format_version": _FORMAT_VERSION,
            "n_features": self.n_features,
            "rank": self.rank,
            "fisher": self.fisher,
            "method": self.method,
            "seed": None if self._seed_for_key() == -1 else self._seed_for_key(),
            "subject_ids": self.reference.subject_ids,
            "tasks": self.reference.tasks,
            "sessions": self.reference.sessions,
            "fingerprint": self.fingerprint,
            "index": index_meta,
            "integrity": self._integrity_digest(
                self.reference.data,
                self.signatures_,
                self.selector_.selected_indices_,
                self.selector_.scores_,
                index_arrays=index_arrays,
            ),
            "metadata": self.metadata,
        }
        (directory / _META_FILE).write_text(json.dumps(meta, indent=2))
        return directory

    @classmethod
    def load(
        cls,
        directory: PathLike,
        cache: Optional[ArtifactCache] = None,
        backend: Optional[str] = None,
    ) -> "ReferenceGallery":
        """Load a saved gallery without re-fitting anything.

        The cached artifacts (leverage scores, signatures) are primed back
        into ``cache``, so a later :meth:`enroll` or a second gallery over
        the same cohort starts warm.
        """
        directory = Path(directory)
        meta_path = directory / _META_FILE
        arrays_path = directory / _ARRAYS_FILE
        if not meta_path.exists() or not arrays_path.exists():
            raise ValidationError(f"no saved gallery found in {directory}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported gallery format version {meta.get('format_version')!r}"
            )
        with np.load(arrays_path) as archive:
            reference_data = archive["reference"]
            signatures = archive["signatures"]
            selected_indices = archive["selected_indices"]
            leverage_scores_arr = archive["leverage_scores"]
            index_meta = meta.get("index")
            index_arrays = None
            if index_meta is not None:
                missing = [
                    name
                    for name in ("index_projection", "index_sketch", "index_residual")
                    if name not in archive.files
                ]
                if missing:
                    raise ValidationError(
                        "saved gallery failed its integrity check "
                        f"(index arrays {missing} are missing from the archive)"
                    )
                index_arrays = (
                    archive["index_projection"],
                    archive["index_sketch"],
                    archive["index_residual"],
                )

        gallery = cls.__new__(cls)
        gallery.n_features = int(meta["n_features"])
        gallery.rank = meta["rank"]
        gallery.fisher = bool(meta["fisher"])
        gallery.method = meta["method"]
        gallery.random_state = meta["seed"]
        gallery.cache = cache if cache is not None else get_default_cache()
        gallery.backend = backend
        gallery.metadata = meta.get("metadata") or {}
        gallery.reference = GroupMatrix(
            data=reference_data,
            subject_ids=list(meta["subject_ids"]),
            tasks=list(meta["tasks"]) if meta.get("tasks") is not None else None,
            sessions=list(meta["sessions"]) if meta.get("sessions") is not None else None,
        )
        selector = PrincipalFeaturesSubspace(
            n_features=gallery.n_features,
            rank=gallery.rank,
            method=gallery.method,
            random_state=gallery.random_state,
        )
        selector.scores_ = leverage_scores_arr
        selector.selected_indices_ = selected_indices
        gallery.selector_ = selector
        gallery.signatures_ = signatures
        gallery.refit_count_ = 0
        gallery._fingerprint = None
        gallery.index_ = None
        gallery.index_rank = None
        gallery.index_top_c = None

        integrity = gallery._integrity_digest(
            reference_data, signatures, selected_indices, leverage_scores_arr,
            index_arrays=index_arrays,
        )
        if meta.get("integrity") != integrity:
            raise ValidationError(
                "saved gallery failed its integrity check "
                "(the archive was modified or saved by incompatible parameters)"
            )
        fingerprint = gallery.fingerprint
        if index_meta is not None:
            gallery.index_rank = int(index_meta["rank"])
            gallery.index_top_c = (
                int(index_meta["top_c"]) if index_meta.get("top_c") is not None else None
            )
            gallery.index_ = PruningIndex(
                *index_arrays,
                rank=int(index_meta["rank"]),
                top_c=index_meta.get("top_c"),
                method=index_meta.get("method", "projection"),
                seed=int(index_meta.get("seed", 0)),
                fingerprint=fingerprint,
            )
        # Prime the cache so post-load enrollment and sibling galleries start
        # warm instead of refactorizing.  Uncacheable fits (randomized SVD
        # without an integer seed) must not be primed: their keys cannot
        # distinguish one draw from another.
        gallery._leverage_key = leverage_cache_key(
            gallery.cache, gallery.reference.data, rank=gallery.rank,
            method=gallery.method, random_state=gallery.random_state,
        )
        if gallery._cacheable:
            if gallery.cache.get("leverage", gallery._leverage_key) is None:
                gallery.cache.put("leverage", gallery._leverage_key, leverage_scores_arr)
            if gallery.cache.get("gallery", fingerprint) is None:
                gallery.cache.put("gallery", fingerprint, signatures)
        return gallery

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_subjects(self) -> int:
        """Number of enrolled subjects (gallery columns)."""
        return self.reference.n_scans

    def info(self) -> Dict[str, Any]:
        """Gallery state plus the cache statistics of the kinds it owns."""
        return {
            "n_subjects": self.n_subjects,
            "n_features_total": self.reference.n_features,
            "n_features_selected": self.n_features,
            "rank": self.rank,
            "method": self.method,
            "fisher": self.fisher,
            "backend": self.backend,
            "refit_count": self.refit_count_,
            "fingerprint": self.fingerprint,
            "index": None if self.index_ is None else self.index_.describe(),
            "cache": {
                kind: self.cache.stats(kind).as_dict()
                for kind in ("gallery", "leverage", "svd", "group_matrix", "index")
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReferenceGallery(subjects={self.n_subjects}, "
            f"features={self.n_features}/{self.reference.n_features}, "
            f"method={self.method!r})"
        )
