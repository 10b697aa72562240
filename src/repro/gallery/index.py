"""Candidate-pruning index: coarse sketched scoring + exact re-ranking.

A full identify scans every enrolled gallery column with the exact
contraction — linear in the gallery, which is fine at 64 subjects and
hopeless at "millions of enrolled users" scale.  :class:`PruningIndex` is
the first sublinear tier: a low-rank sketch of the normalized signature
matrix scores *all* columns with one small GEMM, the top-C columns per
probe survive, and only those columns reach the exact similarity kernel
(:func:`~repro.gallery.matching.similarity_kernel`) for re-ranking.

**Exactness by construction.**  The coarse score is not a heuristic — it
anchors an *admissible upper bound* on the exact similarity.  Let ``Q`` be
the ``(rank, n_features)`` projection with orthonormal rows and
``P = I - QᵀQ`` the projector onto its complement.  For any gallery column
``g`` and probe column ``p``::

    g·p = (Qg)·(Qp) + (Pg)·(Pp)
    |(Pg)·(Pp)| <= ||Pg|| * ||Pp||          (Cauchy-Schwarz)
    ||Pg||^2 = ||g||^2 - ||Qg||^2

so ``ub = (Qg)·(Qp) + resid(g) * resid(p) + slack`` upper-bounds the exact
dot product (``slack`` absorbs floating-point rounding in the sketch
arithmetic; the bound itself may run through any fast GEMM because only
the *exact* values must be bit-stable).  :meth:`match` evaluates the
per-probe top-C columns exactly, takes the second-best exact score ``s2``,
and escalates every unevaluated column whose bound reaches ``s2``.  After
that single escalation pass no unevaluated column can enter any probe's
top-2 (its exact score is below the bound, which is below ``s2``, which
only grew), so the argmax *and* the top-1/top-2 margin of the pruned
output equal the full scan's — including ties, because a tied column's
bound necessarily reaches ``s2`` and is therefore evaluated.

Because the exact kernel's per-element accumulation depends only on the
feature dimension, evaluating a column *subset* yields the same bits as
the full scan would for those columns — the pruned path inherits the
kernel's bit-identity guarantee.

Unevaluated entries of the returned matrix hold :data:`FILL_VALUE`
(``-2.0``, strictly below the correlation range) so downstream
argmax/margin code runs unchanged; columns of degenerate probes are
forced to ``0.0`` wholesale, matching the full scan's mask semantics.

Index artifacts (projection, sketch, residuals) are content-keyed under
the ``index`` artifact kind — keyed on the gallery fingerprint plus the
index parameters, so an enroll-driven refit can never serve a stale
sketch through the cache.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.gallery.matching import similarity_kernel
from repro.runtime.cache import ArtifactCache

#: Serving-level precision that routes identifies through the pruning index
#: (``ServiceConfig(precision="indexed")``).  Strictly opt-in: the default
#: ``"float64"`` precision scans the whole gallery with the exact kernel.
INDEXED_PRECISION = "indexed"

#: Sentinel written into unevaluated entries of a pruned similarity matrix.
#: Strictly below the correlation range, so it can never win an argmax or
#: displace an exact value in a top-2 margin.
FILL_VALUE = -2.0

#: Default sketch rank (coarse signature dimension).
DEFAULT_INDEX_RANK = 16

#: Safety slack added to the admissible bound: covers floating-point
#: rounding of the sketch GEMMs (which may run through BLAS), keeping the
#: bound an upper bound for the exactly-computed values it gates.
DEFAULT_SLACK = 1e-9

#: Supported coarse-signature constructions.
INDEX_METHODS = ("projection", "svd")


def default_top_c(rank: int) -> int:
    """Default candidate budget per probe for a given sketch rank."""
    return max(64, 4 * int(rank))


def _orthonormal_rows(
    reference_normalized: np.ndarray, rank: int, method: str, seed: int
) -> np.ndarray:
    """A ``(rank, n_features)`` projection with orthonormal rows.

    ``projection`` draws a seeded Gaussian matrix and orthonormalizes it
    (data-oblivious, O(features * rank^2)); ``svd`` takes the top left
    singular vectors of the normalized signature matrix (data-adapted:
    tighter residuals, costs one economy SVD at fit time).  Both yield
    orthonormal rows, so both share the same admissible bound.
    """
    n_features = reference_normalized.shape[0]
    if method == "projection":
        rng = np.random.default_rng(seed)
        gaussian = rng.standard_normal((n_features, rank))
        basis, _ = np.linalg.qr(gaussian)
        return np.ascontiguousarray(basis.T)
    if method == "svd":
        left, _, _ = np.linalg.svd(reference_normalized, full_matrices=False)
        return np.ascontiguousarray(left[:, :rank].T)
    raise ConfigurationError(
        f"index method must be one of {INDEX_METHODS}, got {method!r}"
    )


class PruningIndex:
    """Sketched coarse-scoring index over a normalized signature matrix.

    Build one with :meth:`fit`; query it with :meth:`match`.  The instance
    is immutable apart from its cumulative pruning counters (which are
    lock-protected, so concurrent readers may share one index).

    Attributes
    ----------
    rank:
        Sketch dimension (rows of the projection).
    top_c:
        Default per-probe candidate budget (query-time override allowed).
    method / seed:
        How the projection was constructed (see :func:`_orthonormal_rows`).
    fingerprint:
        Fingerprint of the gallery the index was fitted for (``None`` for
        ad-hoc fits); staleness is checked against it on every match.
    projection_:
        ``(rank, n_features)`` orthonormal-row projection.
    sketch_:
        ``(rank, n_gallery)`` coarse signatures (``projection_ @ gallery``).
    residual_:
        ``(n_gallery,)`` per-column residual norms outside the sketch
        subspace — the gallery half of the admissible bound.
    """

    def __init__(
        self,
        projection: np.ndarray,
        sketch: np.ndarray,
        residual: np.ndarray,
        rank: int,
        top_c: Optional[int] = None,
        method: str = "projection",
        seed: int = 0,
        slack: float = DEFAULT_SLACK,
        fingerprint: Optional[str] = None,
    ):
        self.projection_ = np.asarray(projection, dtype=np.float64)
        self.sketch_ = np.asarray(sketch, dtype=np.float64)
        self.residual_ = np.asarray(residual, dtype=np.float64)
        self.rank = int(rank)
        self.top_c = int(top_c) if top_c is not None else default_top_c(rank)
        if self.top_c < 1:
            raise ValidationError(f"top_c must be >= 1, got {top_c}")
        self.method = method
        self.seed = int(seed)
        self.slack = float(slack)
        self.fingerprint = fingerprint
        self._counter_lock = threading.Lock()
        self.probes_ = 0
        self.batches_ = 0
        self.candidates_scanned_ = 0
        self.columns_considered_ = 0

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @classmethod
    def fit(
        cls,
        reference_normalized: np.ndarray,
        rank: int = DEFAULT_INDEX_RANK,
        top_c: Optional[int] = None,
        method: str = "projection",
        seed: int = 0,
        slack: float = DEFAULT_SLACK,
        cache: Optional[ArtifactCache] = None,
        fingerprint: Optional[str] = None,
    ) -> "PruningIndex":
        """Fit an index over pre-normalized gallery columns.

        With a ``cache`` and a gallery ``fingerprint`` the three fitted
        arrays are content-keyed under the ``index`` kind (fingerprint +
        rank/method/seed — ``top_c`` is a query-time knob and deliberately
        not part of the key), so refits over an unchanged gallery are pure
        cache hits and enroll-driven fingerprint changes can never alias.
        """
        matrix = np.asarray(reference_normalized, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValidationError(
                f"reference_normalized must be 2-D, got shape {matrix.shape}"
            )
        if method not in INDEX_METHODS:
            raise ConfigurationError(
                f"index method must be one of {INDEX_METHODS}, got {method!r}"
            )
        rank = int(rank)
        if rank < 1:
            raise ValidationError(f"index rank must be >= 1, got {rank}")
        rank = min(rank, matrix.shape[0])

        def compute():
            projection = _orthonormal_rows(matrix, rank, method, seed)
            sketch = projection @ matrix
            column_sq = np.einsum("ij,ij->j", matrix, matrix)
            sketch_sq = np.einsum("ij,ij->j", sketch, sketch)
            residual = np.sqrt(np.maximum(column_sq - sketch_sq, 0.0))
            return projection, sketch, residual

        if cache is not None and fingerprint is not None:
            params = {"rank": rank, "method": method, "seed": int(seed)}
            keys = {
                factor: cache.key("index", fingerprint, factor=factor, **params)
                for factor in ("projection", "sketch", "residual")
            }
            projection = cache.get("index", keys["projection"])
            sketch = cache.get("index", keys["sketch"])
            residual = cache.get("index", keys["residual"])
            if projection is None or sketch is None or residual is None:
                projection, sketch, residual = compute()
                cache.put("index", keys["projection"], projection)
                cache.put("index", keys["sketch"], sketch)
                cache.put("index", keys["residual"], residual)
        else:
            projection, sketch, residual = compute()

        return cls(
            projection,
            sketch,
            residual,
            rank=rank,
            top_c=top_c,
            method=method,
            seed=seed,
            slack=slack,
            fingerprint=fingerprint,
        )

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def match(
        self,
        reference_normalized: np.ndarray,
        probe_normalized: np.ndarray,
        reference_degenerate: np.ndarray,
        probe_degenerate: np.ndarray,
        top_c: Optional[int] = None,
    ) -> np.ndarray:
        """Pruned similarity of pre-normalized columns (exact top-1/top-2).

        Returns a ``(n_gallery, n_probes)`` matrix whose evaluated entries
        are bit-identical to the full scan and whose unevaluated entries
        hold :data:`FILL_VALUE`; the argmax and the top-1/top-2 margin of
        every probe column equal the full scan's by the escalation argument
        in the module docstring.
        """
        reference_normalized = np.asarray(reference_normalized, dtype=np.float64)
        probe_normalized = np.asarray(probe_normalized, dtype=np.float64)
        n_gallery = reference_normalized.shape[1]
        n_probes = probe_normalized.shape[1]
        if self.sketch_.shape[1] != n_gallery:
            raise ConfigurationError(
                f"stale pruning index: fitted over {self.sketch_.shape[1]} "
                f"gallery columns, asked to match {n_gallery} — refit the "
                "index after enrollment"
            )
        if self.projection_.shape[1] != reference_normalized.shape[0]:
            raise ConfigurationError(
                f"pruning index feature space mismatch: fitted for "
                f"{self.projection_.shape[1]} features, got "
                f"{reference_normalized.shape[0]}"
            )
        budget = int(top_c) if top_c is not None else self.top_c
        if budget < 1:
            raise ValidationError(f"top_c must be >= 1, got {budget}")

        ref_degenerate = np.asarray(reference_degenerate, dtype=bool)
        prb_degenerate = np.asarray(probe_degenerate, dtype=bool)

        if budget >= n_gallery or n_gallery <= 2:
            # Nothing to prune: the exact scan over so few columns (or a
            # budget covering the whole gallery) is the fast path already.
            similarity = similarity_kernel(
                reference_normalized, probe_normalized, ref_degenerate, prb_degenerate
            )
            self._count(n_probes, scanned=n_gallery * n_probes,
                        considered=n_gallery * n_probes)
            return similarity

        # Coarse pass: one small GEMM scores every column, a second builds
        # the probe half of the admissible bound.  Bit-exactness is NOT
        # required here — only the exact values are served.  Everything
        # runs in (probes, gallery) layout: the per-probe selection scans
        # and comparisons below then stream over contiguous rows instead
        # of strided columns, which is worth ~2x on a 100k-column gallery.
        coarse_probe = self.projection_ @ probe_normalized
        probe_sq = np.einsum("ij,ij->j", probe_normalized, probe_normalized)
        probe_resid = np.sqrt(
            np.maximum(probe_sq - np.einsum("ij,ij->j", coarse_probe, coarse_probe), 0.0)
        )
        upper = np.ascontiguousarray(coarse_probe.T @ self.sketch_)  # (P, G)
        for row, resid in enumerate(probe_resid):
            upper[row] += resid * self.residual_
        upper += self.slack
        if ref_degenerate.any():
            # The exact kernel zeroes degenerate gallery rows; pin their
            # bound to that exact value.
            upper[:, ref_degenerate] = 0.0

        # Per-probe top-C by bound, unioned across the stacked batch so the
        # exact kernel runs once over one column subset.
        top = np.argpartition(upper, n_gallery - budget, axis=1)[:, n_gallery - budget:]
        candidates = np.unique(top.ravel())
        evaluated = np.zeros(n_gallery, dtype=bool)
        evaluated[candidates] = True
        exact = similarity_kernel(
            reference_normalized[:, candidates],
            probe_normalized,
            ref_degenerate[candidates],
            prb_degenerate,
        )
        output = np.full((n_gallery, n_probes), FILL_VALUE, dtype=np.float64)
        output[candidates, :] = exact
        scanned = candidates.size * n_probes

        # Escalation: every unevaluated column whose bound reaches the
        # current second-best exact score could still enter a top-2.  One
        # pass suffices — the merge can only raise s2, and columns below
        # the old s2 stay below the new one.
        second_best = (
            np.partition(exact, -2, axis=0)[-2, :]
            if exact.shape[0] >= 2
            else np.full(n_probes, -np.inf)
        )
        # Degenerate probe columns are forced to zero wholesale below;
        # their (near-constant) bounds must not trigger a full scan.  A
        # threshold at the clip floor (exact values cannot go below -1.0)
        # escalates everything — the unclamped bound may sit below it.
        second_best = np.where(prb_degenerate, np.inf, second_best)
        second_best = np.where(second_best <= -1.0, -np.inf, second_best)
        needs = (upper >= second_best[:, None]).any(axis=0)
        needs &= ~evaluated
        extras = np.nonzero(needs)[0]
        if extras.size:
            exact_extra = similarity_kernel(
                reference_normalized[:, extras],
                probe_normalized,
                ref_degenerate[extras],
                prb_degenerate,
            )
            output[extras, :] = exact_extra
            evaluated[extras] = True
            scanned += extras.size * n_probes

        if prb_degenerate.any():
            # Full-scan semantics: a degenerate probe's column is all zeros
            # (argmax lands on index 0, margin 0), never FILL_VALUE.
            output[:, prb_degenerate] = 0.0

        self._count(n_probes, scanned=scanned, considered=n_gallery * n_probes)
        return output

    # ------------------------------------------------------------------ #
    # Counters / introspection
    # ------------------------------------------------------------------ #
    def _count(self, probes: int, scanned: int, considered: int) -> None:
        with self._counter_lock:
            self.probes_ += int(probes)
            self.batches_ += 1
            self.candidates_scanned_ += int(scanned)
            self.columns_considered_ += int(considered)

    def counters(self) -> Dict[str, Any]:
        """Cumulative pruning counters (JSON-serializable snapshot)."""
        with self._counter_lock:
            scanned = self.candidates_scanned_
            considered = self.columns_considered_
            return {
                "probes": self.probes_,
                "batches": self.batches_,
                "candidates_scanned": scanned,
                "columns_considered": considered,
                "full_scans_avoided": considered - scanned,
                "pruning_ratio": (
                    1.0 - scanned / considered if considered else 0.0
                ),
            }

    def describe(self) -> Dict[str, Any]:
        """Fit parameters plus cumulative counters (for ``info()`` surfaces)."""
        return {
            "rank": self.rank,
            "top_c": self.top_c,
            "method": self.method,
            "seed": self.seed,
            "n_columns": int(self.sketch_.shape[1]),
            "fingerprint": self.fingerprint,
            **self.counters(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PruningIndex(rank={self.rank}, top_c={self.top_c}, "
            f"method={self.method!r}, columns={self.sketch_.shape[1]})"
        )
