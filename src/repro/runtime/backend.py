"""Pluggable matching backends behind one protocol, plus the precision policy.

All gallery/serving similarity ultimately runs one contraction: correlation
of pre-normalized reference columns against pre-normalized probe columns.
This module makes that contraction a pluggable seam.  Three backends ship
built in:

``numpy64`` (the default)
    The fixed-order float64 ``einsum`` kernel.  Its per-element accumulation
    order depends only on the feature dimension, so results are *bit-for-bit*
    identical however the gallery columns are split or the probe columns
    are batched — this is the contract every bit-equivalence test pins.
``numpy32``
    Mixed precision: inputs are cast to float32 and contracted in float32.
    Roughly half the memory traffic of float64 on the same kernel; rankings
    (argmax / top-1 identity) agree with ``numpy64`` on the acceptance
    workloads, but the similarities themselves differ in the low-order bits
    — float32 is therefore strictly opt-in and never a default.
``blas_blocked``
    The float64 contraction as a BLAS GEMM (``reference.T @ probe``).
    Fastest on large single blocks, but BLAS row-blocking is *not* bitwise
    split-stable, so this backend trades the bit-identity guarantee for
    throughput; results agree with ``numpy64`` to within a few ulps.

Selection goes through :func:`resolve_backend`, the one precision policy:
an explicit backend name wins (and must agree with the requested precision);
``None`` keeps the bit-exact default for the precision; ``"auto"`` picks the
fastest backend for the precision (``blas_blocked`` for float64, ``numpy32``
for float32).

These guarantees propagate all the way up the stack: the serving layer and
its HTTP wire codecs (:mod:`repro.service.codec`) deliver probe arrays to
this kernel bit-identically to in-process callers, so with the default
``numpy64`` backend an HTTP identify response is bit-identical to a local
:meth:`~repro.gallery.reference.ReferenceGallery.identify` — the
layer-by-layer statement of this contract lives in ``docs/architecture.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError

#: Backend name the whole stack defaults to (the bit-exact contract).
DEFAULT_BACKEND = "numpy64"

#: Recognized precision policies (what a backend may *declare*).
PRECISIONS = ("float64", "float32")

#: Serving-level precision selector for the candidate-pruning index tier
#: (:mod:`repro.gallery.index`).  Not a backend precision — no backend
#: declares it — but :func:`resolve_backend` accepts it and maps it onto a
#: bit-exact float64 backend, because the pruned path re-ranks candidates
#: with the exact kernel and needs its column-subset invariance.  Like
#: float32 it is strictly opt-in, never a default.
INDEXED_PRECISION = "indexed"

#: Extra selector accepted wherever a backend name is configured.
AUTO_BACKEND = "auto"


def _apply_masks_and_clip(
    similarity: np.ndarray,
    reference_degenerate: Optional[np.ndarray],
    probe_degenerate: Optional[np.ndarray],
) -> np.ndarray:
    """Zero degenerate rows/columns and clip into the correlation range."""
    if reference_degenerate is not None:
        reference_degenerate = np.asarray(reference_degenerate, dtype=bool)
        if reference_degenerate.any():
            similarity[reference_degenerate, :] = 0.0
    if probe_degenerate is not None:
        probe_degenerate = np.asarray(probe_degenerate, dtype=bool)
        if probe_degenerate.any():
            similarity[:, probe_degenerate] = 0.0
    return np.clip(similarity, -1.0, 1.0)


class MatchingBackend:
    """Protocol of a matching backend.

    Attributes
    ----------
    name:
        Registry name (what configs and CLI flags select the backend by).
    precision:
        ``"float64"`` or ``"float32"`` — what the contraction accumulates in.
    bit_exact:
        Whether the backend honours the column-split bit-identity contract
        (only ``numpy64`` does; anything else must not be used where the
        bit-equivalence tests apply).
    """

    name: str = "abstract"
    precision: str = "float64"
    bit_exact: bool = False

    def similarity(
        self,
        reference_normalized: np.ndarray,
        probe_normalized: np.ndarray,
        reference_degenerate: Optional[np.ndarray] = None,
        probe_degenerate: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Correlation block of pre-normalized columns."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Union[str, bool]]:
        """Registry row for diagnostics (``runtime-info``, trajectory files)."""
        return {
            "name": self.name,
            "precision": self.precision,
            "bit_exact": self.bit_exact,
        }


class Numpy64Backend(MatchingBackend):
    """The fixed-order float64 einsum kernel — the bit-identity reference.

    The contraction order of ``einsum("ij,ik->jk", ..., optimize=False)``
    depends only on the feature dimension ``i``, never on how the ``j``
    (gallery) or ``k`` (probe) axes are blocked, so any gallery-column
    subset or probe batching reproduces the single-block similarity
    exactly.  This is a deliberate trade of peak GEMM throughput for split
    invariance; see :mod:`repro.gallery.matching` for why BLAS is not an
    option on this path.
    """

    name = "numpy64"
    precision = "float64"
    bit_exact = True

    def similarity(
        self,
        reference_normalized: np.ndarray,
        probe_normalized: np.ndarray,
        reference_degenerate: Optional[np.ndarray] = None,
        probe_degenerate: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        similarity = np.einsum(
            "ij,ik->jk",
            np.asarray(reference_normalized, dtype=np.float64),
            np.asarray(probe_normalized, dtype=np.float64),
            optimize=False,
        )
        return _apply_masks_and_clip(similarity, reference_degenerate, probe_degenerate)


class Numpy32Backend(MatchingBackend):
    """Mixed-precision variant: the same fixed-order kernel in float32.

    Casting costs ``O(features x columns)`` against an
    ``O(features x gallery x probes)`` contraction, so the float32 memory-
    bandwidth advantage dominates on any non-trivial gallery.  Top-1
    identities agree with ``numpy64`` on the acceptance workloads (the
    similarity gap between the true subject and the runner-up is orders of
    magnitude above float32 rounding); the raw similarities differ in the
    low-order bits, so this backend never participates in bit-equivalence
    guarantees and is opt-in only.
    """

    name = "numpy32"
    precision = "float32"
    bit_exact = False

    def similarity(
        self,
        reference_normalized: np.ndarray,
        probe_normalized: np.ndarray,
        reference_degenerate: Optional[np.ndarray] = None,
        probe_degenerate: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        similarity = np.einsum(
            "ij,ik->jk",
            np.asarray(reference_normalized, dtype=np.float32),
            np.asarray(probe_normalized, dtype=np.float32),
            optimize=False,
        )
        return _apply_masks_and_clip(similarity, reference_degenerate, probe_degenerate)


class BlasBlockedBackend(MatchingBackend):
    """Float64 contraction as one BLAS GEMM (``reference.T @ probe``).

    BLAS blocks the accumulation internally (and may multithread it), which
    is exactly why this backend cannot honour the bit-identity contract:
    one-column edge blocks take a GEMV kernel with a different accumulation
    order than the blocked GEMM.  Results agree with ``numpy64`` to within
    a few ulps; predictions agree wherever the match margin exceeds that.
    It is what the ``"auto"`` policy selects for float64 when bit-exactness
    has been explicitly traded away.
    """

    name = "blas_blocked"
    precision = "float64"
    bit_exact = False

    def similarity(
        self,
        reference_normalized: np.ndarray,
        probe_normalized: np.ndarray,
        reference_degenerate: Optional[np.ndarray] = None,
        probe_degenerate: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        reference = np.asarray(reference_normalized, dtype=np.float64)
        probe = np.asarray(probe_normalized, dtype=np.float64)
        similarity = reference.T @ probe
        return _apply_masks_and_clip(similarity, reference_degenerate, probe_degenerate)


#: Module-level registry: name -> backend instance.
_BACKENDS: Dict[str, MatchingBackend] = {}
_registry_lock = threading.Lock()


def register_backend(backend: MatchingBackend, overwrite: bool = False) -> MatchingBackend:
    """Register a backend under its ``name`` in the module-level registry."""
    name = getattr(backend, "name", "")
    if not name or name == "abstract":
        raise ValidationError("backend must carry a non-empty name")
    if getattr(backend, "precision", None) not in PRECISIONS:
        raise ValidationError(
            f"backend {name!r} must declare precision in {PRECISIONS}"
        )
    with _registry_lock:
        if name in _BACKENDS and not overwrite:
            raise ConfigurationError(
                f"backend {name!r} is already registered (pass overwrite=True to replace)"
            )
        _BACKENDS[name] = backend
    return backend


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    with _registry_lock:
        return sorted(_BACKENDS)


def backend_registry_info() -> List[Dict[str, Union[str, bool]]]:
    """One :meth:`~MatchingBackend.describe` row per registered backend."""
    with _registry_lock:
        backends = list(_BACKENDS.values())
    return [backend.describe() for backend in sorted(backends, key=lambda b: b.name)]


def get_backend(name: Optional[Union[str, MatchingBackend]] = None) -> MatchingBackend:
    """The backend registered under ``name`` (``None`` = the bit-exact default).

    Accepts an already-resolved backend instance for convenience, so call
    sites can take either a configuration string or an object.
    """
    if isinstance(name, MatchingBackend):
        return name
    if name is None:
        name = DEFAULT_BACKEND
    with _registry_lock:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown matching backend {name!r}; available: {available_backends()}"
        )
    return backend


def resolve_backend(
    name: Optional[Union[str, MatchingBackend]] = None,
    precision: Optional[str] = None,
) -> MatchingBackend:
    """Apply the backend/precision policy and return the selected backend.

    * ``name=None`` — the bit-exact default for the precision: ``numpy64``
      for float64 (or unspecified), ``numpy32`` for float32.
    * ``name="auto"`` — the fastest registered backend for the precision:
      ``blas_blocked`` for float64, ``numpy32`` for float32.
    * an explicit name (or instance) — used as-is, but it must agree with
      the requested precision; a mismatch is a configuration error rather
      than a silent cast.
    * ``precision="indexed"`` — the candidate-pruning serving tier.  It is
      not a backend precision: the exact re-ranking kernel must honour the
      bit-identity contract, so ``None``/``"auto"`` resolve to the
      bit-exact default and an explicit backend that is not bit-exact is a
      configuration error (``numpy32`` under an index would break the
      admissibility proof, not just the low-order bits).
    """
    if precision == INDEXED_PRECISION:
        if name is None or name == AUTO_BACKEND:
            backend = get_backend(DEFAULT_BACKEND)
        else:
            backend = get_backend(name)
        if not backend.bit_exact:
            raise ConfigurationError(
                f"precision='indexed' requires a bit-exact re-ranking backend "
                f"(column-subset exactness is what makes pruning lossless); "
                f"got {backend.name!r}"
            )
        return backend
    if precision is not None and precision not in PRECISIONS:
        raise ConfigurationError(
            f"precision must be one of {PRECISIONS + (INDEXED_PRECISION,)}, "
            f"got {precision!r}"
        )
    if isinstance(name, MatchingBackend):
        backend = name
    elif name is None:
        backend = get_backend("numpy32" if precision == "float32" else DEFAULT_BACKEND)
    elif name == AUTO_BACKEND:
        backend = get_backend("numpy32" if precision == "float32" else "blas_blocked")
    else:
        backend = get_backend(name)
    if precision is not None and backend.precision != precision:
        raise ConfigurationError(
            f"backend {backend.name!r} runs in {backend.precision}, which "
            f"contradicts precision={precision!r}; pick a matching backend "
            f"(or backend='auto') instead of silently casting"
        )
    return backend


register_backend(Numpy64Backend())
register_backend(Numpy32Backend())
register_backend(BlasBlockedBackend())
