"""Correlation matching against a reference gallery.

:func:`match_against_gallery` normalizes the gallery and probe columns, runs
one similarity contraction over the whole gallery, and wraps the block in a
:class:`~repro.attack.matching.MatchResult`.  The match runs in the
leverage-reduced space (about 100 features), so it is a small slice of any
identify call and runs in process; process parallelism lives in the serving
fleet (:mod:`repro.service.fleet`), not here.

The one similarity kernel is *column-split invariant*: the similarity
of any subset of gallery columns, or of any subset of probe columns, equals
the matching rows/columns of the full block bit-for-bit.  Two properties
deliver it, and two callers rely on it — the serving micro-batcher stacks
the probe columns of many requests into one call, and the
:class:`~repro.gallery.index.PruningIndex` re-ranks a subset of gallery
columns exactly:

* Column normalization is computed **once** on the full matrices, never per
  column block.  (NumPy reductions over single-column blocks collapse to a
  contiguous pairwise-summation path whose rounding differs from the
  multi-column row-sweep — and a BLAS GEMM is not split invariant either,
  since one-column edge blocks take a GEMV kernel with a different
  accumulation order.)
* The similarity is a fixed-order ``einsum`` contraction whose per-element
  accumulation depends only on the feature dimension, so the block width
  cannot change a single bit of any output element.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attack.matching import MatchResult, prepare_match_inputs
from repro.utils.validation import check_matrix

#: Norm threshold below which a column counts as constant (mirrors
#: :func:`repro.utils.stats.pairwise_pearson`).
_DEGENERATE_NORM = 1e-15


def normalize_columns(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Center and unit-normalize each column; flag degenerate (constant) ones.

    Mirrors the column handling of
    :func:`repro.utils.stats.pairwise_pearson`: constant columns are flagged
    so their similarities can be zeroed after the contraction.
    """
    a = check_matrix(matrix, name="matrix")
    centered = a - a.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(centered, axis=0)
    degenerate = norms < _DEGENERATE_NORM
    safe = np.where(degenerate, 1.0, norms)
    return centered / safe, degenerate


def similarity_kernel(
    reference_normalized: np.ndarray,
    probe_normalized: np.ndarray,
    reference_degenerate: Optional[np.ndarray] = None,
    probe_degenerate: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Correlation block of pre-normalized columns: the one matching kernel.

    The contraction order of ``einsum("ij,ik->jk", ..., optimize=False)``
    depends only on the feature dimension ``i``, never on how the ``j``
    (gallery) or ``k`` (probe) axes are blocked, so the similarity of
    gallery column ``j`` with probe column ``k`` is bit-identical whether
    the reference block holds one column or the whole gallery.  This is a
    deliberate trade: the kernel gives up peak GEMM throughput to buy
    column-split invariance (BLAS row-blocking is not bitwise stable), and
    since matching runs in the leverage-reduced space (~100 features) the
    contraction is a small slice of any identify call.  Do not swap it for
    a GEMM.

    Degenerate (constant) gallery rows and probe columns are zeroed, then
    the block is clipped into the correlation range.
    """
    similarity = np.einsum(
        "ij,ik->jk",
        np.asarray(reference_normalized, dtype=np.float64),
        np.asarray(probe_normalized, dtype=np.float64),
        optimize=False,
    )
    if reference_degenerate is not None:
        reference_degenerate = np.asarray(reference_degenerate, dtype=bool)
        if reference_degenerate.any():
            similarity[reference_degenerate, :] = 0.0
    if probe_degenerate is not None:
        probe_degenerate = np.asarray(probe_degenerate, dtype=bool)
        if probe_degenerate.any():
            similarity[:, probe_degenerate] = 0.0
    return np.clip(similarity, -1.0, 1.0)


def match_against_gallery(
    reference: np.ndarray,
    probe: np.ndarray,
    reference_subject_ids: Optional[Sequence[str]] = None,
    target_subject_ids: Optional[Sequence[str]] = None,
) -> MatchResult:
    """Match probe columns against every gallery column in one contraction.

    Parameters
    ----------
    reference:
        ``(n_features, n_gallery)`` reduced gallery signatures.
    probe:
        ``(n_features, n_probe)`` reduced probe matrix (same feature space).
    reference_subject_ids / target_subject_ids:
        Optional identities; default to positional labels.
    """
    ref, prb, reference_subject_ids, target_subject_ids = prepare_match_inputs(
        reference, probe, reference_subject_ids, target_subject_ids
    )
    ref_normalized, ref_degenerate = normalize_columns(ref)
    probe_normalized, probe_degenerate = normalize_columns(prb)
    similarity = match_normalized(
        ref_normalized,
        probe_normalized,
        ref_degenerate,
        probe_degenerate,
    )
    predictions = np.argmax(similarity, axis=0)
    return MatchResult(
        similarity=similarity,
        predicted_reference_index=predictions,
        reference_subject_ids=list(reference_subject_ids),
        target_subject_ids=list(target_subject_ids),
    )


def match_normalized(
    reference_normalized: np.ndarray,
    probe_normalized: np.ndarray,
    reference_degenerate: np.ndarray,
    probe_degenerate: np.ndarray,
    index=None,
    index_top_c: Optional[int] = None,
) -> np.ndarray:
    """Similarity of pre-normalized columns against the whole gallery.

    This is the seam shared by :func:`match_against_gallery` and the serving
    layer's micro-batched identification
    (:class:`repro.service.IdentificationService` stacks the pre-normalized
    probes of many concurrent requests and runs them through one call):
    because the inputs are already normalized and the kernel is the
    fixed-order contraction, each request's columns of the output are
    bit-for-bit what a call with its probes alone returns.

    When an ``index`` (a fitted :class:`~repro.gallery.index.PruningIndex`)
    is given, the call takes the pruned path instead: one coarse sketched
    pass selects per-probe candidates, the exact kernel re-ranks only
    those columns, and unevaluated entries of the result hold the index's
    fill sentinel.  Argmax and top-1/top-2 margins are exact by
    construction (see :mod:`repro.gallery.index`).
    """
    if index is not None:
        return index.match(
            reference_normalized,
            probe_normalized,
            reference_degenerate,
            probe_degenerate,
            top_c=index_top_c,
        )
    return similarity_kernel(
        reference_normalized,
        probe_normalized,
        reference_degenerate,
        probe_degenerate,
    )
