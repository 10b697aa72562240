"""Gallery subsystem: persistent signature store and correlation matching.

This package turns the paper's one-shot fit-and-identify attack into a
service-shaped workflow:

``factors``
    Cached SVD factors and leverage scores (the ``svd`` and ``leverage``
    artifact kinds) — fit once per reference content, hit forever after.
``matching``
    In-process correlation matching through the fixed-order kernel, whose
    output is bit-for-bit invariant to how gallery or probe columns are
    split.
``reference``
    :class:`ReferenceGallery` — the fitted, persistent, incrementally
    growable gallery object serving repeated ``identify`` queries (the
    ``gallery`` artifact kind holds its reduced signature matrix).
``index``
    :class:`PruningIndex` — the sublinear candidate-pruning tier (the
    ``index`` artifact kind holds its sketch): coarse sketched scoring of
    every column, exact re-ranking of the per-probe top-C survivors, with
    top-1/top-2 exactness guaranteed by an admissible bound.
"""

from repro.gallery.factors import (
    cached_leverage_scores,
    cached_svd_factors,
    fit_principal_features_cached,
    leverage_cache_key,
)
from repro.gallery.index import DEFAULT_INDEX_RANK, FILL_VALUE, PruningIndex
from repro.gallery.matching import (
    match_against_gallery,
    match_normalized,
    normalize_columns,
    similarity_kernel,
)
from repro.gallery.reference import ReferenceGallery

__all__ = [
    # factors
    "cached_leverage_scores",
    "cached_svd_factors",
    "fit_principal_features_cached",
    "leverage_cache_key",
    # matching
    "match_against_gallery",
    "match_normalized",
    "normalize_columns",
    "similarity_kernel",
    # reference
    "ReferenceGallery",
    # index
    "DEFAULT_INDEX_RANK",
    "FILL_VALUE",
    "PruningIndex",
]
