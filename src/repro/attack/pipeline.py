"""End-to-end attack pipeline (paper Figure 3).

:class:`AttackPipeline` ties the whole workflow together: raw scans (or
already-parcellated time series) → connectomes → group matrices →
leverage-score feature selection → correlation matching → report.  It is the
object a downstream user would reach for first; the examples and the
quickstart exercise it directly.

Internally the pipeline is a thin veneer over the gallery subsystem: each
run fits (or cache-hits) a :class:`~repro.gallery.reference.ReferenceGallery`
on the reference dataset and identifies the target through it, so repeated
runs over the same reference reuse the SVD, the leverage scores, and the
reduced signature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.attack.deanonymize import LeverageScoreAttack
from repro.attack.matching import MatchResult
from repro.connectome.group import GroupMatrix
from repro.connectome.similarity import similarity_contrast
from repro.datasets.base import ScanRecord
from repro.exceptions import AttackError
from repro.runtime.batch import build_group_matrix_batched
from repro.runtime.cache import get_default_cache
from repro.utils.rng import RandomStateLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gallery.reference import ReferenceGallery
    from repro.service.config import ServiceConfig


@dataclass
class AttackReport:
    """Human-readable summary of one de-anonymization run."""

    accuracy: float
    n_reference_scans: int
    n_target_scans: int
    n_features_used: int
    similarity_contrast: Dict[str, float]
    match_result: MatchResult

    def summary_lines(self) -> List[str]:
        """Plain-text summary for logging or console output."""
        contrast = self.similarity_contrast
        return [
            f"identification accuracy : {100.0 * self.accuracy:.1f} %",
            f"reference scans         : {self.n_reference_scans}",
            f"target scans            : {self.n_target_scans}",
            f"features used           : {self.n_features_used}",
            (
                "similarity contrast     : "
                f"diag {contrast['diagonal_mean']:.3f} vs "
                f"off-diag {contrast['off_diagonal_mean']:.3f}"
            ),
        ]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "\n".join(self.summary_lines())


@dataclass
class AttackPipeline:
    """Scans-to-identities pipeline.

    Parameters
    ----------
    n_features:
        Number of leverage-selected connectome features.
    rank:
        Rank used for the leverage scores (``None`` = full column space).
    fisher:
        Whether to Fisher-transform connectome entries before vectorizing.
    method:
        SVD backend for the fit: ``"exact"`` or ``"randomized"`` (requires
        ``rank``; the right choice for large-gallery fits).
    random_state:
        Seed forwarded to the attack (randomized selection / randomized SVD).
    config:
        A :class:`~repro.service.config.ServiceConfig` supplying every fit
        and matching knob at once; individual kwargs above are ignored when
        it is given.  This is the recommended construction path — the same
        config object can drive an
        :class:`~repro.service.service.IdentificationService` deployment.
    """

    n_features: int = 100
    rank: Optional[int] = None
    fisher: bool = False
    method: str = "exact"
    random_state: RandomStateLike = None
    config: Optional["ServiceConfig"] = field(default=None, repr=False)
    attack_: Optional[LeverageScoreAttack] = field(default=None, repr=False)
    gallery_: Optional["ReferenceGallery"] = field(default=None, repr=False)

    def __post_init__(self):
        if self.config is not None:
            self.n_features = self.config.n_features
            self.rank = self.config.rank
            self.fisher = self.config.fisher
            self.method = self.config.method
            self.random_state = self.config.random_state

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def build_group(self, scans: Sequence[ScanRecord]) -> GroupMatrix:
        """Convert scans into a vectorized-connectome group matrix.

        Goes through the batched runtime path (one GEMM for the whole
        session) and the process-wide artifact cache, so repeated builds of
        the same scans are free.
        """
        if not scans:
            raise AttackError("cannot build a group matrix from zero scans")
        return build_group_matrix_batched(
            scans, fisher=self.fisher, cache=get_default_cache()
        )

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        reference_scans: Sequence[ScanRecord],
        target_scans: Sequence[ScanRecord],
    ) -> AttackReport:
        """Run the full attack from raw scans on both sides."""
        reference = self.build_group(reference_scans)
        target = self.build_group(target_scans)
        return self.run_on_groups(reference, target)

    def run_on_groups(self, reference: GroupMatrix, target: GroupMatrix) -> AttackReport:
        """Run the attack on pre-built group matrices.

        Fits a :class:`~repro.gallery.reference.ReferenceGallery` on the
        reference (through the process-wide artifact cache, so a repeated run
        over the same reference is a cache hit instead of an SVD) and
        identifies the target against it.
        """
        from repro.gallery.reference import ReferenceGallery

        n_features = min(self.n_features, reference.n_features)
        gallery = ReferenceGallery(
            reference,
            n_features=n_features,
            rank=self.rank,
            fisher=self.fisher,
            method=self.method,
            random_state=self.random_state,
            cache=get_default_cache(),
        )
        self.gallery_ = gallery
        self.attack_ = gallery.as_attack()
        result = gallery.identify_group(target)
        contrast = similarity_contrast(result.similarity)
        return AttackReport(
            accuracy=result.accuracy(),
            n_reference_scans=reference.n_scans,
            n_target_scans=target.n_scans,
            n_features_used=n_features,
            similarity_contrast=contrast,
            match_result=result,
        )

    def signature_region_pairs(self, n_regions: int, top: int = 20) -> list:
        """Region pairs carrying the signature found by the last run."""
        if self.attack_ is None:
            raise AttackError("run the pipeline before asking for the signature")
        return self.attack_.signature_region_pairs(n_regions, top=top)
