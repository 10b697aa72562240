"""Cross-dataset subject matching.

After feature selection, the attack measures the Pearson correlation between
every reference subject and every target subject in the reduced feature space
and predicts that each target subject is the reference subject they correlate
with most strongly (paper Section 3.1.1: "Pairs of subjects with high
correlation correspond to predicted matches").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.connectome.group import GroupMatrix
from repro.exceptions import AttackError, ValidationError
from repro.utils.stats import pairwise_pearson
from repro.utils.validation import check_matrix


@dataclass
class MatchResult:
    """Outcome of matching a target dataset against a reference dataset.

    Attributes
    ----------
    similarity:
        ``(n_reference, n_target)`` correlation matrix in the reduced
        feature space.
    predicted_reference_index:
        For every target column, the index of the best-matching reference
        column.
    reference_subject_ids / target_subject_ids:
        Subject bookkeeping carried through from the group matrices.
    """

    similarity: np.ndarray
    predicted_reference_index: np.ndarray
    reference_subject_ids: List[str]
    target_subject_ids: List[str]

    @property
    def predicted_subject_ids(self) -> List[str]:
        """Predicted identity (reference subject id) for every target scan."""
        return [
            self.reference_subject_ids[int(i)] for i in self.predicted_reference_index
        ]

    def accuracy(self) -> float:
        """Fraction of target scans whose predicted identity is correct."""
        correct = [
            predicted == actual
            for predicted, actual in zip(self.predicted_subject_ids, self.target_subject_ids)
        ]
        return float(np.mean(correct))

    def correct_mask(self) -> np.ndarray:
        """Boolean mask over target scans marking correct identifications."""
        return np.asarray(
            [
                predicted == actual
                for predicted, actual in zip(
                    self.predicted_subject_ids, self.target_subject_ids
                )
            ],
            dtype=bool,
        )

    def margin(self) -> np.ndarray:
        """Confidence margin per target scan: best minus second-best similarity.

        With a single reference subject there is no second-best candidate, so
        the margin degenerates to the best similarity itself: the prediction
        is unopposed and its confidence is exactly how well the only
        candidate matches (a zero here would wrongly read as "no confidence").
        """
        if self.similarity.shape[0] < 2:
            return self.similarity[0, :].copy()
        sorted_similarities = np.sort(self.similarity, axis=0)
        return sorted_similarities[-1, :] - sorted_similarities[-2, :]


def prepare_match_inputs(
    reference: np.ndarray,
    target: np.ndarray,
    reference_subject_ids: Optional[List[str]] = None,
    target_subject_ids: Optional[List[str]] = None,
):
    """Shared validation/defaulting prologue of the matching entry points.

    Checks the matrices, the shared feature space, the two-feature minimum,
    and the id lengths; fills in positional subject labels when none are
    given.  Used by :func:`match_subjects` and the gallery's
    :func:`~repro.gallery.matching.match_against_gallery`, so the matching
    contract lives in exactly one place.
    """
    ref = check_matrix(reference, name="reference")
    tgt = check_matrix(target, name="target")
    if ref.shape[0] != tgt.shape[0]:
        raise AttackError(
            "reference and target must share the feature space, "
            f"got {ref.shape[0]} and {tgt.shape[0]} features"
        )
    if ref.shape[0] < 2:
        raise AttackError("at least two features are required for correlation matching")

    if reference_subject_ids is None:
        reference_subject_ids = [f"ref-{i}" for i in range(ref.shape[1])]
    if target_subject_ids is None:
        target_subject_ids = [f"tgt-{i}" for i in range(tgt.shape[1])]
    if len(reference_subject_ids) != ref.shape[1]:
        raise ValidationError("reference_subject_ids length does not match reference columns")
    if len(target_subject_ids) != tgt.shape[1]:
        raise ValidationError("target_subject_ids length does not match target columns")
    return ref, tgt, list(reference_subject_ids), list(target_subject_ids)


def match_subjects(
    reference: np.ndarray,
    target: np.ndarray,
    reference_subject_ids: Optional[List[str]] = None,
    target_subject_ids: Optional[List[str]] = None,
) -> MatchResult:
    """Match target columns to reference columns by Pearson correlation.

    Parameters
    ----------
    reference:
        ``(n_features, n_reference)`` reduced group matrix of the
        de-anonymized dataset.
    target:
        ``(n_features, n_target)`` reduced group matrix of the anonymous
        dataset (same feature space).
    reference_subject_ids / target_subject_ids:
        Optional identities; default to positional labels.
    """
    ref, tgt, reference_subject_ids, target_subject_ids = prepare_match_inputs(
        reference, target, reference_subject_ids, target_subject_ids
    )
    similarity = pairwise_pearson(ref, tgt)
    predictions = np.argmax(similarity, axis=0)
    return MatchResult(
        similarity=similarity,
        predicted_reference_index=predictions,
        reference_subject_ids=list(reference_subject_ids),
        target_subject_ids=list(target_subject_ids),
    )


def match_group_matrices(
    reference: GroupMatrix,
    target: GroupMatrix,
    feature_indices: Optional[np.ndarray] = None,
) -> MatchResult:
    """Convenience wrapper matching two :class:`GroupMatrix` objects."""
    ref_data = reference.data
    tgt_data = target.data
    if feature_indices is not None:
        feature_indices = np.asarray(feature_indices, dtype=int)
        ref_data = ref_data[feature_indices, :]
        tgt_data = tgt_data[feature_indices, :]
    return match_subjects(
        ref_data,
        tgt_data,
        reference_subject_ids=reference.subject_ids,
        target_subject_ids=target.subject_ids,
    )


def matching_accuracy(
    reference: np.ndarray,
    target: np.ndarray,
    reference_subject_ids: Optional[List[str]] = None,
    target_subject_ids: Optional[List[str]] = None,
) -> float:
    """Identification accuracy of correlation matching (shortcut)."""
    result = match_subjects(
        reference,
        target,
        reference_subject_ids=reference_subject_ids,
        target_subject_ids=target_subject_ids,
    )
    return result.accuracy()
