"""Seeded workload generator: cohorts, fresh probe streams, hot sets, enrollees.

Every input the benchmark sends is made here from ``--seed``; the program
under test only ever receives the generated scans.  A probe is *fresh* when
its bytes were never sent before: the base cohort scan of its subject plus
noise drawn from a seeded bank, with a combination of bank entries that no
earlier request of the stream used.  Repeats (the labelled cache-hit case)
come only from :meth:`ProbeStream.hot_set`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.base import ScanRecord
from repro.datasets.hcp import HCPLikeDataset

#: The ROADMAP baseline shape: 64 subjects x 100 regions, 100 features.
N_SUBJECTS = 64
N_REGIONS = 100
N_TIMEPOINTS = 100
N_FEATURES = 100

#: Never-seen subjects generated per cohort for the enroll stream.
ENROLL_POOL = 48

#: Noise bank size; ordered triples of distinct entries give
#: ``64 * 63 * 62`` (about 250k) fresh probes per stream.
NOISE_BANK = 64

#: Probe noise, as a share of the base scan's standard deviation.  Small
#: enough that the attack's top-1 accuracy stays that of the base cohort.
NOISE_SCALE = 0.1


@dataclass
class Cohort:
    """One synthetic cohort: gallery scans, probe bases and an enroll pool.

    The cohort itself is fixed by ``cohort_index`` (it is the system's data,
    the same on every seed); the seed drives everything sent to the system.
    """

    gallery_scans: List[ScanRecord]
    probe_bases: List[ScanRecord]
    enroll_pool: List[ScanRecord]

    @classmethod
    def make(cls, cohort_index: int) -> "Cohort":
        dataset = HCPLikeDataset(
            n_subjects=N_SUBJECTS + ENROLL_POOL,
            n_regions=N_REGIONS,
            n_timepoints=N_TIMEPOINTS,
            random_state=1000 + cohort_index,
        )
        reference = [
            dataset.generate_scan(i, "REST", encoding="LR", day=1)
            for i in range(N_SUBJECTS + ENROLL_POOL)
        ]
        probes = [
            dataset.generate_scan(i, "REST", encoding="RL", day=2)
            for i in range(N_SUBJECTS)
        ]
        return cls(reference[:N_SUBJECTS], probes, reference[N_SUBJECTS:])


class ProbeStream:
    """Deterministic stream of fresh single-scan probes over one cohort.

    ``probe(i)`` is a pure function of ``(seed, stream, i)``: the checker
    regenerates any probe from its index instead of keeping its bytes.
    """

    def __init__(self, cohort: Cohort, seed: int, stream: int = 0):
        rng = np.random.default_rng([seed, stream, 1])
        shape = cohort.probe_bases[0].timeseries.shape
        self._bases = [scan.timeseries for scan in cohort.probe_bases]
        self._scales = [NOISE_SCALE * float(base.std()) for base in self._bases]
        self._ids = [scan.subject_id for scan in cohort.probe_bases]
        self._bank = rng.standard_normal((NOISE_BANK, *shape))
        a, b, c = np.meshgrid(*[np.arange(NOISE_BANK, dtype=np.int16)] * 3, indexing="ij")
        distinct = (a != b) & (a != c) & (b != c)
        triples = np.stack([a[distinct], b[distinct], c[distinct]], axis=1)
        self._triples = triples[rng.permutation(len(triples))]
        self._subjects = rng.integers(0, len(self._bases), size=len(self._triples))
        self.stream = stream

    def __len__(self) -> int:
        return len(self._triples)

    def probe(self, i: int) -> ScanRecord:
        """The ``i``-th probe; fresh for every ``i < len(self)``."""
        if not 0 <= i < len(self):
            raise IndexError(f"probe stream exhausted at {i} (length {len(self)})")
        s = int(self._subjects[i])
        a, b, c = self._triples[i]
        noise = self._bank[a] + 0.5 * self._bank[b] + 0.25 * self._bank[c]
        timeseries = self._bases[s] + self._scales[s] * noise
        return ScanRecord(
            subject_id=self._ids[s],
            task="REST",
            session=f"probe-{self.stream}-{i}",
            timeseries=timeseries,
        )

    def hot_set(self, size: int) -> List[ScanRecord]:
        """``size`` fixed probes (reused bytes: the labelled repeat case)."""
        return [self.probe(len(self) - 1 - k) for k in range(size)]


def zipf_weights(size: int, exponent: float = 1.1) -> np.ndarray:
    """Normalized Zipf weights over ranks ``1..size``."""
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return weights / weights.sum()


def mixed_ops(rng: np.random.Generator, galleries: int, block: int, hot_set: int):
    """Endless ``(kind, gallery, hot rank)`` operations in shuffled blocks.

    Each block of ``block`` operations holds exactly one ``"enroll"``, and
    half of the rest (rounded down) are ``"hot"`` repeats, the others
    ``"fresh"``; galleries are drawn evenly.  The seed orders the block and
    picks the hot ranks (Zipf), so the mix, and with it the share of time the
    write path takes, is the same on every seed.
    """
    identifies = block - 1
    kinds = ["enroll"] + ["hot"] * (identifies // 2) + ["fresh"] * (identifies - identifies // 2)
    weights = zipf_weights(hot_set)
    while True:
        order = rng.permutation(block)
        targets = rng.permutation(np.arange(block) % galleries)
        ranks = rng.choice(hot_set, size=block, p=weights)
        for k in range(block):
            yield kinds[order[k]], int(targets[k]), int(ranks[k])
