"""Tests for the ``/dev/shm`` leak-check prefix.

Nothing in the stack publishes POSIX shared-memory segments any more:
matching runs in process, and runner pools ship specs by pickle.  The
serving tests and benchmarks glob ``/dev/shm`` for
:data:`~repro.runtime.shm.SEGMENT_PREFIX` after shutdown; these tests keep
that prefix stable and pin that a full runner and gallery cycle leaves no
segment under it.
"""

from pathlib import Path

import numpy as np

from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.runtime.runner import ExperimentRunner, ExperimentSpec
from repro.runtime.shm import SEGMENT_PREFIX

_DEV_SHM = Path("/dev/shm")

#: Small-but-valid attack parameters for the process-pool runs.
TINY_ATTACK = {"n_subjects": 6, "n_regions": 24, "n_timepoints": 64, "n_features": 50}


def _visible_segments():
    """Our segments visible in /dev/shm (empty list where /dev/shm is absent)."""
    if not _DEV_SHM.exists():  # pragma: no cover - non-Linux
        return []
    return sorted(path.name for path in _DEV_SHM.glob(f"{SEGMENT_PREFIX}-*"))


def _specs(prefix):
    return [
        ExperimentSpec(name=f"{prefix}-{seed}", kind="attack", seed=seed, params=TINY_ATTACK)
        for seed in (1, 2)
    ]


class TestSegmentPrefix:
    def test_prefix_is_stable(self):
        # perfbench and the chaos/fleet-churn benchmarks glob this exact name.
        assert SEGMENT_PREFIX == "repro-shm"


class TestRunnerTransportLifecycle:
    def test_runner_is_reusable_after_shutdown(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        inline = ExperimentRunner(cache=ArtifactCache()).run(_specs("inline"))
        with ExperimentRunner(max_workers=2, executor="process") as runner:
            first = runner.run(_specs("first"))
            runner.shutdown()
            second = runner.run(_specs("second"))
        for results in (first, second):
            assert all(result.ok for result in results), [r.error for r in results]
            assert [r.metrics["accuracy"] for r in results] == [
                r.metrics["accuracy"] for r in inline
            ]

    def test_no_repro_segments_leak_across_a_full_cycle(
        self, small_hcp, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        before = _visible_segments()
        with ExperimentRunner(max_workers=2, executor="process") as runner:
            assert all(result.ok for result in runner.run(_specs("cycle")))
        reference = small_hcp.generate_session("REST", encoding="LR", day=1)
        probes = small_hcp.generate_session("REST", encoding="RL", day=2)
        gallery = ReferenceGallery.from_scans(
            reference, n_features=40, cache=ArtifactCache()
        )
        expected = gallery.identify(probes)
        gallery.save(tmp_path / "gal")
        loaded = ReferenceGallery.load(tmp_path / "gal", cache=ArtifactCache())
        assert np.array_equal(loaded.identify(probes).similarity, expected.similarity)
        assert _visible_segments() == before
