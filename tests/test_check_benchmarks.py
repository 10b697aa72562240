"""The benchmark check script stays wired to the modules CI smoke-runs.

Mirrors the CI benchmark-smoke steps (``scripts/check_benchmarks.py``) at
test scale: every benchmark module must import, the ``--backend-trajectory``
flag must write a precision-only ``BENCH_backend.json`` record and
hard-gate on float32 top-1 agreement, the ``--index-trajectory``
flag must run the pruning benchmark, write a well-formed ``BENCH_index.json``
record, and hard-gate on top-1 agreement, and the ``--router-trajectory``
flag must run the router scaling benchmark, write ``BENCH_router.json``,
and hard-gate on routed bit-identity, and the ``--fleet-trajectory`` flag
must run the fleet-churn benchmark, write ``BENCH_fleet.json``, and
hard-gate on every resize invariant.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_benchmarks():
    """The check script imported as a module (it lives outside ``src``)."""
    spec = importlib.util.spec_from_file_location(
        "check_benchmarks", REPO_ROOT / "scripts" / "check_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_required_benchmarks_exist(check_benchmarks):
    benchmarks_dir = REPO_ROOT / "benchmarks"
    for name in check_benchmarks.REQUIRED_BENCHMARKS:
        assert (benchmarks_dir / f"{name}.py").is_file(), f"{name}.py is missing"
    assert "bench_index_pruning" in check_benchmarks.REQUIRED_BENCHMARKS
    assert "bench_router_scaling" in check_benchmarks.REQUIRED_BENCHMARKS
    assert "bench_fleet_churn" in check_benchmarks.REQUIRED_BENCHMARKS


def test_backend_trajectory_flag_writes_precision_record(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """``--backend-trajectory`` runs the precision benchmark at acceptance
    scale and writes a record with no transport fields."""
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_backend.json"
    exit_code = check_benchmarks.main(["--backend-trajectory", str(path)])
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "backend trajectory: backend=numpy64" in output
    record = json.loads(path.read_text())
    assert set(record) == {"benchmark", "backend", "precision"}
    assert record["benchmark"] == "bench_backend_matching"
    precision = record["precision"]
    assert precision["float32_top1_agreement"] == 1.0
    assert precision["float64_s"] > 0 and precision["float32_s"] > 0
    assert not any("transport" in key or "shard" in key for key in precision)


def test_backend_trajectory_gates_on_top1_agreement(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """A float32 run that changes a top-1 identity must fail the check."""
    def broken(path):
        record = {
            "benchmark": "bench_backend_matching",
            "backend": "numpy64",
            "precision": {"float32_speedup": 2.0, "float32_top1_agreement": 0.5},
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_backend_trajectory", broken)
    exit_code = check_benchmarks.main(["--backend-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL backend trajectory" in capsys.readouterr().out


def test_index_trajectory_flag_writes_record(check_benchmarks, tmp_path, capsys, monkeypatch):
    """``--index-trajectory`` runs the benchmark and writes the record.

    A small size sweep keeps the test fast; the record shape is the same
    one CI uploads as ``BENCH_index.json``.  The import-check pass is
    skipped: it rebinds ``conftest`` under pytest (the benchmarks' conftest
    collides with the test suite's), and it has its own coverage in CI.
    """
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_index.json"
    exit_code = check_benchmarks.main(
        ["--index-trajectory", str(path), "--index-sizes", "200,600"]
    )
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "index trajectory:" in output
    record = json.loads(path.read_text())
    assert record["benchmark"] == "index_pruning"
    assert record["workload"]["sizes"] == [200, 600]
    assert record["top1_agreement"] is True
    assert len(record["entries"]) == 2
    for entry in record["entries"]:
        assert entry["top1_agreement"] is True
        assert entry["pruned"]["p50_ms"] > 0
        assert entry["pruned"]["p99_ms"] >= entry["pruned"]["p50_ms"]
        assert entry["full"]["p99_ms"] >= entry["full"]["p50_ms"]
        assert 0.0 <= entry["pruning_ratio"] <= 1.0


def test_index_trajectory_gates_on_agreement(check_benchmarks, tmp_path, capsys, monkeypatch):
    """A divergent pruned result must fail the check, not just be recorded."""
    def broken(path, sizes=None):
        record = {
            "benchmark": "index_pruning",
            "entries": [
                {"n_columns": 100, "pruning_ratio": 0.5, "top1_agreement": False}
            ],
            "speedup_at_max": 10.0,
            "top1_agreement": False,
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_index_trajectory", broken)
    exit_code = check_benchmarks.main(["--index-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL index trajectory" in capsys.readouterr().out


def test_router_trajectory_flag_writes_record(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """``--router-trajectory`` runs the routed fleet and writes the record.

    The workload overrides shrink it to test scale (real forked workers,
    real IPC); the record shape is the one CI uploads as
    ``BENCH_router.json``.  Bit-identity must hold at any scale — the
    speedup is recorded, not gated (the pytest-benchmark test owns the
    >= 2x acceptance bound at acceptance scale).
    """
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_router.json"
    exit_code = check_benchmarks.main(
        [
            "--router-trajectory", str(path),
            "--router-galleries", "4",
            "--router-subjects", "8",
            "--router-requests", "2",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "router trajectory:" in output
    record = json.loads(path.read_text())
    assert record["benchmark"] == "router_scaling"
    assert record["workload"]["n_galleries"] == 4
    assert record["fleet_workers"] == 4
    assert record["bitwise_equal"] is True
    assert record["http_codecs"] == {"json": True, "binary": True}
    assert record["speedup"] > 0
    fleets = record["fleets"]
    assert set(fleets) == {"1", "4"}
    for entry in fleets.values():
        assert entry["throughput_rps"] > 0
        assert entry["respawns"] == 0


def test_router_trajectory_gates_on_bit_identity(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """A routed response diverging from single-process serving must fail
    the check even with a stellar speedup."""
    def broken(path, galleries=None, subjects=None, requests=None):
        record = {
            "benchmark": "router_scaling",
            "fleets": {},
            "fleet_workers": 4,
            "speedup": 100.0,
            "bitwise_equal": False,
            "http_codecs": {"json": True, "binary": False},
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_router_trajectory", broken)
    exit_code = check_benchmarks.main(["--router-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL router trajectory" in capsys.readouterr().out


def test_fleet_trajectory_flag_writes_record(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """``--fleet-trajectory`` runs the live 2→3→4→3 membership schedule and
    writes the record CI uploads as ``BENCH_fleet.json``.

    The workload overrides shrink it to test scale (real forked workers,
    real warm/drain IPC); every gate is hard — a resize that loses a
    request, leaks a process, or over-remaps fails at any scale.
    """
    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    path = tmp_path / "BENCH_fleet.json"
    exit_code = check_benchmarks.main(
        [
            "--fleet-trajectory", str(path),
            "--fleet-galleries", "3",
            "--fleet-subjects", "6",
            "--fleet-hold", "0.3",
        ]
    )
    output = capsys.readouterr().out
    assert exit_code == 0, output
    assert "fleet trajectory:" in output
    record = json.loads(path.read_text())
    assert record["benchmark"] == "fleet_churn"
    assert record["workload"]["n_galleries"] == 3
    assert record["schedule"] == ["add", "add", "remove"]
    assert record["gate_failures"] == []
    assert record["bitwise_equal"] is True
    assert record["totals"]["errors"] == 0
    assert record["resizes_completed"] == 3
    assert len(record["final_members"]) == 3
    assert len(record["steps"]) == 3
    for step in record["steps"]:
        assert 0.0 < step["remap_fraction"] <= step["remap_bound"]
    assert record["steps"][-1]["action"] == "remove"
    assert record["steps"][-1]["drained"] is True


def test_fleet_trajectory_gates_on_resize_invariants(
    check_benchmarks, tmp_path, capsys, monkeypatch
):
    """A churn run with any gate failure must fail the check, not just be
    recorded."""
    def broken(path, galleries=None, subjects=None, hold=None):
        record = {
            "benchmark": "fleet_churn",
            "steps": [],
            "totals": {
                "ok": 10, "requests": 10, "errors": 0,
                "churn_ok": 5, "churn_resends": 0, "churn_failed": 0,
            },
            "final_members": ["worker-0", "worker-1", "worker-2"],
            "gate_failures": ["step remove 4→3: leaving worker did not drain"],
        }
        path.write_text(json.dumps(record))
        return record

    monkeypatch.setattr(check_benchmarks, "run_import_checks", lambda: 0)
    monkeypatch.setattr(check_benchmarks, "write_fleet_trajectory", broken)
    exit_code = check_benchmarks.main(["--fleet-trajectory", str(tmp_path / "b.json")])
    assert exit_code == 1
    assert "FAIL fleet trajectory" in capsys.readouterr().out
