"""Fresh-probe benchmark of the identification service.

    python3 perfbench/run.py --workload serial_fresh --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

``serial_fresh``  one closed-loop client, in-process ``IdentificationService.identify``
``http_open``     open-loop binary ``POST /identify`` at a fixed ladder of rates
``routed_mixed``  ``GalleryRouter`` with 2 workers, hot/fresh identifies plus enrolls

Every response is checked after the run, untimed, against serial
``ReferenceGallery.identify`` on the gallery state it was served against;
every acknowledged enroll must be on disk; no process or ``/dev/shm`` segment
may outlive a workload.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the run measures half its time
untraced and half traced and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One BLAS thread per process, set before NumPy loads and inherited by the
#: server and worker processes.  With a BLAS thread per core, a 100 x 100
#: product waits on whatever else runs on the other core: on a shared 2-vCPU
#: host a serial identify then took 0.6 ms or 8 ms depending on the neighbours.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import report, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            half = args.seconds / 2.0
            untraced = runner.phase(half, 1, traced=False)
            traced = runner.phase(half, 1, traced=True, first=untraced.extra["next_probe"])
            phases = [untraced, traced]
            metrics = report.per_layer(untraced, traced, list(units))
        else:
            phases = [runner.phase(args.seconds, workloads.SETUP_REPEATS, traced=False)]
            metrics = report.end_to_end(phases[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [problem for phase in phases for problem in phase.problems]
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for line in report.lines(args.workload, phases, {k: v for k, v in metrics.items() if k in units}, units):
        print(line)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
