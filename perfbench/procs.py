"""Process bookkeeping: child processes, peak memory, leak checks."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Set

from repro.runtime.shm import SEGMENT_PREFIX

_SHM_DIR = Path("/dev/shm")


def children(pid: int = None) -> Dict[int, str]:
    """``{child pid: state letter}`` of every live or zombie child."""
    pid = os.getpid() if pid is None else pid
    found: Dict[int, str] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found[int(entry.name)] = fields[0]
    return found


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def family_peak_rss_mb() -> float:
    """Peak memory of this process plus every live child process."""
    return peak_rss_mb([os.getpid(), *children()])


def shm_segments() -> Set[str]:
    if not _SHM_DIR.exists():
        return set()
    return {path.name for path in _SHM_DIR.glob(f"{SEGMENT_PREFIX}-*")}


def teardown_leaks(shm_before: Set[str]) -> List[str]:
    """What a workload left behind: child processes (zombies included) and
    shared-memory segments created since ``shm_before``."""
    leaks = [f"child process {pid} in state {state}" for pid, state in children().items()]
    leaks += [f"/dev/shm/{name}" for name in sorted(shm_segments() - shm_before)]
    return leaks
