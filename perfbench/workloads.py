"""The benchmark's workloads by name."""

from perfbench.common import SETUP_REPEATS
from perfbench.httpopen import HttpOpen
from perfbench.routed import Routed
from perfbench.serial import Serial

WORKLOADS = {
    "serial_fresh": Serial,
    "http_open": HttpOpen,
    "routed_mixed": Routed,
}

__all__ = ["SETUP_REPEATS", "WORKLOADS"]
