"""The ``/dev/shm`` name prefix that the leak checks look for.

Nothing in the stack creates POSIX shared-memory segments: matching runs in
process and fleet workers talk over socket pairs.  The serving tests and
the chaos, fleet-churn and perfbench runs still glob ``/dev/shm`` for this
prefix after shutdown, so any code that starts publishing segments under it
without releasing them fails those checks.
"""

#: Prefix of every segment name the leak checks glob ``/dev/shm`` for.
SEGMENT_PREFIX = "repro-shm"
