"""The pair budget and the CPU shares of the package's parallel work.

``PAIR_BUDGET`` bounds the agent pairs that one kernel of the pairwise pass
or of the simulator's repulsion holds at once.  The pairwise pass (over its
time chunks), ``tuning.tune`` (over a generation's new genomes) and the CSV
parse (over line-aligned parts of ``PARSE_BYTES`` or more of a body) ask
``workers(most)`` how many shares to use and hand ``run_shares`` a
``work(lo, hi)`` to run on that many contiguous ranges at once, each on a
CPU of its own, with results returned in ``shared_empty`` arrays.  Each item
is computed the same way in any share, so results do not depend on the count.
"""

from __future__ import annotations

import mmap
import os
import signal
import threading
import warnings

import numpy as np

# Neighbour pairs (j, t, i) a worker of the pairwise pass holds at once:
# 0.5 MB per float64 plane, so a slab's planes stay near one core's L2 cache
# and extract's memory does not grow with the recording length.  A row
# block's slab holds no more pairs than the slab of whole steps of all N rows
# that this budget gives, so blocks add no memory.  Each worker gets a whole
# budget, not a share of one: smaller slabs make more, shorter numpy calls.
# At N = 150 and T = 100 on 2 vCPUs (medians of 30 alternated runs), two
# forked workers took 0.88x the time of one at the whole budget with slabs of
# 11,250 pairs, 0.74x with 22,500 or 32,768 (half) and 0.67x with the whole.
# A crowd gets a second worker from two slabs on, but a fork costs more than
# the one-slab threshold assumed (it was set with thread workers): at T = 110
# on 2 vCPUs, extract on two forked workers took 2.28x the time of one at
# N = 20 (44,000 pairs, one slab), 1.97x at N = 28 (two slabs), 1.45x at
# N = 40, 1.04x at N = 60, 0.92x at N = 80 and 0.74x at N = 150.
PAIR_BUDGET = 1 << 16
# Trajectory CSV body bytes per share of its parse: a body under 1 MiB is
# parsed in the caller, unforked and uncopied.  On 2 vCPUs (medians of 100
# shuffled pairs, bench score-dense's 1.9 MB file cut to size), two shares took
# 1.14x the time of one for a 512 KiB body, 1.02x for 768 KiB, 0.94x for 1 MiB
# and 0.86x for 1.25 MiB and 1.9 MB: cutting, forking and joining cost 3-4 ms.
PARSE_BYTES = 1 << 19
# Shares at most, whatever the CPU count, so that at most about 31 MB of
# pairwise planes are in flight on any host.
MAX_WORKERS = 8


def usable_cpus() -> int:
    """The number of CPUs the calling thread may run on, read from its CPU
    affinity; 1 without one (off Linux), where ``run_shares`` forks nothing."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def workers(most: int) -> int:
    """Shares for at most ``most`` items: one per usable CPU, up to ``MAX_WORKERS``."""
    return min(usable_cpus(), MAX_WORKERS, most)


def cut(n: int, k: int) -> list[int]:
    """The bounds of k contiguous, near-equal ranges of range(n)."""
    return [n * s // k for s in range(k + 1)]


def shared_empty(shape, dtype=float) -> np.ndarray:
    """An array in anonymous shared memory: the writes of a forked share of
    ``run_shares`` to it are seen by its caller."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(1, size)))


def run_shares(work, n: int, k: int) -> None:
    """Run ``work(lo, hi)`` on the k ranges of ``cut(n, k)`` at once.

    Share 0 runs here, pinned to the caller's first CPU; each other share
    runs in a forked child pinned to the next CPU round the caller's
    affinity, which inherits the caller's state (``np.errstate`` too).  Every
    child is reaped and the caller's affinity restored before this returns.
    A share whose fork or child fails runs again here, where ``work``, being
    deterministic, raises its error; if share 0 raises, the children are
    killed.  Without ``os.fork`` or CPU affinity, or while another Python
    thread is alive (forking under it is unsafe), the shares run here one by
    one.
    """
    bounds = cut(n, k)
    forkable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    if k < 2 or not forkable or threading.active_count() > 1:
        for s in range(k):
            work(*bounds[s : s + 2])
        return
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    children, rerun = {}, []
    try:
        for s in range(1, k):
            try:
                # Python 3.12+ warns of other threads after forking; raised, it would lose the pid.
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: the share runs here
                rerun.append(s)
                continue
            if pid == 0:
                status = 1
                try:
                    os.sched_setaffinity(0, {cpus[s % len(cpus)]})
                    work(*bounds[s : s + 2])
                    status = 0
                finally:
                    os._exit(status)
            children[s] = pid
        os.sched_setaffinity(0, {cpus[0]})
        work(*bounds[:2])
    except BaseException:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        for s, pid in children.items():
            if os.waitpid(pid, 0)[1]:
                rerun.append(s)
    for s in sorted(rerun):
        work(*bounds[s : s + 2])
