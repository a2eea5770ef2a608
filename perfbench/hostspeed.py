"""Host-speed calibration for the end-to-end times.

The benchmark shares a 2-vCPU virtual machine with other tenants.  How fast
the host runs Python swings by up to 1.6x within seconds, and the swing
shows in process CPU time as much as in wall time, so 30-second runs varied
by 25-30% between runs.  A fixed pure-Python loop, independent of cramerkit,
is timed before and after every op of the run; each op's wall and CPU time
is scaled by REF_S / (the loop's mean time around it).  End-to-end times are
thus milliseconds on a host running the loop in REF_S.  Raw times are
printed beside them.  A later change cannot move the loop, so the scaling
cancels host load and nothing else.
"""

from __future__ import annotations

import statistics
import time

#: The loop has two halves of about equal time: integer arithmetic, which
#: slows when the CPU is shared, and building a dict of tuples, which slows
#: when caches and memory are.  Scaling by the integer half alone left 15-20%
#: of the slowdown of allocation-heavy ops such as prove-symbolic.
INT_ITERATIONS = 25_000
DICT_ENTRIES = 3_000
#: Reference time of the loop, about its time on a quiet host (2-vCPU Xeon
#: VM, Python 3.11.7); it fixes the unit of every scaled time.
REF_S = 0.0035


def loop_seconds() -> float:
    """Time one run of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(INT_ITERATIONS):
        acc += i * i % 7
    table = {}
    for i in range(DICT_ENTRIES):
        table[(i, i ^ 5)] = table.get((i - 1, (i - 1) ^ 5), 0) + i
    return time.perf_counter() - t0


def scale_now(samples: int = 5) -> float:
    """REF_S over the median of a few loop runs made now."""
    return REF_S / statistics.median(loop_seconds() for _ in range(samples))


class SpeedTrack:
    """Calibration samples taken before every op and once after the last.

    Op i runs between samples i and i + 1; its scale comes from their mean,
    so a burst of host load that overlaps the op is likely to show in it.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.seconds.append(loop_seconds())

    def scales(self) -> list[float]:
        s = self.seconds
        return [2 * REF_S / (s[i] + s[i + 1]) for i in range(len(s) - 1)]
