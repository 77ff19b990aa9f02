"""A fixed reference computation that gauges the host's current speed.

On shared machines the speed at which one CPython thread runs drifts:
on the 2-vCPU x86-64 VM this benchmark was written on, the same round
of queries took from 1x to 2x as long within minutes, with process CPU
time equal to wall time.  Real times therefore say as much about the
neighbours as about the program.

A :class:`Gauge` takes a reading between every two timed steps of a
run, and each step's time is scaled by ``REF_SECONDS`` over the mean of
the readings on either side of it.  The reference work imitates the
program's inner loops (pack and unpack fixed-size records in a page
buffer, pull rows through an iterator object, count groups in a dict,
sort) but runs none of its code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import struct
import time
from operator import itemgetter

#: What one reading takes on a quiet host (the VM above, CPython 3.11);
#: scaled times are real times on a host that runs this fast.
REF_SECONDS = 0.040
#: Readings per bracket; their median damps one-off stalls.
READINGS = 3

_RECORD = struct.Struct("<qq")


class _Rows:
    __slots__ = ("_source",)

    def __init__(self, rows) -> None:
        self._source = iter(rows)

    def next(self):
        return next(self._source, None)


def _reference_work() -> int:
    page = bytearray(8192)
    rows: list[tuple[int, int]] = []
    for page_no in range(40):
        for slot in range(500):
            _RECORD.pack_into(page, slot * 16, (slot * 7919 + page_no) % 4001, page_no)
        rows.extend(_RECORD.unpack_from(page, offset) for offset in range(0, 8000, 16))
    counts: dict[tuple[int], int] = {}
    source = _Rows(rows)
    while (row := source.next()) is not None:
        key = (row[0],)
        counts[key] = counts.get(key, 0) + 1
    rows.sort(key=itemgetter(0, 1))
    return len(counts)


def reference_seconds() -> float:
    """Median real seconds of :data:`READINGS` runs of the reference work."""
    readings = []
    for _ in range(READINGS):
        started = time.perf_counter()
        _reference_work()
        readings.append(time.perf_counter() - started)
    return statistics.median(readings)


class Gauge:
    """Reference readings taken between the timed steps of one run."""

    def __init__(self) -> None:
        self.readings = [reference_seconds()]

    def step_scale(self) -> float:
        """Take a reading; the factor that scales the step since the
        previous reading to the reference host speed."""
        self.readings.append(reference_seconds())
        return REF_SECONDS * 2 / (self.readings[-2] + self.readings[-1])
