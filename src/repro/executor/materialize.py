"""Scan of a spooled temp heap file.

Partitioned division (Section 3.4) spools each partition to a heap file
on the 8 KB ``temp`` device and feeds every phase from it through
:class:`TempFileScan`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.executor.iterator import ExecContext, QueryIterator
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row
from repro.storage.heapfile import HeapFile


class TempFileScan(QueryIterator):
    """Scan an existing temp heap file, optionally destroying it after.

    The partitioned-division driver writes partition files itself and
    uses this operator to feed each phase.
    """

    def __init__(
        self,
        ctx: ExecContext,
        file: HeapFile,
        schema: Schema,
        destroy_on_close: bool = False,
    ) -> None:
        super().__init__(ctx, schema)
        self.file = file
        self.destroy_on_close = destroy_on_close
        self._codec = schema.codec()
        self._rows: Iterator[Row] | None = None

    def _open(self) -> None:
        self._rows = self.file.scan_rows(self._codec)

    def _next(self) -> Optional[Row]:
        assert self._rows is not None
        return next(self._rows, None)

    def _close(self) -> None:
        self._rows = None
        if self.destroy_on_close:
            self.file.destroy()

    def describe(self) -> str:
        return f"TempFileScan({self.file.name})"
