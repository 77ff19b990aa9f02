"""Source operators: file scans and in-memory relation sources.

:class:`StoredRelationScan` is the metered path -- it reads pages
through the buffer pool, so cold scans incur sequential read I/O
exactly as the paper's file scans did.  :class:`RelationSource` feeds
an in-memory :class:`~repro.relalg.relation.Relation` into a plan with
no I/O at all; it models an input arriving from an upstream operator in
a dataflow system, and is what lets unit tests exercise operators
without a storage setup.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.executor.iterator import ExecContext, QueryIterator
from repro.relalg.relation import Relation
from repro.relalg.tuples import Row
from repro.storage.catalog import StoredRelation


class StoredRelationScan(QueryIterator):
    """Sequential scan of a stored relation (heap file + codec).

    Each page is fixed once, in physical order, and decoded whole;
    buffer misses become sequential read transfers on the backing
    device.  :meth:`next_batch` hands out the rest of the current page,
    or the next page with records; :meth:`next` hands out its rows one
    at a time.  Either reads a page only once every row before it has
    been handed out.
    """

    def __init__(self, ctx: ExecContext, stored: StoredRelation) -> None:
        super().__init__(ctx, stored.schema)
        self.stored = stored
        self._pages: Iterator[list[Row]] | None = None
        #: The current page's rows, and how many were handed out.
        self._page: list[Row] = []
        self._taken = 0

    def _open(self) -> None:
        self._pages = self.stored.file.scan_pages(self.stored.codec)
        self._page = []
        self._taken = 0

    def _next(self) -> Optional[Row]:
        if self._taken == len(self._page):
            self._page = self._next_batch()
            if not self._page:
                return None
        row = self._page[self._taken]
        self._taken += 1
        return row

    def _next_batch(self) -> list[Row]:
        assert self._pages is not None
        page, taken = self._page, self._taken
        self._page, self._taken = [], 0
        if taken < len(page):
            return page[taken:]
        for page in self._pages:
            if page:
                return page
        return []

    def _close(self) -> None:
        self._pages = None
        self._page = []

    def describe(self) -> str:
        return f"StoredRelationScan({self.stored.name})"


class RelationSource(QueryIterator):
    """Feed an in-memory relation into a plan (no I/O charged)."""

    def __init__(self, ctx: ExecContext, relation: Relation) -> None:
        super().__init__(ctx, relation.schema)
        self.relation = relation
        self._rows: Iterator[Row] | None = None

    def _open(self) -> None:
        self._rows = iter(self.relation)

    def _next(self) -> Optional[Row]:
        assert self._rows is not None
        return next(self._rows, None)

    def _close(self) -> None:
        self._rows = None

    def describe(self) -> str:
        label = self.relation.name or "anonymous"
        return f"RelationSource({label}, {len(self.relation)} tuples)"
