"""Merge semi-join over sorted inputs.

"Merge join consists of a merging scan of both inputs ... For
semi-joins in which the outer relation produces the result, no linked
lists are used." (Section 5.1.)  The sort-based aggregation strategy
with a join needs only the semi-join.  Its inputs must already be
sorted on the join attributes -- composing with
:class:`~repro.executor.sort.ExternalSort` is the planner's job.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.iterator import QueryIterator, open_all
from repro.relalg.tuples import Row, projector


class MergeSemiJoin(QueryIterator):
    """Semi-join of key-sorted inputs: outer tuples with >=1 inner match.

    The outer relation produces the result, so no inner group is
    buffered -- only the current inner key is tracked.
    """

    def __init__(
        self,
        outer: QueryIterator,
        inner: QueryIterator,
        join_names: Sequence[str],
    ) -> None:
        if outer.ctx is not inner.ctx:
            raise ExecutionError("join inputs must share one execution context")
        super().__init__(outer.ctx, outer.schema)
        self.join_names = tuple(join_names)
        self.outer = outer
        self.inner = inner
        self._outer_key = projector(outer.schema, self.join_names)
        self._inner_key = projector(inner.schema, self.join_names)
        self._current_inner: tuple | None = None
        self._inner_done = False

    def _open(self) -> None:
        # A failed inner open or first inner next() must not leave the
        # outer open: a spilled ExternalSort outer would leak its runs.
        open_all((self.outer, self.inner))
        self._current_inner = None
        self._inner_done = False
        try:
            self._advance_inner()
        except BaseException:
            self._close()
            raise

    def _advance_inner(self) -> None:
        row = self.inner.next()
        if row is None:
            self._inner_done = True
            self._current_inner = None
        else:
            self._current_inner = self._inner_key(row)

    def _next(self) -> Optional[Row]:
        cpu = self.ctx.cpu
        while True:
            outer_row = self.outer.next()
            if outer_row is None:
                return None
            key = self._outer_key(outer_row)
            while not self._inner_done:
                cpu.comparisons += 1
                assert self._current_inner is not None
                if self._current_inner < key:
                    self._advance_inner()
                    continue
                break
            if self._inner_done:
                return None
            cpu.comparisons += 1
            if self._current_inner == key:
                return outer_row

    def _close(self) -> None:
        self.outer.close()
        self.inner.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.outer, self.inner)

    def describe(self) -> str:
        return f"MergeSemiJoin(on={','.join(self.join_names)})"
