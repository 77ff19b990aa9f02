"""Hash-table overflow handling: partitioned hash-division (Section 3.4).

When divisor table plus quotient table exceed available memory, "the
input data must be partitioned into disjoint subsets called clusters
that can be processed in multiple phases".  Two strategies:

* **Quotient partitioning** -- partition the dividend on the *quotient*
  attributes.  Every cluster is divided by the *entire* divisor (whose
  table therefore stays in memory across all phases), and the quotient
  is simply the concatenation of the per-cluster quotients.

* **Divisor partitioning** -- partition both inputs on the *divisor*
  attributes with the same hash function.  Each phase divides one
  dividend cluster by one divisor cluster; a quotient tuple must
  survive *every* phase, so the per-phase quotients are tagged with
  their phase number and a final *collection phase* divides the union
  of all tagged clusters by the set of phase numbers -- "this problem
  is exactly the division problem again", and this implementation
  indeed reuses :class:`~repro.core.hash_division.HashDivision` for it.

:func:`hash_division_with_overflow` is the adaptive driver: it attempts
single-phase hash-division and, on
:class:`~repro.errors.HashTableOverflowError`, retries with a doubling
number of partitions.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import HashTableOverflowError, PartitioningError
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.materialize import TempFileScan
from repro.executor.scan import RelationSource
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, Schema
from repro.relalg.tuples import projector
from repro.storage.heapfile import HeapFile

#: Name of the synthetic column carrying the phase number in the
#: collection phase's dividend.
PHASE_COLUMN = "__phase__"


def _destroy_files(files: Sequence[HeapFile]) -> None:
    """Best-effort destruction of partition temp files on a failure path.

    :meth:`~repro.storage.heapfile.HeapFile.destroy` is idempotent, so
    files already consumed (and destroyed) by a ``TempFileScan`` are
    skipped harmlessly; files whose phases never ran are reclaimed.
    Destruction never raises -- cleanup must not mask the original
    error -- which is why the phase drivers call this from ``except``
    blocks before re-raising.
    """
    for file in files:
        file.destroy()


def _spool_partitions(
    source: QueryIterator,
    key_names: Sequence[str],
    partitions: int,
    ctx: ExecContext,
) -> tuple[list[HeapFile], Schema]:
    """Hash-partition a stream into ``partitions`` temp files.

    Each tuple is hashed on ``key_names`` (one ``Hash`` charged) and
    appended to its cluster file; the files live on the 8 KB temp
    device and are destroyed by the consumer.
    """
    schema = source.schema
    codec = schema.codec()
    key_of = projector(schema, key_names)
    files = [ctx.temp_file("temp") for _ in range(partitions)]
    cpu = ctx.cpu
    try:
        source.open()
        try:
            for row in source:
                cpu.hashes += 1
                files[hash(key_of(row)) % partitions].append(codec.encode(row))
        finally:
            source.close()
    except BaseException:
        # A failed spool (e.g. a temp-device fault mid-write) must not
        # leak the partition files it already allocated.
        _destroy_files(files)
        raise
    return files, schema


def quotient_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    partitions: int,
    name: str = "quotient",
    hybrid: bool = False,
) -> Relation:
    """Multi-phase hash-division with quotient partitioning.

    The dividend is hash-partitioned on the quotient attributes; each
    cluster is divided by the entire divisor.  Because the clusters are
    disjoint in their quotient values, the final quotient is the
    concatenation of the per-phase quotients -- no collection phase.

    With ``hybrid=True``, "the first cluster is kept in main memory
    while the other clusters are spooled to temporary files ... in a
    way similar to hybrid hash-join" (§3.4): cluster 0 never touches
    the temp device, saving one write+read round trip for its share of
    the dividend.
    """
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    ctx = dividend.ctx
    quotient_names, _divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    # The divisor table must survive all phases, so the divisor is
    # drained once and replayed per phase from memory.
    divisor.open()
    try:
        divisor_relation = Relation(divisor.schema, list(divisor), name="divisor")
    finally:
        divisor.close()
    result = Relation(dividend.schema.project(quotient_names), name=name)
    if hybrid:
        resident, files, schema = _spool_partitions_hybrid(
            dividend, quotient_names, partitions, ctx
        )
        phase_inputs: list[QueryIterator] = [
            RelationSource(ctx, Relation(schema, resident, name="cluster-0"))
        ]
        phase_inputs.extend(
            TempFileScan(ctx, file, schema, destroy_on_close=True) for file in files
        )
    else:
        files, schema = _spool_partitions(dividend, quotient_names, partitions, ctx)
        phase_inputs = [
            TempFileScan(ctx, file, schema, destroy_on_close=True) for file in files
        ]
    try:
        for phase_input in phase_inputs:
            phase_op = HashDivision(
                phase_input,
                RelationSource(ctx, divisor_relation),
                expected_divisor=len(divisor_relation),
            )
            result.extend(run_to_relation(phase_op))
    except BaseException:
        # A failed phase (overflow, injected disk fault, ...) closes
        # *its own* TempFileScan -- destroying that file -- but the
        # clusters queued behind it would otherwise leak temp pages.
        _destroy_files(files)
        raise
    return result


def _spool_partitions_hybrid(
    source: QueryIterator,
    key_names: Sequence[str],
    partitions: int,
    ctx: ExecContext,
) -> tuple[list[tuple], list[HeapFile], Schema]:
    """Like :func:`_spool_partitions`, but cluster 0 stays in memory.

    Returns ``(resident_rows, spooled_files, schema)`` where the files
    cover clusters 1..partitions-1.
    """
    schema = source.schema
    codec = schema.codec()
    key_of = projector(schema, key_names)
    resident: list[tuple] = []
    files = [ctx.temp_file("temp") for _ in range(max(0, partitions - 1))]
    cpu = ctx.cpu
    try:
        source.open()
        try:
            for row in source:
                cpu.hashes += 1
                cluster = hash(key_of(row)) % partitions
                if cluster == 0:
                    resident.append(row)
                else:
                    files[cluster - 1].append(codec.encode(row))
        finally:
            source.close()
    except BaseException:
        _destroy_files(files)
        raise
    return resident, files, schema


def divisor_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    partitions: int,
    name: str = "quotient",
) -> Relation:
    """Multi-phase hash-division with divisor partitioning.

    Both inputs are hash-partitioned on the divisor attributes with the
    same function.  Empty divisor clusters are dropped together with
    their dividend clusters: a dividend tuple routed to an empty
    divisor cluster matches no divisor tuple and would be discarded by
    step 2 anyway.  Each phase's quotient is tagged with the phase
    number, and the collection phase divides the tagged union by the
    set of phase numbers (division, again).
    """
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    ctx = dividend.ctx
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    divisor.open()
    try:
        divisor_rows = list(divisor)
    finally:
        divisor.close()
    if not divisor_rows:
        # Vacuous division: delegate to single-phase hash-division,
        # which resolves an empty divisor to "every candidate".
        empty = RelationSource(ctx, Relation(divisor.schema, (), name="divisor"))
        return run_to_relation(HashDivision(dividend, empty), name=name)

    cpu = ctx.cpu
    divisor_clusters: list[list[tuple]] = [[] for _ in range(partitions)]
    for row in divisor_rows:
        cpu.hashes += 1
        divisor_clusters[hash(tuple(row)) % partitions].append(row)
    files, schema = _spool_partitions(dividend, divisor_names, partitions, ctx)

    # Phase numbering skips empty divisor clusters (see docstring).
    quotient_schema = dividend.schema.project(quotient_names)
    tagged_schema = Schema(tuple(quotient_schema) + (Attribute(PHASE_COLUMN),))
    tagged = Relation(tagged_schema, name="tagged-quotients")
    phase_count = 0
    try:
        for cluster_index in range(partitions):
            cluster_file = files[cluster_index]
            cluster_divisor = divisor_clusters[cluster_index]
            if not cluster_divisor:
                cluster_file.destroy()
                continue
            phase_op = HashDivision(
                TempFileScan(ctx, cluster_file, schema, destroy_on_close=True),
                RelationSource(
                    ctx,
                    Relation(divisor.schema, cluster_divisor, name="divisor-cluster"),
                ),
                expected_divisor=len(cluster_divisor),
            )
            phase_quotient = run_to_relation(phase_op)
            for row in phase_quotient:
                tagged.append(row + (phase_count,))
            phase_count += 1
    except BaseException:
        # Reclaim the clusters whose phases never ran (destroy is
        # idempotent for the ones already consumed).
        _destroy_files(files)
        raise

    # Collection phase: divide the tagged union by the phase numbers.
    phases = Relation.of_ints((PHASE_COLUMN,), [(i,) for i in range(phase_count)])
    collection = HashDivision(
        RelationSource(ctx, tagged),
        RelationSource(ctx, phases),
        expected_divisor=phase_count,
    )
    return run_to_relation(collection, name=name)


def combined_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    quotient_partitions: int,
    divisor_partitions: int,
    name: str = "quotient",
) -> Relation:
    """Both partitioning strategies together (§3.4's final question).

    "What happens if neither one of these partitioning strategies work
    because both divisor and quotient are too large?  In this case it
    will be necessary to resort to combinations of the techniques."

    The dividend is first hash-partitioned on the *quotient*
    attributes; each quotient cluster is then divided with *divisor
    partitioning* (its own phases plus collection).  A phase therefore
    holds only ``1/divisor_partitions`` of the divisor table and about
    ``1/quotient_partitions`` of the quotient candidates -- both tables
    shrink.  The outer clusters are disjoint in their quotient values,
    so the final result is their concatenation.
    """
    if quotient_partitions <= 0 or divisor_partitions <= 0:
        raise PartitioningError("partition counts must be positive")
    ctx = dividend.ctx
    quotient_names, _divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    divisor.open()
    try:
        divisor_relation = Relation(divisor.schema, list(divisor), name="divisor")
    finally:
        divisor.close()
    files, schema = _spool_partitions(
        dividend, quotient_names, quotient_partitions, ctx
    )
    result = Relation(dividend.schema.project(quotient_names), name=name)
    try:
        for file in files:
            cluster_quotient = divisor_partitioned_division(
                TempFileScan(ctx, file, schema, destroy_on_close=True),
                RelationSource(ctx, divisor_relation),
                divisor_partitions,
            )
            result.extend(cluster_quotient)
    except BaseException:
        _destroy_files(files)
        raise
    return result


def hash_division_with_overflow(
    make_dividend: Callable[[], QueryIterator],
    make_divisor: Callable[[], QueryIterator],
    strategy: str = "quotient",
    max_partitions: int = 256,
    name: str = "quotient",
) -> Relation:
    """Adaptive hash-division that survives hash-table overflow.

    Attempts single-phase hash-division first; when the memory pool
    overflows, retries with 2, 4, 8, ... partitions of the requested
    strategy until it fits or ``max_partitions`` is exceeded.

    Args:
        make_dividend: Factory producing a *fresh* dividend iterator
            per attempt (a failed attempt consumes its input).
        make_divisor: Factory producing a fresh divisor iterator.
        strategy: ``"quotient"`` or ``"divisor"`` partitioning.
    """
    if strategy not in ("quotient", "divisor"):
        raise PartitioningError(f"unknown partitioning strategy {strategy!r}")
    partitioner = (
        quotient_partitioned_division
        if strategy == "quotient"
        else divisor_partitioned_division
    )
    dividend = make_dividend()
    tracer = dividend.ctx.tracer
    try:
        return run_to_relation(HashDivision(dividend, make_divisor()), name=name)
    except HashTableOverflowError:
        pass
    partitions = 2
    while partitions <= max_partitions:
        if tracer.enabled:
            # One retry per doubling; the gauge keeps the last fan-out
            # attempted, i.e. the one that succeeded (or the ceiling).
            tracer.count("repro_division_overflow_retries_total", strategy=strategy)
            tracer.gauge(
                "repro_division_partition_fanout", partitions, strategy=strategy
            )
        try:
            return partitioner(make_dividend(), make_divisor(), partitions, name=name)
        except HashTableOverflowError:
            partitions *= 2
    raise HashTableOverflowError(
        f"hash-division still overflows with {max_partitions} partitions; "
        "increase the memory budget or max_partitions"
    )
