"""String-schema pipelines: the Figure 2 shapes through every spilling
operator.

Most executor tests use all-integer schemas (the paper's experimental
records); these make sure the codec-backed paths -- sort runs and
partition spooling -- survive fixed-width string
attributes, which the Figure 2 relations actually use.
"""

from repro.core.hash_division import HashDivision
from repro.core.partitioned import quotient_partitioned_division
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.config import StorageConfig

NAMES = ("ann", "barb", "carl", "dora", "eli", "fran", "gus", "hana")
COURSES = ("algebra", "biology", "chem")

ENROLLMENT_SCHEMA = Schema(
    (
        Attribute("student", DataType.STRING, 8),
        Attribute("course", DataType.STRING, 12),
    )
)
COURSE_SCHEMA = Schema((Attribute("course", DataType.STRING, 12),))


def spilled_ctx():
    record = ENROLLMENT_SCHEMA.record_size
    return ExecContext(
        config=StorageConfig(
            page_size=8192,
            sort_run_page_size=1024,
            buffer_size=64 * 1024,
            memory_limit=256 * 1024,
            sort_buffer_size=4 * record,  # tiny: force runs
        )
    )


def enrollment(complete: int):
    rows = []
    for index, student in enumerate(NAMES):
        courses = COURSES if index < complete else COURSES[:-1]
        rows.extend((student, course) for course in courses)
    return Relation(ENROLLMENT_SCHEMA, rows, name="enrollment")


class TestStringSort:
    def test_external_sort_spills_strings(self):
        ctx = spilled_ctx()
        relation = enrollment(complete=8)
        plan = ExternalSort(
            RelationSource(ctx, relation), ["student", "course"]
        )
        result = run_to_relation(plan)
        assert result.rows == sorted(relation.rows)
        assert ctx.io_stats.counters("runs").writes >= 0  # ran through codec

    def test_distinct_on_strings(self):
        ctx = spilled_ctx()
        relation = Relation(
            ENROLLMENT_SCHEMA,
            [("ann", "algebra")] * 5 + [("barb", "biology")] * 3,
        )
        plan = ExternalSort(
            RelationSource(ctx, relation), ["student", "course"], distinct=True
        )
        assert run_to_relation(plan).rows == [
            ("ann", "algebra"),
            ("barb", "biology"),
        ]


class TestStringMaterializeAndPartition:
    def test_partitioned_division_with_string_keys(self, ctx):
        dividend = enrollment(complete=3)
        divisor = Relation(COURSE_SCHEMA, [(c,) for c in COURSES])
        result = quotient_partitioned_division(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), 3
        )
        assert sorted(result.rows) == sorted((n,) for n in NAMES[:3])

    def test_hash_division_with_string_keys(self, ctx):
        dividend = enrollment(complete=5)
        divisor = Relation(COURSE_SCHEMA, [(c,) for c in COURSES])
        plan = HashDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        result = run_to_relation(plan)
        assert sorted(result.rows) == sorted((n,) for n in NAMES[:5])
