"""Plan keys and version-keyed cache behaviour."""

import pytest

from repro.errors import ServeError
from repro.serve.cache import (
    VersionedCache,
    plan_key,
    stored_table_names,
)


@pytest.fixture
def stored_pair(ctx, catalog, transcript, courses):
    return (
        catalog.store(transcript, "transcript"),
        catalog.store(courses, "courses"),
    )


class TestPlanKey:
    def test_stored_sources_key_by_catalog_name(self, stored_pair):
        from repro.plan.logical import DivideNode, StoredSourceNode

        dividend, divisor = stored_pair
        a = DivideNode(StoredSourceNode(dividend), StoredSourceNode(divisor))
        b = DivideNode(StoredSourceNode(dividend), StoredSourceNode(divisor))
        assert plan_key(a) == plan_key(b)  # distinct objects, same key
        assert "transcript" in plan_key(a) and "courses" in plan_key(a)

    def test_restriction_flag_distinguishes_keys(self, stored_pair):
        from repro.plan.logical import DivideNode, StoredSourceNode

        dividend, divisor = stored_pair
        plain = DivideNode(StoredSourceNode(dividend), StoredSourceNode(divisor))
        restricted = DivideNode(
            StoredSourceNode(dividend),
            StoredSourceNode(divisor),
            divisor_restricted=True,
        )
        assert plan_key(plain) != plan_key(restricted)

    def test_stored_table_names_sorted_and_deduplicated(self, stored_pair):
        from repro.plan.logical import DivideNode, StoredSourceNode

        dividend, divisor = stored_pair
        node = DivideNode(StoredSourceNode(dividend), StoredSourceNode(divisor))
        assert stored_table_names(node) == ("courses", "transcript")

    def test_in_memory_sources_key_by_identity(self, transcript, courses):
        from repro.plan.logical import SourceNode

        a = SourceNode(transcript)
        b = SourceNode(transcript)
        assert plan_key(a) == plan_key(a)
        # Identity-derived keys are never falsely shared across
        # distinct ad-hoc relations.
        assert plan_key(a) != plan_key(SourceNode(courses))
        assert stored_table_names(b) == ()

    def test_filter_project_distinct_key_their_arguments(self, stored_pair):
        from repro.plan.logical import (
            DistinctNode,
            FilterNode,
            ProjectNode,
            StoredSourceNode,
        )
        from repro.relalg.predicates import AttributeEquals

        dividend, _ = stored_pair
        source = StoredSourceNode(dividend)

        def filtered(value):
            return FilterNode(source, AttributeEquals("course_no", value))

        assert plan_key(filtered(10)) == plan_key(filtered(10))
        assert plan_key(filtered(10)) != plan_key(filtered(11))
        projections = {
            plan_key(ProjectNode(source, names))
            for names in [("student_id",), ("course_no",)]
        }
        assert len(projections) == 2
        distinct = DistinctNode(ProjectNode(source, ("student_id",)))
        assert plan_key(distinct) != plan_key(distinct.child)
        assert "transcript" in plan_key(distinct)

    def test_unkeyable_node_rejected(self):
        from repro.plan.logical import LogicalNode

        with pytest.raises(ServeError, match="unkeyable"):
            plan_key(LogicalNode())


class TestVersionedCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServeError):
            VersionedCache("plan", capacity=0)

    def test_hit_requires_exact_versions(self):
        cache = VersionedCache("result")
        versions = (("r", 1), ("s", 1))
        cache.put("k", versions, "payload")
        assert cache.get("k", versions) == "payload"
        assert cache.stats.hits == 1

    def test_version_mismatch_invalidates_and_misses(self):
        cache = VersionedCache("result")
        cache.put("k", (("r", 1),), "old")
        assert cache.get("k", (("r", 2),)) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert len(cache) == 0  # monotonic versions: entry is dead forever

    def test_lru_eviction_order(self):
        cache = VersionedCache("result", capacity=2)
        v = (("r", 1),)
        cache.put("a", v, 1)
        cache.put("b", v, 2)
        assert cache.get("a", v) == 1  # refresh a
        cache.put("c", v, 3)  # evicts b (least recently used)
        assert cache.get("b", v) is None
        assert cache.get("a", v) == 1
        assert cache.get("c", v) == 3
        assert cache.stats.evictions == 1

    def test_clear_drops_entries_but_keeps_stats(self):
        cache = VersionedCache("plan")
        cache.put("k", (("r", 1),), "x")
        cache.get("k", (("r", 1),))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_hit_ratio(self):
        cache = VersionedCache("plan")
        assert cache.stats.hit_ratio == 0.0
        cache.put("k", (("r", 1),), "x")
        cache.get("k", (("r", 1),))
        cache.get("other", (("r", 1),))
        assert cache.stats.hit_ratio == 0.5
