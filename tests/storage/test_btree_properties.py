"""Property-based tests for the B+-tree against a dict model."""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import BTreeError
from repro.storage.btree import BPlusTree

keys = st.tuples(st.integers(min_value=-50, max_value=50))


@given(st.lists(st.tuples(keys, st.integers()), unique_by=lambda kv: kv[0]))
@settings(max_examples=150)
def test_insert_then_full_range_sorted(pairs):
    tree = BPlusTree(order=4)
    for key, value in pairs:
        tree.insert(key, value)
    items = list(tree.range())
    assert items == sorted(pairs)
    assert len(tree) == len(pairs)


@given(
    st.dictionaries(keys, st.integers(), max_size=80),
    st.lists(keys, max_size=20),
)
@settings(max_examples=150)
def test_point_range_matches_dict(model, probes):
    tree = BPlusTree(order=4)
    for key, value in model.items():
        tree.insert(key, value)
    for probe in list(model) + probes:
        expected = [model[probe]] if probe in model else []
        assert [v for _, v in tree.range(probe, probe)] == expected


@given(
    st.dictionaries(keys, st.integers(), min_size=1, max_size=80),
    st.data(),
)
@settings(max_examples=100)
def test_range_matches_sorted_slice(model, data):
    tree = BPlusTree(order=4)
    for key, value in model.items():
        tree.insert(key, value)
    low = data.draw(keys)
    high = data.draw(keys)
    expected = sorted(
        (k, v) for k, v in model.items() if low <= k <= high
    )
    assert list(tree.range(low, high)) == expected


class BTreeMachine(RuleBasedStateMachine):
    """Stateful comparison of the tree against a plain dict."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model: dict[tuple, int] = {}

    @rule(key=keys, value=st.integers())
    def insert(self, key, value):
        if key in self.model:
            try:
                self.tree.insert(key, value)
                raise AssertionError("duplicate insert must raise")
            except BTreeError:
                pass
        else:
            self.tree.insert(key, value)
            self.model[key] = value

    @rule(key=keys)
    def point_lookup(self, key):
        expected = [self.model[key]] if key in self.model else []
        assert [v for _, v in self.tree.range(key, key)] == expected

    @invariant()
    def sorted_and_sized(self):
        items = list(self.tree.range())
        assert items == sorted(self.model.items())
        assert len(self.tree) == len(self.model)


TestBTreeStateful = BTreeMachine.TestCase
