"""Property-based and stateful tests for the storage layer.

The buffer pool and heap file are where subtle bugs hide (write-back
ordering, eviction under pressure).  These tests drive
them with random operation sequences against plain-Python models.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.stats import IoStatistics


# -- record codec roundtrip ------------------------------------------------

int_values = st.integers(min_value=-(2**62), max_value=2**62)
float_values = st.floats(allow_nan=False, allow_infinity=False, width=64)
short_text = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")), max_size=8
)


@given(st.lists(int_values, min_size=1, max_size=6))
@settings(max_examples=200)
def test_int_codec_roundtrip(values):
    schema = Schema.of_ints(*[f"c{i}" for i in range(len(values))])
    codec = schema.codec()
    encoded = codec.encode(tuple(values))
    assert len(encoded) == schema.record_size
    assert codec.decode(encoded) == tuple(values)


@given(short_text, int_values, float_values)
@settings(max_examples=200)
def test_mixed_codec_roundtrip(text, integer, floating):
    schema = Schema(
        (
            Attribute("t", DataType.STRING, 16),
            Attribute("i"),
            Attribute("f", DataType.FLOAT64),
        )
    )
    codec = schema.codec()
    decoded = codec.decode(codec.encode((text, integer, floating)))
    assert decoded == (text, integer, floating)


# -- heap file vs dict model ---------------------------------------------------


class HeapFileMachine(RuleBasedStateMachine):
    """Random append/scan against a dict model, with a buffer small
    enough to force eviction and re-reads."""

    def __init__(self):
        super().__init__()
        config = StorageConfig(
            page_size=128,
            sort_run_page_size=128,
            buffer_size=2 * 128,
            memory_limit=4 * 128,
            sort_buffer_size=128,
        )
        self.pool = BufferPool(config)
        self.disk = self.pool.register_device(
            SimulatedDisk("d", 128, IoStatistics())
        )
        self.file = HeapFile(self.pool, self.disk, extent_pages=2)
        self.model: dict = {}
        self.counter = 0

    @rule()
    def append(self):
        payload = bytes([self.counter % 251]) * (8 + self.counter % 24)
        rid = self.file.append(payload)
        assert rid not in self.model
        self.model[rid] = payload
        self.counter += 1

    @rule()
    def flush(self):
        self.pool.flush_device("d")

    @rule()
    def drop_cache(self):
        self.pool.drop_device_pages("d")

    @invariant()
    def scan_matches_model(self):
        scanned = dict(self.file.scan())
        assert scanned == self.model
        assert self.file.record_count == len(self.model)


TestHeapFileStateful = HeapFileMachine.TestCase
TestHeapFileStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


# -- buffer pool vs byte-array model ---------------------------------------------


class BufferPoolMachine(RuleBasedStateMachine):
    """Random fix/write/unfix/flush against a byte model.

    The invariant: fixing any previously written page always observes
    the bytes last written to it, regardless of eviction order.
    """

    PAGES = 6

    def __init__(self):
        super().__init__()
        config = StorageConfig(
            page_size=64,
            sort_run_page_size=64,
            buffer_size=2 * 64,
            memory_limit=4 * 64,
            sort_buffer_size=64,
        )
        self.pool = BufferPool(config)
        self.disk = self.pool.register_device(
            SimulatedDisk("d", 64, IoStatistics())
        )
        self.pages = [self.disk.allocate_page() for _ in range(self.PAGES)]
        self.model = {page: bytes(64) for page in self.pages}
        self.fixed: set[int] = set()

    @rule(page_index=st.integers(min_value=0, max_value=PAGES - 1),
          fill=st.integers(min_value=0, max_value=255))
    def write_page(self, page_index, fill):
        page = self.pages[page_index]
        if page in self.fixed:
            return
        view = self.pool.fix("d", page)
        view[:] = bytes([fill]) * 64
        self.pool.unfix("d", page, dirty=True)
        self.model[page] = bytes([fill]) * 64

    @rule(page_index=st.integers(min_value=0, max_value=PAGES - 1))
    def read_page(self, page_index):
        page = self.pages[page_index]
        if page in self.fixed:
            return
        view = self.pool.fix("d", page)
        assert bytes(view) == self.model[page]
        self.pool.unfix("d", page)

    @rule(page_index=st.integers(min_value=0, max_value=PAGES - 1))
    def pin(self, page_index):
        page = self.pages[page_index]
        if page in self.fixed or len(self.fixed) >= 3:
            return
        self.pool.fix("d", page)
        self.fixed.add(page)

    @rule(page_index=st.integers(min_value=0, max_value=PAGES - 1))
    def unpin(self, page_index):
        page = self.pages[page_index]
        if page not in self.fixed:
            return
        self.pool.unfix("d", page)
        self.fixed.discard(page)

    @rule()
    def flush(self):
        self.pool.flush_device("d")

    @invariant()
    def pool_within_limits(self):
        assert self.pool.bytes_in_use <= self.pool.config.memory_limit


TestBufferPoolStateful = BufferPoolMachine.TestCase
TestBufferPoolStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
