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
from repro.storage.page import SlottedPage, max_record_size
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


# -- page-at-a-time appends vs one insert per record -----------------------

page_sizes = st.one_of(
    st.sampled_from([1024, 8192]),
    st.integers(min_value=8, max_value=700).map(lambda n: 2 * n + 1),
)


def reference_pages(records, page_size):
    """Page images built with one ``SlottedPage.insert`` per record."""
    pages = []
    for record in records:
        if not pages or not SlottedPage(pages[-1]).fits(len(record)):
            pages.append(bytearray(page_size))
            SlottedPage.format(pages[-1])
        SlottedPage(pages[-1]).insert(record)
    return pages


@given(page_size=page_sizes, data=st.data())
@settings(max_examples=80, deadline=None)
def test_append_many_lays_out_pages_like_single_inserts(page_size, data):
    largest = min(max_record_size(page_size), 300)
    sizes = data.draw(st.lists(st.integers(0, largest), max_size=120), label="sizes")
    records = [bytes([i % 251]) * size for i, size in enumerate(sizes)]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
    config = StorageConfig(
        page_size=page_size,
        sort_run_page_size=page_size,
        buffer_size=2 * page_size,
        memory_limit=4 * page_size,
        sort_buffer_size=page_size,
    )
    pool = BufferPool(config)
    disk = pool.register_device(SimulatedDisk("d", page_size, IoStatistics()))
    file = HeapFile(pool, disk, extent_pages=3)
    # Several batches: each one refills the previous batch's tail page.
    for start, end in zip([0] + cuts, cuts + [len(records)]):
        assert file.append_many(records[start:end]) == end - start
    assert file.record_count == len(records)
    assert pool.fixed_page_count() == 0

    expected = reference_pages(records, page_size)
    scanned = list(file.scan())
    assert len(scanned) == len(expected)
    for (page_no, slot_count, region), image in zip(scanned, expected):
        view = pool.fix("d", page_no)
        assert bytes(view) == bytes(image)
        pool.unfix("d", page_no)
        count, packed = SlottedPage(image).packed_records()
        assert (slot_count, region) == (count, bytes(packed))
    assert b"".join(region for _, _, region in scanned) == b"".join(records)


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
        self.model: list = []
        self.counter = 0

    @rule()
    def append(self):
        payload = bytes([self.counter % 251]) * (8 + self.counter % 24)
        rid = self.file.append(payload)
        assert rid not in dict(self.model)
        self.model.append((rid, payload))
        self.counter += 1

    @rule()
    def flush(self):
        self.pool.flush_device("d")

    @rule()
    def drop_cache(self):
        self.pool.drop_device_pages("d")

    @invariant()
    def scan_matches_model(self):
        # Each page holds its records back to back in slot order.
        pages: dict = {}
        for rid, payload in self.model:
            pages.setdefault(rid.page_no, []).append((rid.slot, payload))
        expected = [
            (page_no, len(slots), b"".join(payload for _, payload in sorted(slots)))
            for page_no, slots in sorted(pages.items())
        ]
        assert list(self.file.scan()) == expected
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
