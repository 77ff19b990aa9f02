"""Tests for the storage configuration (the paper's Section 5.1 setup)."""

import pytest

from repro.errors import StorageError
from repro.storage.config import KIB, StorageConfig


class TestDefaults:
    def test_defaults_are_the_papers_setup(self):
        config = StorageConfig()
        assert config.page_size == 8 * KIB
        assert config.sort_run_page_size == 1 * KIB
        assert config.buffer_size == 256 * KIB
        assert config.sort_buffer_size == 100 * KIB
        assert config.memory_limit == 4 * config.buffer_size

    def test_sort_fan_in_is_run_pages_in_the_sort_buffer(self):
        assert StorageConfig().sort_fan_in == 100
        tiny = StorageConfig(
            page_size=1024,
            sort_run_page_size=1024,
            buffer_size=1024,
            memory_limit=1024,
            sort_buffer_size=1024,
        )
        assert tiny.sort_fan_in == 2  # a merge needs at least two inputs

    def test_sort_run_capacity(self):
        config = StorageConfig()
        assert config.sort_run_capacity_records(16) == 100 * KIB // 16
        assert config.sort_run_capacity_records(200 * KIB) == 1
        with pytest.raises(StorageError):
            config.sort_run_capacity_records(0)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"page_size": 0},
            {"sort_run_page_size": 0},
            {"buffer_size": 4 * KIB},
            {"memory_limit": 128 * KIB},
            {"sort_buffer_size": 0},
        ],
        ids=[
            "page_size",
            "sort_run_page_size",
            "buffer_below_one_page",
            "limit_below_buffer",
            "sort_buffer",
        ],
    )
    def test_inconsistent_sizes_rejected(self, overrides):
        with pytest.raises(StorageError):
            StorageConfig(**overrides)
