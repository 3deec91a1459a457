"""Unit tests for benchmark configuration."""

import pytest

from repro.benchmark.config import DEFAULT, TINY, BenchmarkConfig
from repro.errors import ConfigError


def test_defaults_are_valid():
    assert DEFAULT.total_clones() == DEFAULT.clones_per_interval * len(DEFAULT.intervals)
    assert TINY.total_clones() < DEFAULT.total_clones()


def test_interval_labels_match_paper_style():
    config = BenchmarkConfig(intervals=(0.5, 1.0, 1.5, 2.0))
    assert config.interval_labels == ("0.5X", "1.0X", "1.5X", "2.0X")


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        BenchmarkConfig(clones_per_interval=0)
    with pytest.raises(ConfigError):
        BenchmarkConfig(intervals=())
    with pytest.raises(ConfigError):
        BenchmarkConfig(intervals=(1.0, 0.5))
    with pytest.raises(ConfigError):
        BenchmarkConfig(queries_per_intake=-1)
    with pytest.raises(ConfigError):
        BenchmarkConfig(buffer_pages=0)


def test_scaled_multiplies_clone_count():
    assert DEFAULT.scaled(2).clones_per_interval == DEFAULT.clones_per_interval * 2
    assert DEFAULT.scaled(0.0001).clones_per_interval == 1


def test_with_overrides():
    config = DEFAULT.with_(seed=7, queries_per_intake=1)
    assert config.seed == 7
    assert config.queries_per_intake == 1
    assert config.clones_per_interval == DEFAULT.clones_per_interval
