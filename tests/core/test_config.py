"""Unit tests for `repro.core.config`."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import GB, KB, MB, BlobSeerConfig


class TestSizeConstants:
    def test_units(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB


class TestBlobSeerConfig:
    def test_defaults_are_valid(self):
        config = BlobSeerConfig()
        assert config.page_size == 64 * KB
        assert config.replication == 1
        assert config.num_providers >= config.replication

    @pytest.mark.parametrize(
        "overrides",
        [
            {"page_size": 0},
            {"page_size": -5},
            {"replication": 0},
            {"num_providers": 0},
            {"num_metadata_providers": 0},
            {"replication": 10, "num_providers": 5},
            {"transfer_workers": 0},
            {"max_versions_kept": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, overrides):
        with pytest.raises(ValueError):
            BlobSeerConfig(**overrides)

    def test_replace_builds_a_validated_copy(self):
        config = BlobSeerConfig()
        other = replace(config, page_size=KB)
        assert other.page_size == KB
        assert config.page_size == 64 * KB
        with pytest.raises(ValueError):
            replace(config, replication=config.num_providers + 1)

    def test_config_is_hashable_and_frozen(self):
        config = BlobSeerConfig()
        with pytest.raises(Exception):
            config.page_size = 1  # type: ignore[misc]
        assert hash(config) == hash(BlobSeerConfig())
