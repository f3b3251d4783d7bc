"""Unit tests for the page model (`repro.core.pages`)."""

from __future__ import annotations

import pytest

from repro.core.pages import (
    PageDescriptor,
    PageKey,
    PageRange,
    overlay,
    page_range_for_bytes,
    split_into_pages,
)


class TestPageKey:
    def test_round_trip_through_bytes(self):
        key = PageKey(blob_id=7, version=3, index=42)
        assert PageKey.from_bytes(key.to_bytes()) == key

    def test_keys_are_hashable_and_comparable(self):
        a = PageKey(1, 1, 0)
        b = PageKey(1, 1, 0)
        c = PageKey(1, 2, 0)
        assert a == b
        assert a != c
        assert len({a, b, c}) == 2

    def test_to_bytes_is_distinct_per_field(self):
        keys = {
            PageKey(1, 2, 3).to_bytes(),
            PageKey(1, 2, 4).to_bytes(),
            PageKey(1, 3, 3).to_bytes(),
            PageKey(2, 2, 3).to_bytes(),
        }
        assert len(keys) == 4


class TestPageDescriptor:
    def test_properties(self):
        descriptor = PageDescriptor(PageKey(1, 1, 5), providers=(2, 4), size=100)
        assert descriptor.index == 5
        assert descriptor.replication == 2

    def test_rejects_empty_provider_list(self):
        with pytest.raises(ValueError):
            PageDescriptor(PageKey(1, 1, 0), providers=(), size=10)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            PageDescriptor(PageKey(1, 1, 0), providers=(1,), size=-1)

    def test_extent_end_and_cover(self):
        inner = PageDescriptor(PageKey(1, 1, 0), (1,), size=10, offset=20)
        outer = PageDescriptor(PageKey(1, 2, 0), (1,), size=40)
        assert (inner.end, outer.end) == (30, 40)
        assert outer.covers(inner) and not inner.covers(outer)
        with pytest.raises(ValueError):
            PageDescriptor(PageKey(1, 1, 0), (1,), size=1, offset=-1)


def extent(version: int, offset: int, size: int) -> PageDescriptor:
    return PageDescriptor(PageKey(1, version, 0), (0,), size=size, offset=offset)


class TestOverlay:
    def test_whole_page_extent_is_one_segment(self):
        full = extent(1, 0, 100)
        assert overlay((full,), 10, 90) == [(10, 90, full)]

    def test_later_extents_win_and_gaps_read_as_zeros(self):
        a, b, c = extent(1, 0, 50), extent(2, 30, 40), extent(3, 80, 10)
        assert overlay((a, b, c), 0, 100) == [
            (0, 30, a),
            (30, 70, b),
            (70, 80, None),
            (80, 90, c),
            (90, 100, None),
        ]

    def test_an_extent_inside_another_splits_it(self):
        a, b = extent(1, 0, 100), extent(2, 40, 20)
        assert overlay((a, b), 0, 100) == [(0, 40, a), (40, 60, b), (60, 100, a)]
        assert overlay((b, a), 0, 100) == [(0, 100, a)]

    def test_extents_outside_the_window_are_skipped(self):
        a, b = extent(1, 0, 10), extent(2, 10, 10)
        assert overlay((a, b), 12, 15) == [(12, 15, b)]
        assert overlay((), 0, 5) == [(0, 5, None)]


class TestPageRange:
    def test_len_iter_contains(self):
        rng = PageRange(2, 6)
        assert len(rng) == 4
        assert list(rng) == [2, 3, 4, 5]
        assert 3 in rng
        assert 6 not in rng
        assert "3" not in rng

    def test_empty_range(self):
        rng = PageRange(5, 5)
        assert len(rng) == 0
        assert list(rng) == []

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PageRange(5, 4)
        with pytest.raises(ValueError):
            PageRange(-1, 0)


class TestPageRangeForBytes:
    @pytest.mark.parametrize(
        ("offset", "size", "page_size", "expected"),
        [
            (0, 1, 100, (0, 1)),
            (0, 100, 100, (0, 1)),
            (0, 101, 100, (0, 2)),
            (99, 2, 100, (0, 2)),
            (100, 100, 100, (1, 2)),
            (250, 500, 100, (2, 8)),
            (0, 0, 100, (0, 0)),
            (500, 0, 100, (5, 5)),
        ],
    )
    def test_expected_ranges(self, offset, size, page_size, expected):
        rng = page_range_for_bytes(offset, size, page_size)
        assert (rng.first, rng.last) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            page_range_for_bytes(-1, 10, 100)
        with pytest.raises(ValueError):
            page_range_for_bytes(0, -1, 100)
        with pytest.raises(ValueError):
            page_range_for_bytes(0, 1, 0)


class TestSplitIntoPages:
    def test_exact_multiple(self):
        pages = split_into_pages(b"a" * 300, 100)
        assert [len(p) for p in pages] == [100, 100, 100]

    def test_partial_last_page(self):
        pages = split_into_pages(b"a" * 250, 100)
        assert [len(p) for p in pages] == [100, 100, 50]

    def test_empty_data(self):
        assert split_into_pages(b"", 100) == []

    def test_content_preserved(self):
        data = bytes(range(256)) * 4
        pages = split_into_pages(data, 100)
        assert b"".join(pages) == data

    def test_rejects_non_positive_page_size(self):
        with pytest.raises(ValueError):
            split_into_pages(b"abc", 0)
