"""Unit tests for the retention policy (repro.versions.retention)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.versions import RetentionPolicy


class TestValidation:
    def test_keep_last_must_be_positive(self):
        with pytest.raises(ValueError):
            RetentionPolicy(keep_last=0)

    def test_default_retains_everything(self):
        policy = RetentionPolicy()
        assert policy.retains_everything
        assert policy.retained([0, 1, 2, 3]) == {0, 1, 2, 3}
        assert policy.dead([0, 1, 2, 3]) == set()


class TestKeepLast:
    def test_keeps_newest_n_real_versions(self):
        policy = RetentionPolicy(keep_last=2)
        assert policy.retained([0, 1, 2, 3, 4, 5]) == {0, 4, 5}
        assert policy.dead([0, 1, 2, 3, 4, 5]) == {1, 2, 3}

    def test_version_zero_never_consumes_a_slot(self):
        policy = RetentionPolicy(keep_last=1)
        assert policy.retained([0, 1, 2]) == {0, 2}

    def test_latest_always_survives(self):
        policy = RetentionPolicy(keep_last=1)
        assert 7 in policy.retained([0, 3, 7])

    def test_pinned_versions_survive_outside_the_window(self):
        policy = RetentionPolicy(keep_last=1)
        retained = policy.retained([0, 1, 2, 3, 4], pinned=[2])
        assert retained == {0, 2, 4}

    def test_pins_on_unpublished_versions_are_ignored(self):
        policy = RetentionPolicy(keep_last=1)
        assert policy.retained([0, 1, 2], pinned=[99]) == {0, 2}


class TestComposition:
    def test_empty_published_set(self):
        assert RetentionPolicy(keep_last=1).retained([]) == set()

    def test_describe(self):
        assert RetentionPolicy(keep_last=3).describe() == {
            "keep_last": 3,
            "retains_everything": False,
        }


published_sets = st.sets(st.integers(min_value=0, max_value=40), max_size=20)


class TestProperties:
    @given(
        published=published_sets,
        pinned=st.sets(st.integers(min_value=0, max_value=50), max_size=5),
        keep_last=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    @settings(max_examples=100, deadline=None)
    def test_retained_and_dead_partition_the_published_set(
        self, published, pinned, keep_last
    ):
        policy = RetentionPolicy(keep_last=keep_last)
        retained = policy.retained(published, pinned=pinned)
        dead = policy.dead(published, pinned=pinned)
        assert retained | dead == published
        assert not retained & dead

    @given(
        published=published_sets,
        pinned=st.sets(st.integers(min_value=0, max_value=50), max_size=5),
        keep_last=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_latest_and_pinned_versions_always_survive(
        self, published, pinned, keep_last
    ):
        retained = RetentionPolicy(keep_last=keep_last).retained(
            published, pinned=pinned
        )
        assert (pinned | {0}) & published <= retained
        if published:
            assert max(published) in retained

    @given(published=published_sets, keep_last=st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_unpinned_keep_last_keeps_exactly_the_newest_real_versions(
        self, published, keep_last
    ):
        retained = RetentionPolicy(keep_last=keep_last).retained(published)
        real = sorted(v for v in published if v > 0)
        assert retained == set(real[-keep_last:]) | ({0} & published)
