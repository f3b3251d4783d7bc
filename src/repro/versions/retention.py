"""Retention policy: which published versions must survive garbage collection.

The policy composes two rules, either of which retains a version:

* **keep-last-N** — the newest ``keep_last`` published versions (the latest
  published version is always retained, even with ``keep_last=1``);
* **pinned** — versions held by a live :class:`~repro.versions.PinRegistry`
  lease (supplied by the caller, not the policy).

Version 0, the implicit empty snapshot every blob starts from, is always
retained: it owns no pages, and the version manager relies on it as the
base of the history.  A policy with ``keep_last=None`` retains
everything — the seed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["RetentionPolicy"]


@dataclass(frozen=True)
class RetentionPolicy:
    """Declarative retention rules evaluated per blob by the GC."""

    keep_last: int | None = None

    def __post_init__(self) -> None:
        if self.keep_last is not None and self.keep_last < 1:
            raise ValueError("keep_last must be None or >= 1")

    @property
    def retains_everything(self) -> bool:
        """True when no rule ever lets a version die (GC has nothing to do)."""
        return self.keep_last is None

    def retained(
        self, published: Iterable[int], *, pinned: Iterable[int] = ()
    ) -> set[int]:
        """Versions of ``published`` that must survive this GC cycle.

        ``published`` are the live published versions of one blob;
        ``pinned`` the versions currently leased.
        """
        versions = sorted(set(published))
        if not versions or self.keep_last is None:
            return set(versions)
        keep: set[int] = {0} & set(versions)
        keep.update(set(pinned) & set(versions))
        keep.add(versions[-1])
        # Version 0 does not consume a keep-last slot: it has no pages.
        real = [v for v in versions if v > 0]
        keep.update(real[-self.keep_last :])
        return keep

    def dead(
        self, published: Iterable[int], *, pinned: Iterable[int] = ()
    ) -> set[int]:
        """Complement of :meth:`retained` over ``published``."""
        versions = set(published)
        return versions - self.retained(versions, pinned=pinned)

    def describe(self) -> dict:
        return {
            "keep_last": self.keep_last,
            "retains_everything": self.retains_everything,
        }
