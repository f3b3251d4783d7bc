"""Unit tests for the shared namespace tree (`repro.fs.namespace`)."""

from __future__ import annotations

import sys
import threading
from typing import Callable

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.fs import path as fspath
from repro.fs.errors import (
    DirectoryNotEmptyError,
    IsADirectoryError,
    LeaseConflictError,
    NoSuchPathError,
    NotADirectoryError,
    PathExistsError,
)
from repro.fs.namespace import NamespaceTree


@pytest.fixture
def tree() -> NamespaceTree[int]:
    return NamespaceTree()


def create(tree: NamespaceTree[int], path: str, payload: int = 0, **kwargs):
    return tree.create_file(
        path,
        payload_factory=lambda: payload,
        block_size=1024,
        replication=1,
        **kwargs,
    )


class TestDirectories:
    def test_root_exists(self, tree):
        assert tree.exists("/")
        assert tree.is_dir("/")

    def test_mkdirs_creates_ancestors_and_is_idempotent(self, tree):
        tree.mkdirs("/a/b/c")
        assert tree.is_dir("/a")
        assert tree.is_dir("/a/b/c")
        tree.mkdirs("/a/b/c")  # no error

    def test_mkdirs_through_file_rejected(self, tree):
        create(tree, "/a/file")
        with pytest.raises(NotADirectoryError):
            tree.mkdirs("/a/file/sub")

    def test_list_dir_sorted(self, tree):
        create(tree, "/dir/b")
        create(tree, "/dir/a")
        tree.mkdirs("/dir/z")
        names = [path for path, _ in tree.list_dir("/dir")]
        assert names == ["/dir/a", "/dir/b", "/dir/z"]

    def test_list_missing_dir_raises(self, tree):
        with pytest.raises(NoSuchPathError):
            tree.list_dir("/nope")


class TestFiles:
    def test_create_and_get(self, tree):
        create(tree, "/data/file.bin", payload=42)
        entry = tree.get_file("/data/file.bin")
        assert entry.payload == 42
        assert entry.size == 0

    def test_create_existing_without_overwrite_rejected(self, tree):
        create(tree, "/f")
        with pytest.raises(PathExistsError):
            create(tree, "/f")

    def test_overwrite_calls_release_hook(self, tree):
        create(tree, "/f", payload=1)
        released = []
        tree.create_file(
            "/f",
            payload_factory=lambda: 2,
            block_size=1,
            replication=1,
            overwrite=True,
            on_overwrite=lambda entry: released.append(entry.payload),
        )
        assert released == [1]
        assert tree.get_file("/f").payload == 2

    def test_create_over_directory_rejected(self, tree):
        tree.mkdirs("/dir")
        with pytest.raises(IsADirectoryError):
            create(tree, "/dir")
        with pytest.raises(PathExistsError):
            create(tree, "/")

    def test_get_file_on_directory_rejected(self, tree):
        tree.mkdirs("/d")
        with pytest.raises(IsADirectoryError):
            tree.get_file("/d")

    def test_update_file(self, tree):
        create(tree, "/f", payload=1)
        tree.update_file("/f", size=100, payload=9)
        entry = tree.get_file("/f")
        assert entry.size == 100
        assert entry.payload == 9

    def test_create_through_file_raises_not_a_directory(self, tree):
        create(tree, "/a/file")
        with pytest.raises(NotADirectoryError):
            create(tree, "/a/file/sub")

    def test_update_file_size_monotonic(self, tree):
        create(tree, "/size/f")
        assert tree.update_file_size_monotonic("/size/f", 100) == 100
        assert tree.update_file_size_monotonic("/size/f", 50) == 100
        assert tree.get_file("/size/f").size == 100
        tree.update_file(path="/size/f", payload=77)
        assert tree.get_file("/size/f").payload == 77

    def test_walk_and_count(self, tree):
        create(tree, "/a/1")
        create(tree, "/a/b/2")
        create(tree, "/c/3")
        files = [path for path, _ in tree.walk_files()]
        assert sorted(files) == ["/a/1", "/a/b/2", "/c/3"]
        assert tree.count_files() == 3

    def test_walk_files_is_depth_first_and_sorted(self, tree):
        expected = sorted(
            [f"/w/sub-{i % 3}/file-{i}" for i in range(12)] + ["/w/top"],
            key=fspath.components,
        )
        for p in reversed(expected):
            create(tree, p)
        assert [p for p, _ in tree.walk_files("/w")] == expected

    def test_walk_files_survives_a_concurrent_delete(self, tree):
        # The walk is a snapshot: deleting a directory it has not reached
        # yet must not make it fail partway through.
        create(tree, "/a/f1")
        create(tree, "/b/c/f2")
        create(tree, "/b/f3")
        walk = tree.walk_files("/")
        first = next(walk)
        tree.delete("/b", recursive=True)
        rest = [p for p, _ in walk]
        assert [first[0], *rest] == ["/a/f1", "/b/c/f2", "/b/f3"]
        assert tree.count_files() == 1

    def test_walk_missing_dir_raises(self, tree):
        with pytest.raises(NoSuchPathError):
            list(tree.walk_files("/nope"))

    def test_concurrent_creates_converge(self, tree):
        tree.mkdirs("/load")
        errors: list[Exception] = []

        def writer(worker: int):
            try:
                for i in range(25):
                    create(tree, f"/load/w{worker}-f{i}", payload=worker)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert tree.count_files() == 8 * 25


class TestDelete:
    def test_delete_file_invokes_hook(self, tree):
        create(tree, "/f", payload=7)
        deleted = []
        tree.delete("/f", on_delete_file=lambda path, entry: deleted.append((path, entry.payload)))
        assert deleted == [("/f", 7)]
        assert not tree.exists("/f")

    def test_delete_missing_raises(self, tree):
        with pytest.raises(NoSuchPathError):
            tree.delete("/missing")

    def test_delete_non_empty_dir_requires_recursive(self, tree):
        create(tree, "/d/f")
        with pytest.raises(DirectoryNotEmptyError):
            tree.delete("/d")
        deleted = []
        tree.delete("/d", recursive=True, on_delete_file=lambda p, e: deleted.append(p))
        assert deleted == ["/d/f"]
        assert not tree.exists("/d")

    def test_delete_root_rejected(self, tree):
        with pytest.raises(DirectoryNotEmptyError):
            tree.delete("/")

    def test_delete_leased_file_rejected(self, tree):
        create(tree, "/locked", lease_holder="writer-1")
        with pytest.raises(LeaseConflictError):
            tree.delete("/locked")

    def test_recursive_delete_with_leased_file_leaves_tree_intact(self, tree):
        create(tree, "/keep/a")
        create(tree, "/keep/sub/b")
        create(tree, "/keep/z")
        tree.acquire_lease("/keep/sub/b", "writer-1")
        with pytest.raises(LeaseConflictError):
            tree.delete("/keep", recursive=True)
        assert [p for p, _ in tree.walk_files("/keep")] == [
            "/keep/a",
            "/keep/sub/b",
            "/keep/z",
        ]


class TestRename:
    def test_rename_file(self, tree):
        create(tree, "/src", payload=5)
        tree.rename("/src", "/dst/inner")
        assert not tree.exists("/src")
        assert tree.get_file("/dst/inner").payload == 5

    def test_rename_file_creates_destination_parents(self, tree):
        create(tree, "/from/f", payload=3)
        tree.rename("/from/f", "/to/deep/f")
        assert tree.get_file("/to/deep/f").payload == 3
        assert tree.is_dir("/to/deep")

    def test_rename_directory_moves_subtree(self, tree):
        create(tree, "/old/a")
        create(tree, "/old/sub/b")
        tree.rename("/old", "/new")
        assert tree.exists("/new/a")
        assert tree.exists("/new/sub/b")
        assert not tree.exists("/old")

    def test_rename_to_existing_rejected(self, tree):
        create(tree, "/a")
        create(tree, "/b")
        with pytest.raises(PathExistsError):
            tree.rename("/a", "/b")

    def test_rename_under_itself_rejected(self, tree):
        tree.mkdirs("/a")
        with pytest.raises(PathExistsError):
            tree.rename("/a", "/a/b")

    def test_rename_missing_source(self, tree):
        with pytest.raises(NoSuchPathError):
            tree.rename("/ghost", "/dst")


class TestLeases:
    def test_lease_lifecycle(self, tree):
        create(tree, "/f")
        tree.acquire_lease("/f", "client-a")
        assert tree.lease_holder("/f") == "client-a"
        with pytest.raises(LeaseConflictError):
            tree.acquire_lease("/f", "client-b")
        # Re-acquiring by the same holder is fine.
        tree.acquire_lease("/f", "client-a")
        tree.release_lease("/f", "client-a")
        assert tree.lease_holder("/f") is None
        tree.acquire_lease("/f", "client-b")

    def test_release_by_non_holder_is_noop(self, tree):
        create(tree, "/f", lease_holder="owner")
        tree.release_lease("/f", "somebody-else")
        assert tree.lease_holder("/f") == "owner"


# -- error contract -------------------------------------------------------------------

#: Every public operation that resolves an existing path, as ``op(tree, path)``.
RESOLVING_OPS = {
    "get_file": lambda t, p: t.get_file(p),
    "get_entry": lambda t, p: t.get_entry(p),
    "list_dir": lambda t, p: t.list_dir(p),
    "walk_files": lambda t, p: list(t.walk_files(p)),
    "delete": lambda t, p: t.delete(p),
    "acquire_lease": lambda t, p: t.acquire_lease(p, "w"),
    "release_lease": lambda t, p: t.release_lease(p, "w"),
    "lease_holder": lambda t, p: t.lease_holder(p),
    "update_file": lambda t, p: t.update_file(p, size=1),
    "update_file_size_monotonic": lambda t, p: t.update_file_size_monotonic(p, 1),
}

#: The subset that only accepts regular files.
FILE_ONLY_OPS = [
    "get_file",
    "acquire_lease",
    "release_lease",
    "lease_holder",
    "update_file",
    "update_file_size_monotonic",
]


class TestErrorContract:
    @pytest.mark.parametrize("op", sorted(RESOLVING_OPS))
    def test_missing_path_raises_no_such_path(self, tree, op):
        tree.mkdirs("/d")
        with pytest.raises(NoSuchPathError):
            RESOLVING_OPS[op](tree, "/d/missing")

    @pytest.mark.parametrize("op", FILE_ONLY_OPS)
    def test_file_op_on_directory_raises_is_a_directory(self, tree, op):
        tree.mkdirs("/d")
        with pytest.raises(IsADirectoryError):
            RESOLVING_OPS[op](tree, "/d")

    @pytest.mark.parametrize("op", ["get_file", "get_entry", "list_dir", "delete"])
    def test_path_through_a_file_raises_not_a_directory(self, tree, op):
        create(tree, "/f")
        with pytest.raises(NotADirectoryError):
            RESOLVING_OPS[op](tree, "/f/child")

    def test_list_dir_of_file_raises_not_a_directory(self, tree):
        create(tree, "/f")
        with pytest.raises(NotADirectoryError):
            tree.list_dir("/f")

    def test_queries_through_a_file_are_false(self, tree):
        create(tree, "/f")
        assert not tree.exists("/f/child")
        assert not tree.is_dir("/f/child")
        assert not tree.is_dir("/f")


class TestCreateSideEffects:
    def test_create_makes_missing_parents(self, tree):
        create(tree, "/a/b/c/file")
        assert tree.is_dir("/a") and tree.is_dir("/a/b") and tree.is_dir("/a/b/c")
        assert [p for p, _ in tree.list_dir("/a/b/c")] == ["/a/b/c/file"]

    @pytest.mark.parametrize(
        "setup, error",
        [
            (lambda t: create(t, "/x"), PathExistsError),
            (lambda t: t.mkdirs("/x"), IsADirectoryError),
            (lambda t: create(t, "/x", lease_holder="w"), LeaseConflictError),
        ],
        ids=["existing-file", "existing-dir", "leased-overwrite"],
    )
    def test_rejected_create_never_builds_a_payload(self, tree, setup, error):
        setup(tree)
        built, released = [], []

        def factory() -> int:
            built.append(1)
            return 99

        with pytest.raises(error):
            tree.create_file(
                "/x",
                payload_factory=factory,
                block_size=1,
                replication=1,
                overwrite=error is not PathExistsError,
                on_overwrite=released.append,
            )
        assert built == [] and released == []

    def test_delete_empty_directory_without_recursive(self, tree):
        tree.mkdirs("/empty")
        tree.delete("/empty")
        assert not tree.exists("/empty")


class TestRenameSideEffects:
    def test_rename_root_rejected(self, tree):
        with pytest.raises(NoSuchPathError):
            tree.rename("/", "/elsewhere")

    def test_rename_keeps_entry_and_updates_its_name(self, tree):
        create(tree, "/src/f", payload=4, lease_holder="w")
        before = tree.get_file("/src/f")
        tree.rename("/src/f", "/dst/g")
        after = tree.get_file("/dst/g")
        assert after is before
        assert after.name == "g"
        assert (after.payload, after.lease_holder) == (4, "w")


# -- model-based check ----------------------------------------------------------------


class FlatNamespace:
    """Reference model: a flat ``path -> entry`` dict with no tree structure.

    Directories map to ``None``; files map to ``[payload, size, lease]``.
    The model re-derives every rule of :class:`NamespaceTree` from path
    prefixes alone, so a tree bug (a stale child link, a lost subtree, a
    wrong error) shows up as a divergence.
    """

    def __init__(self) -> None:
        self.entries: dict[str, list | None] = {fspath.ROOT: None}

    @staticmethod
    def prefixes(path: str) -> list[str]:
        parts = fspath.components(path)
        return ["/" + "/".join(parts[: i + 1]) for i in range(len(parts))]

    def is_file(self, path: str) -> bool:
        return self.entries.get(path) is not None

    def resolve(self, path: str) -> str:
        node = fspath.ROOT
        for prefix in self.prefixes(path):
            if self.is_file(node):
                raise NotADirectoryError(path)
            if prefix not in self.entries:
                raise NoSuchPathError(path)
            node = prefix
        return node

    def resolve_file(self, path: str) -> list:
        node = self.resolve(path)
        if not self.is_file(node):
            raise IsADirectoryError(path)
        return self.entries[node]

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except (NoSuchPathError, NotADirectoryError):
            return False

    def subtree(self, path: str) -> list[str]:
        return [p for p in self.entries if p == path or p.startswith(path + "/")]

    def mkdirs(self, path: str) -> None:
        for prefix in self.prefixes(path):
            self.entries.setdefault(prefix, None)
            if self.is_file(prefix):
                raise NotADirectoryError(path)

    def create(self, path: str, payload: int) -> None:
        norm = fspath.normalize(path)
        if norm == fspath.ROOT:
            raise PathExistsError(norm)
        self.mkdirs(fspath.parent(norm))
        if norm in self.entries:
            raise PathExistsError(norm) if self.is_file(norm) else IsADirectoryError(norm)
        self.entries[norm] = [payload, 0, None]

    def delete(self, path: str, recursive: bool) -> None:
        norm = fspath.normalize(path)
        if norm == fspath.ROOT:
            raise DirectoryNotEmptyError(norm)
        if self.is_file(self.resolve(fspath.parent(norm))):
            raise NotADirectoryError(norm)
        if norm not in self.entries:
            raise NoSuchPathError(norm)
        doomed = self.subtree(norm)
        if len(doomed) > 1 and not recursive:
            raise DirectoryNotEmptyError(norm)
        if any(self.is_file(p) and self.entries[p][2] is not None for p in doomed):
            raise LeaseConflictError(norm, "holder")
        for p in doomed:
            del self.entries[p]

    def rename(self, src: str, dst: str) -> None:
        if src == fspath.ROOT:
            raise NoSuchPathError(src)
        if fspath.is_ancestor(src, dst):
            raise PathExistsError(dst)
        if self.is_file(self.resolve(fspath.parent(src))):
            raise NotADirectoryError(src)
        if src not in self.entries:
            raise NoSuchPathError(src)
        if self.exists(dst):
            raise PathExistsError(dst)
        self.mkdirs(fspath.parent(dst))
        for p in self.subtree(src):
            self.entries[dst + p[len(src):]] = self.entries.pop(p)

    def acquire_lease(self, path: str, holder: str) -> None:
        entry = self.resolve_file(path)
        if entry[2] is not None and entry[2] != holder:
            raise LeaseConflictError(path, entry[2])
        entry[2] = holder

    def release_lease(self, path: str, holder: str) -> None:
        entry = self.resolve_file(path)
        if entry[2] == holder:
            entry[2] = None

    def grow(self, path: str, size: int) -> None:
        entry = self.resolve_file(path)
        entry[1] = max(entry[1], size)

    def snapshot(self) -> tuple:
        files = {p: (e[1], e[0], e[2]) for p, e in self.entries.items() if e is not None}
        dirs = sorted(p for p, e in self.entries.items() if e is None and p != fspath.ROOT)
        return files, dirs


def tree_snapshot(tree: NamespaceTree[int]) -> tuple:
    files = {p: (e.size, e.payload, e.lease_holder) for p, e in tree.walk_files("/")}
    dirs: list[str] = []

    def walk_dirs(base: str) -> None:
        for child_path, entry in tree.list_dir(base):
            if entry.is_dir:
                dirs.append(child_path)
                walk_dirs(child_path)

    walk_dirs("/")
    return files, sorted(dirs)


def outcome(action: Callable[[], object]) -> str | None:
    """Run ``action``; return the name of the error it raised, if any."""
    try:
        action()
        return None
    except Exception as exc:
        return type(exc).__name__


# A handful of overlapping paths, so random sequences often hit the same
# entries, their ancestors and their descendants.
paths = st.sampled_from(["/a", "/b", "/a/a", "/a/b", "/b/a", "/a/a/b"])
holders = st.sampled_from(["w1", "w2"])
#: Paths of earlier creates, so lease and size rules mostly hit real files.
created = Bundle("created")


class NamespaceMachine(RuleBasedStateMachine):
    """Drives a :class:`NamespaceTree` and a :class:`FlatNamespace` in step."""

    def __init__(self) -> None:
        super().__init__()
        self.tree: NamespaceTree[int] = NamespaceTree()
        self.model = FlatNamespace()

    def same_outcome(self, on_tree: Callable[[], object], on_model: Callable[[], object]):
        actual, expected = outcome(on_tree), outcome(on_model)
        assert actual == expected, f"tree raised {actual}, model raised {expected}"

    @rule(path=paths)
    def mkdirs(self, path):
        self.same_outcome(lambda: self.tree.mkdirs(path), lambda: self.model.mkdirs(path))

    @rule(target=created, path=paths, payload=st.integers(0, 99))
    def create(self, path, payload):
        self.same_outcome(
            lambda: create(self.tree, path, payload=payload),
            lambda: self.model.create(path, payload),
        )
        return path

    @rule(path=paths, recursive=st.booleans())
    def delete(self, path, recursive):
        self.same_outcome(
            lambda: self.tree.delete(path, recursive=recursive),
            lambda: self.model.delete(path, recursive),
        )

    @rule(src=paths, dst=paths)
    def rename(self, src, dst):
        self.same_outcome(lambda: self.tree.rename(src, dst), lambda: self.model.rename(src, dst))

    @rule(path=created | paths, holder=holders)
    def acquire_lease(self, path, holder):
        self.same_outcome(
            lambda: self.tree.acquire_lease(path, holder),
            lambda: self.model.acquire_lease(path, holder),
        )

    @rule(path=created | paths, holder=holders)
    def release_lease(self, path, holder):
        self.same_outcome(
            lambda: self.tree.release_lease(path, holder),
            lambda: self.model.release_lease(path, holder),
        )

    @rule(path=created | paths, size=st.sampled_from([0, 1, 512, 4096]))
    def grow(self, path, size):
        self.same_outcome(
            lambda: self.tree.update_file_size_monotonic(path, size),
            lambda: self.model.grow(path, size),
        )

    @invariant()
    def same_state(self):
        assert tree_snapshot(self.tree) == self.model.snapshot()


TestTreeMatchesFlatModel = NamespaceMachine.TestCase
TestTreeMatchesFlatModel.settings = settings(
    max_examples=100,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
