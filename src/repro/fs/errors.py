"""Exception hierarchy shared by the file-system layers (BSFS and HDFS)."""

from __future__ import annotations

__all__ = [
    "FileSystemError",
    "InvalidPathError",
    "NoSuchPathError",
    "PathExistsError",
    "NotADirectoryError",
    "IsADirectoryError",
    "DirectoryNotEmptyError",
    "LeaseConflictError",
    "InvalidRangeError",
    "StreamClosedError",
    "UnsupportedOperationError",
]


class FileSystemError(Exception):
    """Base class for every error raised by a file-system implementation."""


class InvalidPathError(FileSystemError):
    """Raised for malformed paths (relative, empty, containing ``..``)."""

    def __init__(self, path: object, reason: str) -> None:
        super().__init__(f"invalid path {path!r}: {reason}")
        self.path = path
        self.reason = reason


class NoSuchPathError(FileSystemError):
    """Raised when a path does not exist."""

    def __init__(self, path: str) -> None:
        super().__init__(f"path {path!r} does not exist")
        self.path = path


class PathExistsError(FileSystemError):
    """Raised when creating a path that already exists (without overwrite)."""

    def __init__(self, path: str) -> None:
        super().__init__(f"path {path!r} already exists")
        self.path = path


class NotADirectoryError(FileSystemError):  # noqa: A001 - mirrors the builtin name
    """Raised when a directory operation hits a regular file."""

    def __init__(self, path: str) -> None:
        super().__init__(f"path {path!r} is not a directory")
        self.path = path


class IsADirectoryError(FileSystemError):  # noqa: A001 - mirrors the builtin name
    """Raised when a file operation hits a directory."""

    def __init__(self, path: str) -> None:
        super().__init__(f"path {path!r} is a directory")
        self.path = path


class DirectoryNotEmptyError(FileSystemError):
    """Raised when removing a non-empty directory without ``recursive=True``."""

    def __init__(self, path: str) -> None:
        super().__init__(f"directory {path!r} is not empty")
        self.path = path


class LeaseConflictError(FileSystemError):
    """Raised when a second writer tries to open a file already being written.

    Both HDFS and BSFS follow the single-writer model for a given file: the
    namespace hands out a write lease per path.
    """

    def __init__(self, path: str, holder: str | None = None) -> None:
        message = f"path {path!r} is already opened for writing"
        if holder:
            message += f" by {holder!r}"
        super().__init__(message)
        self.path = path
        self.holder = holder


class InvalidRangeError(FileSystemError):
    """Raised when a byte range addresses data beyond a file's extent.

    Carries the offending path, offset (and negative length, when that is
    the problem) plus the file's size, so locality code and its callers get
    an actionable message instead of a bare ``ValueError`` surfacing from
    deep inside block-layout math.
    """

    def __init__(
        self, path: str, offset: int, size: int, *, length: int | None = None
    ) -> None:
        if length is not None and length < 0:
            message = (
                f"negative length {length} for file {path!r} "
                f"(offset {offset}, size {size})"
            )
        else:
            message = f"offset {offset} is outside file {path!r} (size {size})"
        super().__init__(message)
        self.path = path
        self.offset = offset
        self.size = size
        self.length = length


class StreamClosedError(FileSystemError):
    """Raised when reading from or writing to a closed stream."""


class UnsupportedOperationError(FileSystemError):
    """Raised for operations a file system does not support.

    The paper stresses that HDFS "does not support concurrent writes to the
    same file; moreover, once a file is created, written and closed, the
    data cannot be overwritten or appended to" — those restrictions surface
    through this exception in the HDFS baseline, while BSFS supports them.
    """
