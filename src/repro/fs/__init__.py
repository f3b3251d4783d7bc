"""Shared file-system abstractions: paths, URIs, errors, the Hadoop-style
API, and the scheme registry resolving URIs to pluggable backends."""

from .errors import (
    DirectoryNotEmptyError,
    FileSystemError,
    InvalidPathError,
    InvalidRangeError,
    IsADirectoryError,
    LeaseConflictError,
    NoSuchPathError,
    NotADirectoryError,
    PathExistsError,
    StreamClosedError,
    UnsupportedOperationError,
)
from .interface import (
    BlockLocation,
    FileStatus,
    FileSystem,
    InputStream,
    OutputStream,
    copy_path,
)
from .local import LocalFS
from .registry import (
    UnknownSchemeError,
    clear_instance_cache,
    copy_uri,
    get_filesystem,
    is_registered,
    open_fs,
    register_scheme,
    registered_schemes,
    unregister_scheme,
)
from .uri import FsUri
from . import path
from . import uri

__all__ = [
    "path",
    "uri",
    "FsUri",
    "FileSystem",
    "LocalFS",
    "InputStream",
    "OutputStream",
    "BlockLocation",
    "FileStatus",
    "copy_path",
    "copy_uri",
    "register_scheme",
    "unregister_scheme",
    "registered_schemes",
    "is_registered",
    "get_filesystem",
    "open_fs",
    "clear_instance_cache",
    "UnknownSchemeError",
    "FileSystemError",
    "InvalidPathError",
    "InvalidRangeError",
    "NoSuchPathError",
    "PathExistsError",
    "NotADirectoryError",
    "IsADirectoryError",
    "DirectoryNotEmptyError",
    "LeaseConflictError",
    "StreamClosedError",
    "UnsupportedOperationError",
]
