"""File types, mode bits, and the ``stat`` result structure."""

from __future__ import annotations

import enum
from typing import NamedTuple

# Permission bit masks (same values as the POSIX constants).
S_IRUSR = 0o400
S_IWUSR = 0o200
S_IXUSR = 0o100
S_IRGRP = 0o040
S_IWGRP = 0o020
S_IXGRP = 0o010
S_IROTH = 0o004
S_IWOTH = 0o002
S_IXOTH = 0o001
S_ISVTX = 0o1000

#: Default creation modes (before umask).
DEFAULT_FILE_MODE = 0o644
DEFAULT_DIR_MODE = 0o755

MAY_READ = 4
MAY_WRITE = 2
MAY_EXEC = 1


class FileType(enum.Enum):
    """The node types the VFS understands."""

    REGULAR = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"

    @property
    def mode_bits(self) -> int:
        """The S_IFMT bits for this type (matches POSIX encodings)."""
        return {
            FileType.REGULAR: 0o100000,
            FileType.DIRECTORY: 0o040000,
            FileType.SYMLINK: 0o120000,
        }[self]


class Stat(NamedTuple):
    """The metadata returned by ``stat()``/``lstat()``.

    A named tuple, as ``os.stat_result`` is a struct sequence: immutable,
    equal and hashable by value, and built without a Python-level
    ``__init__`` (``scandir`` builds one per entry).
    """

    ino: int
    ftype: FileType
    mode: int
    uid: int
    gid: int
    size: int
    nlink: int
    atime: float
    mtime: float
    ctime: float
    dev: int = 0

    @property
    def st_mode(self) -> int:
        """Full POSIX-style mode word (type bits | permission bits)."""
        return self.ftype.mode_bits | self.mode

    @property
    def is_dir(self) -> bool:
        """True for directories."""
        return self.ftype is FileType.DIRECTORY

    @property
    def is_symlink(self) -> bool:
        """True for symbolic links."""
        return self.ftype is FileType.SYMLINK


def format_mode(ftype: FileType, mode: int) -> str:
    """Render mode like ``ls -l`` does (``drwxr-xr-x``)."""
    type_char = {FileType.REGULAR: "-", FileType.DIRECTORY: "d", FileType.SYMLINK: "l"}[ftype]
    out = [type_char]
    for shift in (6, 3, 0):
        bits = mode >> shift & 0o7
        out.append("r" if bits & 4 else "-")
        out.append("w" if bits & 2 else "-")
        out.append("x" if bits & 1 else "-")
    return "".join(out)
