"""``find`` and ``tree`` read a tree one level per ring submission; the walks
they replaced, one direct ``scandir`` per directory, are kept here as the
reference model.

The contract is parity: over random trees (files, directories, symlinks to
files, to directories and dangling, a mounted ``MemFs``, a ``0o000``
directory met by a non-root shell, names holding glob metacharacters) and
random ``find``/``tree`` command lines, the level walker prints what the
reference prints, or raises a :class:`ShellError` with the same text; and
it leaves no ring entry, completion or descriptor behind for the next batch.
"""

from __future__ import annotations

import fnmatch
import re
import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shell import Shell, ShellError
from repro.vfs import Credentials, MemFs, Syscalls
from repro.vfs.errors import FsError
from repro.vfs.stat import FileType
from repro.vfs.vfs import VirtualFileSystem

_TYPES = {"f": FileType.REGULAR, "d": FileType.DIRECTORY, "l": FileType.SYMLINK}


class PerDirectoryShell(Shell):
    """The reference: one direct ``scandir`` per directory, in BFS order for
    ``find`` and depth-first for ``tree``.  A file operand is reported and
    not scanned, as GNU find does."""

    def cmd_find(self, args: list[str]) -> str:
        path = args[0]
        name_glob = None
        type_filter = None
        exec_grep = None
        index = 1
        while index < len(args):
            arg = args[index]
            if arg == "-name":
                name_glob = args[index + 1]
                index += 2
            elif arg == "-type":
                type_filter = args[index + 1]
                index += 2
            else:
                assert arg == "-exec" and args[index + 1] == "grep"
                exec_grep = args[index + 2]
                index += 3
                while index < len(args) and args[index] in ("{}", ";", "\\;"):
                    index += 1
        results = []
        for found_path, ftype in self._find_walk(path):
            base = found_path.rstrip("/").rsplit("/", 1)[-1]
            if name_glob is not None and not fnmatch.fnmatch(base, name_glob):
                continue
            if type_filter is not None and ftype is not _TYPES[type_filter]:
                continue
            if exec_grep is not None:
                if ftype is not FileType.REGULAR:
                    continue
                try:
                    content = self.sc.read_text(found_path)
                except (FsError, UnicodeDecodeError):
                    continue
                regex = re.compile(exec_grep)
                for line in content.splitlines():
                    if regex.search(line):
                        results.append(f"{found_path}:{line}")
            else:
                results.append(found_path)
        return "\n".join(results)

    def _find_walk(self, path: str):
        ftype = self.sc.stat(path).ftype
        yield path, ftype
        if ftype is not FileType.DIRECTORY:
            return
        queue = [path]
        while queue:
            dirpath = queue.pop(0)
            entries = self.sc.scandir(dirpath)
            subdirs = []
            for name, stat in entries:
                if stat.ftype is FileType.DIRECTORY:
                    child = f"{dirpath.rstrip('/')}/{name}"
                    subdirs.append(child)
                    yield child, FileType.DIRECTORY
            for name, stat in entries:
                if stat.ftype is not FileType.DIRECTORY:
                    yield f"{dirpath.rstrip('/')}/{name}", stat.ftype
            queue.extend(subdirs)

    def cmd_tree(self, args: list[str]) -> str:
        depth_limit = None
        paths = []
        index = 0
        while index < len(args):
            if args[index] == "-L":
                depth_limit = int(args[index + 1])
                index += 2
            else:
                paths.append(args[index])
                index += 1
        path = paths[0] if paths else self.sc.getcwd()
        lines = [path]
        self._tree_walk(path, "", lines, depth_limit, 1)
        return "\n".join(lines)

    def _tree_walk(self, path: str, prefix: str, lines: list[str], depth_limit: int | None, depth: int) -> None:
        if depth_limit is not None and depth > depth_limit:
            return
        try:
            entries = sorted(self.sc.scandir(path), key=lambda e: e[0])
        except FsError:
            return
        for position, (name, stat) in enumerate(entries):
            last = position == len(entries) - 1
            connector = "└── " if last else "├── "
            child = f"{path.rstrip('/')}/{name}"
            label = name
            if stat.is_symlink:
                label += f" -> {self.sc.readlink(child)}"
            lines.append(prefix + connector + label)
            if stat.is_dir:
                extension = "    " if last else "│   "
                self._tree_walk(child, prefix + extension, lines, depth_limit, depth + 1)


def _outcome(shell: Shell, command: str) -> str:
    try:
        return shell.run(command)
    except ShellError as exc:
        return f"ShellError: {exc}"


def _quiet(sc: Syscalls) -> bool:
    """A batch opened on the context's ring next runs and completes only its own entry."""
    batch = sc.ring.batch()
    batch.prep("stat", "/", user_data="own")
    return [(cqe.op, cqe.ok, cqe.user_data) for cqe in batch.submit()] == [("stat", True, "own")]


# -- random trees -------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "data", "x.txt", "y.txt", "a*", "q?", "[c]", "[!d]", "e f"])
_CONTENT = st.sampled_from([b"port 22\n", b"none\nport 2222\n", b"", b"\xff\xfe\n"])
_TREES = st.recursive(_CONTENT, lambda children: st.dictionaries(_NAMES, children, max_size=4), max_leaves=16)


def _build(sc: Syscalls, path: str, spec: dict, dirs: list[str], files: list[str]) -> None:
    sc.mkdir(path)
    dirs.append(path)
    for name, child in spec.items():
        child_path = f"{path}/{name}"
        if isinstance(child, dict):
            _build(sc, child_path, child, dirs, files)
        else:
            sc.write_bytes(child_path, child)
            files.append(child_path)


@st.composite
def _scenes(draw):
    """A populated VFS, the shell that looks at it, and its command lines."""
    vfs = VirtualFileSystem()
    admin = Syscalls(vfs)
    dirs: list[str] = []
    files: list[str] = []
    _build(admin, "/data", draw(st.dictionaries(_NAMES, _TREES, max_size=5)), dirs, files)
    if draw(st.booleans()):
        admin.mkdir("/data/mnt")
        admin.mount("/data/mnt", MemFs())
        admin.mkdir("/data/mnt/sub")
        admin.write_bytes("/data/mnt/sub/m.txt", b"port 22\n")
        dirs += ["/data/mnt", "/data/mnt/sub"]
        files.append("/data/mnt/sub/m.txt")
    links = []
    for number, (where, kind, pick) in enumerate(
        draw(st.lists(st.tuples(st.integers(0, 99), st.sampled_from(["file", "dir", "dangling"]), st.integers(0, 99)), max_size=3))
    ):
        targets = {"file": files, "dir": dirs, "dangling": ["/nowhere/at/all"]}[kind] or dirs
        link = f"{dirs[where % len(dirs)]}/l{number}"
        admin.symlink(targets[pick % len(targets)], link)
        links.append(link)
    as_user = draw(st.booleans())
    if as_user and draw(st.booleans()):
        admin.chmod(draw(st.sampled_from(dirs)), 0o000)
    sc = Syscalls(vfs, cred=Credentials(uid=500, gid=500)) if as_user else admin
    operands = st.one_of(
        st.just("/data"),
        st.just("/data/"),
        st.sampled_from(dirs),
        st.sampled_from(dirs).map(lambda d: d + "/"),
        st.sampled_from(files or dirs),
        st.sampled_from(links or dirs),
    )
    globs = st.sampled_from(["*", "*.txt", "a*", "[ab]*", "data", "[c]", "a\\*", "*[!x]", "q?", "l*"])
    finds = operands.flatmap(
        lambda operand: st.tuples(
            st.just(operand),
            # the operand's own name too: -name tests it on its basename
            st.none() | globs | st.just(operand.rstrip("/").rsplit("/", 1)[-1]),
            st.none() | st.sampled_from(sorted(_TYPES)),
            st.none() | st.sampled_from(["22", "^$", "none", "."]),
        )
    ).map(_find_line)
    trees = st.tuples(operands, st.none() | st.integers(1, 4)).map(
        lambda t: shlex.join(["tree", t[0]] + ([] if t[1] is None else ["-L", str(t[1])]))
    )
    return sc, draw(st.lists(finds | trees, min_size=1, max_size=4))


def _find_line(parts: tuple) -> str:
    operand, name_glob, type_filter, pattern = parts
    words = ["find", operand]
    if name_glob is not None:
        words += ["-name", name_glob]
    if type_filter is not None:
        words += ["-type", type_filter]
    if pattern is not None:
        words += ["-exec", "grep", pattern, "{}", ";"]
    return shlex.join(words)


@settings(max_examples=80, deadline=None)
@given(scene=_scenes())
def test_the_level_walker_prints_what_the_per_directory_walk_prints(scene):
    sc, commands = scene
    walker, reference = Shell(sc), PerDirectoryShell(sc)
    for command in commands:
        expected = _outcome(reference, command)
        fds = dict(sc._fds)
        assert _outcome(walker, command) == expected, command
        assert _quiet(sc) and sc._fds == fds, command


def test_a_level_wider_than_the_ring_crosses_once_per_ring_full():
    sc = Syscalls(VirtualFileSystem())
    sc.mkdir("/wide")
    width = 1100  # wider than the context's 1,024-entry ring
    for index in range(width):
        sc.mkdir(f"/wide/d{index}")
        sc.mkdir(f"/wide/d{index}/inner")
        sc.write_text(f"/wide/d{index}/inner/f", "port 22\n")
    sc.ring  # one io_uring_setup, before counting
    levels = [1, width, width]  # directories per level: /wide, its d*, their inner
    submits = sum(-(-dirs // 1024) for dirs in levels)
    for command, crossings in (
        # the operand's stat; the leaves' 1,100 open-read-close chains, 341 to a ring-full
        ("find /wide -name f -exec grep 22 {} ;", 1 + submits + -(-width // (1024 // 3))),
        ("find /wide -type d", 1 + submits),
        ("tree /wide", submits),
        ("tree /wide -L 2", 1 + 2),
    ):
        expected = PerDirectoryShell(sc).run(command)
        before = sc.meter.syscalls
        assert Shell(sc).run(command) == expected, command
        assert sc.meter.syscalls - before == crossings, command
        assert _quiet(sc), command
