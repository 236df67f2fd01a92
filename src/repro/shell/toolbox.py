"""Coreutils over the VFS: the paper's section 5.4 made executable.

    $ ls -l /net/switches
    $ find /net -name match.tp_dst -exec grep 22 {} ;
    $ echo 1 > /net/switches/sw1/ports/port_2/config.port_down

Every command runs through an ordinary :class:`~repro.vfs.Syscalls`
context, so permissions, namespaces, and metering apply exactly as they
would to any other application.
"""

from __future__ import annotations

import fnmatch
import re
import shlex

from repro.vfs.errors import CrossDevice, FsError
from repro.vfs.stat import FileType, format_mode
from repro.vfs.syscalls import O_RDONLY, Syscalls
from repro.vfs.uring import LINK_FD

#: ``find -type`` letters
_FILE_TYPES = {"f": FileType.REGULAR, "d": FileType.DIRECTORY, "l": FileType.SYMLINK}


class ShellError(Exception):
    """A command failed (bad usage or an FsError it chose to surface)."""


class Shell:
    """A tiny non-interactive shell: ``run("ls -l /net/switches")``."""

    def __init__(self, sc: Syscalls) -> None:
        self.sc = sc

    # -- entry point ----------------------------------------------------------------

    def run(self, command_line: str) -> str:
        """Execute one command line; returns its stdout as a string."""
        tokens = shlex.split(command_line)
        if not tokens:
            return ""
        redirect = None
        append = False
        if ">>" in tokens:
            index = tokens.index(">>")
            redirect, append = tokens[index + 1], True
            tokens = tokens[:index]
        elif ">" in tokens:
            index = tokens.index(">")
            redirect = tokens[index + 1]
            tokens = tokens[:index]
        name, args = tokens[0], tokens[1:]
        handler = getattr(self, f"cmd_{name.replace('-', '_')}", None)
        if handler is None:
            raise ShellError(f"unknown command: {name}")
        try:
            output = handler(args)
            if redirect is not None:
                self.sc.write_text(redirect, output, append=append)
                return ""
        except FsError as exc:
            raise ShellError(f"{name}: {exc}") from exc
        return output

    # -- commands ---------------------------------------------------------------------

    def cmd_ls(self, args: list[str]) -> str:
        """ls [-l] [path...]"""
        long_format = "-l" in args
        paths = [a for a in args if not a.startswith("-")] or [self.sc.getcwd()]
        blocks = []
        for path in paths:
            st = self.sc.stat(path)
            if not long_format:
                if st.is_dir:
                    names = self.sc.listdir(path)
                else:
                    names = [path.rstrip("/").rsplit("/", 1)[-1]]
                blocks.append("\n".join(sorted(names)))
                continue
            if st.is_dir:
                entries = self.sc.scandir(path)
            else:
                name = path.rstrip("/").rsplit("/", 1)[-1]
                entries = [(name, self.sc.lstat(path))]
                path = path.rsplit("/", 1)[0] or "/"
            lines = []
            for entry, entry_stat in sorted(entries, key=lambda e: e[0]):
                suffix = ""
                if entry_stat.is_symlink:
                    target = self.sc.readlink(f"{path.rstrip('/')}/{entry}")
                    suffix = f" -> {target}"
                lines.append(
                    f"{format_mode(entry_stat.ftype, entry_stat.mode)} "
                    f"{entry_stat.nlink:>2} {entry_stat.uid:>4} {entry_stat.gid:>4} "
                    f"{entry_stat.size:>8} {entry}{suffix}"
                )
            blocks.append("\n".join(lines))
        return "\n".join(blocks)

    def cmd_cat(self, args: list[str]) -> str:
        """cat file..."""
        if not args:
            raise ShellError("cat: missing operand")
        return "".join(self.sc.read_text(path) for path in args)

    def cmd_echo(self, args: list[str]) -> str:
        """echo words... (combine with > for the paper's config idiom)"""
        return " ".join(args)

    def cmd_grep(self, args: list[str]) -> str:
        """grep [-r] [-l] pattern path..."""
        recursive = "-r" in args
        names_only = "-l" in args
        rest = [a for a in args if not a.startswith("-")]
        if len(rest) < 2:
            raise ShellError("grep: usage: grep [-r] [-l] pattern path...")
        pattern, paths = rest[0], rest[1:]
        regex = re.compile(pattern)
        matches = []
        for path in paths:
            for file_path in self._grep_targets(path, recursive):
                try:
                    content = self.sc.read_text(file_path)
                except (FsError, UnicodeDecodeError):
                    continue
                hit = False
                for line in content.splitlines():
                    if regex.search(line):
                        hit = True
                        if not names_only:
                            matches.append(f"{file_path}:{line}")
                if hit and names_only:
                    matches.append(file_path)
        return "\n".join(matches)

    def _grep_targets(self, path: str, recursive: bool):
        st = self.sc.stat(path)
        if not st.is_dir:
            yield path
            return
        if not recursive:
            raise ShellError(f"grep: {path}: is a directory (use -r)")
        for dirpath, _dirnames, filenames in self.sc.walk(path):
            for name in filenames:
                yield f"{dirpath}/{name}"

    def cmd_find(self, args: list[str]) -> str:
        """find path [-name glob] [-type f|d|l] [-exec grep pat {} ;]"""
        if not args:
            raise ShellError("find: missing path")
        path = args[0]
        name_glob = None
        type_filter = None
        exec_grep = None
        index = 1
        try:
            while index < len(args):
                arg = args[index]
                if arg == "-name":
                    name_glob = args[index + 1]
                    index += 2
                elif arg == "-type":
                    type_filter = _FILE_TYPES[args[index + 1]]
                    index += 2
                elif arg == "-exec":
                    # only 'grep PATTERN {} ;' is supported, like the paper's one-liner
                    if args[index + 1] != "grep":
                        raise ShellError("find: only '-exec grep' is supported")
                    exec_grep = re.compile(args[index + 2])
                    index += 3
                    while index < len(args) and args[index] in ("{}", ";", "\\;"):
                        index += 1
                else:
                    raise ShellError(f"find: unknown predicate {arg!r}")
        except (IndexError, KeyError, re.error):
            raise ShellError("find: usage: find path [-name glob] [-type f|d|l] [-exec grep pattern {} ;]") from None
        # the types an entry may have to be reported, and the name test
        kinds = tuple(t for t in FileType if type_filter in (None, t) and (exec_grep is None or t is FileType.REGULAR))
        named = re.compile(fnmatch.translate(name_glob)).match if name_glob is not None else None
        ftype = self.sc.stat(path).ftype
        found = [path] if ftype in kinds and (named is None or named(path.rstrip("/").rsplit("/", 1)[-1])) else []
        results = self._report(found, exec_grep)
        for level in self._levels(path) if ftype is FileType.DIRECTORY else ():  # a file operand is not scanned
            found = []
            for dirpath, entries in level:
                if not isinstance(entries, list):
                    raise entries
                prefix = dirpath.rstrip("/") + "/"
                rest = []
                for name, stat in entries:
                    if stat.ftype in kinds and (named is None or named(name)):
                        (found if stat.ftype is FileType.DIRECTORY else rest).append(prefix + name)
                found += rest  # per directory: its sub-directories first, then the rest
            results += self._report(found, exec_grep)
        return "\n".join(results)

    def _report(self, paths: list[str], exec_grep: re.Pattern | None) -> list[str]:
        """``paths`` as found, or with ``exec_grep`` their matching lines.

        The files are read in one submission, each a linked ``open → read
        → close`` chain; one that fails or is not UTF-8 is skipped.
        """
        if exec_grep is None or not paths:
            return paths
        ring = self.sc.ring
        for tag, path in enumerate(paths):
            ring.prep("open", path, O_RDONLY, link=True, user_data=tag)
            ring.prep("read", LINK_FD, link=True, user_data=tag)
            ring.prep("close", LINK_FD, user_data=tag)
        ring.submit()
        lines = []
        data = None
        for cqe in ring.completions():
            if cqe.op == "read":
                data = cqe.result
            elif cqe.op == "close" and cqe.ok:  # the chain's close ran: so did its open and read
                try:
                    content = data.decode()
                except UnicodeDecodeError:
                    continue
                path = paths[cqe.user_data]
                lines += [f"{path}:{line}" for line in content.splitlines() if exec_grep.search(line)]
        return lines

    def _levels(self, path: str, depth: int | None = None):
        """The tree under the directory ``path``, breadth-first, one level at a time.

        Each level is a list of ``(dirpath, entries)`` in BFS order, where
        ``entries`` is ``scandir``'s list or the :class:`FsError` that
        refused the directory.  A level is one ring submission (the ring
        keeps its own room, so a level wider than the ring costs one
        crossing per ring-full); ``depth`` bounds the levels read.
        """
        ring = self.sc.ring
        level = [path]
        while level and (depth is None or depth > 0):
            for tag, dirpath in enumerate(level):
                ring.prep("scandir", dirpath, user_data=tag)
            ring.submit()
            scans = [(level[cqe.user_data], cqe.result if cqe.ok else cqe.error) for cqe in ring.completions()]
            yield scans
            level = [
                f"{dirpath.rstrip('/')}/{name}"
                for dirpath, entries in scans
                if isinstance(entries, list)
                for name, stat in entries
                if stat.ftype is FileType.DIRECTORY
            ]
            if depth is not None:
                depth -= 1

    def cmd_tree(self, args: list[str]) -> str:
        """tree [path] [-L depth] — render like paper figure 2."""
        depth_limit = None
        paths = []
        index = 0
        try:
            while index < len(args):
                if args[index] == "-L":
                    depth_limit = int(args[index + 1])
                    index += 2
                else:
                    paths.append(args[index])
                    index += 1
        except (IndexError, ValueError):
            raise ShellError("tree: usage: tree [path] [-L depth]") from None
        path = paths[0] if paths else self.sc.getcwd()
        listing: dict[str, list | FsError] = {}
        for level in self._levels(path, depth_limit):
            listing.update(level)
        lines = [path]
        self._tree(path, "", lines, listing)
        return "\n".join(lines)

    def _tree(self, path: str, prefix: str, lines: list[str], listing: dict[str, list | FsError]) -> None:
        entries = listing.get(path)
        if not isinstance(entries, list):
            return  # beyond -L, or refused: omitted
        entries = sorted(entries, key=lambda e: e[0])
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
                self._tree(child, prefix + extension, lines, listing)

    def cmd_mkdir(self, args: list[str]) -> str:
        """mkdir [-p] dir..."""
        parents = "-p" in args
        for path in (a for a in args if not a.startswith("-")):
            if parents:
                self.sc.makedirs(path)
            else:
                self.sc.mkdir(path)
        return ""

    def cmd_rmdir(self, args: list[str]) -> str:
        """rmdir dir..."""
        for path in args:
            self.sc.rmdir(path)
        return ""

    def cmd_rm(self, args: list[str]) -> str:
        """rm [-r] path..."""
        recursive = "-r" in args
        for path in (a for a in args if not a.startswith("-")):
            if recursive and self.sc.lstat(path).is_dir:
                self._rm_tree(path)
            else:
                self.sc.unlink(path)
        return ""

    def _rm_tree(self, path: str) -> None:
        for name, stat in self.sc.scandir(path):
            child = f"{path.rstrip('/')}/{name}"
            if stat.is_dir:
                self._rm_tree(child)
            else:
                self.sc.unlink(child)
        self.sc.rmdir(path)

    def cmd_cp(self, args: list[str]) -> str:
        """cp [-r] src dst"""
        recursive = "-r" in args
        rest = [a for a in args if not a.startswith("-")]
        if len(rest) != 2:
            raise ShellError("cp: usage: cp [-r] src dst")
        src, dst = rest
        self._copy(src, dst, recursive)
        return ""

    def _copy(self, src: str, dst: str, recursive: bool) -> None:
        stat = self.sc.lstat(src)
        if stat.is_symlink:
            self.sc.symlink(self.sc.readlink(src), dst)
            return
        if stat.is_dir:
            if not recursive:
                raise ShellError(f"cp: {src}: is a directory (use -r)")
            if not self.sc.exists(dst):
                self.sc.mkdir(dst)
            for name in self.sc.listdir(src):
                self._copy(f"{src.rstrip('/')}/{name}", f"{dst.rstrip('/')}/{name}", True)
            return
        if self.sc.exists(dst) and self.sc.stat(dst).is_dir:
            dst = f"{dst.rstrip('/')}/{src.rstrip('/').rsplit('/', 1)[-1]}"
        self.sc.write_bytes(dst, self.sc.read_bytes(src))

    def cmd_mv(self, args: list[str]) -> str:
        """mv src dst (copy+remove across file systems)"""
        if len(args) != 2:
            raise ShellError("mv: usage: mv src dst")
        src, dst = args
        try:
            self.sc.rename(src, dst)
        except CrossDevice:
            self._copy(src, dst, True)
            if self.sc.lstat(src).is_dir:
                self._rm_tree(src)
            else:
                self.sc.unlink(src)
        return ""

    def cmd_ln(self, args: list[str]) -> str:
        """ln -s target linkpath (symbolic only)"""
        if "-s" not in args:
            raise ShellError("ln: only symbolic links (-s) are supported")
        rest = [a for a in args if a != "-s"]
        if len(rest) != 2:
            raise ShellError("ln: usage: ln -s target linkpath")
        self.sc.symlink(rest[0], rest[1])
        return ""

    def cmd_stat(self, args: list[str]) -> str:
        """stat path..."""
        lines = []
        for path in args:
            st = self.sc.stat(path)
            lines.append(
                f"{path}: ino={st.ino} type={st.ftype.value} mode={st.mode:o} "
                f"uid={st.uid} gid={st.gid} size={st.size} nlink={st.nlink}"
            )
        return "\n".join(lines)

    def cmd_getfattr(self, args: list[str]) -> str:
        """getfattr -n name path...: the attribute's value, one line per path"""
        if len(args) < 3 or args[0] != "-n":
            raise ShellError("getfattr: usage: getfattr -n name path...")
        return "\n".join(self.sc.getxattr(path, args[1]).decode(errors="replace") for path in args[2:])

    def cmd_touch(self, args: list[str]) -> str:
        """touch file..."""
        for path in args:
            if not self.sc.exists(path):
                self.sc.write_text(path, "")
        return ""

    def cmd_wc(self, args: list[str]) -> str:
        """wc [-l] file..."""
        lines_only = "-l" in args
        out = []
        for path in (a for a in args if not a.startswith("-")):
            content = self.sc.read_text(path)
            line_count = len(content.splitlines())
            if lines_only:
                out.append(f"{line_count} {path}")
            else:
                out.append(f"{line_count} {len(content.split())} {len(content)} {path}")
        return "\n".join(out)
