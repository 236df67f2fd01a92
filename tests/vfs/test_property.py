"""Property-based VFS testing against a pure-dict model."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.vfs import (
    Acl,
    Credentials,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FsError,
    IsADirectory,
    NotADirectory,
    Syscalls,
    VirtualFileSystem,
)

_NAME_LIST = ["a", "b", "c", "dir1", "file2", "x"]
_NAMES = st.sampled_from(_NAME_LIST)
_CONTENT = st.binary(max_size=32)
# Symlinks get names no other rule draws, so the path -> content model
# never has to write or unlink *through* one.
_LINK_NAMES = st.sampled_from(["l1", "l2"])
# Permission rules aim at directories (only their exec bit gates a walk),
# with modes that tell owner, group and other apart for uid/gid 1000.
_MODES = st.sampled_from([0o755, 0o750, 0o700, 0o070, 0o007])
_OWNERS = st.sampled_from([0, 1000])
_ACLS = st.sampled_from(
    [
        None,
        "u::rwx,g::r-x,o::r-x",
        "u::rwx,u:1000:r-x,g::---,o::---",
        "u::rwx,u:1000:---,g::rwx,o::rwx",
        "u::rwx,g::rwx,m::---,o::--x",
    ]
)


def _outcome(proc: Syscalls, path: str, follow_last: bool):
    """What ``proc`` gets for ``path``: the inode, or the error's type."""
    try:
        return proc.vfs.resolve(proc.ns, proc.cred, path, follow_last=follow_last)
    except FsError as exc:
        return type(exc)


class VfsModelMachine(RuleBasedStateMachine):
    """Drive the real VFS and a dict model with the same operations.

    Model: path -> bytes for files, path -> None for directories, plus
    ``links``: path -> symlink target.  Root drives every mutation (so mode
    bits, owners and ACLs never refuse one); a second, non-root principal
    shares root's namespace — and so its resolution memo — and only looks.
    """

    def __init__(self) -> None:
        super().__init__()
        vfs = VirtualFileSystem()
        self.sc = Syscalls(vfs)
        self.user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
        # The reference: the same principals on a cloned namespace (same
        # tree, its own memo) that walks every time.
        plain = self.sc.ns.clone()
        plain.dcache.enabled = False
        self.twins = [(proc, Syscalls(vfs, ns=plain, cred=proc.cred)) for proc in (self.sc, self.user)]
        self.model: dict[str, bytes | None] = {"/": None}
        self.links: dict[str, str] = {}

    # -- helpers --------------------------------------------------------------------

    def _existing_dirs(self) -> list[str]:
        return sorted(p for p, v in self.model.items() if v is None)

    def _join(self, parent: str, name: str) -> str:
        return f"{parent.rstrip('/')}/{name}"

    def _subtree(self, path: str) -> list[str]:
        prefix = path.rstrip("/") + "/"
        return [p for p in (*self.model, *self.links) if p == path or p.startswith(prefix)]

    # -- rules ----------------------------------------------------------------------

    @rule(data=st.data(), name=_NAMES)
    def mkdir(self, data, name):
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        path = self._join(parent, name)
        if path in self.model:
            with pytest.raises(FileExists):
                self.sc.mkdir(path)
        else:
            self.sc.mkdir(path)
            self.model[path] = None

    @rule(data=st.data(), name=_NAMES, content=_CONTENT)
    def write(self, data, name, content):
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        path = self._join(parent, name)
        if self.model.get(path, b"") is None:
            with pytest.raises(IsADirectory):
                self.sc.write_bytes(path, content)
        else:
            self.sc.write_bytes(path, content)
            self.model[path] = content

    @rule(data=st.data())
    def read(self, data):
        files = sorted(p for p, v in self.model.items() if v is not None)
        if not files:
            return
        path = data.draw(st.sampled_from(files))
        assert self.sc.read_bytes(path) == self.model[path]

    @rule(data=st.data(), name=_NAMES)
    def unlink(self, data, name):
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        path = self._join(parent, name)
        value = self.model.get(path, "missing")
        if value == "missing":
            with pytest.raises(FileNotFound):
                self.sc.unlink(path)
        elif value is None:
            with pytest.raises(IsADirectory):
                self.sc.unlink(path)
        else:
            self.sc.unlink(path)
            del self.model[path]

    @rule(data=st.data())
    def rmdir(self, data):
        dirs = [d for d in self._existing_dirs() if d != "/"]
        if not dirs:
            return
        path = data.draw(st.sampled_from(dirs))
        if len(self._subtree(path)) > 1:
            with pytest.raises(DirectoryNotEmpty):
                self.sc.rmdir(path)
        else:
            self.sc.rmdir(path)
            del self.model[path]

    @rule(data=st.data(), name=_NAMES)
    def rename_file(self, data, name):
        files = sorted(p for p, v in self.model.items() if v is not None)
        if not files:
            return
        src = data.draw(st.sampled_from(files))
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        dst = self._join(parent, name)
        if dst == src or dst not in self.model or self.model[dst] is not None:
            if self.model.get(dst, b"") is None and dst != src:
                return  # directory target: covered elsewhere
            self.sc.rename(src, dst)
            content = self.model.pop(src)
            self.model[dst] = content
        else:
            with pytest.raises(IsADirectory):
                self.sc.rename(src, dst)

    @rule(data=st.data(), name=_NAMES)
    def rename_dir(self, data, name):
        dirs = [d for d in self._existing_dirs() if d != "/"]
        if not dirs:
            return
        src = data.draw(st.sampled_from(dirs))
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        dst = self._join(parent, name)
        if dst in self.model or parent in self._subtree(src):
            return  # onto an existing name or into itself: covered elsewhere
        self.sc.rename(src, dst)
        for path in self._subtree(src):
            table = self.model if path in self.model else self.links
            table[dst + path[len(src) :]] = table.pop(path)

    @rule(data=st.data(), name=_LINK_NAMES)
    def symlink(self, data, name):
        """Create a link, or retarget the one already there (unlink + symlink)."""
        parent = data.draw(st.sampled_from(self._existing_dirs()))
        path = self._join(parent, name)
        target = data.draw(st.sampled_from(sorted(self.model) + ["/missing", *sorted(self.links)]))
        if path in self.links:
            self.sc.unlink(path)
        self.sc.symlink(target, path)
        self.links[path] = target

    @rule(data=st.data(), mode=_MODES)
    def chmod(self, data, mode):
        self.sc.chmod(data.draw(st.sampled_from(self._existing_dirs())), mode)

    @rule(data=st.data(), uid=_OWNERS, gid=_OWNERS)
    def chown(self, data, uid, gid):
        self.sc.chown(data.draw(st.sampled_from(self._existing_dirs())), uid, gid)

    @rule(data=st.data(), acl=_ACLS)
    def set_acl(self, data, acl):
        path = data.draw(st.sampled_from(self._existing_dirs()))
        self.sc.set_acl(path, Acl.from_text(acl) if acl else None)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def model_and_fs_agree(self):
        real: dict[str, bytes | None] = {"/": None}
        links: dict[str, str] = {}
        for dirpath, dirnames, filenames in self.sc.walk("/"):
            for name in dirnames:
                real[self._join(dirpath, name)] = None
            for name in filenames:
                path = self._join(dirpath, name)
                if path in self.links:
                    links[path] = self.sc.readlink(path)
                else:
                    real[path] = self.sc.read_bytes(path)
        assert real == self.model
        assert links == self.links

    @invariant()
    def memo_agrees_with_the_walk(self):
        """Every principal gets from the memo what the plain walk gives it:
        the same inode, or the same refusal."""
        paths = [*self.model, *self.links]
        for link in self.links:
            paths += [f"{link}/{name}" for name in _NAME_LIST] + [f"{link}/../a", f"{link}/../{link.rsplit('/', 1)[1]}"]
        for memoized, plain in self.twins:
            for path in paths:
                for follow_last in (True, False):
                    assert _outcome(memoized, path, follow_last) is _outcome(plain, path, follow_last), (path, memoized.cred.uid)


VfsModelTest = VfsModelMachine.TestCase
VfsModelTest.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
