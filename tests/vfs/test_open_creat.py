"""``open(O_CREAT)``: the errno table, and what a new file costs.

``open(O_CREAT)`` resolves the parent directory once and asks it for the
name; it used to learn that a file is new from a failed walk of the whole
path.  Every row below raises what it raised then — the table is the
contract of that change — and the last test pins what went away: the
failed walk's miss in the resolution memo.
"""

import pytest

from repro.vfs import (
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_WRONLY,
    Credentials,
    DirInode,
    FileExists,
    FileNotFound,
    IsADirectory,
    MemFs,
    NameTooLong,
    NotADirectory,
    NotPermitted,
    PermissionDenied,
    ReadOnly,
    Syscalls,
    TooManyLinks,
)

ALICE = Credentials(uid=1000, gid=1000)


class VetoDir(DirInode):
    """A directory whose policy hook refuses every create (what a yancfs schema directory does)."""

    def may_create(self, name, ftype, cred):
        raise NotPermitted(name, "the schema says no")


@pytest.fixture
def alice(vfs, sc):
    """ALICE's context over one tree holding every case of the table."""
    for path, mode in (("/d", 0o777), ("/d/sub", 0o755), ("/locked", 0o777), ("/dark", 0o777), ("/ro", 0o755)):
        sc.mkdir(path, mode)
    ro = MemFs()
    sc.mount("/ro", ro)
    sc.chmod("/ro", 0o777)
    for path in ("/d/file", "/locked/file", "/dark/file", "/ro/file"):
        sc.write_text(path, "x")
        sc.chmod(path, 0o666)
    sc.symlink("/d/nowhere", "/d/dangling")
    sc.symlink("/d/file", "/d/to-file")
    sc.symlink("sub", "/d/to-dir")
    sc.symlink("loop", "/d/loop")
    sc.chmod("/locked", 0o555)  # searchable, not writable
    sc.chmod("/dark", 0o666)  # writable, not searchable
    ro.readonly = True
    vfs.root_fs.root.attach("veto", VetoDir(vfs.root_fs, mode=0o777, uid=0, gid=0))
    return Syscalls(vfs, cred=ALICE)


TABLE = [
    # (path, extra flags, what open(O_WRONLY | O_CREAT | extra) raises; None = it opens)
    ("/d/new", 0, None),
    ("/d/file", 0, None),
    ("/d/dangling", 0, FileExists),
    ("/d/to-file", 0, None),
    ("/d/to-dir", 0, IsADirectory),
    ("/d/sub", 0, IsADirectory),
    ("/d/loop", 0, TooManyLinks),
    ("/d/new", O_EXCL, None),
    ("/d/file", O_EXCL, FileExists),
    ("/d/dangling", O_EXCL, FileExists),
    ("/d/to-file", O_EXCL, FileExists),
    ("/d/to-dir", O_EXCL, FileExists),
    ("/d/sub", O_EXCL, FileExists),
    ("/d/loop", O_EXCL, TooManyLinks),
    ("/locked/file", 0, None),  # the directory is not written: its mode does not matter
    ("/locked/new", 0, PermissionDenied),
    ("/dark/file", 0, PermissionDenied),
    ("/dark/new", 0, PermissionDenied),
    ("/d/missing/new", 0, FileNotFound),
    ("/d/dangling/new", 0, FileNotFound),
    ("/d/file/new", 0, NotADirectory),
    ("/d/sub/..", 0, IsADirectory),
    ("/d/sub/..", O_EXCL, FileExists),
    ("/d/missing/..", 0, FileNotFound),
    ("/", 0, IsADirectory),
    ("/", O_EXCL, FileExists),
    ("/ro/new", 0, ReadOnly),
    ("/ro/file", 0, ReadOnly),
    ("/veto/new", 0, NotPermitted),
    ("/d/" + "n" * 256, 0, NameTooLong),
]


@pytest.mark.parametrize(("path", "extra", "raises"), TABLE, ids=[f"{path[:16]}{'+excl' if extra else ''}" for path, extra, _ in TABLE])
def test_open_creat_errno_table(alice, sc, path, extra, raises):
    flags = O_WRONLY | O_CREAT | extra
    if raises is None:
        fd = alice.open(path, flags)
        alice.write(fd, b"new")
        alice.close(fd)
        assert sc.read_text(path) == "new"
    else:
        with pytest.raises(raises):
            alice.open(path, flags)
        assert not sc.exists("/d/nowhere") and sc.listdir("/veto") == [] and sc.listdir("/locked") == ["file"]


def test_unsearchable_wins_over_read_only(sc, alice):
    """Asking a directory for a name is a search of it: EACCES comes before EROFS, present or absent."""
    shut = MemFs()
    sc.mkdir("/shut")
    sc.mount("/shut", shut)
    sc.write_text("/shut/file", "x")
    sc.chmod("/shut", 0o666)
    shut.readonly = True
    for name in ("file", "new"):
        with pytest.raises(PermissionDenied):
            alice.open(f"/shut/{name}", O_WRONLY | O_CREAT)


def test_a_created_file_takes_its_creators_identity_and_the_mode_asked(alice, sc):
    fd = alice.open("/d/new", O_WRONLY | O_CREAT, 0o640)
    alice.close(fd)
    stat = sc.stat("/d/new")
    assert (stat.uid, stat.gid, stat.mode & 0o7777) == (ALICE.uid, ALICE.gid, 0o640)
    with pytest.raises(FileNotFound):
        alice.open("/d/other", O_RDONLY)  # without O_CREAT a missing name is still ENOENT


def test_a_new_file_costs_one_walk(vfs, alice):
    """The failed walk of the whole path is gone: creating a file misses the memo only for its directory."""
    dcache = vfs.root_ns.dcache
    alice.stat("/d")  # the directory's resolution is warm
    before = dcache.path_misses
    alice.close(alice.open("/d/warm", O_WRONLY | O_CREAT))
    assert dcache.path_misses - before == 0
    dcache.flush()
    before = dcache.path_misses
    alice.close(alice.open("/d/cold", O_WRONLY | O_CREAT))
    assert dcache.path_misses - before == 1
