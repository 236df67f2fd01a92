"""Stat formatting, inode metadata, and remaining facade surface."""

import pytest

from repro.vfs import FileType, MemFs, Stat, format_mode


def test_format_mode_rendering():
    assert format_mode(FileType.DIRECTORY, 0o755) == "drwxr-xr-x"
    assert format_mode(FileType.REGULAR, 0o640) == "-rw-r-----"
    assert format_mode(FileType.SYMLINK, 0o777) == "lrwxrwxrwx"
    assert format_mode(FileType.REGULAR, 0o000) == "----------"


def test_st_mode_combines_type_and_perm_bits(sc):
    sc.mkdir("/d")
    st = sc.stat("/d")
    assert st.st_mode == 0o040755
    sc.write_text("/f", "")
    assert sc.stat("/f").st_mode == 0o100644


def test_symlink_size_is_target_length(sc):
    sc.symlink("/some/target", "/l")
    assert sc.lstat("/l").size == len("/some/target")


def test_directory_size_is_entry_count(sc):
    sc.mkdir("/d")
    assert sc.stat("/d").size == 0
    sc.write_text("/d/a", "")
    sc.write_text("/d/b", "")
    assert sc.stat("/d").size == 2


def test_nlink_for_directories_counts_subdirs(sc):
    sc.mkdir("/d")
    assert sc.stat("/d").nlink == 2  # "." and parent entry
    sc.mkdir("/d/sub")
    assert sc.stat("/d").nlink == 3  # + sub's ".."
    sc.rmdir("/d/sub")
    assert sc.stat("/d").nlink == 2


def test_timestamps_advance_with_clock(sim, sc):
    sc.write_text("/f", "v1")
    first = sc.stat("/f").mtime
    sim.run_for(2.0)
    sc.write_text("/f", "v2")
    assert sc.stat("/f").mtime == first + 2.0
    assert sc.stat("/f").ctime >= first


def test_ctime_updates_on_chmod_not_mtime(sim, sc):
    sc.write_text("/f", "x")
    before = sc.stat("/f")
    sim.run_for(1.0)
    sc.chmod("/f", 0o600)
    after = sc.stat("/f")
    assert after.ctime > before.ctime
    assert after.mtime == before.mtime


def test_dev_distinguishes_filesystems(sc):
    sc.mkdir("/mnt")
    sc.mount("/mnt", MemFs())
    sc.write_text("/mnt/f", "")
    sc.write_text("/f", "")
    assert sc.stat("/f").dev != sc.stat("/mnt/f").dev


def test_stat_is_frozen_snapshot(sc):
    sc.write_text("/f", "abc")
    snap = sc.stat("/f")
    sc.write_text("/f", "abcdef")
    assert snap.size == 3
    with pytest.raises(Exception):
        snap.size = 99  # an immutable named tuple


def test_stat_flags():
    st = Stat(ino=1, ftype=FileType.DIRECTORY, mode=0o755, uid=0, gid=0, size=0, nlink=2, atime=0, mtime=0, ctime=0)
    assert st.is_dir and not st.is_symlink


def test_stat_is_a_named_tuple_with_the_dataclass_contract():
    """Fields, the ``dev`` default, the properties, immutability, value
    equality and hash, and the ``repr`` text the frozen dataclass had."""
    fields = dict(ino=7, ftype=FileType.SYMLINK, mode=0o777, uid=1, gid=2, size=3, nlink=1, atime=1.5, mtime=2.5, ctime=3.5)
    st = Stat(**fields)
    assert Stat._fields == (*fields, "dev")
    assert st.dev == 0 and Stat(**fields, dev=4).dev == 4
    assert st.st_mode == 0o120777 and st.is_symlink and not st.is_dir
    for name in Stat._fields:
        with pytest.raises(AttributeError):
            setattr(st, name, 0)
    with pytest.raises(AttributeError):
        st.extra = 1
    twin = Stat(**fields)
    assert twin == st and hash(twin) == hash(st) and twin is not st
    assert st != Stat(**{**fields, "size": 4})
    assert repr(st) == (
        "Stat(ino=7, ftype=<FileType.SYMLINK: 'symlink'>, mode=511, uid=1, gid=2, size=3, nlink=1, "
        "atime=1.5, mtime=2.5, ctime=3.5, dev=0)"
    )
