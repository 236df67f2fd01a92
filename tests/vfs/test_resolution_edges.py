"""Resolution edge cases: dot-dot physicality, stacked mounts, _abspath.

These pin the resolution bugs fixed alongside the dentry cache, and one
found later:

* ``_abspath`` used to collapse ``..`` lexically, so a relative path from
  a symlinked cwd resolved against the *textual* parent instead of the
  physical one (and un-normalized spellings leaked through as distinct
  cache/meter keys).
* The walker crossed only one mount per component, so a mount stacked on
  top of another mount's root stayed invisible.
* ``chdir`` stored its path with ``..`` collapsed lexically, so after
  ``chdir`` through a symlink every relative path missed the directory
  it had checked.
"""

import pytest

from repro.vfs import FileNotFound, MemFs


def test_relative_dotdot_from_symlinked_cwd_is_physical(sc):
    sc.makedirs("/a/b")
    fs2 = MemFs()
    sc.mount("/a/b", fs2)
    sc.mkdir("/a/b/d")
    sc.write_text("/a/b/marker", "inside the mount")
    sc.mkdir("/x")
    sc.symlink("/a/b/d", "/x/l")
    sc.chdir("/x/l")
    # Lexical resolution would look at /x/marker (and fail); the physical
    # parent of the cwd is the mounted /a/b.
    assert sc.read_text("../marker") == "inside the mount"
    with pytest.raises(FileNotFound):
        sc.read_text("/x/marker")


def test_chdir_through_a_symlink_and_dotdot_lands_where_it_checked(sc):
    """Regression: chdir collapsed ``..`` lexically, so ``/x/l/..`` became ``/x`` although it resolves to ``/y``."""
    sc.makedirs("/y/z")
    sc.mkdir("/x")
    sc.symlink("/y/z", "/x/l")
    sc.write_text("/y/marker", "here")
    assert sc.exists("/x/l/../marker")
    sc.chdir("/x/l/..")
    assert sc.stat(sc.getcwd()) == sc.stat("/y")
    assert sc.read_text("marker") == "here"
    assert sorted(sc.listdir(".")) == ["marker", "z"]


def test_stacked_mounts_cross_to_topmost(sc):
    sc.mkdir("/m")
    lower = MemFs()
    sc.mount("/m", lower)
    sc.write_text("/m/lower-file", "lower")
    upper = MemFs()
    # stack a second file system directly on the first one's root
    sc.ns.mount(lower.root, upper, source="upper")
    assert sc.listdir("/m") == []  # the upper (empty) fs now wins
    sc.write_text("/m/upper-file", "upper")
    assert sc.read_text("/m/upper-file") == "upper"
    sc.ns.umount(lower.root)
    assert sc.read_text("/m/lower-file") == "lower"


@pytest.fixture
def stacked(sc):
    """``lower`` mounted on /m (holding a file), ``upper`` stacked on ``lower``'s root (holding a directory)."""
    sc.mkdir("/m")
    lower = MemFs()
    sc.mount("/m", lower)
    sc.write_text("/m/lower-file", "lower")
    upper = MemFs()
    sc.ns.mount(lower.root, upper, source="upper")
    sc.mkdir("/m/upper-dir")
    return lower, upper


def test_scandir_reports_the_topmost_stacked_mount(sc, stacked):
    _lower, upper = stacked
    assert sc.stat("/m").dev == upper.dev
    assert dict(sc.scandir("/"))["m"].dev == upper.dev
    assert dict(sc.scandir("/"))["m"] == sc.stat("/m")


def test_walk_does_not_list_what_a_stacked_mount_hides(sc, stacked):
    assert sc.listdir("/m") == ["upper-dir"]
    assert list(sc.walk("/")) == [("/", ["m"], []), ("/m", ["upper-dir"], []), ("/m/upper-dir", [], [])]


def test_abspath_normalizes_both_branches(sc):
    assert sc._abspath("/net//switches/./s1") == "/net/switches/s1"
    sc.mkdir("/wd")
    sc.chdir("/wd")
    assert sc._abspath("sub//x/.") == "/wd/sub/x"
    # '..' must survive for the physical walk, never collapse lexically
    assert sc._abspath("../etc") == "/wd/../etc"
    assert sc._abspath("/a/../b") == "/a/../b"


def test_equivalent_spellings_resolve_identically(sc):
    sc.makedirs("/net/switches")
    sc.write_text("/net/switches/s1", "cfg")
    plain = sc.stat("/net/switches/s1")
    messy = sc.stat("/net//switches/./s1")
    assert plain.ino == messy.ino and plain.dev == messy.dev


def test_dotdot_at_mountpoint_reaches_parent(sc):
    sc.makedirs("/srv/mnt")
    sc.write_text("/srv/sibling", "outside")
    sc.mount("/srv/mnt", MemFs())
    assert sc.read_text("/srv/mnt/../sibling") == "outside"
