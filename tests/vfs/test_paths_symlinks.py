"""Path resolution: symlinks, dot-dot, loops, lexical utilities."""

import pytest

from repro.vfs import FileNotFound, InvalidArgument, TooManyLinks
from repro.vfs.path import join, split_path


def test_split_path_rejects_relative():
    with pytest.raises(InvalidArgument):
        split_path("relative/path")


def test_split_path_collapses_slashes():
    assert split_path("//a///b/./c") == ["a", "b", "c"]


def test_join_and_parts():
    assert join("/a", "b", "c") == "/a/b/c"


def test_symlink_to_file(sc):
    sc.write_text("/target", "data")
    sc.symlink("/target", "/link")
    assert sc.read_text("/link") == "data"
    assert sc.readlink("/link") == "/target"


def test_symlink_to_directory(sc):
    sc.makedirs("/dir/sub")
    sc.symlink("/dir", "/dlink")
    assert sc.listdir("/dlink") == ["sub"]
    sc.write_text("/dlink/sub/f", "via link")
    assert sc.read_text("/dir/sub/f") == "via link"


def test_relative_symlink(sc):
    sc.makedirs("/a/b")
    sc.write_text("/a/file", "rel")
    sc.symlink("../file", "/a/b/link")
    assert sc.read_text("/a/b/link") == "rel"


def test_lstat_vs_stat(sc):
    sc.write_text("/t", "x")
    sc.symlink("/t", "/l")
    assert sc.lstat("/l").is_symlink
    assert not sc.stat("/l").is_symlink


def test_dangling_symlink(sc):
    sc.symlink("/nowhere", "/l")
    with pytest.raises(FileNotFound):
        sc.read_text("/l")
    assert sc.lstat("/l").is_symlink


def test_symlink_loop_detected(sc):
    sc.symlink("/b", "/a")
    sc.symlink("/a", "/b")
    with pytest.raises(TooManyLinks):
        sc.read_text("/a")


def test_self_symlink_loop(sc):
    sc.symlink("/self", "/self")
    with pytest.raises(TooManyLinks):
        sc.stat("/self")


def test_chained_symlinks_within_budget(sc):
    sc.write_text("/real", "deep")
    previous = "/real"
    for index in range(10):
        link = f"/link{index}"
        sc.symlink(previous, link)
        previous = link
    assert sc.read_text(previous) == "deep"


def test_dotdot_walks_up(sc):
    sc.makedirs("/a/b/c")
    sc.write_text("/a/x", "up")
    assert sc.read_text("/a/b/c/../../x") == "up"


def test_dotdot_at_root_stays_at_root(sc):
    sc.mkdir("/a")
    assert sc.listdir("/../../..") == ["a"]


def test_dotdot_through_symlink_uses_link_target_parent(sc):
    # /link -> /a/b ; /link/.. resolves to /a (stack-based, like the kernel)
    sc.makedirs("/a/b")
    sc.write_text("/a/marker", "here")
    sc.symlink("/a/b", "/link")
    assert sc.read_text("/link/../marker") == "here"


def test_symlink_at_existing_path_fails(sc):
    sc.write_text("/f", "x")
    with pytest.raises(Exception):
        sc.symlink("/elsewhere", "/f")


def test_readlink_on_regular_file(sc):
    sc.write_text("/f", "x")
    with pytest.raises(InvalidArgument):
        sc.readlink("/f")


def test_empty_symlink_target_rejected(sc):
    with pytest.raises(InvalidArgument):
        sc.symlink("", "/l")
