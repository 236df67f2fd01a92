"""The coreutils toolbox (paper section 5.4)."""

import pytest

from repro.apps import ArpResponder, TopologyDaemon
from repro.dataplane import build_linear
from repro.runtime import YancController
from repro.shell import Shell, ShellError


@pytest.fixture
def sh(sc):
    sc.makedirs("/data/sub")
    sc.write_text("/data/alpha.txt", "line one\nssh port 22\nline three\n")
    sc.write_text("/data/beta.txt", "nothing here\n")
    sc.write_text("/data/sub/gamma.txt", "port 22 again\n")
    return Shell(sc)


def test_ls_plain(sh):
    assert sh.run("ls /data").splitlines() == ["alpha.txt", "beta.txt", "sub"]


def test_ls_long_shows_mode_and_size(sh):
    out = sh.run("ls -l /data")
    assert any(line.startswith("-rw-r--r--") and "alpha.txt" in line for line in out.splitlines())
    assert any(line.startswith("drwxr-xr-x") and "sub" in line for line in out.splitlines())


def test_ls_long_shows_symlink_target(sh, sc):
    sc.symlink("/data/alpha.txt", "/data/link")
    out = sh.run("ls -l /data")
    assert any("link -> /data/alpha.txt" in line for line in out.splitlines())


def test_cat_concatenates(sh):
    out = sh.run("cat /data/beta.txt /data/sub/gamma.txt")
    assert out == "nothing here\nport 22 again\n"


def test_echo_with_redirect(sh, sc):
    sh.run("echo hello world > /data/out.txt")
    assert sc.read_text("/data/out.txt") == "hello world"


def test_append_redirect(sh, sc):
    sh.run("echo first > /data/log")
    sh.run("echo second >> /data/log")
    assert sc.read_text("/data/log") == "firstsecond"


def test_grep_single_file(sh):
    assert sh.run("grep ssh /data/alpha.txt") == "/data/alpha.txt:ssh port 22"


def test_grep_recursive(sh):
    out = sh.run("grep -r 22 /data")
    assert "/data/alpha.txt:ssh port 22" in out
    assert "/data/sub/gamma.txt:port 22 again" in out


def test_grep_names_only(sh):
    out = sh.run("grep -r -l 22 /data")
    assert sorted(out.splitlines()) == ["/data/alpha.txt", "/data/sub/gamma.txt"]


def test_grep_directory_without_r_fails(sh):
    with pytest.raises(ShellError):
        sh.run("grep x /data")


def test_find_by_name(sh):
    out = sh.run("find /data -name *.txt")
    assert "/data/sub/gamma.txt" in out.splitlines()


def test_find_by_type(sh):
    assert sh.run("find /data -type d").splitlines() == ["/data", "/data/sub"]


def test_find_exec_grep_paper_oneliner(sh):
    out = sh.run("find /data -name *.txt -exec grep 22 {} ;")
    assert "/data/alpha.txt:ssh port 22" in out.splitlines()


def test_mkdir_and_p_flag(sh, sc):
    sh.run("mkdir /data/newdir")
    sh.run("mkdir -p /data/a/b/c")
    assert sc.exists("/data/a/b/c")


def test_rmdir_removes_empty_dirs_only(sh, sc):
    sh.run("mkdir /data/e1 /data/e2")
    sh.run("rmdir /data/e1 /data/e2")
    assert not sc.exists("/data/e1") and not sc.exists("/data/e2")
    with pytest.raises(ShellError):
        sh.run("rmdir /data/sub")
    assert sc.exists("/data/sub/gamma.txt")


def test_rm_and_rm_r(sh, sc):
    sh.run("rm /data/beta.txt")
    assert not sc.exists("/data/beta.txt")
    sh.run("rm -r /data/sub")
    assert not sc.exists("/data/sub")


def test_cp_file_and_into_dir(sh, sc):
    sh.run("cp /data/alpha.txt /data/copy.txt")
    assert sc.read_text("/data/copy.txt") == sc.read_text("/data/alpha.txt")
    sh.run("cp /data/alpha.txt /data/sub")
    assert sc.exists("/data/sub/alpha.txt")


def test_cp_r_recursive(sh, sc):
    sh.run("cp -r /data/sub /data/sub2")
    assert sc.read_text("/data/sub2/gamma.txt") == "port 22 again\n"


def test_cp_preserves_symlinks(sh, sc):
    sc.symlink("/data/alpha.txt", "/data/sub/link")
    sh.run("cp -r /data/sub /data/sub3")
    assert sc.readlink("/data/sub3/link") == "/data/alpha.txt"


def test_mv_rename(sh, sc):
    sh.run("mv /data/beta.txt /data/renamed.txt")
    assert sc.exists("/data/renamed.txt")
    assert not sc.exists("/data/beta.txt")


def test_mv_across_filesystems_copies(sh, sc):
    from repro.vfs import MemFs

    sc.mkdir("/other")
    sc.mount("/other", MemFs())
    sh.run("mv /data/beta.txt /other/beta.txt")
    assert sc.read_text("/other/beta.txt") == "nothing here\n"
    assert not sc.exists("/data/beta.txt")


def test_ln_s(sh, sc):
    sh.run("ln -s /data/alpha.txt /data/shortcut")
    assert sc.readlink("/data/shortcut") == "/data/alpha.txt"


def test_stat_output(sh):
    out = sh.run("stat /data/alpha.txt")
    assert "type=file" in out and "mode=644" in out


def test_touch_creates_empty(sh, sc):
    sh.run("touch /data/empty")
    assert sc.read_text("/data/empty") == ""


def test_wc(sh):
    assert sh.run("wc -l /data/alpha.txt") == "3 /data/alpha.txt"
    counts = sh.run("wc /data/alpha.txt").split()
    assert counts[0] == "3"


def test_tree_rendering(sh):
    out = sh.run("tree /data")
    assert out.splitlines()[0] == "/data"
    assert any("gamma.txt" in line for line in out.splitlines())


def test_tree_depth_limit(sh):
    out = sh.run("tree /data -L 1")
    assert not any("gamma" in line for line in out.splitlines())


def test_getfattr_prints_the_value(sh, sc):
    sc.setxattr("/data/alpha.txt", "user.k", b"v1")
    sc.setxattr("/data/beta.txt", "user.k", b"v2")
    assert sh.run("getfattr -n user.k /data/alpha.txt /data/beta.txt") == "v1\nv2"
    with pytest.raises(ShellError):
        sh.run("getfattr -n user.missing /data/alpha.txt")
    with pytest.raises(ShellError):
        sh.run("getfattr /data/alpha.txt")


def test_an_operator_reads_a_buffer_declaration_and_what_it_withheld():
    """§3.5 from the shell: what topod's buffer admits, and how many packet-ins the driver withheld as unwanted (not as dropped)."""
    ctl = YancController(build_linear(2)).start()
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ArpResponder(ctl.host.process(), ctl.sim).start()
    ctl.run(1.05)
    sh = Shell(ctl.host.root_sc)
    assert sh.run("getfattr -n user.packet_in.dl_type /net/switches/sw1/events/topod /net/switches/sw1/events/arpd") == "0x88cc\n0x0806"
    driver = ctl.drivers[0].proc_name
    counters = dict(line.rsplit(" ", 1) for line in sh.run("cat /proc/counters").splitlines())
    assert int(counters[f"events.filtered.{driver}"]) == ctl.drivers[0].packet_ins_handled > 0  # every packet-in a beacon, arpd's copy withheld
    assert f"events.dropped.{driver}" not in counters


def test_unknown_command(sh):
    with pytest.raises(ShellError):
        sh.run("frobnicate /data")


def test_empty_command_line(sh):
    assert sh.run("") == ""


def test_fs_errors_become_shell_errors(sh):
    with pytest.raises(ShellError):
        sh.run("cat /does/not/exist")


def test_shell_respects_permissions(vfs, sc):
    from repro.vfs import Credentials, Syscalls

    sc.write_text("/secret", "top")
    sc.chmod("/secret", 0o600)
    user_shell = Shell(Syscalls(vfs, cred=Credentials(uid=500, gid=500)))
    with pytest.raises(ShellError):
        user_shell.run("cat /secret")
