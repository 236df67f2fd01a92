"""E8 — §5.4: the standard-utilities one-liners, verbatim.

Paper claims:

* "A quick overview of the switches in a network can be provided by
  ``ls -l /net/switches``";
* "To list flow entries which affect ssh traffic:
  ``find /net -name tp.dst -exec grep 22``" (our match files are named
  ``match.tp_dst``);
* port config via ``echo 1 > .../config.port_down``.

Reproduced shape: each one-liner works on a live controller and returns
the administratively-correct answer; find-over-the-tree visits every
directory of the tree, so its work grows with tree size (it is a real
traversal, not an index), while its crossings grow only with the tree's
depth: each level's directories are read in one ring submission.
"""

from conftest import print_table

from repro.dataplane import Match, Output, build_linear
from repro.runtime import YancController
from repro.shell import Shell


def _populated(n_switches=3, ssh_flows=2):
    ctl = YancController(build_linear(n_switches)).start()
    yc = ctl.client()
    switches = yc.switches()
    for index in range(ssh_flows):
        yc.create_flow(switches[index], f"ssh{index}", Match(dl_type=0x800, nw_proto=6, tp_dst=22), [Output(1)], priority=30)
    yc.create_flow(switches[0], "web", Match(dl_type=0x800, nw_proto=6, tp_dst=80), [Output(1)], priority=30)
    ctl.run(0.2)
    return ctl, Shell(ctl.host.root_sc)


def test_ls_l_net_switches(benchmark):
    ctl, shell = _populated()
    out = benchmark(shell.run, "ls -l /net/switches")
    print("\n$ ls -l /net/switches")
    print(out)
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("drwxr-xr-x") for line in lines)


def test_find_ssh_flows_oneliner(benchmark):
    ctl, shell = _populated()
    out = benchmark(shell.run, "find /net -name match.tp_dst -exec grep 22 {} ;")
    print("\n$ find /net -name match.tp_dst -exec grep 22 {} ;")
    print(out)
    hits = out.splitlines()
    assert len(hits) == 2  # the two ssh flows, not the web flow
    assert all(line.endswith(":22") for line in hits)


def test_echo_port_down_is_real_configuration(benchmark):
    ctl, shell = _populated()
    shell.run("echo 1 > /net/switches/sw1/ports/port_2/config.port_down")
    ctl.run(0.2)
    assert not ctl.net.switches["sw1"].ports[2].admin_up
    shell.run("echo 0 > /net/switches/sw1/ports/port_2/config.port_down")
    ctl.run(0.2)
    assert ctl.net.switches["sw1"].ports[2].admin_up
    benchmark(shell.run, "cat /net/switches/sw1/ports/port_2/config.port_down")


def test_grep_r_counts_flow_files(benchmark):
    ctl, shell = _populated()
    out = benchmark(shell.run, "grep -r -l 22 /net/switches/sw1/flows")
    assert "/net/switches/sw1/flows/ssh0/match.tp_dst" in out.splitlines()


def _tree_shape(sc, top):
    """(directories, levels) under ``top``, counted by an independent walk."""
    dirs = levels = 0
    for dirpath, _dirnames, _filenames in sc.walk(top):
        dirs += 1
        levels = max(levels, dirpath.count("/") - top.count("/") + 1)
    return dirs, levels


def test_find_scales_with_tree_size(benchmark):
    rows = []
    for n in (2, 4, 8):
        ctl, shell = _populated(n_switches=n, ssh_flows=2)
        sc = ctl.host.root_sc
        counters = sc.meter.counters
        sc.ring  # set up before counting: one io_uring_setup per context
        before = sc.meter.syscalls, counters.get("uring.scandir") + counters.get("syscall.scandir")
        shell.run("find /net -name match.tp_dst")
        crossings = sc.meter.syscalls - before[0]
        visited = counters.get("uring.scandir") + counters.get("syscall.scandir") - before[1]
        dirs, levels = _tree_shape(sc, "/net")
        assert visited == dirs  # every directory of the tree is read, once
        # the operand's stat, then a submit per level (and one more per 1,024-entry ring-full)
        assert crossings <= 1 + levels + dirs // 1024
        rows.append((n, visited, crossings))
    print_table("E8: find /net traversal cost vs fleet size", ["switches", "dirs visited", "syscalls"], rows)
    assert rows[-1][1] > rows[0][1]
    ctl, shell = _populated(n_switches=4)
    benchmark(shell.run, "find /net -name match.tp_dst")


def test_wc_and_cat_compose(benchmark):
    ctl, shell = _populated()
    shell.run("cat /net/switches/sw1/flows/ssh0/priority > /tmp_priority")
    assert shell.run("cat /tmp_priority") == "30"
    benchmark(shell.run, "wc -l /net/switches/sw1/id")
