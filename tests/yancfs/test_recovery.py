"""Mount-time fsck, the flat staging sweep, and the mount recover hook."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Match, Output
from repro.vfs.errors import FsError
from repro.vfs.stat import FileType
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import O_TRUNC, O_WRONLY, VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs
from repro.yancfs.recovery import flow_version, fsck


def _seed_debris(yc: YancClient) -> tuple[str, str]:
    """One stale dot-temp and one version-0 flow, amid committed state."""
    yc.create_switch("sw1")
    yc.create_flow("sw1", "good", Match(in_port=1), [Output(2)])
    stale = "/net/switches/.sw2"  # crashed create_switch: never renamed
    yc.sc.mkdir(stale)
    yc.sc.write_text(f"{stale}/id", "2")
    torn = yc.flow_path("sw1", "half")  # crashed create_flow: never committed
    yc.sc.mkdir(torn)
    yc.sc.write_text(f"{torn}/match.in_port", "9")
    return stale, torn


def test_fsck_sweeps_dot_temps_and_torn_flows(yc):
    stale, torn = _seed_debris(yc)
    report = fsck(yc.sc, "/net")
    assert sorted(report.removed()) == sorted([stale, torn])
    assert not report.failures
    assert not yc.sc.exists(stale)
    assert not yc.sc.exists(torn)
    # Committed state is untouched.
    assert flow_version(yc.sc, yc.flow_path("sw1", "good")) == 1


def test_fsck_dry_run_reports_without_mutating(yc):
    stale, torn = _seed_debris(yc)
    report = fsck(yc.sc, "/net", dry_run=True)
    assert report.dry_run
    assert stale in report.stale_entries
    assert torn in report.torn_flows
    assert yc.sc.exists(stale) and yc.sc.exists(torn)
    # The dry run predicts exactly what the real sweep removes.
    assert sorted(report.removed()) == sorted(fsck(yc.sc, "/net").removed())


def test_fsck_clean_tree_reports_clean(yc):
    yc.create_switch("sw1")
    yc.create_flow("sw1", "f", Match(in_port=1), [Output(2)])
    report = fsck(yc.sc, "/net")
    assert report.clean and report.removed() == []


def test_fsck_missing_root_is_vacuously_clean(sc):
    assert fsck(sc, "/nowhere").clean


def test_flow_version_unparseable_reads_zero(yc):
    yc.create_switch("sw1")
    path = yc.flow_path("sw1", "f")
    yc.sc.mkdir(path)
    assert flow_version(yc.sc, path) == 0  # schema populates version as 0
    assert flow_version(yc.sc, "/net/switches/sw1/flows/absent") == 0


def test_mount_yancfs_runs_the_recover_sweep(monkeypatch):
    calls = []
    import repro.yancfs.recovery as recovery

    real_fsck = recovery.fsck
    monkeypatch.setattr(
        recovery, "fsck", lambda sc, root: calls.append(root) or real_fsck(sc, root)
    )
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc, "/net")
    assert calls == ["/net"]  # a fresh mount still sweeps (it is empty, so cheap)


def test_mount_yancfs_recover_false_skips_the_sweep(monkeypatch):
    import repro.yancfs.recovery as recovery

    monkeypatch.setattr(
        recovery, "fsck", lambda *a, **k: (_ for _ in ()).throw(AssertionError("swept"))
    )
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc, "/net", recover=False)
    assert sc.exists("/net/switches")


# -- fsck's completeness, as a property over random trees ----------------------------------------
#
# fsck(dry_run=True) is a function of the tree alone, so its completeness is proven
# here once, over trees built through the syscall API, rather than at every crash
# prefix a workload happens to reach.  The reference below states the debris of
# §3.4/§3.5 over the whole listing of a tree: it is the check fsck must agree with.

_PLURAL = {"view": "views", "switch": "switches", "host": "hosts"}
_VERSIONS = ("missing", "empty", "0", "garbage", "committed")
_GARBAGE = ("x", "1x", "0x", "-", "v2")
_DOT_SHAPES = ("file", "empty", "full")  # a staged file, a directory a crash left empty, one holding a file and a non-empty sub-directory

_step = st.one_of(
    st.tuples(st.just("view"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("switch"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("host"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("flow"), st.integers(0, 7), st.booleans(), st.sampled_from(_VERSIONS), st.booleans(), st.sampled_from(_GARBAGE)),
    st.tuples(st.just("event"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("port"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("dot"), st.integers(0, 63), st.sampled_from(_DOT_SHAPES)),
)


def _listing(sc, root: str) -> dict[str, FileType]:
    """Every path under ``root`` with its own type: symlinks are listed, never followed."""
    found: dict[str, FileType] = {}
    todo = [root]
    while todo:
        path = todo.pop()
        for name in sc.listdir(path):
            child = f"{path}/{name}"
            found[child] = sc.lstat(child).ftype
            if found[child] is FileType.DIRECTORY:
                todo.append(child)
    return found


def _committed(sc, flow: str) -> bool:
    try:
        text = sc.read_text(f"{flow}/version").strip()
    except FsError:
        return False
    return text.isdigit() and int(text) > 0


def reference_debris(sc, root: str) -> tuple[list[str], list[str]]:
    """(stale dot-entries, torn flows) under ``root``: every dot-named entry, and every non-dot
    directory in a ``flows/`` whose ``version`` is not a positive integer — less those that lie
    inside another such entry, since removing the outer one removes them."""
    tree = _listing(sc, root)

    def kind(path: str) -> str | None:
        parent, _, name = path.rpartition("/")
        if name.startswith("."):
            return "dot"
        if tree[path] is FileType.DIRECTORY and parent.rpartition("/")[2] == "flows" and not _committed(sc, path):
            return "torn"
        return None

    debris = {path: found for path in tree if (found := kind(path))}
    outermost = [path for path in debris if not any(path.startswith(other + "/") for other in debris)]
    return sorted(p for p in outermost if debris[p] == "dot"), sorted(p for p in outermost if debris[p] == "torn")


class _RandomTree:
    """Builds a yanc tree step by step through the syscall API, every debris shape included."""

    def __init__(self, sc: Syscalls, nested_mount: bool) -> None:
        self.sc = sc
        self.fds: list[int] = []  # version writes a crash interrupted before their close
        self.views = ["/net"]  # directories holding hosts/, switches/, views/
        self.switches: list[str] = []
        self.ports: list[str] = []
        self.dirs = ["/net/hosts", "/net/switches", "/net/views"]
        self.seq = 0
        if nested_mount:
            sc.mkdir("/net/views/remote")
            mount_yancfs(sc, "/net/views/remote", recover=False)
            self._adopt("/net/views/remote")
            self.views.append("/net/views/remote")

    def _adopt(self, path: str) -> None:
        """Make every directory of a freshly created object a target for later steps."""
        self.dirs.append(path)
        self.dirs.extend(p for p, ftype in _listing(self.sc, path).items() if ftype is FileType.DIRECTORY)

    def _name(self, prefix: str, dot: bool) -> str:
        self.seq += 1
        return f"{'.' if dot else ''}{prefix}{self.seq}"

    def step(self, op: str, *args) -> None:
        if op in ("view", "switch", "host"):
            where, dot = args
            path = f"{self.views[where % len(self.views)]}/{_PLURAL[op]}/{self._name(op[0], dot)}"
            self.sc.mkdir(path)
            self._adopt(path)
            if op == "view":
                self.views.append(path)
            elif op == "switch":
                self.switches.append(path)
        elif op == "dot":
            self._dot(*args)
        else:
            if not self.switches:
                self.step("switch", 0, False)
            self._in_switch(op, *args)

    def _in_switch(self, op: str, *args) -> None:
        sc = self.sc
        if op == "flow":
            which, dot, version, temp, garbage = args
            path = f"{self.switches[which % len(self.switches)]}/flows/{self._name('f', dot)}"
            sc.mkdir(path)
            self._adopt(path)
            sc.write_text(f"{path}/match.in_port", "1")
            if version == "committed":
                sc.write_text(f"{path}/version", "1")
            elif version == "missing":
                sc.unlink(f"{path}/version")
            elif version in ("empty", "garbage"):
                fd = sc.open(f"{path}/version", O_WRONLY | O_TRUNC)
                if version == "garbage":
                    sc.write(fd, garbage.encode())
                self.fds.append(fd)
            if temp:
                sc.write_text(f"{path}/counters/.{self._name('tmp', False)}", "7")
        elif op == "event":
            which, dot = args
            buffer = f"{self.switches[which % len(self.switches)]}/events/app{which % 2}"
            if not sc.exists(buffer):
                sc.mkdir(buffer)
                self.dirs.append(buffer)
            entry = f"{buffer}/{self._name('pi_', dot)}"
            sc.mkdir(entry)
            sc.write_text(f"{entry}/in_port", "1")
            self.dirs.append(entry)
        elif op == "port":
            which, peer = args
            path = f"{self.switches[which % len(self.switches)]}/ports/{self._name('port_', False)}"
            sc.mkdir(path)
            self._adopt(path)
            if self.ports:
                sc.symlink(self.ports[peer % len(self.ports)], f"{path}/peer")
            self.ports.append(path)

    def _dot(self, where: int, shape: str) -> None:
        """A dot-temp in any directory that admits one, of one of :data:`_DOT_SHAPES`."""
        path = f"{self.dirs[where % len(self.dirs)]}/{self._name('.t', False)}"
        try:
            if shape == "file":
                self.sc.write_text(path, "staged")
                return
            self.sc.mkdir(path)
            if shape == "full":
                self.sc.write_text(f"{path}/f", "staged")
                self.sc.mkdir(f"{path}/d")
                self.sc.write_text(f"{path}/d/g", "staged")
        except FsError:
            pass  # the schema admits no such name there

    def close(self) -> None:
        for fd in self.fds:
            try:
                self.sc.close(fd)  # close-time validation rolls the interrupted write back
            except FsError:
                pass


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.lists(_step, min_size=10, max_size=50), st.integers(0, 7), st.sampled_from(_GARBAGE))
def test_fsck_reports_exactly_the_reference_debris_and_leaves_none(nested_mount, steps, where, garbage):
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc, "/net")
    tree = _RandomTree(sc, nested_mount)
    try:
        for step in steps:
            tree.step(*step)
        for version in _VERSIONS:  # every version shape, each flow holding a dot-temp, in one of the switches
            tree.step("flow", where, False, version, True, garbage)
        tree.step("host", where, False)  # and a staged plain directory with content, in a host
        tree.step("dot", len(tree.dirs) - 1, "full")
        dots, torn = reference_debris(sc, "/net")
        report = fsck(sc, "/net", dry_run=True)
        assert sorted(report.stale_entries) == dots, "leaked-dot-entry: fsck's dot-entries differ from the reference's"
        assert sorted(report.torn_flows) == torn, "unswept-torn-flow: fsck's torn flows differ from the reference's"
        before = _listing(sc, "/net")
        swept = fsck(sc, "/net")
        assert sorted(swept.removed()) == sorted(report.removed()) and not swept.failures
        assert reference_debris(sc, "/net") == ([], []), "debris left after a real fsck"
        removed = tuple(path + "/" for path in swept.removed())
        assert set(_listing(sc, "/net")) == {p for p in before if p not in swept.removed() and not p.startswith(removed)}
    finally:
        tree.close()
