"""Direct-store flow operations (no system calls).

v2 (paper §8.1, ROADMAP item 1): beyond the original per-call fastpath,
the library commits in *batches* (write-behind): :meth:`LibYanc.stage_flow`
creates a flow without bumping ``version``, and one :meth:`LibYanc.flush`
commits every staged flow, so a burst pays one visibility point per flow
instead of one per mutation.  §3.4 semantics are preserved exactly:
nothing a driver acts on becomes visible until its version increments,
and versions only ever grow.

This is the third transport of the write pipeline
(:func:`repro.yancfs.client.write_object` documents the protocol): the
same directory of files and the same ``version`` commit, with no
crossing.  Direct-store mutations never cross ``Syscalls``, so the three
primitive mutators are trace points of their own
(:mod:`repro.perf.tracepoints`): ``on_libyanc(ly, op, switch, name,
*extra)`` once the mutation landed — ``create_flow`` (published when a
flow is staged) carries the ``{filename: content}`` dict it wrote — and
:meth:`LibYanc.flush` is bracketed by
``on_libyanc_flush_enter(ly)`` / ``on_libyanc_flush_exit(ly, result,
exc)``.
"""

from __future__ import annotations

from repro.dataplane.actions import Action
from repro.dataplane.match import Match
from repro.perf.counters import PerfCounters
from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.cred import ROOT
from repro.vfs.errors import FileExists, FileNotFound, NotADirectory
from repro.vfs.inode import DirInode
from repro.vfs.stat import FileType
from repro.yancfs.client import flow_spec_files
from repro.yancfs.schema import AttributeFile, FlowNode, FlowsDir, SwitchNode, YancFs

class LibYanc:
    """A process's handle on the shared-memory mapping of the yanc store.

    Each operation counts one ``libyanc.op`` (and its touched bytes) in the
    shared counters, but zero syscalls and zero context switches — the
    quantity the benchmark of experiment E2 compares against the file path.
    """

    def __init__(self, fs: YancFs, *, counters: PerfCounters | None = None) -> None:
        self.fs = fs
        self.counters = counters or PerfCounters()
        #: Flows staged but not yet committed, in staging order (the
        #: write-behind set :meth:`flush` drains).
        self._dirty: dict[tuple[str, str], None] = {}

    def _op(self, name: str) -> None:
        self.counters.add("libyanc.op")
        self.counters.add(f"libyanc.{name}")

    # -- store navigation (in-process pointer chasing, not path resolution) ----------

    def _switch(self, switch: str) -> SwitchNode:
        switches = self.fs.root.lookup("switches")
        if not isinstance(switches, DirInode):
            raise NotADirectory("switches")
        node = switches.lookup(switch)
        if not isinstance(node, SwitchNode):
            raise NotADirectory(switch, "not a switch object")
        return node

    def _flows(self, switch: str) -> FlowsDir:
        flows = self._switch(switch).lookup("flows")
        assert isinstance(flows, FlowsDir)
        return flows

    def _flow(self, switch: str, name: str) -> FlowNode:
        node = self._flows(switch).lookup(name)
        if not isinstance(node, FlowNode):
            raise NotADirectory(name, "not a flow object")
        return node

    # -- fastpath operations -------------------------------------------------------------

    def create_flow(
        self,
        switch: str,
        name: str,
        match: Match,
        actions: list[Action],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
    ) -> None:
        """Create a whole flow entry atomically (paper: "a fastpath for
        e.g. creating flow entries atomically and without any context
        switchings").

        :meth:`stage_flow` then :meth:`commit_flow`: watchers see the
        same IN_CREATE / IN_MODIFY events the file path produces, but the
        caller crossed into the kernel zero times.
        """
        self.stage_flow(switch, name, match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        self.commit_flow(switch, name)

    def _put_files(self, switch: str, name: str, node: FlowNode, files: dict[str, str]) -> None:
        """Validate every value, then store them all: a staged flow's files are all-or-nothing.

        New files are built by the flow directory's own ``child_factory``
        (the node ``open(O_CREAT)`` would attach), each value passes the
        validator the file path runs at close time, and the one
        ``libyanc`` trace point carries the dict that landed.
        """
        attrs: dict[str, AttributeFile] = {}
        for filename, content in files.items():
            attr = node.lookup(filename) if node.has_child(filename) else node.child_factory(filename, FileType.REGULAR, ROOT)
            if not isinstance(attr, AttributeFile):
                raise FileNotFound(filename)
            if attr.validator is not None:
                attr.validator(content)
            attrs[filename] = attr
        for filename, attr in attrs.items():
            attr.set_validated_content(files[filename])
            if not node.has_child(filename):
                node.attach(filename, attr)
        if _tracing:
            _publish("libyanc", self, "create_flow", switch, name, files)

    def commit_flow(self, switch: str, name: str) -> int:
        """Bump the version file in place; returns the new version."""
        self._op("commit_flow")
        version_node = self._flow(switch, name).lookup("version")
        assert isinstance(version_node, AttributeFile)
        new_version = int(version_node.read_all().decode().strip() or "0") + 1
        version_node.set_content(str(new_version).encode())
        self._dirty.pop((switch, name), None)
        if _tracing:
            _publish("libyanc", self, "commit_flow", switch, name)
        return new_version

    def delete_flow(self, switch: str, name: str) -> None:
        """Remove a flow entry recursively (watchers see IN_DELETE as usual).

        Emits the exact event stream ``rm -r`` of the flow path produces:
        depth-first IN_DELETE for every descendant (so a watcher on
        ``counters/`` sees its children go), IN_DELETE_SELF on each
        emptied directory, and finally IN_DELETE for the flow itself on
        the flows directory.
        """
        self._op("delete_flow")
        flows = self._flows(switch)
        node = flows.lookup(name)
        if isinstance(node, DirInode):
            node.remove_subtree()
        flows.detach(name)
        self._dirty.pop((switch, name), None)
        if _tracing:
            _publish("libyanc", self, "delete_flow", switch, name)

    # -- write-behind commits (§3.4 visibility, batched) -----------------------------

    def stage_flow(
        self,
        switch: str,
        name: str,
        match: Match,
        actions: list[Action],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
    ) -> None:
        """Create a flow with its commit deferred to the next :meth:`flush`.

        The directory and spec files appear immediately (version 0 — a
        driver ignores it until committed); the visibility point is paid
        later, once, by :meth:`flush`.
        """
        self._op("stage_flow")
        flows = self._flows(switch)
        if flows.has_child(name):
            raise FileExists(name)
        node = flows.child_factory(name, FileType.DIRECTORY, ROOT)
        files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        flows.attach(name, node)  # populates counters/ + version
        self._put_files(switch, name, node, files)
        self._dirty[(switch, name)] = None

    def flush(self) -> list[tuple[str, str, int]]:
        """Commit every staged flow, in staging order.

        Returns (switch, flow, new_version) per commit.  Flows deleted
        since staging are skipped silently — there is nothing left to make
        visible.
        """
        if _tracing and _entering(self):
            return _around("libyanc_flush", (self,), self.flush)
        self._op("flush")
        out: list[tuple[str, str, int]] = []
        pending, self._dirty = self._dirty, {}
        for switch, name in pending:
            try:
                out.append((switch, name, self.commit_flow(switch, name)))
            except (NotADirectory, FileNotFound):
                continue
        return out
