"""The yancfs namespace model, derived from the live schema.

Nothing in here hand-copies the tree layout.  The model is built by
*instantiating* ``yancfs/schema.py`` — mounting a throwaway in-memory
yanc file system, mkdir-ing one probe object of every kind (switch,
port, flow, event buffer + message, host, view, middlebox, state entry)
so every semantic-mkdir ``populate()`` runs — and then answering
questions by asking the real inode classes:

* **literal children** come from the probe tree itself (``populate()``
  attached them);
* **wildcard children** (a new switch name, a new flow name) are probed
  through the class's own ``may_create``/``child_factory`` hooks, so
  name-conditional rules (``flow_file_validator`` rejecting unknown flow
  files, the root accepting only ``middleboxes``) are enforced by the
  same code that enforces them at runtime;
* **content validators** are read off the :class:`AttributeFile` nodes
  the factories build.

One strictness delta over the runtime, documented in DESIGN §5e: a
*structural* object directory (one whose class defines ``populate()``
without overriding ``child_factory``) is treated as **closed** — the
runtime would happily ``mkdir /net/switches/s1/flow`` as a plain
directory, but no correct program invents names under a populated
object, and that typo is exactly the bug class yancpath exists to catch.

Because the model is rebuilt from the imported modules on every
:meth:`NamespaceModel.build`, mutating a schema constant (say
``SWITCH_ATTRIBUTE_FILES``) changes the grammar with no analyzer change
— a property the test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.analysis.yancpath.patterns import STAR, PathPattern, Seg

_PROBE = "zz_yancpath_probe"
_MATCH_CAP = 32
_STEP_CAP = 4000


@dataclass(frozen=True)
class Resolution:
    """One way a pattern can land in the tree."""

    is_dir: bool
    validator: Callable[[str], None] | None
    validator_known: bool
    in_event_buffer: bool
    in_packet_out: bool


@dataclass
class MatchResult:
    """Outcome of matching one pattern against the namespace."""

    applicable: bool
    resolutions: list[Resolution] = field(default_factory=list)
    exhaustive: bool = True  # False when the resolution cap was hit

    @property
    def matched(self) -> bool:
        return bool(self.resolutions)


class NamespaceModel:
    """The derived path grammar for one yanc tree shape."""

    def __init__(self) -> None:
        from repro.vfs.errors import FsError
        from repro.vfs.inode import DirInode
        from repro.vfs.stat import FileType
        from repro.vfs.syscalls import Syscalls
        from repro.vfs.vfs import VirtualFileSystem
        from repro.yancfs import schema
        from repro.yancfs.client import mount_yancfs

        self._DirInode = DirInode
        self._FileType = FileType
        self._FsError = FsError
        self._schema = schema

        sc = Syscalls(VirtualFileSystem())
        mount_yancfs(sc)
        for path in (
            "/net/switches/s1",
            "/net/switches/s1/ports/port_1",
            "/net/switches/s1/flows/f1",
            "/net/switches/s1/events/app_probe",
            "/net/switches/s1/events/app_probe/m_probe",
            "/net/hosts/h1",
            "/net/views/v1",
            "/net/middleboxes",
            "/net/middleboxes/mb1",
            "/net/middleboxes/mb1/state/e1",
            "/net/apps",
            "/net/apps/app_probe",
        ):
            sc.mkdir(path)
        self._cred = sc.cred
        self.root = sc.vfs.resolve(sc.ns, sc.cred, "/net")
        self.root_names: tuple[str, ...] = ("net",)

        # First-seen representative per inode class (BFS keeps the
        # master-tree instances ahead of the empty view-subtree copies).
        # The structural vocabulary is the set of directory names that
        # populate() attaches — probe-object names (s1, f1, ...) live
        # under container dirs whose classes define no populate() and
        # are excluded, so only schema-fixed names count as evidence
        # that an un-anchored pattern talks about the yanc tree.
        self._reps: dict[type, object] = {}
        self.dir_vocab: set[str] = set()
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            self._reps.setdefault(type(node), node)
            populated = any("populate" in k.__dict__ for k in type(node).__mro__)
            for name, child in node.children():
                if isinstance(child, DirInode):
                    if populated:
                        self.dir_vocab.add(name)
                    queue.append(child)

    @classmethod
    def build(cls) -> "NamespaceModel":
        """Derive a fresh model from the schema as currently imported."""
        return cls()

    # -- derived vocabularies ---------------------------------------------------------

    def iter_files(self) -> Iterator[tuple[str, object]]:
        """Every (name, inode) regular file in the probe tree."""
        stack = [self.root]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for name, child in node.children():
                if isinstance(child, self._DirInode):
                    stack.append(child)
                else:
                    yield name, child

    def match_file_nodes(self, pattern: PathPattern) -> list[tuple[str, object]]:
        """Probe-tree files a pattern can land on, as ``(path, inode)``.

        Unlike :meth:`match` this never probes ``child_factory`` — only
        files ``populate()`` actually attached count, so the answer is the
        set of *schema-stamped* nodes (the ones whose ACLs are schema
        policy rather than per-creation accidents).
        """
        atoms = self._anchor(pattern)
        return [] if atoms is None else self._file_search(atoms)

    def _file_search(self, atoms: tuple) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = []
        self._file_match(self.root, "/net", atoms, 0, out, set(), [_STEP_CAP])
        return out

    def _file_match(self, node, path, atoms, i, out, memo, budget) -> None:
        if budget[0] <= 0 or len(out) >= _MATCH_CAP:
            return
        budget[0] -= 1
        if i == len(atoms):
            return  # the pattern ended on a directory, not a file
        atom = atoms[i]
        last = i == len(atoms) - 1
        if atom is STAR:
            key = (id(node), i)
            if key in memo:
                return
            memo.add(key)
            self._file_match(node, path, atoms, i + 1, out, memo, budget)
            for name, child in node.children():
                if isinstance(child, self._DirInode):
                    self._file_match(child, f"{path}/{name}", atoms, i, out, memo, budget)
            return
        for name, child in node.children():
            if atom.literal is not None:
                if name != atom.literal:
                    continue
            elif not atom.matches_name(name):
                continue
            if isinstance(child, self._DirInode):
                if not last:
                    self._file_match(child, f"{path}/{name}", atoms, i + 1, out, memo, budget)
            elif last:
                out.append((f"{path}/{name}", child))

    # -- matching ---------------------------------------------------------------------

    def match(self, pattern: PathPattern) -> MatchResult:
        """Match a finalized pattern against the namespace.

        ``applicable`` is False when the pattern cannot be judged: an
        absolute path outside the yanc mount, or a relative/unknown-root
        pattern that names no structural directory of the tree (those
        are ordinary files, not yanc paths).
        """
        atoms = self._anchor(pattern)
        return MatchResult(applicable=False) if atoms is None else self._search(atoms)

    def _anchor(self, pattern: PathPattern) -> tuple | None:
        """The atoms to search from the mount root; None when the pattern is not a yanc path."""
        atoms = pattern.atoms
        if pattern.anchored:
            if not atoms:
                return None
            head = atoms[0]
            if head is not STAR and head.literal is not None:
                return atoms[1:] if head.literal in self.root_names else None
            # `/…{hole}…/switches` — unknown mount segment: fall through
            # to suffix matching below.
            atoms = atoms if head is STAR else (STAR,) + atoms[1:]
        if not any(lit in self.dir_vocab for lit in pattern.literal_segments):
            return None
        return atoms if atoms[:1] == (STAR,) else (STAR,) + atoms

    def _search(self, atoms: tuple) -> MatchResult:
        out: list[Resolution] = []
        budget = [_STEP_CAP]
        self._match(self.root, atoms, 0, False, False, out, set(), budget)
        return MatchResult(applicable=True, resolutions=out, exhaustive=budget[0] > 0 and len(out) < _MATCH_CAP)

    def _match(self, node, atoms, i, in_eb, in_po, out, memo, budget) -> None:
        if len(out) >= _MATCH_CAP or budget[0] <= 0:
            return
        budget[0] -= 1
        if i == len(atoms):
            out.append(Resolution(True, None, True, in_eb, in_po))
            return
        atom = atoms[i]
        last = i == len(atoms) - 1
        if atom is STAR:
            key = (id(node), i, in_eb, in_po)
            if key in memo:
                return
            memo.add(key)
            self._match(node, atoms, i + 1, in_eb, in_po, out, memo, budget)
            # STAR stands for an unknown *prefix* (a mount root, a view
            # root).  Expanding it along literal children only — the
            # probe tree holds one instance of every structural position
            # — keeps it from sliding into open subtrees (event-message
            # dirs, host attribute dirs) and matching nonsense there.
            c_eb = in_eb or self._is_role(node, "EventBufferDir")
            c_po = in_po or self._is_role(node, "PacketOutDir")
            for _name, child in node.children():
                if isinstance(child, self._DirInode):
                    self._match(child, atoms, i, c_eb, c_po, out, memo, budget)
            return

        c_eb = in_eb or self._is_role(node, "EventBufferDir")
        c_po = in_po or self._is_role(node, "PacketOutDir")
        lit = atom.literal
        matched_literal_child = False
        for name, child in node.children():
            if lit is not None:
                if name != lit:
                    continue
                matched_literal_child = True
            elif not atom.matches_name(name):
                continue
            if isinstance(child, self._DirInode):
                if last:
                    out.append(Resolution(True, None, True, c_eb, c_po))
                else:
                    self._match(child, atoms, i + 1, c_eb, c_po, out, memo, budget)
            elif last:
                validator = getattr(child, "validator", None)
                out.append(Resolution(False, validator, True, c_eb, c_po))
        if matched_literal_child:
            return

        rep = self._probe_dir(node, lit)
        if rep is not None:
            if last:
                out.append(Resolution(True, None, True, c_eb, c_po))
            else:
                self._match(rep, atoms, i + 1, c_eb, c_po, out, memo, budget)
        if last:
            allowed, validator, known = self._probe_file(node, lit)
            if allowed:
                out.append(Resolution(False, validator, known, c_eb, c_po))
            if (lit is None or lit not in self.dir_vocab) and self._probe_create(
                node, lit if lit is not None else _PROBE, self._FileType.SYMLINK
            ):
                out.append(Resolution(False, None, True, c_eb, c_po))

    # -- probe helpers ---------------------------------------------------------------

    def _is_role(self, node, class_name: str) -> bool:
        cls = getattr(self._schema, class_name, None)
        return cls is not None and isinstance(node, cls)

    def _probe_create(self, node, name: str, ftype) -> bool:
        try:
            node.may_create(name, ftype, self._cred)
            return True
        except self._FsError:
            return False

    def _closed(self, cls: type) -> bool:
        """Structural objects (populate() without child_factory) are closed."""
        has_populate = any("populate" in k.__dict__ for k in cls.__mro__)
        return has_populate and cls.child_factory is self._DirInode.child_factory

    def _probe_dir(self, node, name: str | None):
        """The representative child directory for ``name`` (None = wildcard).

        A wildcard directory edge must produce a *schema* node class —
        a factory that falls back to a plain DirInode (a host growing an
        arbitrary subtree) carries no structure worth matching into, and
        admitting it would let any pattern suffix-match inside it.
        """
        if name is not None and name in self.dir_vocab:
            # Structural names are reserved: interpreting `switches` as
            # "an object that happens to be named switches" would let any
            # typo'd suffix pattern re-anchor inside a fresh subtree.
            return None
        probe = name if name is not None else _PROBE
        if not self._probe_create(node, probe, self._FileType.DIRECTORY):
            return None
        if self._closed(type(node)):
            return None
        try:
            child = node.child_factory(probe, self._FileType.DIRECTORY, self._cred)
        except self._FsError:
            return None
        if type(child).__module__ != self._schema.__name__:
            return None
        return self._rep(child)

    def _probe_file(self, node, name: str | None):
        """(allowed, validator, validator_known) for creating file ``name``."""
        if name is not None and name in self.dir_vocab:
            return False, None, False
        probe = name if name is not None else _PROBE
        if not self._probe_create(node, probe, self._FileType.REGULAR):
            return False, None, False
        if self._closed(type(node)):
            return False, None, False
        if name is None:
            return True, None, False
        try:
            child = node.child_factory(name, self._FileType.REGULAR, self._cred)
        except self._FsError:
            return False, None, False
        return True, getattr(child, "validator", None), True

    def _rep(self, fresh):
        """Map a factory-built node onto its populated representative."""
        cls = type(fresh)
        rep = self._reps.get(cls)
        if rep is not None:
            return rep
        populate = getattr(fresh, "populate", None)
        if callable(populate):
            try:
                populate()
            except self._FsError:
                pass  # a factory node that can't populate detached is still usable
        self._reps[cls] = fresh
        return fresh

__all__ = ["MatchResult", "NamespaceModel", "Resolution", "Seg"]
