"""The static sweep: one load, one namespace model, one interpretation —
and N judges reading the result.

yancpath, yancperf, yanccrash and yancsec all judge the same facts: the
syscall sites, ring staging calls, loops and resolved calls the
:class:`~repro.analysis.yancpath.interp.FuncInterp` abstract interpreter
records for every module body and function.  A :class:`Sweep` produces
those facts once and owns everything the judges used to duplicate:

* **loading** — the paths are collected and parsed once
  (:attr:`sources`, :attr:`load_findings`);
* **the grammar** — one :class:`NamespaceModel`, built on first use, and
  the §3.4 flow-file role oracle over it (:attr:`role`);
* **interpretation** — one :class:`ProjectIndex`, and every module-level
  and per-function interpreter constructed and run exactly once
  (:attr:`modules`);
* **the path memo** — :meth:`pattern`, :meth:`match_tokens` and
  :meth:`file_nodes` answer per raw token string, so probe-tree traffic
  is proportional to the number of *distinct* path expressions in the
  project, not to syscall sites times tools;
* **emission** — :meth:`run` hands each judge the single ``emit``:
  per-module ``(line, col, kind)`` dedupe, ``# <tool>: disable=``
  suppressions, severity lookup, :class:`Finding` construction.

A tool is a :class:`~repro.analysis.core.Judge` — its kinds and
severities, an optional ``prepare(sweep)``, ``judge_interp`` and an
optional ``judge_module`` — registered in :data:`JUDGES`.  yanclint's
per-file rules run over the same parsed sources through
:func:`repro.analysis.runner.analyze_sweep`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from repro.analysis.core import Finding, Judge, SourceFile
from repro.analysis.loader import load_files
from repro.analysis.yanccrash import checker as yanccrash
from repro.analysis.yancpath import checker as yancpath
from repro.analysis.yancpath import patterns as P
from repro.analysis.yancpath.grammar import MatchResult, NamespaceModel
from repro.analysis.yancpath.interp import FuncInterp, ModuleInfo, ProjectIndex
from repro.analysis.yancperf import checker as yancperf
from repro.analysis.yancsec import checker as yancsec


#: The judge registry by tool name.
JUDGES: dict[str, Judge] = {
    judge.name: judge for judge in (yancpath.JUDGE, yancperf.JUDGE, yanccrash.JUDGE, yancsec.JUDGE)
}


class Sweep:
    """Parsed sources plus the shared fact base the judges read."""

    def __init__(
        self,
        paths: Iterable[str] = (),
        *,
        sources: Iterable[SourceFile] | None = None,
        model: NamespaceModel | None = None,
    ) -> None:
        """Load ``paths``, or adopt already-parsed ``sources`` (and ``model``)."""
        self.load_findings: list[Finding] = []
        if sources is None:
            sources, self.load_findings = load_files(list(paths))
        self.sources: list[SourceFile] = list(sources)
        if model is not None:
            self.model = model
        self._patterns: dict[tuple, P.PathPattern | None] = {}
        self._matches: dict[tuple, MatchResult | None] = {}
        self._file_nodes: dict[tuple, list[tuple[str, object]]] = {}

    @cached_property
    def model(self) -> NamespaceModel:
        """The namespace grammar, derived from the live schema on first use."""
        return NamespaceModel.build()

    @cached_property
    def role(self):
        """The flow-file role oracle (``"stage"``/``"commit"``/None per token string)."""
        return yancpath.make_judge(self.model)

    @cached_property
    def modules(self) -> list[tuple[ModuleInfo, list[FuncInterp]]]:
        """Every module with its interpreters, run: module body first, then
        each function in declaration order."""
        index = ProjectIndex(self.sources, self.role)
        out = []
        for module in index.modules:
            interps = [FuncInterp(index, None, module=module)]
            interps += [FuncInterp(index, decl) for decl in module.functions]
            for interp in interps:
                interp.run()
            out.append((module, interps))
        return out

    # -- the path memo ---------------------------------------------------------------

    def pattern(self, tokens: tuple) -> P.PathPattern | None:
        """``P.finalize(tokens)``, memoized."""
        if tokens not in self._patterns:
            self._patterns[tokens] = P.finalize(tokens)
        return self._patterns[tokens]

    def match_tokens(self, tokens: tuple | None) -> MatchResult | None:
        """Match one token string against the namespace; None = unjudgeable
        (empty, unfinalizable, or not about the yanc tree).

        Not named ``match``: the interpreter resolves calls by name, and a
        second project-wide ``match`` would change what ``re.match`` call
        sites elsewhere in ``src/`` resolve to.
        """
        if not tokens:
            return None
        if tokens not in self._matches:
            pattern = self.pattern(tokens)
            result = None if pattern is None else self.model.match(pattern)
            self._matches[tokens] = result if result is not None and result.applicable else None
        return self._matches[tokens]

    def file_nodes(self, tokens: tuple) -> list[tuple[str, object]]:
        """Schema-stamped files the token string can land on, as ``(path, inode)``."""
        if tokens not in self._file_nodes:
            pattern = self.pattern(tokens)
            self._file_nodes[tokens] = [] if pattern is None else self.model.match_file_nodes(pattern)
        return self._file_nodes[tokens]

    # -- judging ---------------------------------------------------------------------

    def run(self, judge: Judge) -> list[Finding]:
        """One judge's findings over the whole sweep, in emission order."""
        state = judge.prepare(self) if judge.prepare is not None else None
        out: list[Finding] = []
        for module, interps in self.modules:
            src: SourceFile = module.src
            emitted: set[tuple[int, int, str]] = set()

            def emit(kind: str, node, message: str) -> None:
                line = getattr(node, "lineno", 1)
                col = getattr(node, "col_offset", 0) + 1
                key = (line, col, kind)
                if key in emitted or src.is_suppressed(kind, line):
                    return
                emitted.add(key)
                out.append(
                    Finding(
                        path=src.path,
                        line=line,
                        col=col,
                        rule=kind,
                        severity=judge.severities[kind],
                        message=message,
                    )
                )

            for interp in interps:
                judge.judge_interp(self, interp, emit, state)
            if judge.judge_module is not None:
                judge.judge_module(self, module, emit, state)
        return out

    def report(self, judge: Judge) -> list[Finding]:
        """What the tool's CLI prints: loader findings plus :meth:`run`, sorted."""
        return sorted(self.load_findings + self.run(judge), key=Finding.sort_key)


__all__ = ["JUDGES", "Sweep"]
