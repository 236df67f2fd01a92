"""The yancperf syscall-cost model.

Every function's estimated cost is a small polynomial in ``n`` — the
(unknown) trip count of its loops — built from three inputs the shared
:class:`~repro.analysis.sweep.Sweep`'s interpreters record:

* **op sites** — every recognized metered ``Syscalls`` call, weighted by
  how many real syscalls the facade method issues (``read_text`` is
  open+read+close = 3, ``listdir`` is one getdents, ...), multiplied by
  ``n`` once per enclosing loop (``depth``);
* **rpc sites** — distfs ``channel.call`` round trips, weighted like a
  syscall (the network hop dwarfs it, but the *count* is what the model
  ranks by);
* **resolved calls** — a project-internal callee's whole polynomial is
  rolled up into the caller, shifted by the call site's loop depth
  (``helper()`` inside one loop turns its ``3 + 2n`` into ``3n + 2n²``).

The model is deliberately an **upper bound**: every branch is assumed
taken, every loop multiplies by the same ``n``, and bounded loops still
count as a degree.  Calibration (``--calibrate``) checks exactly that
contract against live :class:`~repro.perf.meter.SyscallMeter` counts —
the model may overestimate, but a live count above the static bound
means the model lost track of a hot path and the build fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.yancpath.interp import FuncDecl, FuncInterp
from repro.vfs.syscalls import SYSCALLS

#: Real syscalls issued per call: each syscall-table row's crossings, plus
#: the ``Process.watch`` run-loop helper and the ring's one crossing,
#: ``submit`` — a flush costs one however many entries it drains.
WEIGHTS: dict[str, int] = {op: row.crossings for op, row in SYSCALLS.items()} | {"watch": 1, "submit": 1}

#: Methods that resolve a path on every call (the dcache round trip a held
#: fd would avoid).  Only these count toward the syscall-in-loop storm
#: weight: a loop doing fd-based reads on an already-open descriptor is
#: the remedy, not the disease — and so is a ring, which amortizes the
#: resolution of a path storm rather than being an instance of one.
PATH_RESOLVING: frozenset = frozenset(op for op, row in SYSCALLS.items() if row.paths) | {"watch"}

#: Degrees above this collapse (n⁵ and n⁴ rank the same in practice).
MAX_DEGREE = 4


@dataclass
class CostExpr:
    """A polynomial in ``n``: ``coeffs[d]`` syscalls at loop depth ``d``."""

    coeffs: dict[int, int] = field(default_factory=dict)
    approx: bool = False  # a recursion or budget cut made this a floor

    @classmethod
    def zero(cls, approx: bool = False) -> "CostExpr":
        return cls(coeffs={}, approx=approx)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def add_term(self, degree: int, weight: int) -> None:
        if weight <= 0:
            return
        degree = min(degree, MAX_DEGREE)
        self.coeffs[degree] = self.coeffs.get(degree, 0) + weight

    def plus(self, other: "CostExpr") -> "CostExpr":
        out = CostExpr(coeffs=dict(self.coeffs), approx=self.approx or other.approx)
        for degree, weight in other.coeffs.items():
            out.add_term(degree, weight)
        return out

    def shifted(self, by: int) -> "CostExpr":
        """Multiply by ``n^by`` — the callee runs once per iteration."""
        out = CostExpr(approx=self.approx)
        for degree, weight in self.coeffs.items():
            out.add_term(degree + by, weight)
        return out

    def evaluate(self, n: int) -> int:
        return sum(weight * n**degree for degree, weight in self.coeffs.items())

    def render(self) -> str:
        if self.is_zero:
            return "~0" if self.approx else "0"
        parts = []
        for degree in sorted(self.coeffs, reverse=True):
            weight = self.coeffs[degree]
            if degree == 0:
                parts.append(str(weight))
            else:
                var = "n" if degree == 1 else f"n^{degree}"
                parts.append(var if weight == 1 else f"{weight}{var}")
        text = " + ".join(parts)
        return f"~{text}" if self.approx else text

    def sort_key(self) -> tuple:
        """Descending rank: degree first, then the polynomial at n=8."""
        return (self.degree, self.coeffs.get(self.degree, 0), self.evaluate(8))


class CostIndex:
    """Memoized interprocedural cost rollups over one sweep's interpreters."""

    def __init__(self, sweep):
        self.interps: dict[int, FuncInterp] = {
            id(interp.decl.node): interp for _module, interps in sweep.modules for interp in interps[1:]
        }
        self.decls: list[FuncDecl] = [interp.decl for interp in self.interps.values()]
        self._costs: dict[int, CostExpr] = {}
        self._rolled: dict[int, int] = {}
        self._in_progress: set[int] = set()

    def interp_of(self, decl: FuncDecl) -> FuncInterp:
        return self.interps[id(decl.node)]

    def find(self, class_name: str | None, func_name: str) -> FuncDecl | None:
        for decl in self.decls:
            if decl.name == func_name and decl.class_name == class_name:
                return decl
        return None

    @staticmethod
    def direct_cost(interp: FuncInterp) -> CostExpr:
        """The function's own metered operations, before callee rollup."""
        expr = CostExpr.zero()
        for op in interp.op_sites:
            weight = WEIGHTS.get(op.method, 0)
            # walk() yields one getdents per directory visited, so a loop
            # over it pays per iteration even though the call sits outside.
            depth = op.depth + 1 if op.method == "walk" else op.depth
            expr.add_term(depth, weight)
        for rpc in interp.rpc_sites:
            expr.add_term(rpc.depth, 1)
        return expr

    def cost(self, decl: FuncDecl) -> CostExpr:
        key = id(decl.node)
        cached = self._costs.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return CostExpr.zero(approx=True)  # recursion: cost is a floor
        self._in_progress.add(key)
        try:
            interp = self.interp_of(decl)
            expr = self.direct_cost(interp)
            rolled = 0
            for call in interp.calls:
                callee_cost = self.cost(call.callee)
                if callee_cost.is_zero and not callee_cost.approx:
                    continue
                expr = expr.plus(callee_cost.shifted(call.depth))
                rolled += 1
        finally:
            self._in_progress.discard(key)
        self._costs[key] = expr
        self._rolled[key] = rolled
        return expr

    def rolled_callees(self, decl: FuncDecl) -> int:
        """How many resolved callees contributed to ``cost(decl)``."""
        self.cost(decl)
        return self._rolled.get(id(decl.node), 0)

    def per_iteration_weight(self, interp: FuncInterp, loop) -> int:
        """Estimated path-resolving syscalls per iteration of ``loop``.

        Direct sites inside the loop plus each resolved callee's whole
        cost at n=1 (its own loops assumed short — an under-, not
        over-estimate, so the storm threshold stays conservative).
        """
        weight = 0
        for op in interp.op_sites:
            if op.loop is loop and op.method in PATH_RESOLVING:
                weight += WEIGHTS.get(op.method, 0)
        for call in interp.calls:
            if call.loop is loop:
                weight += self.cost(call.callee).evaluate(1)
        return weight


__all__ = ["CostExpr", "CostIndex", "MAX_DEGREE", "PATH_RESOLVING", "WEIGHTS"]
