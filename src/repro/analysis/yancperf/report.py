"""The ranked per-function cost table (``yancperf --report``).

Ranks every analyzed function by its interprocedural cost polynomial —
highest degree first, then the leading coefficient — so the top of the
table is literally the work list for the ROADMAP's batched-syscall ring
(item 1) and indexed flow tables (item 3): the functions whose syscall
bill grows fastest with topology size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.yancperf.model import CostExpr, CostIndex


@dataclass
class CostRow:
    """One ranked function."""

    name: str  # Class.method or bare function name
    path: str
    line: int
    cost: CostExpr
    rolled: int  # resolved callees whose cost was rolled in

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "cost": self.cost.render(),
            "degree": self.cost.degree,
            "at_n8": self.cost.evaluate(8),
            "rolled_callees": self.rolled,
        }


def cost_report(paths: list[str]) -> list[CostRow]:
    """Every function with a nonzero cost, most expensive first."""
    from repro.analysis.sweep import Sweep

    index = CostIndex(Sweep(paths))
    rows = []
    for decl in index.decls:
        cost = index.cost(decl)
        if cost.is_zero and not cost.approx:
            continue
        name = f"{decl.class_name}.{decl.name}" if decl.class_name else decl.name
        rows.append(
            CostRow(
                name=name,
                path=decl.module.src.path,
                line=decl.node.lineno,
                cost=cost,
                rolled=index.rolled_callees(decl),
            )
        )
    rows.sort(key=lambda row: row.cost.sort_key(), reverse=True)
    return rows


def render_report(rows: list[CostRow], top: int | None = None) -> str:
    """Text table; ``top`` limits the rows shown (the count line does not lie)."""
    shown = rows if top is None else rows[:top]
    lines = [
        f"yancperf report: {len(rows)} function(s) with estimated syscall cost"
        + (f" (top {len(shown)} shown)" if len(shown) < len(rows) else "")
    ]
    if not shown:
        return lines[0]
    width = max(len(row.cost.render()) for row in shown)
    name_width = max(len(row.name) for row in shown)
    lines.append(f"{'rank':>4}  {'cost/call':<{width}}  {'callees':>7}  {'function':<{name_width}}  site")
    for rank, row in enumerate(shown, start=1):
        lines.append(
            f"{rank:>4}  {row.cost.render():<{width}}  {row.rolled:>7}  "
            f"{row.name:<{name_width}}  {row.path}:{row.line}"
        )
    return "\n".join(lines)


__all__ = ["CostRow", "cost_report", "render_report"]
