"""Rule ``schema-coverage``: every yancfs attribute file has a validator.

The yanc tree "never holds an unparseable configuration" (yancfs/validate)
— but only for files that actually *carry* a validator.  This cross-module
rule walks every :class:`AttributeFile` in the sweep's derived namespace model
(:class:`repro.analysis.yancpath.grammar.NamespaceModel`, whose probe tree
instantiates one object of every kind: switch, port, flow, event message,
host, view, middlebox state entry) and demands each one either has a
validator or is explicitly registered as free-form in
``validate.FREE_FORM_ATTRIBUTES``.  It also checks the flow vocabulary:
every ``match.<field>`` from ``MATCH_FIELD_NAMES`` and every core flow
attribute must resolve through ``flow_file_validator``.

Findings anchor to the declaration site in ``yancfs/schema.py``.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, ProjectRule, Severity, register

#: Flow attribute files the commit protocol depends on (§3.4, figure 3).
_REQUIRED_FLOW_ATTRS = ("priority", "timeout", "idle_timeout", "hard_timeout", "cookie", "version")


class SchemaCoverageRule(ProjectRule):
    id = "schema-coverage"
    severity = Severity.ERROR
    description = (
        "every attribute file declared by yancfs/schema.py must have a validator in "
        "yancfs/validate.py (or be registered in FREE_FORM_ATTRIBUTES)"
    )

    def check_project(self, sweep) -> Iterator[Finding]:
        try:
            from repro.yancfs import validate
            from repro.yancfs.schema import AttributeFile

            model = sweep.model
        except ImportError as exc:
            yield Finding("repro/yancfs/schema.py", 1, 1, self.id, self.severity, f"cannot import yancfs to check coverage: {exc}")
            return

        free_form = getattr(validate, "FREE_FORM_ATTRIBUTES", frozenset())
        schema_path, schema_lines = _schema_source()

        seen: set[str] = set()
        for name, node in model.iter_files():
            if not isinstance(node, AttributeFile) or node.validator is not None:
                continue
            if name in free_form:
                continue
            if name in seen:
                continue
            seen.add(name)
            yield Finding(
                path=schema_path,
                line=_line_of(schema_lines, name),
                col=1,
                rule=self.id,
                severity=self.severity,
                message=(
                    f"attribute file {name!r} is created without a validator and is not in "
                    "validate.FREE_FORM_ATTRIBUTES; writes to it skip close-time validation"
                ),
            )

        yield from self._check_flow_vocabulary(validate, schema_path, schema_lines)

    def _check_flow_vocabulary(self, validate, schema_path: str, schema_lines: list[str]) -> Iterator[Finding]:
        from repro.dataplane.match import MATCH_FIELD_NAMES
        from repro.vfs.errors import InvalidArgument

        for attr in _REQUIRED_FLOW_ATTRS:
            if attr not in validate.FLOW_ATTRIBUTE_VALIDATORS:
                yield Finding(
                    path=schema_path,
                    line=_line_of(schema_lines, attr),
                    col=1,
                    rule=self.id,
                    severity=self.severity,
                    message=f"flow attribute {attr!r} has no entry in FLOW_ATTRIBUTE_VALIDATORS",
                )
        for field in sorted(MATCH_FIELD_NAMES):
            try:
                checker = validate.flow_file_validator(f"match.{field}")
            except InvalidArgument:
                checker = None
            if checker is None:
                yield Finding(
                    path=schema_path,
                    line=_line_of(schema_lines, "match."),
                    col=1,
                    rule=self.id,
                    severity=self.severity,
                    message=f"match field {field!r} has no close-time validator via flow_file_validator",
                )


def _schema_source() -> tuple[str, list[str]]:
    import os

    from repro.yancfs import schema

    path = getattr(schema, "__file__", "repro/yancfs/schema.py") or "repro/yancfs/schema.py"
    rel = os.path.relpath(path)
    if not rel.startswith(".."):
        path = rel
    try:
        with open(path, encoding="utf-8") as fh:
            return path, fh.read().splitlines()
    except OSError:
        return path, []


def _line_of(lines: list[str], needle: str) -> int:
    quoted = (f'"{needle}"', f"'{needle}'")
    for lineno, line in enumerate(lines, start=1):
        if any(q in line for q in quoted):
            return lineno
    return 1


register(SchemaCoverageRule())
