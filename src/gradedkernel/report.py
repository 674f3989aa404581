"""Structured pass/fail reports shared by the checkers and the CLI.

The JSON report (`cli.render_json`) has a fixed schema, so each object is
written directly, as ``json.dumps(..., sort_keys=True, indent=2)`` writes it:
keys sorted, two-space indents, ``[]`` for an empty list and every string
quoted with ASCII escapes.  Every field is a ``str`` and every count an
``int``; no JSON type is guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as json_string
from typing import List

PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass
class ReportEntry:
    check_id: str
    status: str
    location: str = ""
    expected: str = ""
    actual: str = ""
    residual: str = ""
    notes: str = ""

    def to_json(self) -> str:
        """This entry as an item of a task's ``entries`` list, its empty
        fields but ``check`` and ``status`` left out."""
        fields = "".join(
            f'\n          "{key}": {json_string(value)},'
            for key, value in (("actual", self.actual), ("check", self.check_id),
                               ("expected", self.expected), ("location", self.location),
                               ("notes", self.notes), ("residual", self.residual))
            if value or key == "check")
        return f'        {{{fields}\n          "status": {json_string(self.status)}\n        }}'

    def to_text(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", INFO: "info"}[self.status]
        parts = [f"[{tag}] {self.check_id}"]
        if self.location:
            parts.append(self.location)
        if self.status == FAIL:
            if self.expected or self.actual:
                parts.append(f"expected {self.expected or '0'}, got {self.actual or '0'}")
            if self.residual:
                parts.append(f"residual {self.residual}")
        if self.notes:
            parts.append(f"({self.notes})")
        return "  ".join(parts)


@dataclass
class Report:
    title: str
    entries: List[ReportEntry] = field(default_factory=list)

    def add(self, entry: ReportEntry) -> ReportEntry:
        self.entries.append(entry)
        return entry

    def ok(self, check_id: str, **kwargs) -> ReportEntry:
        return self.add(ReportEntry(check_id, PASS, **kwargs))

    def fail(self, check_id: str, **kwargs) -> ReportEntry:
        return self.add(ReportEntry(check_id, FAIL, **kwargs))

    def info(self, check_id: str, **kwargs) -> ReportEntry:
        return self.add(ReportEntry(check_id, INFO, **kwargs))

    def record(self, passed: bool, check_id: str, **kwargs) -> ReportEntry:
        return self.ok(check_id, **kwargs) if passed else self.fail(check_id, **kwargs)

    @property
    def passed(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INFO: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def failures(self) -> List[ReportEntry]:
        return [e for e in self.entries if e.status == FAIL]

    def to_json(self, task: str, line: int) -> str:
        """This report as an item of the ``tasks`` list, for ``task`` at ``line``."""
        counts = self.counts
        return (f'    {{\n      "entries": {json_list([e.to_json() for e in self.entries], 6)},\n'
                f'      "failed": {counts[FAIL]:d},\n      "line": {line:d},\n'
                f'      "passed": {counts[PASS]:d},\n'
                f'      "status": "{FAIL if counts[FAIL] else PASS}",\n'
                f'      "task": {json_string(task)},\n'
                f'      "title": {json_string(self.title)}\n    }}')

    def to_text(self, quiet: bool = False) -> str:
        lines = [self.title]
        for entry in self.entries:
            if quiet and entry.status == PASS:
                continue
            lines.append("  " + entry.to_text())
        counts = self.counts
        lines.append(f"  {counts[PASS]} passed, {counts[FAIL]} failed")
        return "\n".join(lines)


def json_list(items: List[str], indent: int) -> str:
    """A JSON list of written ``items`` whose closing bracket sits ``indent``
    spaces in; each item carries its own indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
