"""Structured pass/fail reports shared by the checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def to_json_obj(self) -> dict:
        obj = {"check": self.check_id, "status": self.status}
        for key in ("location", "expected", "actual", "residual", "notes"):
            value = getattr(self, key)
            if value:
                obj[key] = value
        return obj

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

    def to_json_obj(self) -> dict:
        counts = self.counts
        return {
            "title": self.title,
            "status": PASS if self.passed else FAIL,
            "entries": [e.to_json_obj() for e in self.entries],
            "passed": counts[PASS],
            "failed": counts[FAIL],
        }

    def to_text(self, quiet: bool = False) -> str:
        lines = [self.title]
        for entry in self.entries:
            if quiet and entry.status == PASS:
                continue
            lines.append("  " + entry.to_text())
        counts = self.counts
        lines.append(f"  {counts[PASS]} passed, {counts[FAIL]} failed")
        return "\n".join(lines)
