"""Verification reports: pass/fail rows that stay data, never exceptions."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def reading_check(name: str, passed: bool, read) -> CheckResult:
    """The row of a comparison of sides built from the matrices in read: one
    that reads a zero generator has shown nothing, so it fails."""
    if any(m.is_zero for m in read):
        return CheckResult(name, False, "a generator it reads is zero")
    return CheckResult(name, passed)


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list:
        out = [f"== {self.title}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = f"  ({c.detail})" if c.detail else ""
            out.append(f"{mark}  {c.name}{suffix}")
        return out

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
