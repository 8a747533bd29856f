"""Pass/fail reporting shared by every verifier, plus JSON helpers.

A Report is a named list of CheckResult rows. probe is the one loop every
sample verifier runs its per-sample conditions through; itemize turns the
failures it returns into rows. Volatile measurements (wall times and
anything else that changes between runs of the same seed) live under keys
named "timings" or ending in "_ns"; strip_timings removes them so two runs
of the same configuration can be compared byte for byte.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

# Per-sample failure rows are capped so a badly broken input cannot blow
# up the report; the cap is recorded in the overflow row itself.
MAX_ITEMIZED_FAILURES = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: object = None
    bound: object = None
    detail: str = ""
    timings: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "bound": self.bound,
            "detail": self.detail,
        }
        if self.timings is not None:
            d["timings"] = dict(self.timings)
        return d


@dataclass
class Report:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, measured=None, bound=None, detail="", timings=None) -> "Report":
        self.checks.append(CheckResult(name, bool(passed), measured, bound, detail, timings))
        return self

    def extend(self, other: "Report") -> "Report":
        self.checks.extend(other.checks)
        return self

    def itemize(self, base: str, failures: list[tuple[int, str, str]]) -> "Report":
        """Add one row per failing sample: (index, which condition, detail),
        as probe returns them."""
        for idx, condition, detail in failures[:MAX_ITEMIZED_FAILURES]:
            self.add(f"{base}[{idx}].{condition}", False, detail=detail)
        if len(failures) > MAX_ITEMIZED_FAILURES:
            hidden = len(failures) - MAX_ITEMIZED_FAILURES
            self.add(f"{base}.overflow", False, measured=len(failures),
                     detail=f"{hidden} further failing samples not itemized")
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            word = "PASS" if c.passed else "FAIL"
            fields = []
            if c.measured is not None:
                fields.append(f"measured={c.measured!r}")
            if c.bound is not None:
                fields.append(f"bound={c.bound!r}")
            extra = f"  ({', '.join(fields)})" if fields else ""
            lines.append(f"{word} {c.name}{extra}")
        return lines


def probe(
    samples: Iterable, test: Callable[[int, object], tuple[str, str] | None]
) -> tuple[int, list[tuple[int, str, str]]]:
    """Call test(index, sample) on each sample in turn. test returns None
    for a sample that passes, else (condition, detail) for the first
    condition it fails, and raises for a sample it must not be given.
    Returns the number of samples and the failures in itemize's form."""
    failures = []
    idx = -1
    for idx, sample in enumerate(samples):
        failed = test(idx, sample)
        if failed:
            failures.append((idx, *failed))
    return idx + 1, failures


def strip_timings(obj):
    """Drop every volatile field so reports can be compared across runs."""
    if isinstance(obj, dict):
        return {
            k: strip_timings(v)
            for k, v in obj.items()
            if k != "timings" and not k.endswith("_ns")
        }
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
