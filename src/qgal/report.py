"""Verification reports: named checks with per-item status and JSON output."""

from __future__ import annotations

import time

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


class Undecided(Exception):
    """A computation stopped short of an answer (a non-unique linear
    solution, a completion budget, a degree above the completion degree):
    the command reports undecided, not an error."""


class ReportItem:
    __slots__ = ("desc", "status", "witness")

    def __init__(self, desc: str, status: str, witness: str = ""):
        self.desc = desc
        self.status = status
        self.witness = witness


class Report:
    __slots__ = ("check_name", "items", "timing_ms", "params")

    def __init__(self, check_name: str):
        self.check_name = check_name
        self.items = []
        self.timing_ms = 0.0
        self.params = {}

    def add(self, desc, ok, witness=""):
        self.items.append(ReportItem(desc, PASS if ok else FAIL, witness))

    def add_zero(self, desc, residual):
        """A pass when `residual`, a polynomial or a tensor, is 0; else a
        fail whose witness is the residual, cut to 120 characters."""
        ok = residual.is_zero()
        self.add(desc, ok, witness="" if ok else residual.pretty()[:120])

    def add_undecided(self, desc, witness=""):
        self.items.append(ReportItem(desc, UNDECIDED, witness))

    @property
    def status(self):
        if any(i.status == FAIL for i in self.items):
            return FAIL
        if any(i.status == UNDECIDED for i in self.items):
            return UNDECIDED
        return PASS

    @property
    def ok(self):
        return self.status == PASS

    def to_dict(self):
        return {
            "check": self.check_name,
            "status": self.status,
            "items": [
                {"desc": i.desc, "status": i.status, "witness": i.witness}
                for i in self.items
            ],
            "timing_ms": round(self.timing_ms, 3),
            "params": self.params,
        }

    def to_json(self):
        import json  # only --json output needs it: it would add to start-up

        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def render(self):
        lines = [f"[{self.status.upper()}] {self.check_name}"]
        for i in self.items:
            mark = {"pass": "ok  ", "fail": "FAIL", "undecided": "??  "}[i.status]
            line = f"  {mark} {i.desc}"
            if i.witness and i.status != PASS:
                line += f"  [{i.witness}]"
            lines.append(line)
        return "\n".join(lines)


class timed:
    """Context manager stamping elapsed milliseconds onto a report."""

    def __init__(self, report: Report):
        self.report = report

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.timing_ms = (time.perf_counter() - self.t0) * 1000.0
        return False
