"""The one way a report states its checks: a failing check carries its witness."""

from __future__ import annotations


def verdict(witnesses: dict) -> dict:
    """A report's "checks" and "passed" from {check name: witness of its
    failure, or None when it passed}, in the order of the names."""
    checks = []
    for name, witness in witnesses.items():
        check = {"name": name, "passed": witness is None}
        if witness is not None:
            check["witness"] = witness
        checks.append(check)
    return {"checks": checks, "passed": all(w is None for w in witnesses.values())}
