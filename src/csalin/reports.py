"""Shared per-condition report structures and the rules that build them."""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expr, simplify_verdict, to_string


def method_of(verdicts) -> str:
    """Method of a verdict decided by several: numeric as soon as any one
    of them fell back to sampling."""
    return "numeric" if any(v.method == "numeric" for v in verdicts) \
        else "symbolic"


@dataclass(frozen=True)
class ConditionCheck:
    """One named condition with its verdict and how it was decided."""

    name: str
    holds: bool
    method: str  # "symbolic" or "numeric"
    detail: str = ""

    def to_dict(self) -> dict:
        d = {"name": self.name, "holds": bool(self.holds),
             "method": self.method}
        if self.detail:
            d["detail"] = self.detail
        return d


def zero_check(name: str, difference: Expr, noun: str,
               seed: int) -> ConditionCheck:
    """The condition `name` that difference vanishes identically, decided
    in one canonical pass (`simplify_verdict`); a failing check prints
    "<noun> = <the simplified difference>"."""
    simplified, v = simplify_verdict(difference, seed=seed)
    detail = "" if v.is_zero else f"{noun} = {to_string(simplified)}"
    return ConditionCheck(name, v.is_zero, v.method, detail)


@dataclass(frozen=True)
class ConditionReport:
    title: str
    checks: tuple = ()
    notes: tuple = ()

    @property
    def overall(self) -> bool:
        return bool(all(c.holds for c in self.checks))

    def failing(self) -> list:
        return [c for c in self.checks if not c.holds]

    def summary(self, name: str) -> ConditionCheck:
        """The report as the one check `name`: it holds where every check
        does, by the method of them all, and a failure names the first
        failing check."""
        return ConditionCheck(name, self.overall, method_of(self.checks),
                              "" if self.overall else self.failing()[0].name)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.overall else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.holds else "FAIL"
            line = f"  [{mark}] {c.name} ({c.method})"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
