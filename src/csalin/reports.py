"""Shared per-condition report structures."""

from __future__ import annotations

from dataclasses import dataclass


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
