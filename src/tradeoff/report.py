"""Per-evaluation-functional trade-off records and their CSV form."""
from __future__ import annotations

from dataclasses import dataclass

from .functionals import Functional

FLAG_OK = "ok"
FLAG_EXCLUDED = "excluded"

CSV_HEADER = "mu_kind,mu_x,mu_y,power,stability_norm,product,flag"


@dataclass(frozen=True)
class TradeoffReport:
    """Power value, stability norm, and their product for one evaluation
    functional.  For a valid bump-backed norm the product is >= 1 - 1e-8."""

    mu: Functional
    power: float
    stability_norm: float
    flag: str = FLAG_OK

    @property
    def product(self) -> float:
        return self.power * self.stability_norm

    @property
    def excluded(self) -> bool:
        return self.flag == FLAG_EXCLUDED


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        kind, x, y = r.mu.csv_columns()
        lines.append(
            f"{kind},{x:.17g},{y:.17g},{r.power:.17g},"
            f"{r.stability_norm:.17g},{r.product:.17g},{r.flag}")
    return "\n".join(lines) + "\n"
