"""Per-evaluation-functional trade-off records and their CSV form."""
from __future__ import annotations

from dataclasses import dataclass

from .functionals import Functional

FLAG_OK = "ok"
FLAG_EXCLUDED = "excluded"
# the power is below its roundoff floor: reported, but not resolved in
# double precision (see kernel_recovery.UNRESOLVED_RTOL)
FLAG_UNRESOLVED = "unresolved"

CSV_HEADER = "mu_kind,mu_x,mu_y,power,stability_norm,product,flag"


@dataclass(frozen=True)
class TradeoffReport:
    """Power value, stability norm, and their product for one evaluation
    functional.  A row flagged ok has |product - 1| <= 1e-5, as the tests
    and the benchmark check."""

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
