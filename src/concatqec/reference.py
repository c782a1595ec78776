"""Frozen reference critical values for the bundled codes and noise families.

These are the regression targets the ``reproduce-tables`` command compares
against.  Exact cells carry ``sigma = 0`` and a tight relative tolerance;
sampled cells carry the one-sigma uncertainty of the reference value itself,
and comparisons must also fold in the uncertainty of the fresh estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReferenceCell",
    "exact_cells",
    "sampled_cells",
    "REFERENCE_TABLES",
    "DEPOLARIZING_LEVEL0",
    "INDEP_FLIPS_LEVEL0",
]

#: Relative tolerance for exact adaptive cells (values are quoted to 9 digits).
EXACT_RTOL = 1e-8

#: Relative tolerance for the iterated blind-map rows.
UNOPTIMIZED_RTOL = 1e-6


@dataclass(frozen=True)
class ReferenceCell:
    """One table cell: a critical noise parameter to reproduce.

    ``level`` -1 marks the unoptimized fixed-point row.  ``sigma`` is the
    absolute one-sigma uncertainty of the reference value (0 for exact
    cells).  ``rtol`` applies to exact cells only.
    """

    code: str
    family: str
    level: int
    p_star: float
    sigma: float = 0.0
    rtol: float = EXACT_RTOL

    @property
    def exact(self) -> bool:
        return self.sigma == 0.0


def _cell(code, family, level, percent, sigma_percent=0.0, rtol=EXACT_RTOL):
    return ReferenceCell(code, family, level, percent / 100.0,
                         sigma_percent / 100.0, rtol)


#: Root of h(3p) + 3p*log2(3) = 1 (depolarizing level 0), frozen from a
#: 200-step bisection at extended precision.  Some roundings of this cell
#: circulate with the 8th digit off by 2; the equation is the authority.
DEPOLARIZING_LEVEL0 = 6.30965416e-2

#: Root of 2*h(p) = 1, same provenance.
INDEP_FLIPS_LEVEL0 = 11.00278644e-2

#: Critical values (target entropy 1 bit) per (family, code, level), plus the
#: unoptimized fixed-point rows.  Values are fractions, not percent.
REFERENCE_TABLES: tuple[ReferenceCell, ...] = (
    # depolarizing (p, p, p)
    _cell("five-qubit", "depolarizing", 0, 100 * DEPOLARIZING_LEVEL0),
    _cell("five-qubit", "depolarizing", 1, 6.29873094),
    _cell("five-qubit", "depolarizing", 2, 6.29795843),
    _cell("five-qubit", "depolarizing", 3, 6.29850925),
    _cell("five-qubit", "depolarizing", 4, 6.2990, 0.0001),
    _cell("five-qubit", "depolarizing", 5, 6.2993, 0.0001),
    _cell("five-qubit", "depolarizing", 6, 6.2995, 0.0001),
    _cell("five-qubit", "depolarizing", 7, 6.2996, 0.0001),
    _cell("five-qubit", "depolarizing", -1, 4.58758548, rtol=UNOPTIMIZED_RTOL),
    _cell("steane", "depolarizing", 0, 100 * DEPOLARIZING_LEVEL0),
    _cell("steane", "depolarizing", 1, 6.25921455),
    _cell("steane", "depolarizing", 2, 6.26714580),
    _cell("steane", "depolarizing", 3, 6.2688, 0.0001),
    _cell("steane", "depolarizing", 4, 6.2696, 0.0001),
    _cell("steane", "depolarizing", 5, 6.2700, 0.0001),
    _cell("steane", "depolarizing", 6, 6.2703, 0.0001),
    _cell("steane", "depolarizing", 7, 6.2703, 0.0001),
    _cell("steane", "depolarizing", -1, 3.22981197, rtol=UNOPTIMIZED_RTOL),
    # independent bit and phase flips (p - p^2, p^2, p - p^2)
    _cell("five-qubit", "indep-flips", 0, 100 * INDEP_FLIPS_LEVEL0),
    _cell("five-qubit", "indep-flips", 1, 10.94668310),
    _cell("five-qubit", "indep-flips", 2, 10.94728109),
    _cell("five-qubit", "indep-flips", 3, 10.9491, 0.0001),
    _cell("five-qubit", "indep-flips", 4, 10.9499, 0.0001),
    _cell("five-qubit", "indep-flips", 5, 10.9504, 0.0001),
    _cell("five-qubit", "indep-flips", 6, 10.9507, 0.0001),
    _cell("five-qubit", "indep-flips", 7, 10.9508, 0.0001),
    _cell("five-qubit", "indep-flips", -1, 7.14780025, rtol=UNOPTIMIZED_RTOL),
    _cell("steane", "indep-flips", 0, 100 * INDEP_FLIPS_LEVEL0),
    _cell("steane", "indep-flips", 1, 10.94286393),
    _cell("steane", "indep-flips", 2, 10.95683308),
    _cell("steane", "indep-flips", 3, 10.9600, 0.0001),
    _cell("steane", "indep-flips", 4, 10.9615, 0.0001),
    _cell("steane", "indep-flips", 5, 10.9623, 0.0001),
    _cell("steane", "indep-flips", 6, 10.9627, 0.0001),
    _cell("steane", "indep-flips", 7, 10.9629, 0.0001),
    _cell("steane", "indep-flips", -1, 6.45962393, rtol=UNOPTIMIZED_RTOL),
)


def exact_cells() -> list[ReferenceCell]:
    """Cells quoted exactly (sigma = 0), the unoptimized rows included."""
    return [c for c in REFERENCE_TABLES if c.exact]


def sampled_cells() -> list[ReferenceCell]:
    """Deep cells carrying reference uncertainties."""
    return [c for c in REFERENCE_TABLES if not c.exact]
