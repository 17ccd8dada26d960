"""Bundled reference table of twelve fields and its verification driver.

The printed 15-significant-digit strings are stored verbatim and parsed
exactly once; recomputed values are compared at the documented tolerances
(1e-9 absolute on log d_K, exact zero counts, 1e-6 on the zero-statistic
column for cubics/quartics, 1e-5 for quintics, 1e-3 for the sextic
stretch rows, which are excluded from the default gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import parse_polynomial
from .config import RunConfig, default_config
from .fields import build_number_field
from .zeta import get_evaluator, locate_zeros, zero_statistics

DISC_ZERO_COEFF = 3.67

# (polynomial, log d_K, 3.67 (lambda_K(2) - N_K(2)/5), n log n, N_K(2))
ROWS = (
    ("x^3+18*x^2+312", "8.05801080080209", "3.42934404079907", "3.29583686600433", 2),
    ("x^3+5*x^2+235", "7.06902342657826", "3.40554888853991", "3.29583686600433", 2),
    ("x^3+3*x+213", "8.35208267135264", "3.71716791990380", "3.29583686600433", 4),
    ("x^3+3*x+2613", "8.91985437219167", "4.84445187879911", "3.29583686600433", 4),
    ("x^4+3*x^2+30", "15.5928465065266", "5.98680373865722", "5.54517744447956", 6),
    ("x^4+3*x^2+1650", "14.2893667565255", "6.16211623755126", "5.54517744447956", 4),
    ("x^4+3*x^2+2109", "12.6237824800548", "6.33826295082401", "5.54517744447956", 4),
    ("x^4+18*x^2+60", "12.9559781599087", "6.48197134982413", "5.54517744447956", 4),
    ("x^5+42", "22.9978680353040", "10.3144599678732", "8.04718956217050", 8),
    ("x^5+2*x^2+26", "21.0796386344435", "8.72232900418632", "8.04718956217050", 8),
    ("x^6+65", "31.6224931648465", "11.4961494891968", "10.7505568153683", 8),
    ("x^6+85", "32.9638130978199", "16.3097029958646", "10.7505568153683", 12),
)

def column_tolerance(degree: int) -> float:
    if degree <= 4:
        return 1e-6
    if degree == 5:
        return 1e-5
    return 1e-3


@dataclass(frozen=True)
class RowResult:
    poly: str
    degree: int
    stretch: bool
    log_dK: float
    log_dK_printed: float
    zero_count: int
    zero_count_printed: int
    column: float
    column_printed: float
    column_tolerance: float

    @property
    def log_dK_ok(self) -> bool:
        return abs(self.log_dK - self.log_dK_printed) <= 1e-9

    @property
    def count_ok(self) -> bool:
        return self.zero_count == self.zero_count_printed

    @property
    def column_ok(self) -> bool:
        return abs(self.column - self.column_printed) <= self.column_tolerance

    @property
    def passed(self) -> bool:
        return self.log_dK_ok and self.count_ok and self.column_ok

    def to_dict(self) -> dict:
        return {
            "poly": self.poly,
            "degree": self.degree,
            "stretch": self.stretch,
            "log_dK": self.log_dK,
            "log_dK_printed": self.log_dK_printed,
            "log_dK_error": abs(self.log_dK - self.log_dK_printed),
            "N_K_2": self.zero_count,
            "N_K_2_printed": self.zero_count_printed,
            "column": self.column,
            "column_printed": self.column_printed,
            "column_error": abs(self.column - self.column_printed),
            "column_tolerance": self.column_tolerance,
            "passed": self.passed,
        }


def verify_row(poly_text: str, config: RunConfig | None = None) -> RowResult:
    printed = {row[0]: row for row in ROWS}[poly_text]
    config = config or default_config()
    f = parse_polynomial(poly_text)
    K = build_number_field(f)
    ev = get_evaluator(K, config)
    zl = locate_zeros(ev, 2.0)
    stats = zero_statistics(zl, 2.0)
    column = DISC_ZERO_COEFF * (stats.lam - stats.N / 5.0)
    return RowResult(
        poly=poly_text,
        degree=K.n_K,
        stretch=K.n_K >= 6,
        log_dK=K.log_abs_disc,
        log_dK_printed=float(printed[1]),
        zero_count=stats.N,
        zero_count_printed=printed[4],
        column=column,
        column_printed=float(printed[2]),
        column_tolerance=column_tolerance(K.n_K),
    )


def verify_table1(config: RunConfig | None = None,
                  include_stretch: bool = False) -> dict:
    """Recompute every column per row; per-row pass/fail at the stated
    tolerances. Stretch (degree-6) rows only run on request and never gate."""
    results = []
    for row in ROWS:
        degree = parse_polynomial(row[0]).degree
        if degree >= 6 and not include_stretch:
            continue
        results.append(verify_row(row[0], config))
        # n log n column is pure arithmetic on the printed degree
        nlogn = degree * math.log(degree) if degree > 1 else 0.0
        assert abs(nlogn - float(row[3])) < 1e-9, row[0]
    gate = [r for r in results if not r.stretch]
    return {
        "rows": [r.to_dict() for r in results],
        "gate_passed": all(r.passed for r in gate),
        "failures": [r.poly for r in gate if not r.passed],
        "stretch_included": include_stretch,
    }
