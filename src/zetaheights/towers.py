"""Towers of number fields: monotone prime sums, splitting-ratio limits,
the splitting-condition height sum, and family constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDiscriminantError, DegreeMismatchError, DomainError
from .explicit import pairwise_sum
from .fields import NumberField, build_number_field, norm_counts


@dataclass(frozen=True)
class Tower:
    """Ordered sequence of number fields with strictly increasing degree.

    overrides holds one splitting override dict (or None) per level; each
    applies to its own level's splitting tables only.
    """

    levels: tuple
    overrides: tuple = ()

    def override(self, i: int):
        return self.overrides[i] if i < len(self.overrides) else None


def build_tower(polys, overrides=()) -> Tower:
    """Tower from defining polynomials (subfield relations taken on trust,
    each degree checked to divide the next)."""
    levels = tuple(build_number_field(f) for f in polys)
    if not levels:
        raise DomainError("tower must have at least one level")
    for a, b in zip(levels, levels[1:]):
        if b.n_K <= a.n_K:
            raise DegreeMismatchError("degrees must strictly increase")
        if b.n_K % a.n_K != 0:
            raise DegreeMismatchError(
                f"degree {b.n_K} not a multiple of {a.n_K}")
    return Tower(levels=levels, overrides=tuple(overrides))


@dataclass(frozen=True)
class MonotoneSums:
    lower_level_sum: float
    upper_level_sum: float
    holds: bool


def monotone_prime_sums(K: NumberField, L: NumberField, x: int,
                        lower_override=None, upper_override=None) -> MonotoneSums:
    """Weighted norm-count sums sum_{q<=x} N_q log q / degree for K vs L.

    The lower level's sum dominates; the caller asserts K is a subfield of
    L, and only degree divisibility is verified here. Each override applies
    to its own level's table.
    """
    if x < 2:
        raise DomainError("cutoff must be >= 2")
    if L.n_K % K.n_K != 0:
        raise DegreeMismatchError("upper degree not a multiple of lower")
    lower = _weighted_sum(K, x, lower_override)
    upper = _weighted_sum(L, x, upper_override)
    return MonotoneSums(lower_level_sum=lower, upper_level_sum=upper,
                        holds=lower >= upper - 1e-12)


def _weighted_sum(K: NumberField, x: int, override=None) -> float:
    q, c = norm_counts(K, x, override)
    return pairwise_sum(c * np.log(q))[0] / K.n_K


@dataclass(frozen=True)
class PsiEstimates:
    cutoff: int
    ratios: dict          # q -> tuple of N_q(L_i)/n_{L_i} down the tower
    psi_hat: dict         # q -> deepest-level ratio
    asymptotically_positive: bool


def psi_estimates(tower: Tower, q_cutoff: int) -> PsiEstimates:
    """Splitting ratios per prime power down the tower; deepest level is
    taken as the estimate of the limiting ratio."""
    if not tower.levels:
        raise DomainError("empty tower")
    if q_cutoff < 2:
        raise DomainError("cutoff must be >= 2")
    levels = [norm_counts(K, q_cutoff, tower.override(i))
              for i, K in enumerate(tower.levels)]
    q = levels[0][0].tolist()
    by_level = [(c / K.n_K).tolist() for (_q, c), K in zip(levels, tower.levels)]
    ratios = dict(zip(q, zip(*by_level)))
    psi_hat = dict(zip(q, by_level[-1]))
    return PsiEstimates(cutoff=q_cutoff, ratios=ratios, psi_hat=psi_hat,
                        asymptotically_positive=any(v > 0 for v in psi_hat.values()))


def bz_sum(est: PsiEstimates) -> float:
    """(1/2) sum_q psi_hat(q) log q / (q + 1) up to the estimate cutoff."""
    return 0.5 * math.fsum(v * math.log(q) / (q + 1)
                           for q, v in est.psi_hat.items() if v)


@dataclass(frozen=True)
class FamilyConstants:
    phi_q: dict
    phi_R: float
    phi_C: float
    classification: str  # "asymptotically_good" | "asymptotically_bad"


def family_constants(tower: Tower, q_cutoff: int = 30) -> FamilyConstants:
    """Top-level ratios against log sqrt(d): phi_q, phi_R, phi_C.

    The finite-level proxy classifies the family as bad exactly when every
    returned constant vanishes.
    """
    top = tower.levels[-1]
    if top.abs_disc <= 1:
        raise DegenerateDiscriminantError("family constants need |d| > 1")
    denom = 0.5 * top.log_abs_disc
    q, c = norm_counts(top, q_cutoff, tower.override(len(tower.levels) - 1))
    phi_q = dict(zip(q.tolist(), (c / denom).tolist()))
    phi_r = top.r1 / denom
    phi_c = top.r2 / denom
    bad = (all(abs(v) <= 1e-12 for v in phi_q.values())
           and abs(phi_r) <= 1e-12 and abs(phi_c) <= 1e-12)
    return FamilyConstants(phi_q=phi_q, phi_R=phi_r, phi_C=phi_c,
                           classification="asymptotically_bad" if bad
                           else "asymptotically_good")


@dataclass(frozen=True)
class CorollaryRow:
    degree: int
    lhs: float
    rhs: float
    holds: bool


def tower_corollary_report(tower: Tower):
    """Per level: (1/2) sum_{q <= log n} psi_hat_q log q / sqrt q against
    (1/2) log d / n, the finite-level splitting-sum bound."""
    rows = []
    for i, K in enumerate(tower.levels):
        logn = math.log(K.n_K) if K.n_K > 1 else 0.0
        q, c = norm_counts(K, int(logn), tower.override(i))
        lhs = 0.5 * pairwise_sum(c / K.n_K * np.log(q) / np.sqrt(q))[0]
        rhs = 0.5 * (K.log_abs_disc / K.n_K)
        rows.append(CorollaryRow(degree=K.n_K, lhs=lhs, rhs=rhs,
                                 holds=lhs <= rhs + 1e-12))
    return rows
