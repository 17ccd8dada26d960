"""Theorem-level inequality evaluators producing structured reports.

Each evaluator separates exactly provable finite-degree content from
asymptotic O(1)/o(1) content: margins are reported, and a slack flag marks
statements whose source leaves unquantified constants.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import IntPolynomial, height_profile, is_root_of_unity
from .errors import DomainError
from .explicit import (EULER_GAMMA, EXPONENTIAL, LOG_8PI, archimedean_side,
                       aux_functions, density_tail, gaussian, pairwise_sum,
                       prime_side, single_m_prime_sum)
from .fields import NumberField, norm_counts, uniform_splittings
from .primes import sieve_primes
from .reports import BoundReport, SMembership
from .zeta import ZeroList, zero_statistics

Y_STAR = 0.212  # Gaussian parameter fixed by the discriminant bound
DISC_ZERO_COEFF = 3.67
NORTHCOTT_ZERO_COEFF = 1.168
NORTHCOTT_GAUSS_ZERO_COEFF = 2.206  # about sqrt(1 / Y_STAR) / (1 - F1)
NORTHCOTT_PRIME_COEFF = 2.032
BZ2_SHRINK = 0.629
C1_BOUND = 0.0912
C2_BOUND = 9.3572
LEMMA46_CONST = 1.808
LEMMA46_LOGD = 0.548
LEMMA46_DEGREE = 0.309


def lehmer_grh_report(f: IntPolynomial, K: NumberField,
                      zeros: ZeroList) -> BoundReport:
    """Height lower bound from low-lying zeros: 2 n_K h vs the 3.67 term.

    Roots of unity are rejected (the height vanishes and the statement
    excludes them). The exact intermediate inequality log|D(f)| >= log d_K
    and the discriminant-side 3.67 bound are reported in the notes.
    """
    if is_root_of_unity(f):
        raise DomainError("roots of unity are excluded (height zero)")
    profile = height_profile(f)
    stats = zero_statistics(zeros, 2.0)
    n = K.n_K
    lhs = 2.0 * n * profile.weil_height
    disc_bound = DISC_ZERO_COEFF * (stats.lam - stats.N / 5.0)
    return BoundReport(
        theorem_id="lehmer-grh",
        lhs=lhs,
        rhs_terms={
            "main": (DISC_ZERO_COEFF / n) * (stats.lam - stats.N / 5.0),
            "log_term": -math.log(n),
        },
        asymptotic_slack=True,
        notes={
            "N_K_2": stats.N,
            "lambda_K_2": stats.lam,
            "disc_bound_3.67": disc_bound,
            "log_poly_disc": math.log(abs(K.poly_disc)),
            "log_field_disc": K.log_abs_disc,
            "poly_disc_dominates_field_disc":
                math.log(abs(K.poly_disc)) >= K.log_abs_disc - 1e-12,
            "grh_conditional": True,
        },
    )


def uncond_membership(K: NumberField | None, delta: float, epsilon: float,
                      table=None, degree: int | None = None,
                      Y: int | None = None) -> SMembership:
    """Small-norm prime membership: search Y in ((log n)^2, sqrt n).

    A prime p <= Y qualifies when N_p(K) > delta n_K; membership needs at
    least epsilon pi(Y) qualifying primes and at least one (vacuous pi(Y)=0
    windows are rejected). Also evaluates the Gaussian-weighted lower bound
    over (1-epsilon) Y < p <= Y at y = 1/log n_K for the witness window.
    A synthetic SplittingTable (plus degree) may replace the field, and an
    explicit Y pins the window for constructed diagnostics instead of
    searching.
    """
    if not (0 < delta < math.inf and 0 < epsilon < math.inf):   # NaN fails too
        raise DomainError("delta and epsilon must be finite and positive")
    if K is None and (table is None or degree is None):
        raise DomainError("membership needs a field, or a table and its degree")
    n = degree if degree is not None else K.n_K
    if n < (1 if Y is None else 2):
        raise DomainError("membership needs degree >= 1, and >= 2 with a pinned "
                          "Y: its Gaussian weight takes y = 1/log n_K")
    y_low = math.log(n) ** 2 if n > 1 else 0.0
    y_high = math.sqrt(n)
    witness = None
    qualifying: tuple = ()
    if Y is not None:
        candidates = [Y]
    else:
        candidates = [y for y in range(int(math.floor(y_low)) + 1,
                                       int(math.ceil(y_high)))
                      if y_low < y < y_high]
    # N_p for every prime up to the largest candidate, read once
    top = max(candidates, default=2)
    primes = sieve_primes(top)
    if table is not None:
        n_p = np.array([table.counts.get(p, 0) for p in primes.tolist()])
    else:
        q, n_q = norm_counts(K, max(top, 2))
        n_p = n_q[np.searchsorted(q, primes)]
    for Y_try in candidates:
        k = int(np.searchsorted(primes, Y_try, side="right"))  # pi(Y_try)
        quals = tuple(primes[:k][n_p[:k] > delta * n].tolist())
        if quals and len(quals) >= epsilon * k:
            witness = Y_try
            qualifying = quals
            break
    aa = 0.0
    if witness is not None:
        p = sieve_primes(witness)
        p = p[p > (1.0 - epsilon) * witness]
        aa = 2.0 * delta * pairwise_sum(
            np.log(p) / np.sqrt(p) * np.exp(-(1.0 / math.log(n)) * np.log(p) ** 2))[0]
    return SMembership(delta=delta, epsilon=epsilon, witness_Y=witness,
                       qualifying_primes=qualifying, in_S=witness is not None,
                       aa_lower_bound=aa)


def northcott_report(K: NumberField, zeros: ZeroList,
                     X: int = 10 ** 6) -> BoundReport:
    """Discriminant lower bound, three readings.

    (a) the stated bound 2 + 1.168 N_K(1)/n + 2.032 sum_q ...;
    (b) the zero term replaced by the sharper Gaussian-weighted zero sum;
    (c) the proof-exact bound at y = 0.212 including the dropped
        (1/n) O(1) term, whose margin is the GRH-proven inequality.
    """
    n = K.n_K
    lhs = K.log_abs_disc / n
    stats1 = zero_statistics(zeros, 1.0)
    y = Y_STAR
    gauss_zero_sum = zeros.kernel_sum(
        lambda t: math.exp(-t * t / (4.0 * y)) - math.exp(-1.0 / y), below=2.0)
    aux = aux_functions(y)
    ps = prime_side(K, gaussian(y), X)   # the m-sum for (c), its m = 1 sum for (a)
    prime_single = ps.single_m + density_tail(gaussian(y), X)
    terms_a = {
        "constant": 2.0,
        "zero_term": NORTHCOTT_ZERO_COEFF * stats1.N / n,
        "prime_term": NORTHCOTT_PRIME_COEFF * prime_single / n,
    }
    terms_b = dict(terms_a)
    terms_b["zero_term"] = (NORTHCOTT_GAUSS_ZERO_COEFF * math.sqrt(math.pi)
                            * gauss_zero_sum / n)
    # proof-exact variant (c): every piece of the y = 0.212 inequality
    inv = 1.0 / (1.0 - aux.F1)
    terms_c = {
        "main": (aux.H + EULER_GAMMA + LOG_8PI) * inv,
        "dropped_O1": -(aux.F2 / n) * inv,
        "zero_term": inv * math.sqrt(math.pi / y) * gauss_zero_sum / n,
        "prime_term": inv * ps.corrected / n,
    }
    return BoundReport(
        theorem_id="northcott-disc-lower-bound",
        lhs=lhs,
        rhs_terms=terms_a,
        asymptotic_slack=True,
        notes={
            "variants": {k: {"terms": t, "margin": lhs - math.fsum(t.values())}
                         for k, t in (("a", terms_a), ("b", terms_b), ("c", terms_c))},
            "constant_checks": {
                "2.032_is_2x1.016": NORTHCOTT_PRIME_COEFF == 2 * 1.016,
                "one_over_1_minus_F1": inv,
                "matches_1.016_within_5e-4": abs(inv - 1.016) < 5e-4,
            },
            "grh_conditional": True,
        },
    )


def corollary_S_check(f: IntPolynomial, K: NumberField, zeros: ZeroList,
                      X: int = 10 ** 6) -> BoundReport:
    """Membership test: zero + prime + index terms against log n_K."""
    n = K.n_K
    stats1 = zero_statistics(zeros, 1.0)
    prime_single = (single_m_prime_sum(K, gaussian(Y_STAR), X)
                    + density_tail(gaussian(Y_STAR), X))
    lhs_terms = {
        "zero_term": NORTHCOTT_ZERO_COEFF * stats1.N,
        "prime_term": 2.0 * prime_single,
        "index_term": 2.0 * math.log(K.index) / n,
    }
    lhs = math.fsum(lhs_terms.values())
    return BoundReport(
        theorem_id="corollary-small-norm-set",
        lhs=lhs,
        rhs_terms={"log_degree": math.log(n)},
        asymptotic_slack=False,
        notes={"lhs_terms": lhs_terms,
               "in_set": lhs >= math.log(n),
               "grh_conditional": True},
    )


def zeros_theorem_report(f: IntPolynomial, K: NumberField,
                         zeros: ZeroList, X: int = 10 ** 6) -> BoundReport:
    """Index-or-zeros dichotomy data for one Galois level.

    lhs = log|D(f)| = 2 log I + log d_K against the variance-dropped
    splitting sum; notes carry the interval-arithmetic precursor
    log d_K <= 2 N_K(2) + 0.629 log d_K + remainder.
    """
    stats = zero_statistics(zeros, 2.0)
    n = K.n_K
    lhs = math.log(abs(K.poly_disc))
    terms = {}
    for p, e_p, q in uniform_splittings(K, n):
        terms[f"p={p}"] = (n * n / e_p) * (1.0 / (q + 1) - 1.0 / n) * math.log(p)
    if not terms:
        terms = {"empty_sum": 0.0}
    ps = prime_side(K, EXPONENTIAL, X)
    # Precursor via the two lemma identities: log d = A + Z + P with the
    # far zeros bounded through the counting window, rearranged as
    # log d <= 2 N_K(2) + 0.629 log d + remainder, remainder an interval.
    a_const = -sum(archimedean_side(K, EXPONENTIAL).values())
    # 2 sum_{|t|<2} (1/(1+t^2) - 1/5)
    low_sum = zeros.kernel_sum(lambda t: 2.0 * (1.0 / (1.0 + t * t) - 0.2),
                               below=2.0)
    logd = K.log_abs_disc

    def remainder(c1, c2, c3, prime_val):
        return (a_const + low_sum - 2.0 * stats.N
                + (LEMMA46_LOGD + c1 - BZ2_SHRINK) * logd
                + (LEMMA46_DEGREE + c2) * n + c3 + prime_val)

    rem_interval = (
        remainder(-C1_BOUND, -C2_BOUND, -LEMMA46_CONST, ps.value),
        remainder(+C1_BOUND, +C2_BOUND, +LEMMA46_CONST,
                  ps.value + ps.tail_bound),
    )
    return BoundReport(
        theorem_id="index-or-zeros",
        lhs=lhs,
        rhs_terms=terms,
        asymptotic_slack=True,
        notes={
            "lhs_identity": {"2logI": 2.0 * math.log(K.index),
                             "log_dK": K.log_abs_disc,
                             "matches_logD": abs(
                                 2.0 * math.log(K.index) + K.log_abs_disc
                                 - lhs) < 1e-9},
            "holds": lhs >= math.fsum(terms.values()) - 1e-9,
            "N_K_2": stats.N,
            "bz2_constant_check": {
                "one_over_1_minus_0.629": 1.0 / (1.0 - BZ2_SHRINK),
                "doubled": 2.0 / (1.0 - BZ2_SHRINK),
                "below_5.4": 2.0 / (1.0 - BZ2_SHRINK) <= 5.4,
            },
            "precursor": {
                "statement": "log_dK <= 2 N_K(2) + 0.629 log_dK + remainder",
                "log_dK": K.log_abs_disc,
                "two_N": 2.0 * stats.N,
                "remainder_interval": rem_interval,
                "holds_with_interval":
                    logd <= 2.0 * stats.N + BZ2_SHRINK * logd
                    + rem_interval[1] + 1e-9,
            },
            "grh_conditional": True,
        },
    )


def disc_bound2_report(K: NumberField, zeros: ZeroList) -> BoundReport:
    """Finite-degree evaluation of the tower discriminant bound terms."""
    n = K.n_K
    if n < 3:
        raise DomainError("bound needs degree >= 3: its Gaussian kernel takes "
                          "y = 1/log n, which lies in (0, 1] only for n >= 3")
    lhs = K.log_abs_disc / n
    logn = math.log(n)
    zero_sum = zeros.kernel_sum(lambda t: n ** (-t * t / 4.0) - 1.0 / n, below=2.0)
    q, c = norm_counts(K, int(logn))
    prime_sum = pairwise_sum((c / n) * np.log(q) / np.sqrt(q))[0]
    terms = {
        "euler_log8pi": EULER_GAMMA + LOG_8PI,
        "zero_term": math.sqrt(math.pi * logn) / n * zero_sum,
        "prime_term": 2.0 * prime_sum,
    }
    y = 1.0 / logn
    # the Gaussian ledger's terms at y; (r1/n)(pi/2 - I_cosh) from two of them
    arch = gaussian(y).archimedean_terms(K)
    remainders = {
        "sinh_integral": arch["sinh_integral"],
        "cosh_integral_scaled": arch["cosh_integral_scaled"],
        "f_cosh_over_n": arch["f_cosh_over_n"],
        "F1_times_lhs": aux_functions(y).F1 * lhs,
        "archimedean_r1_surplus": -(arch["r1_term"] + arch["cosh_integral_scaled"]),
    }
    return BoundReport(
        theorem_id="tower-disc-lower-bound",
        lhs=lhs,
        rhs_terms=terms,
        asymptotic_slack=True,
        notes={"remainders_at_y_1_over_log_n": remainders,
               "y": y,
               "grh_conditional": True},
    )

