"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import math
import random
import time

import numpy as np
import pytest

from tests.conftest import (FIXTURE_POLYS, SMALL_FIXTURES,
                            TABLE_CUBIC_QUARTIC, TABLE_QUINTIC)
from zetaheights import (EXPONENTIAL, archimedean_integrals, aux_functions,
                         build_number_field, direct_series, hsw_window,
                         identity_exponential,
                         mahler_inequality_margin, monotone_prime_sums,
                         northcott_report, parse_polynomial, splitting_table,
                         zero_statistics, zeros_theorem_report)
from zetaheights.algebra import IntPolynomial, complex_roots, height_profile, is_root_of_unity
from zetaheights.fields import dirichlet_coefficients, is_irreducible, prime_splitting
from zetaheights.modp import factor_shape_mod_p
from zetaheights.primes import sieve_primes
from zetaheights.table1 import ROWS, column_tolerance

TABLE = {row[0]: row for row in ROWS}


def _verdict(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _row_checks(ctx, text):
    printed = TABLE[text]
    t0 = time.time()
    K = ctx.field(text)
    zl = ctx.zeros(text, 2.0)
    stats = zero_statistics(zl, 2.0)
    col = 3.67 * (stats.lam - stats.N / 5.0)
    elapsed = time.time() - t0
    logd_err = abs(K.log_abs_disc - float(printed[1]))
    col_err = abs(col - float(printed[2]))
    return logd_err, stats.N == printed[4], col_err, elapsed


@pytest.mark.parametrize("text", TABLE_CUBIC_QUARTIC)
def test_criterion1_cubic_quartic_rows(ctx, text):
    logd_err, count_ok, col_err, elapsed = _row_checks(ctx, text)
    ok = logd_err <= 1e-9 and count_ok and col_err <= 1e-6 and elapsed <= 60.0
    assert _verdict(
        f"1 [{text}]", ok,
        f"logd_err={logd_err:.2e} col_err={col_err:.2e} t={elapsed:.1f}s")
    assert logd_err <= 1e-9
    assert count_ok
    assert col_err <= 1e-6
    assert elapsed <= 60.0


def test_criterion2_quintic_x5_42(ctx):
    logd_err, count_ok, col_err, elapsed = _row_checks(ctx, "x^5+42")
    ok = logd_err <= 1e-9 and count_ok and col_err <= 1e-5 and elapsed <= 600.0
    assert _verdict("2 [x^5+42]", ok,
                    f"logd_err={logd_err:.2e} col_err={col_err:.2e} "
                    f"t={elapsed:.1f}s")


def test_criterion2_quintic_x5_2x2_26_literal(ctx):
    logd_err, count_ok, col_err, elapsed = _row_checks(ctx, "x^5+2*x^2+26")
    ok = logd_err <= 1e-9 and count_ok and col_err <= 1e-5 and elapsed <= 600.0
    assert _verdict("2 [x^5+2*x^2+26 literal 1e-5]", ok,
                    f"logd_err={logd_err:.2e} col_err={col_err:.2e} "
                    f"t={elapsed:.1f}s")


def test_criterion2_quintic_x5_2x2_26_measured(ctx):
    """Regression guard at the measured accuracy of the printed row."""
    logd_err, count_ok, col_err, elapsed = _row_checks(ctx, "x^5+2*x^2+26")
    ok = logd_err <= 1e-9 and count_ok and col_err <= 2e-5 and elapsed <= 600.0
    assert _verdict("2 [x^5+2*x^2+26 at measured 2e-5]", ok,
                    f"logd_err={logd_err:.2e} col_err={col_err:.2e} "
                    f"t={elapsed:.1f}s")


DIRECT_SERIES_N = 1_500_000  # terms of the Dirichlet series criterion 3 compares against


def test_criterion3_afe_direct_and_functional_equation(ctx):
    worst_afe, worst_fe = 0.0, 0.0
    for text in FIXTURE_POLYS:
        ev = ctx.evaluator(text)
        K = ev.field
        for s in (2.0, 2.5, 3.0):
            S = ev.completed(complex(s))
            ghat = np.exp(ev.gamma.log_gamma_hat(complex(s)))
            direct = direct_series(K, s, DIRECT_SERIES_N).value
            rel = abs(S / (s * (s - 1)) / ghat / direct - 1.0)
            worst_afe = max(worst_afe, rel)
        for sigma in (0.3, 0.7):
            for t in (0.0, 1.0, 2.0):
                s = complex(sigma, t)
                a, b = ev.completed(s), ev.completed(1 - s)
                worst_fe = max(worst_fe, abs(a - b) / max(abs(a), 1e-300))
    ok = worst_afe <= 1e-8 and worst_fe <= 1e-8
    assert _verdict("3", ok, f"worst AFE/direct {worst_afe:.2e}, "
                             f"worst FE residual {worst_fe:.2e}")


def test_criterion4_exponential_closure_all_fields(ctx):
    failures = []
    for text in FIXTURE_POLYS:
        if text == "x":
            continue  # the rationals get the dedicated anchor test below
        zl = ctx.zeros(text, 2.0)
        ledger = identity_exponential(ctx.field(text), zl, 10 ** 6)
        if not ledger.accepted:
            failures.append(text)
    assert _verdict("4 [closures T=2, X=1e6]", not failures, str(failures))


def test_criterion4_riemann_anchor(ctx):
    """Arithmetic side of the exponential identity for the rationals.

    Anchor = 16/3 - (2 - pi/2) - (gamma + log 8pi - 2) - 2(-zeta'/zeta)(3/2)
    computed with mpmath at 30 digits: 0.0922718561209251...; the same
    value is reproduced by summing 400 actual zero pairs plus a density
    tail (0.08695 + 0.00533). The criterion's printed constant 0.0934
    descends from a miscomputed -zeta'/zeta(3/2); the stated +-5e-4
    tolerance is applied to the oracle-derived anchor.
    """
    import mpmath as mp
    mp.mp.dps = 30
    ratio = -mp.zeta(mp.mpf(1.5), derivative=1) / mp.zeta(mp.mpf(1.5))
    oracle = float(mp.mpf(16) / 3 - (2 - mp.pi / 2)
                   - (mp.euler + mp.log(8 * mp.pi) - 2) - 2 * ratio)
    assert oracle == pytest.approx(0.09227185612092515, abs=1e-12)
    zl = ctx.zeros("x", 15.0)
    ledger = identity_exponential(ctx.field("x"), zl, 10 ** 6)
    err = abs(ledger.arithmetic_side - oracle)
    lo, hi = ledger.zero_side_bracket
    ok = err <= 5e-4 and lo <= ledger.arithmetic_side <= hi
    assert _verdict("4 [rationals anchor]", ok,
                    f"arithmetic={ledger.arithmetic_side:.7f} "
                    f"oracle={oracle:.7f} bracket=({lo:.4f},{hi:.4f})")


def test_criterion5_hsw_containment(ctx):
    failures = []
    for text in FIXTURE_POLYS:
        K = ctx.field(text)
        zl = ctx.zeros(text, 2.0)
        for T in (1.0, 2.0):
            window = hsw_window(K.n_K, K.log_abs_disc, T).window
            count = zl.count_below(T)
            if not window[0] <= count <= window[1]:
                failures.append((text, T))
    assert _verdict("5", not failures, str(failures))


def test_criterion6_exact_algebra(ctx):
    K3 = ctx.field("x^3+3*x+213")
    K5 = ctx.field("x^5+42")
    ok = (K3.index == 17 and abs(K3.field_disc) == 4239
          and K5.index == 1 and K5.field_disc == 9724050000
          and abs(K3.log_abs_disc - 8.35208267135264) <= 1e-9
          and abs(K5.log_abs_disc - 22.9978680353040) <= 1e-9)
    assert _verdict("6", ok,
                    f"index3={K3.index} |d3|={abs(K3.field_disc)} "
                    f"index5={K5.index} d5={K5.field_disc}")


def _random_corpus(count=1000, seed=2024):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
        try:
            f = IntPolynomial.from_coefficients(coeffs)
        except Exception:
            continue
        if f.degree >= 1:
            polys.append(f)
    return polys


def test_criterion7_properties(ctx):
    corpus = _random_corpus()
    # Mahler inequality and root sum/product identities on 1000 polynomials
    for f in corpus:
        margin = mahler_inequality_margin(f)
        assert margin.holds, f.text()
        rs = complex_roots(f, 1e-12)
        roots = [z for z, m in zip(rs.roots, rs.multiplicities)
                 for _ in range(m)]
        scale = 1.0 + max(abs(c) for c in f.coefficients)
        assert abs(sum(roots) + f.coefficients[-2]) <= 1e-8 * scale
        prod = 1.0 + 0.0j
        for z in roots:
            prod *= z
        want = (-1) ** f.degree * f.coefficients[0]
        assert abs(prod - want) <= 1e-8 * max(1.0, abs(want))
    # sum e_i f_i = n_K for p <= 1000 across the fixture fields
    for text in FIXTURE_POLYS:
        K = ctx.field(text)
        for p in sieve_primes(1000).tolist():
            assert sum(e * f for e, f in prime_splitting(K, p).factors) == K.n_K
    # mod-p factorization against brute-force root counts for p < 50
    rng = random.Random(5)
    primes = [int(p) for p in sieve_primes(49)]
    for f in rng.sample(corpus, 25):
        for p in primes:
            brute = sum(1 for x in range(p) if f(x) % p == 0)
            distinct = sum(1 for d, _m in factor_shape_mod_p(f, p) if d == 1)
            assert distinct == brute
    # Kronecker: h = 0 exactly on cyclotomics (irreducible corpus members)
    from zetaheights.algebra import cyclotomic_polynomial
    for k in range(1, 31):
        phi_k = cyclotomic_polynomial(k)
        assert is_root_of_unity(phi_k)
        assert height_profile(phi_k).weil_height == pytest.approx(0.0, abs=1e-12)
    checked = 0
    for f in corpus:
        if f.degree < 1 or f.coefficients[0] == 0 or not is_irreducible(f):
            continue
        h = height_profile(f).weil_height
        if is_root_of_unity(f):
            assert h == pytest.approx(0.0, abs=1e-12)
        else:
            assert h > 1e-9
        checked += 1
        if checked >= 200:
            break
    # multiplicativity of the ideal-count coefficients to 1e4
    for text in ("x^2+1", "x^3+3*x+213", "x^4+18*x^2+60", "x^5+42"):
        K = ctx.field(text)
        a = (1,) + dirichlet_coefficients(K, 10 ** 4).a
        assert a[1] == 1
        for m in range(2, 100):
            for n in range(m + 1, 10 ** 4 // m + 1):
                if math.gcd(m, n) == 1:
                    assert a[m * n] == a[m] * a[n]
    assert _verdict("7", True, "1000-poly corpus + splitting/factorization/"
                               "Kronecker/multiplicativity suites")


def test_criterion8_proven_inequalities(ctx):
    failures = []
    for text in FIXTURE_POLYS:
        if text == "x":
            continue
        rep = northcott_report(ctx.field(text), ctx.zeros(text, 2.0))
        if rep.notes["variants"]["c"]["margin"] < 0:
            failures.append(("northcott-c", text))
    for text in ("x^2+1", "x^4+1"):
        rep = zeros_theorem_report(ctx.poly(text), ctx.field(text),
                                   ctx.zeros(text, 2.0))
        if rep.lhs < rep.rhs_total - 1e-9:
            failures.append(("zeros-theorem", text))
    towers = (
        ["x", "x^2-2", "x^4-2", "x^8-2", "x^16-2"],
        ["x", "x^2+1", "x^4+1"],
    )
    for tower in towers:
        fields = [ctx.field(t) for t in tower]
        for x in (10, 100, 1000):
            for lo, hi in zip(fields, fields[1:]):
                if not monotone_prime_sums(lo, hi, x).holds:
                    failures.append(("monotone", lo.n_K, hi.n_K, x))
    assert _verdict("8", not failures, str(failures))


def test_criterion9_constant_extraction(ctx):
    aux = aux_functions(0.212)
    inv = 1.0 / (1.0 - aux.F1)
    ok1 = 1.016 <= inv <= 1.017
    spread = math.exp(-1.0 / 0.848) - math.exp(-1.0 / 0.212)
    extraction = inv * math.sqrt(math.pi / 0.212) * spread
    ok2 = extraction >= 1.168  # with the exact multiplier; the rounded
    # 1.016 rendering gives 1.16774 (see ledger), asserted in test_explicit
    arch = archimedean_integrals(EXPONENTIAL)
    ok3 = (abs(arch.sinh_integral - 2.0) <= 1e-10
           and abs(arch.cosh_integral - (math.pi - 2.0)) <= 1e-10
           and abs(arch.f_cosh_integral - 16.0 / 3.0) <= 1e-10)
    assert _verdict("9", ok1 and ok2 and ok3,
                    f"1/(1-F1)={inv:.6f} extraction={extraction:.6f} "
                    f"archimedean=({arch.sinh_integral}, "
                    f"{arch.cosh_integral:.10f}, {arch.f_cosh_integral:.10f})")


@pytest.mark.stretch
@pytest.mark.parametrize("text", ("x^6+65", "x^6+85"))
def test_criterion2_sextic_stretch_rows(ctx, text):
    """Degree-6 stretch targets at 1e-3; excluded from the default gate."""
    logd_err, count_ok, col_err, elapsed = _row_checks(ctx, text)
    ok = logd_err <= 1e-9 and count_ok and col_err <= 1e-3
    assert _verdict(f"2-stretch [{text}]", ok,
                    f"logd_err={logd_err:.2e} col_err={col_err:.2e} "
                    f"t={elapsed:.0f}s")
