"""Explicit-formula machinery: windows, integrals, prime sums, identities."""

import math

import numpy as np
import pytest

from zetaheights import (EXPONENTIAL, archimedean_integrals, aux_functions,
                         gaussian, hsw_window, identity_exponential,
                         identity_gaussian, prime_side)
from zetaheights.errors import DomainError
from zetaheights.explicit import EULER_GAMMA, LOG_8PI


def test_hsw_window_examples():
    w = hsw_window(3, 8.3521, 1.0)
    assert w.main_term == pytest.approx(-0.0514, abs=1e-3)
    assert w.error_budget == pytest.approx(75.75, abs=0.01)
    assert w.window[0] == 0.0
    w2 = hsw_window(3, 8.3521, 2.0)
    assert w2.main_term == pytest.approx(1.221, abs=1e-3)
    assert w2.error_budget == pytest.approx(76.22, abs=0.01)
    assert w2.window[0] <= 4.0 <= w2.window[1]
    w3 = hsw_window(1, 0.0, 1.0)
    assert w3.main_term == pytest.approx(math.log(1 / (2 * math.pi * math.e)) / math.pi)
    assert w3.main_term == pytest.approx(-0.903, abs=1e-3)


def test_hsw_window_domain():
    with pytest.raises(DomainError):
        hsw_window(2, 1.0, 0.5)


def test_hsw_budget_monotone():
    base = hsw_window(2, 5.0, 2.0).error_budget
    assert hsw_window(2, 5.0, 3.0).error_budget > base
    assert hsw_window(2, 6.0, 2.0).error_budget > base
    assert hsw_window(3, 5.0, 2.0).error_budget > base


def test_archimedean_exponential_closed_forms():
    arch = archimedean_integrals(EXPONENTIAL)
    assert arch.sinh_integral == pytest.approx(2.0, abs=1e-10)
    assert arch.cosh_integral == pytest.approx(math.pi - 2.0, abs=1e-10)
    assert arch.f_cosh_integral == pytest.approx(16.0 / 3.0, abs=1e-10)


def test_archimedean_gaussian_closed_form():
    y = 0.212
    arch = archimedean_integrals(gaussian(y))
    want = 2.0 * math.exp(1.0 / (16 * y)) * math.sqrt(math.pi / y)
    assert arch.f_cosh_integral == pytest.approx(want, rel=1e-10)
    assert arch.f_cosh_integral == pytest.approx(10.3393, abs=1e-3)


def test_archimedean_gaussian_small_y_limit():
    small = archimedean_integrals(gaussian(0.001))
    assert 0.0 < small.sinh_integral < 0.02  # O(y) as y -> 0


def test_prime_side_riemann_oracle(ctx):
    """Exponential prime side equals 2 (-zeta'/zeta)(3/2), via mpmath."""
    import mpmath as mp
    mp.mp.dps = 30
    want = float(-2 * mp.zeta(mp.mpf(1.5), derivative=1) / mp.zeta(mp.mpf(1.5)))
    ps = prime_side(ctx.field("x"), EXPONENTIAL, 10 ** 6)
    assert ps.corrected == pytest.approx(want, abs=3e-6)
    assert abs(ps.value - want) <= ps.tail_bound
    assert ps.corrected == pytest.approx(3.0104707, abs=1e-4)


def test_prime_side_monotone_in_cutoff(ctx):
    K = ctx.field("x^2+1")
    kind = gaussian(0.1)
    a = prime_side(K, kind, 10 ** 4)
    b = prime_side(K, kind, 10 ** 5)
    assert a.value <= b.value + 1e-15
    assert a.tail_bound >= b.tail_bound


def test_prime_side_positive(ctx):
    ps = prime_side(ctx.field("x^2+1"), gaussian(0.05), 10 ** 5)
    assert ps.value > 0 and ps.tail_bound > 0 and ps.tail_estimate > 0


def test_identity_exponential_riemann_anchor(ctx):
    """Arithmetic side against the independently derived constant.

    The exact value 16/3 - (2 - pi/2) - (gamma + log 8pi - 2)
    - 2(-zeta'/zeta)(3/2) = 0.0922718561... (mpmath oracle, also matched
    by summing 400 actual zero pairs plus a density tail). The engine's
    prime-counting-corrected estimate must land within 5e-4 of it.
    """
    zl = ctx.zeros("x", 15.0)
    led = identity_exponential(ctx.field("x"), zl, 10 ** 6)
    oracle = 0.09227185612092515
    assert led.arithmetic_side == pytest.approx(oracle, abs=5e-4)
    lo, hi = led.zero_side_bracket
    assert lo <= led.arithmetic_side <= hi
    assert lo <= oracle <= hi


def test_identity_exponential_small_fields(ctx):
    for text in ("x^2+1", "x^2-x-1", "x^4+1"):
        zl = ctx.zeros(text, 2.0)
        led = identity_exponential(ctx.field(text), zl, 10 ** 6)
        assert led.accepted, text


def test_identity_exponential_msum_diagnostic(ctx):
    zl = ctx.zeros("x", 15.0)
    led = identity_exponential(ctx.field("x"), zl, 10 ** 6)
    # the single-term rendering differs from the full geometric m-sum
    assert led.notes["m_sum_vs_single_gap"] == pytest.approx(0.419, abs=5e-3)


def test_identity_gaussian_closures(ctx):
    for text in ("x", "x^2+1", "x^2-x-1", "x^4+1", "x^3+3*x+213"):
        zl = ctx.zeros(text, 2.0 if text != "x" else 15.0)
        for y in (0.05, 0.1, 0.212):
            led = identity_gaussian(ctx.field(text), zl, y, 10 ** 6)
            assert led.accepted, (text, y)


def test_identity_requires_height(ctx):
    zl = ctx.zeros("x^2+1", 2.0)
    short = type(zl)(T=1.0, ordinates=(0.9,), bracket_widths=(1e-9,))
    with pytest.raises(DomainError):
        identity_exponential(ctx.field("x^2+1"), short, 10 ** 5)
    with pytest.raises(DomainError):
        identity_gaussian(ctx.field("x^2+1"), zl, 1.5, 10 ** 5)


def test_identity_degenerate_empty_list(ctx):
    """Empty zero list: bracket is the full counting-window tail."""
    empty = type(ctx.zeros("x^2+1", 2.0))(T=0.0, ordinates=(),
                                          bracket_widths=())
    led = identity_exponential(ctx.field("x^2+1"), empty, 10 ** 5)
    assert led.accepted
    assert led.zero_side_located == 0.0


def test_aux_functions_constants():
    aux = aux_functions(0.212)
    assert aux.F1 == pytest.approx(0.016196, abs=2e-5)
    inv = 1.0 / (1.0 - aux.F1)
    assert 1.016 <= inv <= 1.017
    assert aux.G_at_inv_sqrt_y == pytest.approx(0.00213, abs=2e-5)
    assert aux.F2_integral == pytest.approx(10.3393, abs=1e-3)
    # the extraction constant of the discriminant bound at y = 0.212:
    # (H + gamma + log 8pi)/(1 - F1) reproduces the stated main term 2
    main = (aux.H + EULER_GAMMA + LOG_8PI) * inv
    assert main == pytest.approx(2.0, abs=5e-3)


def test_aux_extraction_inequality():
    aux = aux_functions(0.212)
    inv = 1.0 / (1.0 - aux.F1)
    spread = math.exp(-1.0 / 0.848) - math.exp(-1.0 / 0.212)
    exact = inv * math.sqrt(math.pi / 0.212) * spread
    assert exact >= 1.168
    # the rounded-down multiplier 1.016 lands just short (frozen value);
    # see the decisions ledger for the analysis
    literal = 1.016 * math.sqrt(math.pi / 0.212) * spread
    assert literal == pytest.approx(1.16774, abs=1e-4)
    assert literal < 1.168


def test_gaussian_g_at_zero_limit():
    assert aux_functions(1.0).G_at_inv_sqrt_y == pytest.approx(
        math.erfc(1.0), rel=1e-12)
    from scipy.special import erfc
    assert float(erfc(0.0)) == 1.0  # G(0) = 1, full Gaussian integral


def test_kernel_positivity():
    g = gaussian(0.1)
    for t in (0.0, 0.5, 1.0, 2.0):
        assert g.phi_critical(t) > 0.0
    assert EXPONENTIAL.phi_critical(1.0) == pytest.approx(1.0)


def test_identity_gaussian_closure_every_fixture(ctx):
    """Module invariant: the Gaussian identity closes at the three stated
    parameters on every bundled field."""
    from tests.conftest import FIXTURE_POLYS
    for text in FIXTURE_POLYS:
        zl = ctx.zeros(text, 15.0 if text == "x" else 2.0)
        for y in (0.05, 0.1, 0.212):
            led = identity_gaussian(ctx.field(text), zl, y, 10 ** 6)
            assert led.accepted, (text, y)


def test_prime_side_dominates_single_term_truncation(ctx):
    """Full Gaussian prime sum at y = 1/log n dominates its m = 1,
    q <= log n truncation (all terms positive)."""
    from zetaheights import splitting_table
    for text in ("x^3+3*x+213", "x^5+42"):
        K = ctx.field(text)
        y = 1.0 / math.log(K.n_K)
        ps = prime_side(K, gaussian(y), 10 ** 5)
        table = splitting_table(K, max(2, int(math.log(K.n_K))))
        truncated = 2.0 * sum(
            c * math.log(q) / math.sqrt(q) * math.exp(-y * math.log(q) ** 2)
            for q, c in table.counts.items() if c and q <= math.log(K.n_K))
        assert ps.value >= truncated - 1e-12


@pytest.mark.parametrize("y", [0.05, 0.212, 0.5, 1.0])
def test_gaussian_density_tail_matches_mpmath(y):
    """int_{log X}^inf e^{u/2 - y u^2} du against mpmath's 50-digit
    quadrature, taken from log X as e^{log X/2 - y log^2 X} int_0^inf
    e^{-(2y log X - 1/2) v - y v^2} dv."""
    import mpmath as mp
    from zetaheights.explicit import density_tail
    mp.mp.dps = 50
    for X in (2, 10 ** 3, 10 ** 6):
        lx, yy = mp.log(X), mp.mpf(y)
        slope = 2 * yy * lx - mp.mpf(1) / 2
        want = mp.exp(lx / 2 - yy * lx * lx) * mp.quad(
            lambda v: mp.exp(-slope * v - yy * v * v), [0, mp.inf])
        got = density_tail(gaussian(y), X)
        assert abs(got - want) <= 1e-12 * want, (y, X, got)


@pytest.mark.parametrize("y", [0.05, 0.212, 0.5, 1.0])
def test_gaussian_prime_tail_bound_matches_mpmath(y):
    """The Gaussian tail_bound 2 n_K (1.03883 (X h(X) + I) - 0.9 X h(X)),
    I = int_{log X}^inf u e^{g(u)} + u e^{-4 y u^2} du with g(u) = u/2 -
    y u^2, against mpmath's 40-digit quadrature of I, each part taken
    from log X as e^{part at log X} times an integral over v = u - log X."""
    import mpmath as mp
    from zetaheights.explicit import PSI_LOWER, PSI_UPPER
    mp.mp.dps = 40
    for X in (2, 10 ** 3, 10 ** 6):
        lx, yy = mp.log(X), mp.mpf(y)
        slope = 2 * yy * lx - mp.mpf(1) / 2
        integral = (mp.exp(lx / 2 - yy * lx * lx) * mp.quad(
            lambda v: (lx + v) * mp.exp(-slope * v - yy * v * v), [0, mp.inf])
            + mp.exp(-4 * yy * lx * lx) * mp.quad(
                lambda v: (lx + v) * mp.exp(-8 * yy * lx * v - 4 * yy * v * v),
                [0, mp.inf]))
        xh = lx * mp.exp(lx / 2 - yy * lx * lx) * (
            1 + mp.exp(-lx / 2 - 3 * yy * lx * lx))
        want = 2 * 3 * (PSI_UPPER * (xh + integral) - PSI_LOWER * xh)
        got = gaussian(y).prime_tail_bound(3, X)
        assert abs(got - want) <= 1e-12 * want, (y, X, got)


@pytest.mark.parametrize("X", [1, 0, -5])
def test_prime_sums_reject_cutoff_below_two(ctx, X):
    """The prime sums, and the identities and bound reports built on them,
    raise DomainError for a cutoff X < 2, as splitting_table does."""
    from zetaheights import northcott_report
    from zetaheights.explicit import density_tail, single_m_prime_sum
    K = ctx.field("x^2+1")
    zl = ctx.zeros("x^2+1", 2.0)
    for call in (lambda: prime_side(K, EXPONENTIAL, X),
                 lambda: single_m_prime_sum(K, gaussian(0.1), X),
                 lambda: density_tail(EXPONENTIAL, X),
                 lambda: density_tail(gaussian(0.1), X),
                 lambda: identity_exponential(K, zl, X),
                 lambda: identity_gaussian(K, zl, 0.1, X),
                 lambda: northcott_report(K, zl, X)):
        with pytest.raises(DomainError, match="cutoff must be >= 2"):
            call()


def test_quad_closed_forms():
    """The adaptive 7-15 rule on a smooth integral and a kinked one, each
    against its closed form."""
    from zetaheights.explicit import _quad
    assert _quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12, abs=0)
    # max(1/2, e^{-t}) kinks at t = log 2
    kinked = _quad(lambda t: np.maximum(0.5, np.exp(-t)), 0.0, 3.0)
    assert kinked == pytest.approx(2.0 - 0.5 * math.log(2.0), rel=1e-11, abs=0)


@pytest.mark.parametrize("y", [0.05, 0.212, 0.5, 1.0])
def test_aux_g_against_four_moments(y):
    """g, read off the Gaussian zero tail, against its four half-line
    moments of e^{-t^2/4y} above t = 2, each by scipy's quad."""
    from scipy.integrate import quad
    from zetaheights.explicit import HSW_DEGREE_COEFF, HSW_LOG_COEFF

    def moment(fn):
        return quad(lambda t: fn(t) * math.exp(-t * t / (4.0 * y)), 2.0, math.inf,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    four = (moment(lambda t: t * t * math.log(t))
            - math.log(2.0 * math.pi * math.e) * moment(lambda t: t * t)
            - HSW_LOG_COEFF * math.pi * moment(lambda t: t * math.log(t))
            - HSW_DEGREE_COEFF * math.pi * moment(lambda t: t))
    expected = four / (2.0 * math.sqrt(math.pi) * y ** 1.5)
    assert aux_functions(y).g == pytest.approx(expected, rel=1e-12, abs=0)


def test_quad_raises_where_its_estimate_fails():
    """int_0^1 dx/x diverges: every bisection of [0, h] keeps the same
    error estimate, so the 400 intervals run out and the gate raises."""
    from zetaheights.errors import QuadratureFailureError
    from zetaheights.explicit import _quad
    with pytest.raises(QuadratureFailureError, match="error estimate"):
        _quad(lambda x: 1.0 / x, 0.0, 1.0)


def _plain_msum(y, qs):
    """The Gaussian m-sum with every q kept to the last m."""
    logq = np.log(qs)
    total = np.zeros_like(logq)
    m = 1
    while True:
        term = np.exp(-0.5 * m * logq - y * (m * logq) ** 2)
        total += term
        if float(term.max()) < 1e-20 * max(float(total.max()), 1e-300):
            break
        m += 1
        if m > 400:
            break
    return total


@pytest.mark.parametrize("text", ["x", "x^2+1", "x^4+1"])
def test_kernel_msum_matches_the_plain_loop(ctx, text):
    """Dropping a q once its term is below 2^-54 of its total changes no
    bit of the m-sums, over every prime power to 10^6 with N_q > 0."""
    from zetaheights.explicit import _nonzero_counts
    qs, _ = _nonzero_counts(ctx.field(text), 10 ** 6)
    for y in (0.05, 0.1, 0.2, 0.3):
        assert np.array_equal(gaussian(y).msum(qs), _plain_msum(y, qs)), y


def test_exponential_quadratures_match_closed_forms():
    """archimedean_integrals returns the exponential kernel's (2, pi - 2,
    16/3) without quadrature; the 7-15 rule on their integrands meets each
    within 1e-10."""
    from zetaheights.explicit import _quad, _sinh_cosh_integrals
    F = EXPONENTIAL.F
    got = (*_sinh_cosh_integrals(F),
           4.0 * _quad(lambda x: F(x) * np.cosh(x / 2.0), 0.0, 80.0))
    closed = (2.0, math.pi - 2.0, 16.0 / 3.0)
    for value, want in zip(got, closed):
        assert abs(value - want) <= 1e-10 * max(1.0, want), (value, want)
    arch = archimedean_integrals(EXPONENTIAL)
    assert (arch.sinh_integral, arch.cosh_integral, arch.f_cosh_integral) == closed


@pytest.mark.parametrize("y", [0.001, 0.05, 0.212, 1.0 / math.log(4.0), 1.0])
def test_gaussian_f_cosh_quadrature_matches_closed_form(y):
    """4 int_0^inf e^{-y x^2} cosh(x/2) dx, returned as 2 e^{1/16y}
    sqrt(pi/y), against the 7-15 rule to the peak 1/4y plus seven widths
    1/sqrt(y) plus 20."""
    from zetaheights.explicit import _quad
    kind = gaussian(y)
    upper = 1.0 / (4.0 * y) + 7.0 / math.sqrt(y) + 20.0
    got = 4.0 * _quad(lambda x: kind.F(x) * np.cosh(x / 2.0), 0.0, upper)
    closed = archimedean_integrals(kind).f_cosh_integral
    assert closed == 2.0 * math.exp(1.0 / (16.0 * y)) * math.sqrt(math.pi / y)
    assert abs(got / closed - 1.0) <= 1e-10, (y, got, closed)


def test_field_independent_integrals_run_once(monkeypatch):
    """archimedean_integrals and aux_functions are cached: a second call
    at the same kernel or y runs no Gauss-Kronrod panel, and the
    exponential kernel's integrals run none even on the first call."""
    from zetaheights import explicit
    panels = []
    gk15 = explicit._gk15

    def counted(fn, a, b):
        panels.append((a, b))
        return gk15(fn, a, b)

    monkeypatch.setattr(explicit, "_gk15", counted)
    archimedean_integrals.cache_clear()
    aux_functions.cache_clear()
    archimedean_integrals(EXPONENTIAL)
    assert panels == []
    first = (archimedean_integrals(gaussian(0.212)), aux_functions(0.212))
    ran = len(panels)
    assert ran > 0
    assert (archimedean_integrals(gaussian(0.212)), aux_functions(0.212)) == first
    assert len(panels) == ran


def test_prime_read_is_override_free_and_read_only(ctx, monkeypatch):
    """Overrides before and after a prime sum leave the field's cached
    prime read alone: prime_side on Q(i) equals, bit for bit, its value on
    a freshly built field and the sum written out from norm_counts; the
    cached arrays are read-only."""
    from zetaheights import (build_number_field, fields, norm_counts,
                             parse_polynomial, splitting_table)
    from zetaheights.explicit import _nonzero_counts
    K = ctx.field("x^2+1")
    X, kind, forced = 10 ** 5, gaussian(0.3), {13: [(1, 2)]}
    prime_side(K, EXPONENTIAL, 2 * X)   # a read at 2X, sliced to X below
    values = []
    for _ in range(2):
        q, n = norm_counts(K, X, override=forced)
        assert n[np.searchsorted(q, 13)] == 0 and n[np.searchsorted(q, 169)] == 1
        assert splitting_table(K, X, override=forced).counts[13] == 0
        values.append(prime_side(K, kind, X).value)
    monkeypatch.setattr(fields, "_FIELDS", {})   # a field built afresh
    fresh = build_number_field(parse_polynomial("x^2+1"))
    assert fresh.state is not K.state
    want = prime_side(fresh, kind, X).value
    assert values == [want, want]
    q, n = norm_counts(fresh, X)
    qs, counts = q[n > 0].astype(float), n[n > 0].astype(float)
    assert want == 2.0 * float(np.dot(counts * np.log(qs), kind.msum(qs)))
    for arr in (*_nonzero_counts(K, X), *K.state.prime_read):
        assert not arr.flags.writeable


def test_engine_is_the_earlier_per_kernel_arithmetic(ctx):
    """The one identity body and the reports that read its terms give, on
    every bundled field, what the per-kernel formulas written out below
    give, within 1e-13 max(1, |v|): the exponential arithmetic side, the
    Gaussian one as its six normalised terms, the index-or-zeros remainder
    interval and the tower bound's remainders."""
    from tests.conftest import FIXTURE_POLYS
    from zetaheights import (disc_bound2_report, zero_statistics,
                             zeros_theorem_report)
    from zetaheights import bounds as b
    from zetaheights.errors import NotUniformSplittingError

    def close(got, want):
        return abs(got - want) <= 1e-13 * max(1.0, abs(want))

    X, interval_fields = 10 ** 6, 0
    for text in FIXTURE_POLYS:
        K, f = ctx.field(text), ctx.poly(text)
        n, r1, logd = K.n_K, K.r1, K.log_abs_disc
        zl = ctx.zeros(text, 15.0 if text == "x" else 2.0)
        P = prime_side(K, EXPONENTIAL, X)
        want = (logd - (2.0 - math.pi / 2.0) * r1
                - (EULER_GAMMA + LOG_8PI - 2.0) * n + 16.0 / 3.0 - P.corrected)
        assert close(identity_exponential(K, zl, X).arithmetic_side, want), text
        for y in (0.05, 0.1, 0.212):
            arch = archimedean_integrals(gaussian(y))
            want = (logd / n - math.pi * r1 / (2.0 * n) - (EULER_GAMMA + LOG_8PI)
                    + arch.sinh_integral + (r1 / n) * arch.cosh_integral
                    + arch.f_cosh_integral / n
                    - prime_side(K, gaussian(y), X).corrected / n)
            got = identity_gaussian(K, zl, y, X).arithmetic_side
            assert close(got, want), (text, y)
        zl2 = ctx.zeros(text, 2.0)
        try:
            report = zeros_theorem_report(f, K, zl2, X)
        except NotUniformSplittingError:
            report = None
        if report is not None:
            interval_fields += 1
            a_const = ((2.0 - math.pi / 2.0) * r1
                       + (EULER_GAMMA + LOG_8PI - 2.0) * n - 16.0 / 3.0)
            low_sum = zl2.kernel_sum(lambda t: 2.0 * (1.0 / (1.0 + t * t) - 0.2),
                                     below=2.0)
            N = zero_statistics(zl2, 2.0).N

            def remainder(sign, prime_val):
                return (a_const + low_sum - 2.0 * N
                        + (b.LEMMA46_LOGD + sign * b.C1_BOUND - b.BZ2_SHRINK) * logd
                        + (b.LEMMA46_DEGREE + sign * b.C2_BOUND) * n
                        + sign * b.LEMMA46_CONST + prime_val)
            want = (remainder(-1.0, P.value), remainder(1.0, P.value + P.tail_bound))
            got = report.notes["precursor"]["remainder_interval"]
            assert all(map(close, got, want)), text
        if n >= 3:
            y = 1.0 / math.log(n)
            arch = archimedean_integrals(gaussian(y))
            want = {"sinh_integral": arch.sinh_integral,
                    "cosh_integral_scaled": (r1 / n) * arch.cosh_integral,
                    "f_cosh_over_n": arch.f_cosh_integral / n,
                    "F1_times_lhs": aux_functions(y).F1 * logd / n,
                    "archimedean_r1_surplus":
                        (r1 / n) * (math.pi / 2.0 - arch.cosh_integral)}
            got = disc_bound2_report(K, zl2).notes["remainders_at_y_1_over_log_n"]
            assert got.keys() == want.keys()
            assert all(close(got[k], want[k]) for k in want), text
    assert interval_fields == 13   # all but x^5+2x^2+26 split uniformly


# the perfbench `session` fields and the heights its zero scans reach
SESSION_HEIGHTS = {"x": 26.0, "x^2+1": 11.0, "x^2-x-1": 11.0, "x^2+x+1": 12.0,
                   "x^4+1": 5.0}


@pytest.mark.parametrize("text", sorted(SESSION_HEIGHTS))
def test_pairwise_single_sum_within_its_rounding_bound(ctx, text):
    """At X = 10^6, for both kernels, np.sum of the m = 1 terms lies within
    the reported gamma_k sum |terms| of their exact sum (math.fsum), and
    single_m_prime_sum returns the sum prime_side carries."""
    from zetaheights.explicit import _nonzero_counts, single_m_prime_sum
    K, X = ctx.field(text), 10 ** 6
    qs, weights = _nonzero_counts(K, X)
    for kind in (EXPONENTIAL, gaussian(0.212), gaussian(0.05)):
        ps = prime_side(K, kind, X)
        exact = math.fsum((weights * kind.prime_terms(qs)[1]).tolist())
        assert abs(ps.single_m - exact) <= ps.single_m_rounding, (kind, text)
        assert ps.single_m_rounding < 1e-13 * exact
        assert single_m_prime_sum(K, kind, X) == ps.single_m


@pytest.mark.parametrize("X", [2, 100, 10 ** 6])
def test_exponential_prime_tail_series_against_mpmath(X):
    """The series for int_{log X}^inf u e^u/(e^{3u/2} - 1) du meets
    mpmath's quadrature within 1e-15 relative."""
    import mpmath as mp
    with mp.workdps(30):
        lx = mp.log(X)
        want = mp.quad(lambda u: u * mp.exp(u) / mp.expm1(1.5 * u), [lx, lx + 1, mp.inf])
    h_X, got = EXPONENTIAL.prime_tail_h(X)
    assert abs(got - want) <= 1e-15 * want, (X, got, want)
    assert h_X == math.log(X) / (X ** 1.5 - 1.0)


def _exponential_zero_tail_reference(n_K, log_dK, sign, floor, T):
    """int_T^inf 4t/(1+t^2)^2 max(floor, main(t) + sign err(t)) dt by mpmath,
    the counting window written out afresh, split at the exact kinks: the
    roots of main + sign err = floor, bracketed on a geometric grid from T
    and solved to 40 digits."""
    import mpmath as mp
    with mp.workdps(40):
        def f(t):
            main = t / mp.pi * (log_dK + n_K * mp.log(t / (2 * mp.pi * mp.e)))
            err = (mp.mpf("0.228") * (log_dK + n_K * mp.log(t))
                   + mp.mpf("23.108") * n_K + mp.mpf("4.520"))
            return main + sign * err - floor
        grid = [mp.mpf(T) * 2 ** (mp.mpf(j) / 8) for j in range(160)]
        kinks = [mp.findroot(f, (a, b), solver="anderson")
                 for a, b in zip(grid, grid[1:]) if (f(a) > 0) != (f(b) > 0)]
        ends = [mp.mpf(T), *kinks, mp.inf]
        total = 0
        for a, b in zip(ends, ends[1:]):
            above = f(a + 1 if b == mp.inf else (a + b) / 2) > 0
            total += mp.quad(lambda t: 4 * t / (1 + t * t) ** 2
                             * (f(t) + floor if above else floor), [a, b])
        return total, len(kinks)


@pytest.mark.parametrize("text", sorted(SESSION_HEIGHTS))
def test_exponential_zero_tail_closed_form_against_mpmath(ctx, text):
    """The closed-form exponential zero tail, through both window edges and
    floored at the zeros located, as the identity reads it, meets the mpmath
    reference within 1e-14 relative: on each session field at T = 2 and at
    its session height, and for an empty list at T < 1 (read at T = 1). The
    lower edge kinks on every list here, the upper edge on none."""
    from zetaheights.explicit import _counting_edge
    K = ctx.field(text)
    empty = type(ctx.zeros(text, 2.0))(T=0.5, ordinates=(), bracket_widths=())
    for zl in (ctx.zeros(text, 2.0), ctx.zeros(text, SESSION_HEIGHTS[text]), empty):
        T, n_loc = max(zl.T, 1.0), zl.count_below(zl.T)
        for sign in (-1.0, 1.0):
            got = EXPONENTIAL.zero_tail(_counting_edge(K.n_K, K.log_abs_disc, sign),
                                        float(n_loc), T)
            want, kinks = _exponential_zero_tail_reference(
                K.n_K, K.log_abs_disc, sign, n_loc, T)
            assert abs(got - want) <= 1e-14 * abs(want), (text, zl.T, sign, got, want)
            assert kinks == (sign < 0), (text, zl.T, sign)


def test_warm_reports_run_no_quadrature(ctx, monkeypatch):
    """Warm calls of the exponential ledger and the Northcott, corollary-S
    and index-or-zeros reports run no Gauss-Kronrod panel, and one
    northcott_report forms the Gaussian per-q terms once."""
    from zetaheights import (corollary_S_check, explicit, northcott_report,
                             zeros_theorem_report)
    K, f, X = ctx.field("x^2+1"), ctx.poly("x^2+1"), 10 ** 6
    zl2, zlh = ctx.zeros("x^2+1", 2.0), ctx.zeros("x^2+1", 11.0)
    calls = (lambda: identity_exponential(K, zlh, X),
             lambda: northcott_report(K, zl2, X),
             lambda: corollary_S_check(f, K, zl2, X),
             lambda: zeros_theorem_report(f, K, zl2, X))
    for call in calls:   # fills the caches and the field's prime read
        call()
    panels, formed = [], []
    gk15 = explicit._gk15
    monkeypatch.setattr(explicit, "_gk15",
                        lambda fn, a, b: panels.append((a, b)) or gk15(fn, a, b))
    for call in calls:
        call()
    assert panels == []
    for name in ("prime_terms", "single"):
        def counted(self, qs, _name=name, _method=getattr(explicit.Gaussian, name)):
            formed.append(_name)
            return _method(self, qs)
        monkeypatch.setattr(explicit.Gaussian, name, counted)
    northcott_report(K, zl2, X)
    assert formed == ["prime_terms"]
