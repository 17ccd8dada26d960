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
    from zetaheights.explicit import PSI_LOWER, PSI_UPPER, _prime_tails
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
        got, _ = _prime_tails(3, gaussian(y), X)
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
    """The adaptive 7-15 rule on a smooth integral, a kinked one and a
    half-line Gaussian moment, each against its closed form."""
    from zetaheights.explicit import _quad
    assert _quad(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12, abs=0)
    # max(1/2, e^{-t}) kinks at t = log 2
    kinked = _quad(lambda t: max(0.5, math.exp(-t)), 0.0, 3.0)
    assert kinked == pytest.approx(2.0 - 0.5 * math.log(2.0), rel=1e-11, abs=0)
    for y in (0.05, 0.2, 1.0):
        a = 1.0 / (4.0 * y)
        closed = (2.0 * math.exp(-4.0 * a) / (2.0 * a)
                  + math.sqrt(math.pi / a) * math.erfc(2.0 * math.sqrt(a)) / (4.0 * a))
        got = _quad(lambda t: t * t * math.exp(-a * t * t), 2.0, math.inf)
        assert got == pytest.approx(closed, rel=1e-11, abs=0), y


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
    from zetaheights.explicit import _kernel_msum, _nonzero_counts
    qs, _ = _nonzero_counts(ctx.field(text), 10 ** 6)
    for y in (0.05, 0.1, 0.2, 0.3):
        assert np.array_equal(_kernel_msum(gaussian(y), qs), _plain_msum(y, qs)), y
