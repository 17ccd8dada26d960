"""Analytic continuation, residues, and zero location."""

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tests.conftest import (FIXTURE_POLYS, SMALL_FIXTURES, TABLE_CUBIC_QUARTIC,
                            TABLE_QUINTIC)
from zetaheights import (EXPONENTIAL, direct_series, gaussian, locate_zeros,
                         zero_statistics)
from zetaheights.errors import (DomainError, GridMissError,
                                IncompleteZeroSetError,
                                InconsistentResidueError)
from zetaheights.zeta import (ARG_STEP, ARG_TAIL, CONTOUR_STEP,
                              KERNEL_BLOCK, MAX_HEIGHT, SPREAD_POINTS,
                              SPREAD_STEP, WGRID_STEP_FACTOR, GammaFactor,
                              ZeroList, ZetaEvaluator, _completeness_checks,
                              _contour_halfwidth, _digamma, _euler_cutoff,
                              _euler_phase, _euler_tail, _hermite_pieces,
                              _log_k0, _loggamma, _mellin_barnes_logw,
                              _phase_matrix, _SPREAD_BASIS, argument_count)

CATALAN = 0.915965594177219015054603514932

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _mellin_weight(ev, s, n):
    """Single smoothed coefficient weight F(s, n), by 64-point Gauss-Legendre
    on the kernel's log grid."""
    u = n / ev.gamma.scale
    if u >= ev.y_max:
        return 0.0
    lo, hi = math.log(u), ev._log_grid[-1]
    taus = 0.5 * (hi - lo) * _GL64_NODES + 0.5 * (hi + lo)
    wts = 0.5 * (hi - lo) * _GL64_WEIGHTS
    vals = ev.kernel(np.exp(taus)) * np.exp(s * taus)
    return ev.gamma.front * (u ** (-s)) * complex(np.dot(wts, vals))


def _afe_vs_direct(ctx, text, s, n_direct):
    ev = ctx.evaluator(text)
    K = ev.field
    S = ev.completed(complex(s))
    ghat = np.exp(ev.gamma.log_gamma_hat(complex(s)))
    direct = direct_series(K, s, n_direct).value
    return abs(S / (s * (s - 1)) / ghat / direct - 1.0)


def test_direct_series_riemann_values(ctx):
    KQ = ctx.field("x")
    z2 = direct_series(KQ, 2.0, 10 ** 6).value.real
    assert z2 == pytest.approx(math.pi ** 2 / 6, abs=1e-8)
    z3 = direct_series(KQ, 3.0, 10 ** 6).value.real
    assert z3 == pytest.approx(1.2020569031595943, abs=1e-8)


def test_direct_series_gaussian_field(ctx):
    Ki = ctx.field("x^2+1")
    z2 = direct_series(Ki, 2.0, 10 ** 6).value.real
    want = (math.pi ** 2 / 6) * CATALAN
    assert z2 == pytest.approx(want, abs=1e-6)
    assert z2 == pytest.approx(1.5067030, abs=1e-6)


def test_direct_series_domain():
    import zetaheights
    KQ = zetaheights.build_number_field(zetaheights.parse_polynomial("x"))
    with pytest.raises(DomainError):
        direct_series(KQ, 1.2, 1000)
    with pytest.raises(DomainError):
        direct_series(KQ, 2.0, 50)


def test_residues(ctx):
    """Residues from the theta functional equation against the class number
    formula 2^r1 (2 pi)^r2 h R / (w sqrt|d|)."""
    phi = (1 + math.sqrt(5)) / 2
    for text, want in (("x", 1.0),
                       ("x^2+1", math.pi / 4),
                       ("x^2-x-1", 2 * math.log(phi) / math.sqrt(5)),
                       ("x^2+x+1", math.pi / (3 * math.sqrt(3)))):
        assert ctx.evaluator(text).residue == pytest.approx(want, rel=1e-12), text


@pytest.mark.parametrize("text, n", [("x^3+3*x+213", 2),
                                     ("x^4+18*x^2+60", 415)],  # first far a_n
                         ids=["x^3+3*x+213", "x^4+18*x^2+60"])
def test_residue_rejects_a_wrong_coefficient(ctx, text, n):
    ev = ZetaEvaluator(ctx.field(text))
    ev.a = ev.a.copy()  # the field's cached array stays intact
    ev.a[n] += 1
    with pytest.raises(InconsistentResidueError, match="t = 1.005"):
        ev.residue


def test_cached_coefficients_are_read_only(ctx):
    """The residue reuses theta's split of ev.a, so ev.a cannot change in
    place; a changed coefficient needs a rebound copy, as above."""
    ev = ZetaEvaluator(ctx.field("x^3+3*x+213"))
    with pytest.raises(ValueError, match="read-only"):
        ev.a[2] += 1
    assert ev.residue > 0


def test_kernel_below_grid_raises(ctx):
    ev = ctx.evaluator("x^3+3*x+213")
    assert ev.kernel(np.array([1.0 / ev.gamma.scale]))[0] > 0  # theta's smallest y
    with pytest.raises(GridMissError):
        ev.kernel(np.array([0.5 * math.exp(ev._log_grid[0])]))


def test_afe_direct_agreement_small_fields(ctx):
    for text in ("x", "x^2+1", "x^2-x-1", "x^4+1"):
        for s in (2.0, 2.5, 3.0):
            assert _afe_vs_direct(ctx, text, s, 10 ** 6) <= 1e-8, (text, s)


def test_functional_equation_grid(ctx):
    for text in ("x", "x^2+1", "x^3+3*x+213"):
        ev = ctx.evaluator(text)
        for sigma in (0.3, 0.7):
            for t in (0.0, 0.7, 1.4, 2.0):
                s = complex(sigma, t)
                a, b = ev.completed(s), ev.completed(1 - s)
                assert abs(a - b) <= 1e-8 * max(abs(a), 1e-12), (text, s)


def test_reality_on_critical_line(ctx):
    for text in ("x", "x^2+1", "x^2-x-1"):
        ev = ctx.evaluator(text)
        for t in np.linspace(0.0, 2.0, 9):
            s = complex(0.5, t)
            val = ev.completed(s)
            assert abs(val.imag) <= 1e-9 * max(abs(val), 1e-12)
            assert ev.hardy(float(t)) == pytest.approx(val.real, rel=1e-9, abs=1e-12)


def test_mellin_weight_sum_matches_completed(ctx):
    """The per-coefficient smoothed weights recombine to Lambda(s)."""
    ev = ctx.evaluator("x^2-x-1")
    for s in (complex(0.6, 0.9), complex(2.0, 0.0)):
        total = sum(float(ev.a[n]) * (_mellin_weight(ev, s, n)
                                      + _mellin_weight(ev, 1 - s, n))
                    for n in range(1, ev.N + 1) if ev.a[n])
        lam = total + ev.pole_term * (1.0 / (s - 1) - 1.0 / s)
        want = ev.completed(s) / (s * (s - 1))
        assert abs(lam - want) <= 1e-8 * max(abs(want), 1e-10)


def test_mellin_barnes_matches_exact_kernels(ctx):
    """Contour-built kernels agree with the closed forms per signature.

    Relative agreement is demanded down to 1e-10 of the kernel peak; below
    that the contour truncation floor (~1e-19 absolute) takes over, which
    is beneath the evaluator's own weight cutoff.
    """
    from scipy.special import k0
    for text, exact, lo, mid, hi in (
        ("x", lambda y: 2.0 * np.exp(-y * y), 1.8, 3.3, 4.8),
        ("x^2+1", lambda y: np.exp(-y), 0.4, 12.0, 23.0),
        ("x^2-2", lambda y: 4.0 * k0(2.0 * y), 1.2, 6.5, 12.0),
    ):
        K = ctx.field(text)

        def mellin_barnes(ys):  # ys geometric: a uniform grid in log y
            return np.exp(_mellin_barnes_logw(K.r1, K.r2, np.log(ys)))
        bright = np.geomspace(lo, mid, 20)
        mb = mellin_barnes(bright)
        assert np.max(np.abs(mb / exact(bright) - 1.0)) < 1e-11, text
        dim = np.geomspace(mid, hi, 10)
        mb_dim = mellin_barnes(dim)
        assert np.max(np.abs(mb_dim / exact(dim) - 1.0)) < 1e-7, text
        deep = np.geomspace(hi, 1.6 * hi, 5)
        absolute = mellin_barnes(deep) - exact(deep)
        assert np.max(np.abs(absolute)) < 1e-15 * float(exact(np.array([lo]))[0])


@pytest.mark.parametrize("r1, r2, y_tail", [(1, 1, 60.0), (0, 2, 60.0),
                                             (1, 2, 100.0), (0, 3, 150.0)])
def test_kernel_matches_meijer_g(ctx, r1, r2, y_tail):
    """The Mellin-Barnes kernel on a grid at the evaluator's step, from
    y = 3.3e-5 (the first grid point of x^6+65) into the tail, against
    W(y) = 2^{1-r2} pi^{-r2/2} G^{n,0}_{0,n}(y^2 / 4^{r2} | 0 x (r1+r2),
    1/2 x r2) at 30 digits: within 1e-13 of the peak at five points."""
    import mpmath as mp
    step = WGRID_STEP_FACTOR / _contour_halfwidth(r1 + 2 * r2)
    lo, hi = math.log(3.3e-5), math.log(y_tail)
    grid = np.linspace(lo, hi, int((hi - lo) / step) + 2)
    logw = _mellin_barnes_logw(r1, r2, grid)
    peak = math.exp(logw.max())
    with mp.workdps(30):
        for i in np.linspace(0, len(grid) - 1, 5).astype(int):
            g = mp.meijerg([[], []], [[0] * (r1 + r2) + [0.5] * r2, []],
                           mp.exp(2 * mp.mpf(grid[i])) / 4 ** r2)
            want = float(2 ** (1 - r2) * mp.pi ** (-mp.mpf(r2) / 2) * g)
            err = abs(math.exp(logw[i]) - want) / peak
            assert err <= 1e-13, (math.exp(grid[i]), err)


@pytest.mark.parametrize("r1, r2, y_tail", [
    (1, 1, 200.0), (0, 2, 900.0), (2, 1, 450.0), (1, 2, 1800.0), (3, 1, 900.0),
    (0, 3, 6600.0), (2, 2, 3300.0), (1, 3, 11300.0), (0, 4, 35600.0),
    (4, 2, 8950.0)])
def test_kernel_interpolant_holds_between_grid_points(r1, r2, y_tail):
    """The cubic Hermite pieces through W on a grid at the evaluator's step,
    from y = 3.3e-5 to about the evaluator's own grid end, cut where the
    evaluator cuts it, against _mellin_barnes_logw taken directly at every
    midpoint, on its own contours: within 2e-14 of the peak, the kernel's
    rounding level, on ten signatures of degree 3 to 8."""
    step = WGRID_STEP_FACTOR / _contour_halfwidth(r1 + 2 * r2)
    lo, hi = math.log(3.3e-5), math.log(y_tail)
    grid = np.linspace(lo, hi, int((hi - lo) / step) + 2)
    logw = _mellin_barnes_logw(r1, r2, grid)
    top = int(np.argmax(logw))
    bad = np.flatnonzero(~np.isfinite(logw[top:]))
    if len(bad):
        grid, logw = grid[: top + bad[0]], logw[: top + bad[0]]
    pieces = _hermite_pieces(grid, logw)
    dx = 0.5 * (grid[1] - grid[0])
    got = ((pieces[0] * dx + pieces[1]) * dx + pieces[2]) * dx + pieces[3]
    want = _mellin_barnes_logw(r1, r2, grid[:-1] + dx)
    err = np.max(np.abs(np.exp(got) - np.exp(want))) / math.exp(logw.max())
    assert err <= 2e-14, err


@pytest.mark.parametrize("text, stride", [("x^3+3*x+213", 1), ("x^4+1", 1),
                                          ("x^5+2*x^2+26", 1), ("x^5+42", 16)],
                         ids=["x^3+3*x+213", "x^4+1", "x^5+2*x^2+26", "x^5+42"])
def test_theta_values_match_the_plain_loop(ctx, text, stride):
    """Theta at every stride-th tau node against the plain sum over every
    n <= N with y = n e^tau / Q <= y_max, W from CubicSpline through the same
    knots. On x^5+42 this bounds the error of spreading the far a_n."""
    from scipy.interpolate import CubicSpline
    ev = ctx.evaluator(text)
    spline = CubicSpline(ev._log_grid, _mellin_barnes_logw(
        ev.gamma.r1, ev.gamma.r2, ev._log_grid))
    ns = np.arange(1, ev.N + 1, dtype=float)
    coeffs = ev.a[1: ev.N + 1]
    taus = ev.tau_nodes[::stride]
    want = np.empty(len(taus))
    for j, tau in enumerate(taus):
        ys = ns * (math.exp(tau) / ev.gamma.scale)
        k = np.searchsorted(ys, ev.y_max, side="right")
        want[j] = np.dot(coeffs[:k], np.exp(spline(np.log(ys[:k]))))
    err = np.max(np.abs(ev.theta_values[::stride] - want)) / np.max(np.abs(want))
    assert err <= 1e-13, err


def _per_term_spread(ev):
    """(first, masses) of the far a_n, n >= 2, spread term by term: each
    a_n's SPREAD_POINTS Lagrange weights at t = log n / eta - j, as
    products, added by bincount in chunks of 2^16 terms."""
    eta = SPREAD_STEP / _contour_halfwidth(ev.gamma.degree)
    n = np.flatnonzero(ev.a[1: ev.N + 1]) + 1
    far = n[n >= 2]
    offsets = range(1 - SPREAD_POINTS // 2, SPREAD_POINTS // 2 + 1)
    j_lo, j_hi = int(math.log(far[0]) / eta), int(math.log(far[-1]) / eta)
    first = j_lo + offsets[0]
    masses = np.zeros(j_hi - j_lo + SPREAD_POINTS)
    for lo in range(0, len(far), 1 << 16):
        chunk = far[lo: lo + (1 << 16)]
        t = np.log(chunk) / eta
        j = np.clip(t.astype(np.intp), j_lo, j_hi)
        t -= j
        for o in offsets:
            row = ev.a[chunk] / math.prod(o - p for p in offsets if p != o)
            for p in offsets:
                if p != o:
                    row *= t - p
            masses += np.bincount(j + (o - first), row, len(masses))
    return first, masses


@pytest.mark.parametrize("text", ["x^5+42", "x^5+2*x^2+26", "x^4+18*x^2+60"])
def test_spread_moments_match_the_per_term_spread(ctx, text):
    """The far masses built from per-cell moments match the per-term
    Lagrange spread within 1e-14 of the largest mass. x^5+42's 609,174 far
    terms fill ten chunks, and a cell straddles a chunk edge."""
    ev = ctx.evaluator(text)
    (log_n, _), (eta, first, masses) = ev._split_terms()
    want_first, want = _per_term_spread(ev)
    assert first == want_first and len(masses) == len(want)
    err = np.max(np.abs(masses - want)) / np.max(np.abs(want))
    assert err <= 1e-14, err
    if text == "x^5+42":
        n = np.flatnonzero(ev.a[1: ev.N + 1]) + 1
        cells = (np.log(n[len(log_n):]) / eta).astype(np.intp)
        edges = np.arange(1 << 16, len(cells), 1 << 16)
        assert len(edges) == 9 and np.any(cells[edges - 1] == cells[edges])


def _diff_runs_split(ev):
    """_split_terms as it stood with a mask over all of a and each chunk's
    runs from np.diff: the recipe the searchsorted runs must match."""
    eta = SPREAD_STEP / _contour_halfwidth(ev.gamma.degree)
    n = np.flatnonzero(ev.a[1: ev.N + 1] != 0) + 1
    near, far = n[:1], n[1:]
    j_lo, j_hi = int(math.log(far[0]) / eta), int(math.log(far[-1]) / eta)
    moments = np.zeros((j_hi - j_lo + 1, SPREAD_POINTS))
    for lo in range(0, len(far), 1 << 16):
        chunk = far[lo: lo + (1 << 16)]
        t = np.log(chunk) / eta
        j = np.clip(t.astype(np.intp), j_lo, j_hi)
        t -= j
        runs = np.flatnonzero(np.diff(j, prepend=j_lo - 1))
        power = ev.a[chunk]
        sums = [np.add.reduceat(power, runs)]
        for _ in range(SPREAD_POINTS - 1):
            sums.append(np.add.reduceat(np.multiply(power, t, out=power), runs))
        moments[j[runs] - j_lo] += np.transpose(sums)
    cells = np.arange(len(moments))[:, None] + np.arange(SPREAD_POINTS)
    masses = np.bincount(cells.ravel(), (moments @ _SPREAD_BASIS).ravel())
    return (np.log(near), ev.a[near]), (eta, j_lo + 1 - SPREAD_POINTS // 2, masses)


@pytest.mark.parametrize("text", ["x^5+42", "x^3+3*x+213"])
def test_split_runs_by_searchsorted_match_the_diff_runs(ctx, text):
    """The near terms, the lattice origin and every far mass, bit for bit
    the diff-runs recipe's."""
    ev = ctx.evaluator(text)
    (log_n, coeffs), (eta, first, masses) = ev._split_terms()
    (want_log_n, want_coeffs), (want_eta, want_first, want_masses) = _diff_runs_split(ev)
    assert (eta, first) == (want_eta, want_first)
    for got, want in ((log_n, want_log_n), (coeffs, want_coeffs), (masses, want_masses)):
        assert np.array_equal(got, want)


def test_spread_memory_stays_chunked(ctx):
    """The nonzero n fill one array block by block of a, and the moment
    spread works in chunks of 2^16 terms: on x^5+42 the traced peak stays
    within 8 MiB (about 7.5 MiB, most of it the nonzero n)."""
    import tracemalloc
    ev = ctx.evaluator("x^5+42")
    tracemalloc.start()
    try:
        ev._split_terms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak / 2 ** 20


def _full_masked_theta(ev, split, taus, log_cut=math.inf):
    """Theta with every (tau, term) and (tau, mass) pair evaluated: the near
    n term by term over n <= min(e^log_cut, y_max Q) e^{-tau}, the far part
    as one (taus x masses) product at the masses' own log n, W = 0 past the
    kernel grid's end."""
    (log_n, coeffs), (eta, first, masses) = split
    log_q, end = math.log(ev.gamma.scale), ev._log_grid[-1]
    out = np.empty(len(taus))
    for row, tau in enumerate(taus):
        k = int(np.searchsorted(log_n, min(log_cut, end + log_q) - tau, side="right"))
        out[row] = np.dot(coeffs[:k], np.exp(ev._log_w(log_n[:k] + (tau - log_q))))
    shift = taus - log_q
    if len(masses):
        u = (first + np.arange(len(masses))) * eta + shift[:, None]
        w = np.exp(ev._log_w(np.minimum(u, end)))
        out += np.where(u <= end, w, 0.0) @ masses
    return out


def _theta_cases(ev, eta, first):
    """tau arrays for _theta: the nodes, in order and reversed, the
    residue's four unsorted tau, a run with every mass past the grid's end,
    and tau that put the mass m = 0, 1, 2 on that end, each nudged by up to
    8 ulp either way (each alone: its stencil alone sets the lattice)."""
    end, log_q = ev._log_grid[-1], math.log(ev.gamma.scale)
    on_end = np.array([end - (first + m) * eta + log_q for m in range(3)])
    ulps = np.arange(-8, 9)[:, None] * np.spacing(on_end)
    return {"nodes": ev.tau_nodes, "reversed": ev.tau_nodes[::-1],
            "residue": np.array([math.log(x) for t in (1.005, 1.02)
                                 for x in (1.0 / t, t)]),
            "past": end - first * eta + log_q + np.linspace(1e-3, 1.0, 40),
            "on_end": (on_end + ulps).ravel()}


@pytest.mark.parametrize("text", ["x^4+3*x^2+30", "x^5+42", "x^5+2*x^2+26"])
def test_theta_far_part_matches_the_full_masked_product(ctx, text):
    """_theta reads the far masses from the lattice with W = 0 past the
    kernel grid's end; it matches the product over every (tau, mass) pair
    within 1e-15 of the nodes' max|Theta| at each case of _theta_cases,
    with the near term and, so that a mass missed at the grid's end shows,
    without it. Past the end the lattice's stencils leave about 1e-24."""
    ev = ctx.evaluator(text)
    near, far = ev._split[1]
    assert len(far[2])
    scale = np.max(np.abs(ev.theta_values))
    for terms in ("all", "far"):
        split = (near if terms == "all" else (near[0][:0], near[1][:0]), far)
        for case, taus in _theta_cases(ev, far[0], far[1]).items():
            want = _full_masked_theta(ev, split, taus)
            got = (np.concatenate([ev._theta(split, taus[i: i + 1])
                                   for i in range(len(taus))])
                   if case == "on_end" else ev._theta(split, taus))
            err = np.max(np.abs(got - want))
            assert err <= 1e-15 * scale, (terms, case, err)


@pytest.mark.parametrize("text, bound", [
    *((text, 1e-15) for text in TABLE_CUBIC_QUARTIC + TABLE_QUINTIC
      + SMALL_FIXTURES + ("x^2+x+1",)),
    ("x^7-2", 1e-14), ("x^8-4*x^6+2", 1e-14)])
def test_theta_on_the_lattice_matches_the_near_and_far_split(ctx, text, bound):
    """Theta at the nodes, read from the lattice, against the split it
    replaced: the a_n with n <= n0 = SPREAD_POINTS / eta term by term over
    n <= min(N, y_max Q) e^{-tau}, the rest spread onto the same log-n grid
    and summed over every (node, mass) pair. Within 1e-15 of max|Theta| on
    the ten gated rows and the five session fields, 1e-14 on a septic and an
    octic."""
    ev = ctx.evaluator(text)
    n0 = int(SPREAD_POINTS / (SPREAD_STEP / _contour_halfwidth(ev.gamma.degree)))
    a = ev.a.copy()
    a[2: n0 + 1] = 0.0   # _split_terms keeps a_1 apart and spreads the rest
    far = ZetaEvaluator._split_terms(SimpleNamespace(a=a, N=ev.N, gamma=ev.gamma))[1]
    n = np.flatnonzero(ev.a[1: n0 + 1]) + 1
    log_cut = math.log(min(ev.N, ev.y_max * ev.gamma.scale))
    want = _full_masked_theta(ev, ((np.log(n), ev.a[n]), far), ev.tau_nodes, log_cut)
    err = np.max(np.abs(ev.theta_values - want)) / np.max(np.abs(want))
    assert err <= bound, err


def test_theta_evaluates_the_kernel_only_inside_the_grid(ctx, monkeypatch):
    """One _theta at x^5+42's 880 tau nodes passes _log_w at most 360,000
    points, where evaluating every (node, mass) pair took 490,608, and its
    traced peak stays within 5 MiB (13.4 MiB with every pair)."""
    import tracemalloc
    ev = ctx.evaluator("x^5+42")
    split = ev._split[1]
    tracemalloc.start()
    try:
        ev._theta(split, ev.tau_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20, peak / 2 ** 20
    points, log_w = [], ZetaEvaluator._log_w
    monkeypatch.setattr(ZetaEvaluator, "_log_w",
                        lambda self, u: points.append(u.size) or log_w(self, u))
    ev._theta(split, ev.tau_nodes)
    assert sum(points) <= 360_000, sum(points)


@pytest.mark.parametrize("r1, r2", [(1, 1), (0, 2), (1, 2), (0, 3)])
def test_kernel_takes_loggamma_once_per_weight_on_the_distinct_contours(
        monkeypatch, r1, r2):
    """_mellin_barnes_logw calls _loggamma once per nonzero signature
    weight, each time on (distinct c x contour nodes) points: the grid of
    x^6+65's first point into the tail has more blocks than distinct c."""
    from zetaheights import zeta
    calls = []
    monkeypatch.setattr(zeta, "_loggamma",
                        lambda z: calls.append(z) or _loggamma(z))
    step = WGRID_STEP_FACTOR / _contour_halfwidth(r1 + 2 * r2)
    lo, hi = math.log(3.3e-5), math.log(150.0)
    grid = np.linspace(lo, hi, int((hi - lo) / step) + 2)
    _mellin_barnes_logw(r1, r2, grid)
    nodes = len(np.arange(0.0, _contour_halfwidth(r1 + 2 * r2) + CONTOUR_STEP,
                          CONTOUR_STEP))
    assert len(calls) == (r1 > 0) + (r2 > 0)
    for z in calls:
        cs = z[:, 0].real
        assert z.shape == (len(cs), nodes) and len(np.unique(cs)) == len(cs)
        assert np.all(z.real == cs[:, None])
        assert len(cs) < -(-len(grid) // KERNEL_BLOCK)


@pytest.mark.parametrize("r1, r2", [(1, 1), (0, 2), (1, 2), (0, 3)])
def test_phase_matrix_matches_the_full_exponential(r1, r2):
    """The phase matrix from two small tables is within 8 ulp of 1 of
    e^{-i v m h} taken entry by entry, at the kernel grid's step h."""
    v = np.arange(0.0, _contour_halfwidth(r1 + 2 * r2) + CONTOUR_STEP,
                  CONTOUR_STEP)
    h = WGRID_STEP_FACTOR / _contour_halfwidth(r1 + 2 * r2)
    want = np.exp(-1j * np.outer(v, np.arange(KERNEL_BLOCK) * h))
    err = np.max(np.abs(_phase_matrix(v, h) - want))
    assert err <= 8 * np.finfo(float).eps, err


@pytest.mark.parametrize("r1, r2", [(1, 0), (0, 1), (2, 0), (0, 2)])
def test_log_gamma_hat_skips_a_zero_weight_bit_for_bit(r1, r2):
    g = GammaFactor(r1, r2, 3.7)
    for s in (1.0, complex(0.5, 14.1), complex(1.5, 40.0), complex(2.0, 0.3)):
        full = (math.log(g.front) + s * math.log(g.scale)
                + r1 * _loggamma(s / 2.0) + r2 * _loggamma(s))
        assert g.log_gamma_hat(s) == full


def test_first_zero_riemann(ctx):
    zl = ctx.zeros("x", 15.0)
    assert len(zl.ordinates) == 1
    assert zl.ordinates[0] == pytest.approx(14.134725141734693, abs=1e-7)


def test_first_zero_gaussian_field(ctx):
    zl = ctx.zeros("x^2+1", 7.0)
    assert len(zl.ordinates) == 1
    assert zl.ordinates[0] == pytest.approx(6.020949, abs=1e-5)


def test_zero_statistics_examples(ctx):
    empty = ZeroList(T=5.0, ordinates=(), bracket_widths=())
    st = zero_statistics(empty, 5.0)
    assert (st.N, st.lam) == (0, 0.0)
    zl = ctx.zeros("x", 15.0)
    st2 = zero_statistics(zl, 2.0)
    assert (st2.N, st2.lam) == (0, 0.0)
    cubic = ctx.zeros("x^3+3*x+213", 2.0)
    st3 = zero_statistics(cubic, 2.0)
    assert st3.N == 4
    assert 3.67 * (st3.lam - st3.N / 5) == pytest.approx(3.71716791990380, abs=1e-6)


def test_lambda_monotone_and_scan_stability(ctx):
    from zetaheights.config import RunConfig
    from zetaheights.zeta import ZetaEvaluator
    zl = ctx.zeros("x^5+42", 2.0)
    lams = [zero_statistics(zl, T).lam for T in (0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b + 1e-15 for a, b in zip(lams, lams[1:]))
    # refining the scan step keeps every located ordinate
    ev_fine = ZetaEvaluator(ctx.field("x^2+1"), RunConfig(scan_step=0.005))
    fine = locate_zeros(ev_fine, 7.0)
    base = ctx.zeros("x^2+1", 7.0)
    for t in base.ordinates:
        assert any(abs(t - s) < 1e-7 for s in fine.ordinates)


def test_locate_zeros_domain(ctx):
    with pytest.raises(DomainError):
        locate_zeros(ctx.evaluator("x"), 0.0)
    with pytest.raises(DomainError):
        locate_zeros(ctx.evaluator("x"), 41.0)


def test_incomplete_zero_set_names_the_steps_scanned(ctx, tmp_path, monkeypatch,
                                                    capsys):
    import json

    from zetaheights import zeta
    from zetaheights.cli import main
    from zetaheights.errors import IncompleteZeroSetError
    monkeypatch.setattr(zeta, "_completeness_checks",
                        lambda zl, argument: (False, {"hsw": "forced"}))
    with pytest.raises(IncompleteZeroSetError) as info:
        locate_zeros(ctx.evaluator("x^2+1"), 1.0)
    steps = [a["scan_step"] for a in info.value.diagnostics["attempts"]]
    assert steps == [0.01, 0.005, 0.0025, 0.00125]  # default scan_step, halved
    assert str(info.value) == "zero scan failed completeness checks up to step 0.00125"
    code = main(["zeros", "x^2+1", "--height", "1", "--output-dir", str(tmp_path)])
    assert code == 2
    diagnostics = json.loads((tmp_path / "zeros-diagnostics.json").read_text())
    assert [a["scan_step"] for a in diagnostics["attempts"]] == steps
    assert "step 0.00125" in capsys.readouterr().err


def test_a_refused_count_costs_no_scan(ctx, monkeypatch):
    """The argument count comes first: where it refuses (x^2+1 at T = 40,
    |S| below the noise floor on its path), no Z(t) is evaluated."""
    calls = []
    hardy = ZetaEvaluator.hardy
    monkeypatch.setattr(ZetaEvaluator, "hardy",
                        lambda self, t: calls.append(t) or hardy(self, t))
    with pytest.raises(IncompleteZeroSetError) as info:
        locate_zeros(ctx.evaluator("x^2+1"), 40.0)
    assert calls == []
    (attempt,) = info.value.diagnostics["attempts"]
    assert list(attempt) == ["scan_step", "argument"]
    assert attempt["scan_step"] == 0.01


@pytest.mark.parametrize("poly, T, check", [("x^4+1", 15.0, "argument"),
                                            ("x^2+1", 40.0, "argument")])
def test_every_failed_scan_reports_its_attempts(ctx, tmp_path, poly, T, check):
    """A scan that fails at the argument count's noise floor (x^4+1 at 15,
    x^2+1 at 40) reports one attempt at the default step, and zh zeros
    writes it to zeros-diagnostics.json."""
    from zetaheights.cli import main
    with pytest.raises(IncompleteZeroSetError) as info:
        locate_zeros(ctx.evaluator(poly), T)
    (attempt,) = info.value.diagnostics["attempts"]
    assert list(info.value.diagnostics) == ["attempts"]
    assert attempt["scan_step"] == 0.01
    assert check in attempt
    if check == "argument":
        assert attempt["argument"]["min_ratio"] < 1e-12
        assert "noise floor" in str(info.value)
    code = main(["zeros", poly, "--height", f"{T:g}", "--output-dir", str(tmp_path)])
    assert code == 2
    written = json.loads((tmp_path / "zeros-diagnostics.json").read_text())
    assert [a["scan_step"] for a in written["attempts"]] == [0.01]


def test_zero_statistics_count_below(ctx):
    zl = ctx.zeros("x^2+1", 7.0)
    for T in (1.0, 6.0, 7.0):
        assert zero_statistics(zl, T).N == zl.count_below(T)


def test_statistics_height_guard(ctx):
    zl = ctx.zeros("x^2+1", 2.0)
    with pytest.raises(DomainError):
        zero_statistics(zl, 3.0)


def test_evaluator_diagnostics_truncation(ctx):
    ev = ctx.evaluator("x^3+3*x+213")
    d = ev.diagnostics
    assert d["N"] == ev.N
    assert d["weight_rel_tol"] <= 1e-16
    assert ev.residue > 0


def test_evaluator_diagnostics_theta_split(ctx):
    """a_1 is the one near term; the other 1,097 nonzero a_n are spread onto
    grid points floor(log 3 / eta) - 3 = 52 to floor(log 7209 / eta) + 4 =
    456, the first and last of them."""
    d = ctx.evaluator("x^4+18*x^2+60").diagnostics
    assert d["theta"] == {"near_terms": 1, "far_terms": 1097, "grid_points": 405}


@pytest.mark.parametrize("text", ["x^3+3*x+213", "x^4+18*x^2+60", "x^5+42"])
def test_evaluator_diagnostics_kernel_grid(ctx, text):
    """diagnostics["kernel_grid"] gives the kernel grid's length and its
    last point y_max, past y_threshold. On signature (0,2) no computed W
    past the peak is nonpositive, so the grid runs to its end y_hi: 12,213
    points to y = 870.19 on x^4+18x^2+60."""
    ev = ctx.evaluator(text)
    grid = ev.diagnostics["kernel_grid"]
    assert grid == {"points": len(ev._log_grid), "y_max": ev.y_max}
    assert grid["y_max"] == math.exp(ev._log_grid[-1]) > ev.y_threshold
    if text == "x^4+18*x^2+60":
        assert grid["points"] == 12213
        assert grid["y_max"] == pytest.approx(870.19, abs=5e-3)


def test_evaluator_cache_ignores_output_settings(ctx):
    from zetaheights import get_evaluator
    from zetaheights.config import RunConfig
    K = ctx.field("x^2+1")
    ev = get_evaluator(K, RunConfig(output_dir="a"))
    assert get_evaluator(K, RunConfig(output_dir="b", format="csv")) is ev
    assert get_evaluator(K, RunConfig(output_dir="a", scan_step=0.02)) is not ev
    # nothing in the evaluator reads the prime cutoff
    assert get_evaluator(K, RunConfig(output_dir="a", prime_cutoff=10 ** 4)) is ev


def test_grid_miss_beyond_height(ctx):
    from zetaheights.errors import GridMissError
    with pytest.raises(GridMissError):
        ctx.evaluator("x").completed(complex(0.5, 60.0))


def test_hardy_grid_miss_beyond_height(ctx):
    """hardy covers the same heights as completed: |t| <= MAX_HEIGHT + 8."""
    ev = ctx.evaluator("x")
    for t in (60.0, -60.0, 100.0):
        with pytest.raises(GridMissError):
            ev.hardy(t)
    assert ev.hardy(40.0) == pytest.approx(
        ev.completed(complex(0.5, 40.0)).real, rel=1e-9)


@pytest.mark.parametrize("text", ["x", "x^2+1", "x^4+1", "x^5+42"])
def test_hardy_and_completed_take_arrays(ctx, text):
    """A number in gives a Python float or complex out, an array gives an
    array of its shape; one element past MAX_HEIGHT + 8 raises. On the 0.01
    grid to T = 2, hardy on the array agrees with completed's real part and
    with one call per point to 1e-14 R."""
    ev = ctx.evaluator(text)
    assert type(ev.hardy(1.0)) is float and type(ev.hardy(1)) is float
    assert type(ev.completed(complex(0.7, 1.0))) is complex
    assert type(ev.completed(2.0)) is complex
    for shape in ((0,), (2, 3)):
        assert ev.hardy(np.zeros(shape)).shape == shape
        assert ev.completed(np.full(shape, 0.5 + 1j)).shape == shape
    with pytest.raises(GridMissError):
        ev.hardy(np.array([1.0, -(MAX_HEIGHT + 8.5)]))
    with pytest.raises(GridMissError):
        ev.completed(np.array([2.0, complex(0.5, MAX_HEIGHT + 8.5)]))
    ts = np.arange(201) * 2.0 / 200
    z = ev.hardy(ts)
    assert isinstance(z, np.ndarray) and z.dtype == float
    tol = 1e-14 * ev.pole_term
    assert np.max(np.abs(z - ev.completed(0.5 + 1j * ts).real)) <= tol
    assert np.max(np.abs(z - [ev.hardy(t) for t in ts.tolist()])) <= tol


def _refinement_depth(points):
    """Halvings of the count's finest step below its equal ARG_STEP steps
    across the top edge [1/2, 3/2] + iT."""
    step = 1.0 / math.ceil(1.0 / ARG_STEP)
    finest = np.diff(np.unique(points.real)).min()
    return round(math.log2(step / finest))


@pytest.mark.parametrize("poly, T", [("x^2+1", 11.0), ("x^5+42", 2.0)])
def test_scans_and_counts_evaluate_whole_arrays(ctx, monkeypatch, poly, T):
    """One hardy call per scan grid and per halving, then one per bisection
    step; one completed call for the count's equal steps, then one per
    refinement round. z_values and argument["calls"] count the points."""
    ev = ctx.evaluator(poly)
    seen = {"hardy": [], "completed": []}
    for name, calls in seen.items():
        method = getattr(ZetaEvaluator, name)
        monkeypatch.setattr(ZetaEvaluator, name,
                            lambda self, x, calls=calls, method=method:
                            calls.append(np.asarray(x).ravel()) or method(self, x))
    zl = locate_zeros(ev, T)
    step = zl.diagnostics["scan_step"]
    halvings = round(math.log2(ev.config.scan_step / step))
    bisection_steps = zl.diagnostics["z_values"] - (round(T / step) + 1)
    assert sum(map(len, seen["hardy"])) == zl.diagnostics["z_values"]
    assert len(seen["hardy"]) <= 1 + halvings + bisection_steps
    points = np.concatenate(seen["completed"])
    assert np.all(points.imag == T)
    assert len(points) == zl.diagnostics["completeness"]["argument"]["calls"]
    assert len(seen["completed"]) <= 1 + _refinement_depth(points)


def test_complex_roots_deterministic(ctx):
    from zetaheights.algebra import complex_roots, parse_polynomial
    f = parse_polynomial("x^6-3*x^2+17")
    assert complex_roots(f, 1e-12) == complex_roots(f, 1e-12)


# -- completeness: the argument-principle count -------------------------

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# perfbench's session heights: below the first misplaced zero (README.md)
SESSION_HEIGHTS = {"x": 26.0, "x^2+1": 11.0, "x^2-x-1": 11.0, "x^2+x+1": 12.0,
                   "x^4+1": 5.0}


@pytest.mark.parametrize("poly", sorted(SESSION_HEIGHTS))
def test_argument_count_matches_mpmath_zeros(ctx, poly):
    """N(T) from the argument principle against twice the number of mpmath
    ordinates below T, at T = 2 and at the session height, from under 20
    and under 40 points on the top edge."""
    ordinates = json.loads(REFERENCE.read_text())["fields"][poly]["ordinates"]
    ev = ctx.evaluator(poly)
    for T, most in ((2.0, 20), (SESSION_HEIGHTS[poly], 40)):
        got = argument_count(ev, T)
        assert got["count"] == 2 * sum(1 for t in ordinates if float(t) < T)
        assert got["min_ratio"] >= 1e-6 and got["calls"] < most


@pytest.mark.parametrize("poly, T", [("x^2+1", 30.0), ("x^4+1", 15.0)])
def test_argument_count_refuses_below_the_noise_floor(ctx, poly, T):
    """|S| on the path falls to rounding there, and the winding count is
    wrong (24 against 26 on both); it raises instead of returning one."""
    with pytest.raises(IncompleteZeroSetError, match="noise floor") as info:
        argument_count(ctx.evaluator(poly), T)
    assert info.value.diagnostics["argument"]["min_ratio"] < 1e-12


@pytest.mark.parametrize("n_K, X", enumerate(
    (27, 104, 234, 416, 649, 934, 1272, 1661), start=1))
def test_euler_cutoff_is_the_least_within_the_tail(n_K, X):
    """X is the least integer with 2 n_K / (sqrt(X) (1 - X^{-3/2})) <= pi/8."""
    assert _euler_cutoff(n_K) == X
    assert _euler_tail(n_K, X) <= ARG_TAIL < _euler_tail(n_K, X - 1)


@pytest.mark.parametrize("poly", ["x", "x^2+1"])
@pytest.mark.parametrize("T", [2.0, 11.0, 26.0])
@pytest.mark.parametrize("bound", [ARG_TAIL, 0.01])
def test_euler_phase_matches_mpmath(ctx, monkeypatch, poly, T, bound):
    """Im log zeta_K(3/2 + iT) from the Euler product to X lies within its
    tail bound of mpmath's: zeta on Q, zeta L(s, chi_-4) on Q(i), at the
    count's bound and at 0.01 (X = 40,000 and 160,000). Each factor's |log|
    on sigma = 3/2 is below log zeta(3/2) < pi, so the principal logs are
    the continuous branch."""
    import mpmath as mp
    from zetaheights import zeta
    monkeypatch.setattr(zeta, "ARG_TAIL", bound)
    phase, X, tail = _euler_phase(ctx.field(poly), T)
    with mp.workdps(30):
        s = mp.mpc(1.5, T)
        want = mp.im(mp.log(mp.zeta(s)))
        if poly == "x^2+1":
            want += mp.im(mp.log(mp.dirichlet(s, [0, 1, 0, -1])))
    assert abs(phase - float(want)) <= tail <= bound


# the counts that arg S read from the evaluator along the whole path
# 3/2 -> 3/2 + iT -> 1/2 + iT gave; None where |S| on the top edge falls
# below the noise floor
PINNED_COUNTS = [
    ("x^3+18*x^2+312", 2.0, 2), ("x^3+3*x+213", 2.0, 4), ("x^4+3*x^2+30", 2.0, 6),
    ("x^4+18*x^2+60", 2.0, 4), ("x^5+42", 2.0, 8), ("x^5+2*x^2+26", 2.0, 8),
    ("x", 2.0, 0), ("x", 26.0, 6), ("x^2+1", 2.0, 0), ("x^2+1", 11.0, 4),
    ("x^2-x-1", 2.0, 0), ("x^2-x-1", 11.0, 4), ("x^2+x+1", 2.0, 0),
    ("x^2+x+1", 12.0, 4), ("x^4+1", 2.0, 0), ("x^4+1", 5.0, 4),
    ("x^2+1", 20.0, 12), ("x^2+1", 22.0, 16), ("x^4+1", 10.0, 12),
    ("x^4+1", 11.0, 16), ("x^3+3*x+213", 8.0, 18), ("x^7-2", 2.0, 4),
    ("x^8-2", 2.0, 2), ("x^8+1", 2.0, 2), ("x^7-x-1", 2.0, 2),
    ("x^2+1", 30.0, None), ("x^2+1", 40.0, None), ("x^4+1", 12.0, None),
    ("x^4+1", 15.0, None),
]


@pytest.mark.parametrize("poly, T, count", PINNED_COUNTS)
def test_argument_count_pinned(ctx, poly, T, count):
    """The count with the phase on sigma = 3/2 from the Euler product equals
    the whole-path count, from at most 20 points on the top edge; the
    refusals stay at the noise floor."""
    ev = ctx.evaluator(poly)
    if count is None:
        with pytest.raises(IncompleteZeroSetError, match="noise floor") as info:
            argument_count(ev, T)
        report = info.value.diagnostics["argument"]
        assert report["min_ratio"] < 1e-12 and report["calls"] <= 20
        return
    got = argument_count(ev, T)
    assert got["count"] == count
    assert got["calls"] <= 20 and got["X"] == _euler_cutoff(ev.field.n_K)


def test_rotated_evaluator_fails_the_gap(ctx, monkeypatch):
    """S turned by e^{0.5i} leaves the top edge's steps as they were but
    moves arg S(3/2 + iT) off the Euler product's phase by 0.5 rad, past
    the tail bound: the count raises and names the gap."""
    ev = ctx.evaluator("x^2+1")
    true = argument_count(ev, 11.0)
    completed = ZetaEvaluator.completed
    monkeypatch.setattr(ZetaEvaluator, "completed",
                        lambda self, s: completed(self, s) * np.exp(0.5j))
    with pytest.raises(IncompleteZeroSetError, match="gap") as info:
        argument_count(ev, 11.0)
    report = info.value.diagnostics["argument"]
    assert report["gap"] == pytest.approx(true["gap"] + 0.5, abs=1e-12)
    assert report["T"] == 11.0 and report["tail"] == true["tail"]


def test_top_edge_off_the_real_axis_fails_the_rounding(ctx, monkeypatch):
    """S turned by e^{i (pi/2) (3/2 - sigma)} agrees with the Euler product
    at 3/2 + iT but ends a quarter turn off the real axis at 1/2 + iT, so
    Delta / pi lies 1/2 from an integer: the count raises and names it."""
    ev = ctx.evaluator("x^2+1")
    completed = ZetaEvaluator.completed
    monkeypatch.setattr(ZetaEvaluator, "completed", lambda self, s: completed(
        self, s) * np.exp(0.5j * math.pi * (1.5 - np.real(s))))
    with pytest.raises(IncompleteZeroSetError, match="from an integer") as info:
        argument_count(ev, 11.0)
    report = info.value.diagnostics["argument"]
    assert report["rounding"] == pytest.approx(0.5, abs=0.01)
    assert abs(report["gap"]) <= report["tail"]


def test_argument_count_rejects_height_outside_its_range(ctx, monkeypatch):
    """T outside (0, MAX_HEIGHT], or nan, raises before any evaluation."""
    ev = ctx.evaluator("x^2+1")
    calls = []
    completed = ZetaEvaluator.completed
    monkeypatch.setattr(ZetaEvaluator, "completed",
                        lambda self, s: calls.append(s) or completed(self, s))
    for T in (math.nan, -5.0, 0.0, MAX_HEIGHT + 5.0, math.inf):
        with pytest.raises(DomainError, match="T must lie in"):
            argument_count(ev, T)
    assert not calls
    assert argument_count(ev, 1e-6)["count"] == 0


@pytest.mark.parametrize("poly", TABLE_CUBIC_QUARTIC + TABLE_QUINTIC)
def test_dropping_any_zero_pair_is_rejected(ctx, poly):
    """The located list passes the count and records it; the list without
    any one of its ordinates (one conjugate pair) fails it."""
    zl = ctx.zeros(poly, 2.0)
    ev = ctx.evaluator(poly)
    argument = argument_count(ev, 2.0)
    report = zl.diagnostics["completeness"]
    assert report["argument"] == {**argument, "scan": argument["count"]}
    assert zl.count_below(2.0) == argument["count"]
    assert _completeness_checks(zl, argument)[0]
    ords, widths = zl.ordinates, zl.bracket_widths
    for i in range(len(ords)):
        dropped = replace(zl, ordinates=ords[:i] + ords[i + 1:],
                          bracket_widths=widths[:i] + widths[i + 1:])
        assert not _completeness_checks(dropped, argument)[0], (poly, i)


def test_zero_at_origin_counts_twice():
    """S(1/2 + it) is even in t: a zero at the origin is (at least) double,
    while count_below counts it once."""
    zl = ZeroList(T=2.0, ordinates=(), bracket_widths=(), zero_at_origin=True)
    assert zl.count_below(2.0) == 1
    assert _completeness_checks(zl, {"count": 2})[0]
    assert not _completeness_checks(zl, {"count": 0})[0]


def test_count_mismatch_rescans_then_names_both_counts(ctx, monkeypatch):
    from zetaheights import zeta
    ev = ctx.evaluator("x^2+1")
    true = argument_count(ev, 7.0)
    monkeypatch.setattr(zeta, "argument_count",
                        lambda ev, T: {**true, "count": true["count"] + 2})
    with pytest.raises(IncompleteZeroSetError) as info:
        locate_zeros(ev, 7.0)
    assert str(info.value) == ("zero scan failed completeness checks up to step "
                               f"0.00125: the scan counts {true['count']} zeros, "
                               f"the argument principle {true['count'] + 2}")
    attempts = info.value.diagnostics["attempts"]
    assert [a["scan_step"] for a in attempts] == [0.01, 0.005, 0.0025, 0.00125]
    assert all(a["argument"]["scan"] == true["count"] for a in attempts)


def test_evaluator_sweeps_primes_only_to_its_n(monkeypatch):
    """The evaluator's norm-count table runs to N, not to prime_cutoff."""
    from zetaheights import build_number_field, fields, parse_polynomial
    from zetaheights.table1 import verify_row
    monkeypatch.setattr(fields, "_FIELDS", {})   # a field built afresh
    assert verify_row("x^3+3*x+213").passed
    K = build_number_field(parse_polynomial("x^3+3*x+213"))
    (ev,) = K.state.evaluators.values()
    assert ev.N == 627 and K.state.norm_limit == 627


def test_loggamma_matches_mpmath():
    """Stirling's series with the pair-product recurrence against mpmath's
    principal log Gamma at 30 digits: within 1e-13 absolute, or 3 ulp of
    the value where |log Gamma| passes 256 (|Im z| beyond about 75, where a
    double holds the value only to 5.7e-14)."""
    import mpmath as mp
    zs = np.array([complex(re, im) for re in (0.25, 0.5, 1.0, 2.0)
                   for im in np.linspace(-100.0, 100.0, 801)])
    got = _loggamma(zs)
    assert got.shape == zs.shape
    with mp.workdps(30):
        for z, value in zip(zs.tolist(), got.tolist()):
            want = mp.loggamma(mp.mpc(z.real, z.imag))
            tol = max(1e-13, 3.0 * float(np.spacing(float(abs(want)))))
            assert abs(mp.mpc(value.real, value.imag) - want) <= tol, z
    assert _loggamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert _loggamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-15)


@pytest.mark.parametrize("text", ["x^3+3*x+213", "x^5+42"])
def test_loggamma_on_the_kernel_contours(ctx, monkeypatch, text):
    """_loggamma at the distinct c off the interpolation lattice that the
    field's kernel picks, and that its signature's kernel picks on a grid
    at the evaluator's step from y = 3.3e-5 (x^6+65's first point) to 150,
    each caught from _mellin_barnes_logw's own call, at z = c + iv and at
    z/2 for v over [0, _contour_halfwidth(3)], the widest contour: within
    1e-13 of mpmath at 30 digits."""
    import mpmath as mp
    from zetaheights import zeta
    calls = []
    monkeypatch.setattr(zeta, "_loggamma",
                        lambda z: calls.append(z) or _loggamma(z))
    ev = ZetaEvaluator(ctx.field(text))
    own = calls[-1]  # the weight-r2 call takes z itself
    r1, r2 = ev.gamma.r1, ev.gamma.r2
    step = WGRID_STEP_FACTOR / _contour_halfwidth(r1 + 2 * r2)
    lo, hi = math.log(3.3e-5), math.log(150.0)
    _mellin_barnes_logw(r1, r2, np.linspace(lo, hi, int((hi - lo) / step) + 2))
    cs = np.unique(np.concatenate([own[:, 0].real, calls[-1][:, 0].real]))
    cs = cs[~np.isin(cs, np.linspace(0.5, 2.0, 151))]
    assert len(cs) >= 10
    z = (cs[:, None] + 1j * np.linspace(0.0, _contour_halfwidth(3), 41)).ravel()
    with mp.workdps(30):
        for zs in (z, z / 2.0):
            for arg, value in zip(zs.tolist(), _loggamma(zs).tolist()):
                want = mp.loggamma(mp.mpc(arg.real, arg.imag))
                assert abs(mp.mpc(value.real, value.imag) - want) <= 1e-13, arg


def test_loggamma_of_a_number_is_a_numpy_complex_scalar():
    """A 0-d input gives a numpy complex scalar, as log_gamma_hat sums."""
    for z in (0.5, 2, complex(0.75, 14.1), np.float64(1.5), np.array(1.25j + 1)):
        got = _loggamma(z)
        assert isinstance(got, np.complex128) and np.ndim(got) == 0, z
    assert isinstance(GammaFactor(1, 2, 3.7).log_gamma_hat(complex(1.5, 2.0)),
                      np.complex128)


def test_digamma_matches_mpmath():
    import mpmath as mp
    xs = np.linspace(0.25, 2.0, 351)
    got = _digamma(xs)
    want = np.array([float(mp.digamma(x)) for x in xs.tolist()])
    assert np.max(np.abs(got - want)) <= 2e-15


def test_log_k0_matches_mpmath():
    """The trapezoid log K_0 on [2.5, 60], where the real quadratic kernels
    sample it, and down to 0.01, where it takes more nodes."""
    import mpmath as mp
    for xs in (np.linspace(2.5, 60.0, 301), np.geomspace(0.01, 2.5, 41)):
        got = _log_k0(xs)
        with mp.workdps(30):
            want = np.array([float(mp.log(mp.besselk(0, x))) for x in xs.tolist()])
        assert np.max(np.abs(got - want)) <= 1e-13


def test_hermite_pieces_reproduce_a_cubic():
    """Fourth-order slopes are exact on cubics, so the pieces are the cubic
    itself, in the (4, n - 1) layout _log_w reads."""
    grid = np.linspace(-1.0, 2.0, 40)
    cubic = lambda u: 0.3 * u ** 3 - u ** 2 + 2.0 * u - 0.5
    pieces = _hermite_pieces(grid, cubic(grid))
    assert pieces.shape == (4, 39)
    u = np.linspace(-1.0, 2.0, 997)
    i = np.minimum(np.searchsorted(grid, u, side="right") - 1, 38)
    dx = u - grid[i]
    got = ((pieces[0][i] * dx + pieces[1][i]) * dx + pieces[2][i]) * dx + pieces[3][i]
    assert np.max(np.abs(got - cubic(u))) <= 1e-13


# -- located zeros: one kernel sum, every bracket bisected in lockstep ----

# perfbench's table1 rows, located to T = 2
TABLE_ROWS = ("x^3+18*x^2+312", "x^3+3*x+213", "x^4+3*x^2+30", "x^4+18*x^2+60",
              "x^5+42", "x^5+2*x^2+26")
SYNTHETIC = ZeroList(T=3.0, ordinates=(0.6, 1.1, 1.7, 2.4),
                     bracket_widths=(0.0,) * 4, zero_at_origin=True)


@pytest.mark.parametrize("poly", FIXTURE_POLYS + ("synthetic",))
def test_kernel_sum_is_each_zero_sum_it_replaced(ctx, poly):
    """kernel_sum against the five hand-written zero sums it replaced:
    lambda_K(2), the ledgers' located zero side, and the zero sums of the
    Northcott, index-or-zeros and tower-discriminant reports."""
    zl = SYNTHETIC if poly == "synthetic" else ctx.zeros(poly, 2.0)
    n = 3 if poly == "synthetic" else ctx.field(poly).n_K
    low = [t for t in zl.ordinates if t < 2.0]
    origin = [1.0] if zl.zero_at_origin else []
    lam = math.fsum([2.0 / (1.0 + t * t) for t in low] + origin)
    assert zl.kernel_sum(lambda t: 1.0 / (1.0 + t * t), below=2.0) == lam
    assert zero_statistics(zl, 2.0).lam == lam
    for kernel in (EXPONENTIAL.phi_critical, gaussian(0.212).phi_critical):
        terms = [2.0 * kernel(t) for t in zl.ordinates]
        if zl.zero_at_origin:
            terms.append(kernel(0.0))
        assert zl.kernel_sum(kernel) == math.fsum(terms)
    y = 0.212
    gauss = math.fsum(2.0 * (math.exp(-t * t / (4.0 * y)) - math.exp(-1.0 / y))
                      for t in low)
    low_sum = math.fsum(4.0 * (1.0 / (1.0 + t * t) - 0.2) for t in low)
    tower = math.fsum(2.0 * (n ** (-t * t / 4.0) - 1.0 / n) for t in low)
    if zl.zero_at_origin:
        gauss += 1.0 - math.exp(-1.0 / y)
        low_sum += 2.0 * (1.0 - 0.2)
        tower += 1.0 - 1.0 / n
    assert zl.kernel_sum(lambda t: math.exp(-t * t / (4.0 * y)) - math.exp(-1.0 / y),
                         below=2.0) == gauss
    assert zl.kernel_sum(lambda t: 2.0 * (1.0 / (1.0 + t * t) - 0.2),
                         below=2.0) == low_sum
    assert zl.kernel_sum(lambda t: n ** (-t * t / 4.0) - 1.0 / n, below=2.0) == tower


def test_kernel_sum_refuses_heights_past_the_located_one():
    assert SYNTHETIC.kernel_sum(lambda t: 1.0, below=3.0 + 1e-13) == 9.0
    with pytest.raises(DomainError, match="located to T = 3"):
        SYNTHETIC.kernel_sum(lambda t: 1.0, below=3.01)


def test_count_below_refuses_heights_past_the_located_one(ctx):
    """count_below holds kernel_sum's height check: on x^2+1 located to
    T = 2, N_K(30) is not 0 but unknown."""
    assert SYNTHETIC.count_below(3.0 + 1e-13) == 9
    with pytest.raises(DomainError, match="located to T = 3"):
        SYNTHETIC.count_below(3.01)
    zl = ctx.zeros("x^2+1", 2.0)
    assert zl.count_below(2.0) == zero_statistics(zl, 2.0).N
    with pytest.raises(DomainError, match="located to T = 2"):
        zl.count_below(30.0)


@pytest.mark.parametrize("poly", ("x^2+1", "x^4+1", "x^3+3*x+213"))
def test_zero_at_origin_is_a_bool(ctx, poly):
    assert type(ctx.zeros(poly, 2.0).zero_at_origin) is bool


def _count_hardy(monkeypatch, zero_at=None):
    """Wrap hardy to record the points of each call; zero_at = (call, index)
    makes that call return 0.0 at that element."""
    calls = []
    hardy = ZetaEvaluator.hardy

    def counted(self, t):
        out = hardy(self, t)
        calls.append(np.array(t, dtype=float))
        if zero_at is not None and len(calls) - 1 == zero_at[0]:
            out = out.copy()
            out[zero_at[1]] = 0.0
        return out
    monkeypatch.setattr(ZetaEvaluator, "hardy", counted)
    return calls


def _scalar_bisection(ev, T, step):
    """The located zeros bisected one at a time on the grid of this step,
    with one scalar hardy call per bisection step."""
    n = round(T / step)
    ts = np.arange(n + 1) * T / n
    vals = ev.hardy(ts)
    zeros, widths = [], []
    for i in np.flatnonzero(((vals[:-1] == 0.0) & (ts[:-1] > 0.0))
                            | (vals[:-1] * vals[1:] < 0)).tolist():
        lo, hi, flo = float(ts[i]), float(ts[i + 1]), float(vals[i])
        if flo == 0.0:
            zeros.append(lo)
            widths.append(0.0)
            continue
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            fm = ev.hardy(mid)
            if fm == 0.0:
                lo = hi = mid
            elif (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
        widths.append(hi - lo)
    return tuple(zeros), tuple(widths)


def test_lockstep_bisection_costs_one_call_per_step(ctx, monkeypatch):
    """x^3+3x+213 at T = 2: one scan and ceil(log2(0.01 / 1e-9)) = 24
    halvings, each one hardy call for every zero."""
    ev = ctx.evaluator("x^3+3*x+213")
    calls = _count_hardy(monkeypatch)
    zl = locate_zeros(ev, 2.0)
    assert zl.diagnostics["scan_step"] == 0.01
    assert len(zl.ordinates) > 1
    assert len(calls) == 1 + 24 == 1 + math.ceil(math.log2(0.01 / 1e-9))
    assert [len(c) for c in calls[1:]] == [len(zl.ordinates)] * 24


@pytest.mark.parametrize("poly, T", [(p, 2.0) for p in TABLE_ROWS]
                         + sorted(SESSION_HEIGHTS.items()))
def test_lockstep_bisection_is_the_scalar_one(ctx, monkeypatch, poly, T):
    """On perfbench's table rows at T = 2 and session fields at their
    heights, the first grid is accepted, the scan makes 1 + 24 hardy calls,
    and the ordinates and widths are bit-equal to a bisection of one zero at
    a time."""
    ev = ctx.evaluator(poly)
    calls = _count_hardy(monkeypatch)
    zl = locate_zeros(ev, T)
    assert zl.diagnostics["scan_step"] == 0.01 and len(calls) == 1 + 24
    monkeypatch.undo()
    assert (zl.ordinates, zl.bracket_widths) == _scalar_bisection(ev, T, 0.01)


def test_an_exact_zero_on_the_grid_closes_its_bracket(ctx, monkeypatch):
    """Z = 0.0 at the left end of a sign change: the zero is that grid point,
    of width 0, and it takes no bisection step."""
    ev = ctx.evaluator("x^3+3*x+213")
    ts = np.arange(201) * 2.0 / 200
    vals = ev.hardy(ts)
    i = int(np.flatnonzero(vals[:-1] * vals[1:] < 0)[0])
    calls = _count_hardy(monkeypatch, zero_at=(0, i))
    zl = locate_zeros(ev, 2.0)
    assert zl.ordinates[0] == ts[i] and zl.bracket_widths[0] == 0.0
    assert [len(c) for c in calls[1:]] == [len(zl.ordinates) - 1] * 24


def test_an_exact_zero_at_a_midpoint_closes_its_bracket(ctx, monkeypatch):
    """Z = 0.0 at the first midpoint of the first bracket: that zero is the
    midpoint, of width 0, and later halvings leave it out."""
    ev = ctx.evaluator("x^3+3*x+213")
    ts = np.arange(201) * 2.0 / 200
    vals = ev.hardy(ts)
    i = int(np.flatnonzero(vals[:-1] * vals[1:] < 0)[0])
    calls = _count_hardy(monkeypatch, zero_at=(1, 0))
    zl = locate_zeros(ev, 2.0)
    assert zl.ordinates[0] == 0.5 * (ts[i] + ts[i + 1])
    assert zl.bracket_widths[0] == 0.0
    assert len(calls[1]) == len(zl.ordinates)
    assert [len(c) for c in calls[2:]] == [len(zl.ordinates) - 1] * 23


# each field's zeros to T = 2 (or T), or the typed error it raises instead
EDGE_FIELDS = [
    ("x^7-2", 2.0, 2), ("x^7-x-1", 2.0, 1), ("x^7-7*x+3", 2.0, 3),
    ("x^7+x^6-6*x^5-5*x^4+8*x^3+5*x^2-2*x-1", 2.0, 1),
    ("x^8-2", 2.0, 1), ("x^8+1", 2.0, 1), ("x^8-x-1", 2.0, 1),
    ("x^8-4*x^6+2", 2.0, 1),
    ("x^3-x^2-2*x-8", 2.0, 0),          # 2 divides the index of every Z[a]
    ("x^2+1000000007", 2.0, 6),         # 2 divides its index; |d| about 1e9
    ("x^2+1", 40.0, IncompleteZeroSetError),  # the count refuses at its floor
    ("x^2-1", 2.0, DomainError), ("2*x^2+1", 2.0, DomainError),
]


@pytest.mark.parametrize("poly, T, want", EDGE_FIELDS)
def test_edge_fields_locate_their_zeros_or_raise_typed_errors(ctx, poly, T, want):
    """Fields of degree 7 and 8, of signatures (1,3), (3,2), (7,0), (2,3),
    (0,4) and (4,2) that no Table 1 row has, index-divisor primes, a large
    discriminant, a refused height and refused polynomials: each builds its
    evaluator, passes the residue's functional-equation check and has its
    zeros located and certified, as many as pinned, or raises the typed
    error pinned. Together they take well under 2 s."""
    if isinstance(want, int):
        K = ctx.field(poly)
        if poly in ("x^3-x^2-2*x-8", "x^2+1000000007"):
            assert K.index % 2 == 0
        ev = ctx.evaluator(poly)
        assert ev.residue > 0
        assert len(locate_zeros(ev, T).ordinates) == want
    else:
        with pytest.raises(want):
            locate_zeros(ctx.evaluator(poly), T)
