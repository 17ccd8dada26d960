"""Analytic continuation, residues, and zero location."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import TABLE_CUBIC_QUARTIC, TABLE_QUINTIC
from zetaheights import direct_series, locate_zeros, zero_statistics
from zetaheights.errors import (DomainError, GridMissError,
                                IncompleteZeroSetError,
                                InconsistentResidueError)
from zetaheights.zeta import (ARG_STEP, MAX_HEIGHT, WGRID_STEP_FACTOR,
                              ZeroList, ZetaEvaluator,
                              _completeness_checks, _contour_halfwidth,
                              _digamma, _hermite_pieces, _log_k0, _loggamma,
                              _mellin_barnes_logw, argument_count)

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


@pytest.mark.parametrize("text", ["x", "x^2+1", "x^4+1"])
def test_theta_without_far_terms_is_the_per_node_sum(ctx, text):
    """With every n <= N below the spreading split, theta is the term-by-term
    sum over the nonzero a_n at each node, bit for bit."""
    ev = ctx.evaluator(text)
    assert ev.diagnostics["theta"]["far_terms"] == 0
    assert ev.diagnostics["theta"]["grid_points"] == 0
    n = np.flatnonzero(ev.a[1: ev.N + 1]) + 1
    log_n, coeffs = np.log(n), ev.a[n]
    want = np.empty(len(ev.tau_nodes))
    for j, tau in enumerate(ev.tau_nodes):
        k = int(np.searchsorted(log_n, ev._log_n_cut - tau, side="right"))
        w = np.exp(ev._log_w(log_n[:k] + (tau - math.log(ev.gamma.scale))))
        want[j] = float(np.dot(coeffs[:k], w))
    assert np.array_equal(ev.theta_values, want)


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
    """n0 = 407.4 on quartics: 86 nonzero a_n below it, 1,012 spread onto
    grid points floor(log 415 / eta) - 3 = 304 to floor(log 7209 / eta) + 4
    = 456, the first and last nonzero a_n above it."""
    d = ctx.evaluator("x^4+18*x^2+60").diagnostics
    assert d["theta"] == {"near_terms": 86, "far_terms": 1012, "grid_points": 153}


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


def _refinement_depth(points, T):
    """Halvings of the count's finest step below its equal ARG_STEP steps,
    up 3/2 + i[0, T] and across [1/2, 3/2] + iT."""
    depth = 0
    for coords, length in ((points[points.real == 1.5].imag, T),
                           (points[points.imag == T].real, 1.0)):
        step = length / math.ceil(length / ARG_STEP)
        finest = np.diff(np.unique(coords)).min()
        depth = max(depth, round(math.log2(step / finest)))
    return depth


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
    assert len(points) == zl.diagnostics["completeness"]["argument"]["calls"]
    assert len(seen["completed"]) <= 1 + _refinement_depth(points, T)


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
    ordinates below T, at T = 2 and at the session height."""
    ordinates = json.loads(REFERENCE.read_text())["fields"][poly]["ordinates"]
    ev = ctx.evaluator(poly)
    for T in (2.0, SESSION_HEIGHTS[poly]):
        got = argument_count(ev, T)
        assert got["count"] == 2 * sum(1 for t in ordinates if float(t) < T)
        assert got["min_ratio"] >= 1e-6 and got["calls"] < 300


@pytest.mark.parametrize("poly, T", [("x^2+1", 30.0), ("x^4+1", 15.0)])
def test_argument_count_refuses_below_the_noise_floor(ctx, poly, T):
    """|S| on the path falls to rounding there, and the winding count is
    wrong (24 against 26 on both); it raises instead of returning one."""
    with pytest.raises(IncompleteZeroSetError, match="noise floor") as info:
        argument_count(ctx.evaluator(poly), T)
    assert info.value.diagnostics["argument"]["min_ratio"] < 1e-12


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
