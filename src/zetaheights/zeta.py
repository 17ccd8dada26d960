"""Dedekind zeta evaluation and zero location on the critical segment.

The completed function S(s) = s(s-1) Lambda(s) is evaluated through the
smoothed sum Lambda(s) = r(1/(s-1) - 1/s) + sum_n a_n [F(s,n) + F(1-s,n)],
with the Mellin weights F realized as the incomplete Mellin transform of a
single cached kernel

    W(y) = (1/2 pi i) int_(c) Gamma(z/2)^r1 Gamma(z)^r2 y^{-z} dz,

computed once on a uniform grid in log y, one saddle-point contour per
block of the grid (log Gamma by Stirling's series in real arithmetic, once
per distinct contour), and interpolated in log y by cubic Hermite pieces. Swapping the n-sum and the
x-integral turns every S(s) evaluation into a short fixed quadrature over
the theta profile sum_n a_n W(n x / Q), one matrix product per block of
points, which is what makes dense zero scans affordable. That profile takes
a_1 term by term and spreads every other a_n onto a uniform log-n grid, fine
enough for the band-limited W; one correlation gives it on the matching tau
lattice, and the spreading rows read it back at any tau.

Zeros on the critical line are located as sign changes of Z(t) = S(1/2 + it)
on a grid, every bracket of a grid bisected at once (one hardy call per
halving), and certified complete by an argument-principle count. That count
takes the phase of S up sigma = 3/2 in closed form, its zeta_K part from the
Euler product over the field's norm table (Backlund's method), and calls
the evaluator only across the top edge 3/2 + iT -> 1/2 + iT. Every sum over
the located zeros goes through ZeroList.kernel_sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import RunConfig, default_config
from .errors import (DomainError, GridMissError, InconsistentResidueError,
                     IncompleteZeroSetError)
from .fields import NumberField, coefficient_array, norm_counts

TWO_PI = 2.0 * math.pi
KERNEL_BLOCK = 512  # grid points that share one Mellin-Barnes contour
BLOCK = 256  # points per (points x tau-nodes) matrix: a few MB at most
SPREAD_POINTS = 8  # Lagrange stencil onto the log-n grid and back off the tau lattice
SPREAD_STEP = 0.3  # that grid's step times the contour halfwidth
MAX_HEIGHT = 40.0  # largest scan height; completed and hardy reach 8 beyond it
WEIGHT_REL_TOL = 1e-18  # kernel and coefficients cut where W falls below this of its peak
COEFF_CUTOFF_MULTIPLIER = 1.1  # N = this times Q y_threshold
WGRID_STEP_FACTOR = 1.2e-2  # kernel grid step in log y times the contour halfwidth
CONTOUR_STEP = 0.05  # trapezoid step along the Mellin-Barnes contour
CONTOUR_HALFWIDTH_LOG = 48.0  # the contour ends where the Gamma factors decay by e^-48
PANEL_WIDTH = 0.25  # Gauss-Legendre panel width in tau = log x
PANEL_ORDER = 16  # nodes per panel
BISECT_TOL = 1e-9  # bracket width of a located zero
ARG_STEP = 0.1  # longest step along the argument count's top edge
ARG_NOISE = 1e-12  # |S| / R below which rounding can turn the top edge's phase
ARG_TAIL = math.pi / 8  # the count's bound on its Euler product's tail, in rad
# B_2k / (2k (2k-1)), k = 1..8: Stirling's series for log Gamma (A&S 6.1.40)
STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
            1 / 156, -3617 / 122400)
# B_2k / 2k, k = 1..8: the asymptotic series for digamma (A&S 6.3.18)
DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
                  1 / 12, -3617 / 8160)
_polyval = np.polynomial.polynomial.polyval
_row_dot = partial(np.einsum, "ij,j->i")  # each row alone, unlike BLAS's @
# column k: the Lagrange row at stencil offset _SPREAD_OFFSETS[k], by powers of t
_SPREAD_OFFSETS = np.arange(1 - SPREAD_POINTS // 2, SPREAD_POINTS // 2 + 1)
_SPREAD_BASIS = np.array([np.poly(np.delete(_SPREAD_OFFSETS, k))[::-1]
                          / np.prod(o - np.delete(_SPREAD_OFFSETS, k))
                          for k, o in enumerate(_SPREAD_OFFSETS)]).T


def _loggamma(z):
    """Principal log Gamma(z) for Re z > 0: Stirling's series at w = z + 8,
    where its 8 terms leave under 1e-16, less log z(z+1) ... (z+6)(z+7) as
    four principal logs of pair products, subtracted in turn. Each factor's
    argument lies in (-pi/2, pi/2), so each pair's lies in (-pi, pi) and no
    branch is crossed. The logs are taken in real arithmetic, the modulus
    as log(re^2 + im^2) / 2 and the argument by arctan2: numpy's complex
    log costs several times both. A 0-d z gives a numpy complex scalar."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    w = z + 8.0
    small = 0.5 * math.log(TWO_PI) - 0.5 + _polyval(1.0 / (w * w), STIRLING) / w
    re, im, y2 = small.real, small.imag, y * y
    for j in range(0, 8, 2):
        a = x + j
        pr, pi = a * (a + 1.0) - y2, y * (2.0 * a + 1.0)
        re -= 0.5 * np.log(pr * pr + pi * pi)
        im -= np.arctan2(pi, pr)
    # (w - 1/2)(log w - 1) with one rounding of the large part
    a = x + 8.0
    lr, li = 0.5 * np.log(a * a + y2) - 1.0, np.arctan2(y, a)
    out = np.empty_like(z)
    out.real = (a - 0.5) * lr - y * li + re
    out.imag = (a - 0.5) * li + y * lr + im
    return out[()]


def _digamma(x):
    """psi(x) for real x > 0: the asymptotic series at x + 8, less the
    recurrence's eight reciprocals."""
    x = np.asarray(x, dtype=float)
    w, r2 = x + 8.0, 1.0 / (x + 8.0) ** 2
    return (np.log(w) - 0.5 / w - r2 * _polyval(r2, DIGAMMA_SERIES)
            - sum(1.0 / (x + j) for j in range(8)))


def _log_k0(x: np.ndarray) -> np.ndarray:
    """log K_0(x) = -x + log int_0^inf e^{-x (cosh t - 1)} dt by the trapezoid
    rule of step 0.1, geometrically convergent for this entire integrand, to
    t = 5 (50 nodes) or on until e^{-x (cosh t - 1)} < e^{-40} at the least x."""
    nodes = max(50, math.ceil(10.0 * math.acosh(1.0 + 40.0 / float(x.min()))))
    total = np.full_like(x, 0.5)
    for k in range(1, nodes):
        total += np.exp(-x * (math.cosh(0.1 * k) - 1.0))
    return np.log(0.1 * total) - x


def _hermite_pieces(grid: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic Hermite pieces through y on the uniform grid, laid out as
    CubicSpline.c: (4, len(grid) - 1), in powers of u minus each piece's left
    breakpoint, cubic first. The slopes are fourth-order central
    differences, one-sided at the two points nearest each end."""
    h12 = 12.0 * (grid[-1] - grid[0]) / (len(grid) - 1)
    m = np.empty_like(y)
    m[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / h12
    for end, sign in ((0, 1), (-1, -1)):
        f = y[end::sign][:5]
        m[end] = sign * np.dot((-25.0, 48.0, -36.0, 16.0, -3.0), f) / h12
        m[end + sign] = sign * np.dot((-3.0, -10.0, 18.0, -6.0, 1.0), f) / h12
    dx = np.diff(grid)
    slope = np.diff(y) / dx
    return np.array([(m[:-1] + m[1:] - 2.0 * slope) / (dx * dx),
                     (3.0 * slope - 2.0 * m[:-1] - m[1:]) / dx, m[:-1], y[:-1]])


@dataclass(frozen=True)
class GammaFactor:
    """Archimedean data of the completed zeta function."""

    r1: int
    r2: int
    log_abs_disc: float

    @property
    def degree(self) -> int:
        return self.r1 + 2 * self.r2

    @property
    def scale(self) -> float:
        """Q = sqrt|d| pi^{-r1/2} (2 pi)^{-r2}; conductor per coefficient."""
        return math.exp(0.5 * self.log_abs_disc
                        - 0.5 * self.r1 * math.log(math.pi)
                        - self.r2 * math.log(TWO_PI))

    @property
    def front(self) -> float:
        """Constant 2^{r2} from Gamma_C(s) = 2 (2 pi)^{-s} Gamma(s)."""
        return 2.0 ** self.r2

    def log_gamma_hat(self, s: complex) -> complex:
        """log of |d|^{s/2} Gamma_R(s)^{r1} Gamma_C(s)^{r2}, bit for bit."""
        return sum((r * _loggamma(s / d) for r, d in ((self.r1, 2.0), (self.r2, 1.0))
                    if r), math.log(self.front) + s * math.log(self.scale))

    @classmethod
    def of(cls, K: NumberField) -> "GammaFactor":
        return cls(K.r1, K.r2, K.log_abs_disc)


@dataclass(frozen=True)
class ZeroList:
    """Positive ordinates of critical-line zeros up to height T, with the
    width of the bracket each was bisected to (0 where Z(t) was exactly 0)
    and whether S(1/2) = 0. Sums over the zeros read it through kernel_sum."""

    T: float
    ordinates: tuple
    bracket_widths: tuple
    zero_at_origin: bool = False
    assumed_simple: bool = True
    diagnostics: dict = field(default_factory=dict)

    def count_below(self, T: float) -> int:
        """N_K(T): zeros with |t| < T, conjugates paired, origin once.
        DomainError where T passes the located height by more than 1e-12."""
        if self.T + 1e-12 < T:
            raise DomainError(f"zeros are located to T = {self.T:g}, not to {T:g}")
        n = 2 * sum(1 for t in self.ordinates if t < T)
        return n + (1 if self.zero_at_origin else 0)

    def kernel_sum(self, kernel, below: float = math.inf) -> float:
        """sum kernel(t) over the located zeros with |t| < below: 2 kernel(t)
        for each positive ordinate and its conjugate, kernel(0) once for a
        zero at the origin. DomainError where a finite below passes the
        located height by more than 1e-12."""
        if self.T + 1e-12 < below < math.inf:
            raise DomainError(f"zeros are located to T = {self.T:g}, "
                              f"not to {below:g}")
        return math.fsum([2.0 * kernel(t) for t in self.ordinates if t < below]
                         + ([kernel(0.0)] if self.zero_at_origin else []))


@dataclass(frozen=True)
class ZeroStatistics:
    N: int
    lam: float


def _contour_halfwidth(degree: int) -> float:
    """v where the Gamma factors' decay e^{-pi degree v / 4} is e^{-CONTOUR_HALFWIDTH_LOG}."""
    return CONTOUR_HALFWIDTH_LOG / (math.pi / 4.0 * degree)


def _phase_matrix(v: np.ndarray, h: float) -> np.ndarray:
    """e^{-i v m h}, m = 32 a + b < KERNEL_BLOCK, as e^{-i v 32 a h} e^{-i v b h}."""
    coarse = np.exp(-1j * np.outer(v, np.arange(0, KERNEL_BLOCK, 32) * h))
    fine = np.exp(-1j * np.outer(v, np.arange(32) * h))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(v), KERNEL_BLOCK)


def _mellin_barnes_logw(r1: int, r2: int, log_grid: np.ndarray) -> np.ndarray:
    """log W on a uniform grid of u = log y, -inf where W is not positive:
    W(e^u) = (1/pi) Re int_0^vmax G(c+iv) e^{-(c+iv)u} dv, G(z) =
    Gamma(z/2)^r1 Gamma(z)^r2, by the trapezoid rule. Block J of
    KERNEL_BLOCK points from u_J takes c_J in [0.5, 2] nearest the saddle
    point of |G(c) e^{-cu}| at its midpoint, (r1/2) psi(c/2) + r2 psi(c) = u;
    off it the terms cancel and rounding swamps W. Split as e^{-(c+iv)u_J}
    e^{-(c+iv)(u-u_J)}, the grid is one (blocks x nodes) @ (nodes x
    KERNEL_BLOCK) product, its phase matrix from _phase_matrix."""
    step = CONTOUR_STEP
    v = np.arange(0.0, _contour_halfwidth(r1 + 2 * r2) + step, step)
    weights = np.where(v == 0.0, 0.5 * step, step)
    starts = log_grid[::KERNEL_BLOCK]
    h = (log_grid[-1] - log_grid[0]) / max(len(log_grid) - 1, 1)
    offsets = np.arange(KERNEL_BLOCK) * h
    cs = np.linspace(0.5, 2.0, 151)  # psi increases, so interp inverts it
    c = np.interp(starts + offsets.mean(),
                  0.5 * r1 * _digamma(0.5 * cs) + r2 * _digamma(cs), cs)
    # most blocks clip to c = 2: take log G once per distinct c
    distinct, row = np.unique(c, return_inverse=True)
    zd = distinct[:, None] + 1j * v  # 0 x + y = y: skip a Gamma of weight 0
    log_g = sum(r * _loggamma(zd / d) for r, d in ((r1, 2.0), (r2, 1.0)) if r)[row]
    z = c[:, None] + 1j * v
    head = weights * np.exp(log_g - z * starts[:, None])
    vals = (head @ _phase_matrix(v, h)).real
    vals *= np.exp(-np.outer(c, offsets)) / math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(vals.ravel()[: len(log_grid)])
    out[~np.isfinite(out)] = -np.inf
    return out


class ZetaEvaluator:
    """Cached analytic data for one field: kernel grid, theta nodes, residue."""

    def __init__(self, K: NumberField, config: RunConfig | None = None):
        self.field = K
        self.config = config or default_config()
        self.gamma = GammaFactor.of(K)
        self._build_kernel()
        theta = self._build_theta()
        self._residue = None
        self.diagnostics = {
            "N": self.N,
            "weight_rel_tol": WEIGHT_REL_TOL,
            "y_threshold": self.y_threshold,
            "kernel_grid": {"points": len(self._log_grid), "y_max": self.y_max},
            "contour": {"step": CONTOUR_STEP, "halfwidth_log": CONTOUR_HALFWIDTH_LOG},
            "kernel": self.kernel_kind,
            "theta": theta,
        }

    # -- kernel ---------------------------------------------------------

    def _build_kernel(self):
        r1, r2 = self.gamma.r1, self.gamma.r2
        n = self.gamma.degree
        target_drop = -math.log(WEIGHT_REL_TOL)  # e.g. 41.4 for 1e-18
        # saddle-point scale of where the kernel has decayed by the target
        base = (2.0 * (target_drop + 10.0) / n) ** (n / 2.0)
        y_hi = 1.3 * base / (2.0 ** (r1 / 2.0)) + 10.0
        y_lo = 0.98 / self.gamma.scale
        if r1 == 1 and r2 == 0:
            self.kernel_kind = "gaussian-exact"
            vec_log_w = lambda ys: math.log(2.0) - ys * ys
            y_hi = math.sqrt(target_drop + 12.0) + 1.0
        elif r1 == 0 and r2 == 1:
            self.kernel_kind = "exponential-exact"
            vec_log_w = lambda ys: -ys
            y_hi = target_drop + 14.0
        elif r1 == 2 and r2 == 0:
            self.kernel_kind = "bessel-exact"

            def vec_log_w(ys):
                return math.log(4.0) + _log_k0(2.0 * ys)
            y_hi = 0.5 * (target_drop + 14.0)
        else:
            self.kernel_kind = "mellin-barnes"
            vec_log_w = None
        step_log = WGRID_STEP_FACTOR / _contour_halfwidth(n)
        lo, hi = math.log(y_lo), math.log(y_hi)
        npts = max(int((hi - lo) / step_log) + 2, 64)
        grid = np.linspace(lo, hi, npts)
        if vec_log_w is None:
            logw = _mellin_barnes_logw(r1, r2, grid)
        else:
            logw = vec_log_w(np.exp(grid))
        # past the peak, the first W <= 0 marks the rounding floor: stop
        top = int(np.argmax(logw))
        bad = np.flatnonzero(~np.isfinite(logw[top:]))
        if len(bad):
            grid, logw = grid[: top + bad[0]], logw[: top + bad[0]]
        self._log_grid = grid
        self._pieces = _hermite_pieces(grid, logw)
        peak = float(logw.max())
        below = np.nonzero(logw <= peak - target_drop)[0]
        idx = below[below > top]
        self.y_threshold = float(np.exp(grid[idx[0]])) if len(idx) else float(np.exp(grid[-1]))
        self.y_max = float(np.exp(grid[-1]))

    def _log_w(self, u: np.ndarray) -> np.ndarray:
        """log W at log-points u inside the grid: the Hermite piece
        int((u - u_0) / h), capped at the last, as a cubic in u minus its
        stored breakpoint (never u_0 + i h, which drifts by rounding)."""
        knots, pieces = self._log_grid, self._pieces
        i = ((u - knots[0]) / (knots[1] - knots[0])).astype(np.intp)
        np.minimum(i, pieces.shape[1] - 1, out=i)
        dx = u - knots.take(i)
        out = pieces[0].take(i)
        for row in pieces[1:]:
            out *= dx
            out += row.take(i)
        return out

    def kernel(self, ys: np.ndarray) -> np.ndarray:
        """W(y) for y inside the cached grid, 0 beyond its decayed end.

        A y below the grid's first point raises GridMissError: the pieces
        know nothing of W there.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._kernel_log(np.log(np.asarray(ys, dtype=float)))

    def _kernel_log(self, u: np.ndarray) -> np.ndarray:
        """W(e^u), as kernel(e^u) without the exp and log."""
        if u.size and not u.min() >= self._log_grid[0]:
            raise GridMissError(
                f"kernel asked for y = {math.exp(u.min()):.6g}, below the "
                f"grid's first point {math.exp(self._log_grid[0]):.6g}")
        out = np.zeros_like(u)
        mask = u <= self._log_grid[-1]
        out[mask] = np.exp(self._log_w(u[mask]))
        return out

    # -- theta ----------------------------------------------------------

    def _build_theta(self):
        Q = self.gamma.scale
        self.N = max(int(math.ceil(Q * self.y_threshold
                                   * COEFF_CUTOFF_MULTIPLIER)), 8)
        if self.N > 2 * 10 ** 8:
            raise DomainError(
                f"evaluator needs {self.N} coefficients; field too large")
        # the norm-count table goes as far as the coefficients read it; the
        # ledgers and reports extend it to their own cutoff
        self.a = coefficient_array(self.field, self.N)
        # past this tau no n <= N puts n e^tau / Q inside the kernel grid
        tau_max = max(math.log(min(self.N, self.y_max * Q)), 1.0)
        n_panels = max(int(math.ceil(tau_max / PANEL_WIDTH)), 2)
        nodes, weights = np.polynomial.legendre.leggauss(PANEL_ORDER)
        edges = np.linspace(0.0, tau_max, n_panels + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        self.tau_nodes = (mid[:, None] + half[:, None] * nodes).ravel()
        self.tau_weights = (half[:, None] * weights).ravel()
        split = self._split_terms()
        self._split = (self.a, split)   # reused while self.a is this array
        self.theta_values = self._theta(split, self.tau_nodes)
        # 2^{r2} w_k theta_k weigh S's tau sums; Z's also take 2 e^{tau_k / 2}
        self._weights = self.gamma.front * self.tau_weights * self.theta_values
        self._hardy_weights = 2.0 * self._weights * np.exp(0.5 * self.tau_nodes)
        (log_n, _), (_, _, masses) = split
        terms = int(np.count_nonzero(self.a[1: self.N + 1]))
        return {"near_terms": len(log_n), "far_terms": terms - len(log_n),
                "grid_points": len(masses)}

    def _split_terms(self):
        """Near terms (log n, a_n), the first nonzero a_n (a_1 = 1) alone,
        and far masses (eta, first, masses): the other nonzero a_n, n <= N,
        spread by SPREAD_POINTS-point Lagrange rows onto log n = m eta, m >=
        first. W(e^u) is band-limited in u to the contour halfwidth v, so at
        eta = SPREAD_STEP / v the rows reproduce each a_n W(n e^tau / Q) to
        rounding. n = 1 stays a term: at the residue's tau = log(1/1.02) its
        stencil would reach below the kernel grid's first point, 0.98 / Q.
        Cell j = floor(log n / eta) is a run of the sorted n, and its masses
        come from moments sum a_n t^d, t = log n / eta - j, in 2^16-term
        chunks. n is filled block by block of a, with no mask over all of
        it, and a chunk's runs start where a binary search for each cell in
        j[0] .. j[-1] lands past the search for the cell before."""
        eta = SPREAD_STEP / _contour_halfwidth(self.gamma.degree)
        a = self.a[: self.N + 1]
        n = np.empty(np.count_nonzero(a[1:]), dtype=np.int64)
        filled = 0
        for lo in range(1, len(a), 1 << 16):
            at = np.flatnonzero(a[lo: lo + (1 << 16)] != 0) + lo
            n[filled: filled + len(at)] = at
            filled += len(at)
        near, far = n[:1], n[1:]
        if not len(far):
            return (np.log(near), self.a[near]), (eta, 0, np.zeros(0))
        # clip a j rounded off by one at either end: the rows hold just past it
        j_lo, j_hi = int(math.log(far[0]) / eta), int(math.log(far[-1]) / eta)
        moments = np.zeros((j_hi - j_lo + 1, SPREAD_POINTS))
        for lo in range(0, len(far), 1 << 16):
            chunk = far[lo: lo + (1 << 16)]
            t = np.log(chunk) / eta
            j = np.clip(t.astype(np.intp), j_lo, j_hi)
            t -= j
            starts = np.searchsorted(j, np.arange(j[0], j[-1] + 2))
            runs = starts[:-1][starts[1:] > starts[:-1]]
            power = self.a[chunk]
            sums = [np.add.reduceat(power, runs)]
            for _ in range(SPREAD_POINTS - 1):
                sums.append(np.add.reduceat(np.multiply(power, t, out=power), runs))
            moments[j[runs] - j_lo] += np.transpose(sums)  # a cut cell adds twice
        cells = np.arange(len(moments))[:, None] + np.arange(SPREAD_POINTS)
        masses = np.bincount(cells.ravel(), (moments @ _SPREAD_BASIS).ravel())
        return (np.log(near), self.a[near]), (eta, j_lo + 1 - SPREAD_POINTS // 2, masses)

    def _theta(self, split, taus: np.ndarray) -> np.ndarray:
        """sum a_n W(n e^tau / Q) at each tau, W = 0 past the kernel grid's
        end. The near terms term by term; the far masses M_m through the
        lattice tau_i = i eta, F_i = sum_m M_m W(e^{(first + m + i) eta} / Q),
        one correlation over the i that the taus' stencils reach, read at
        each tau by the SPREAD_POINTS-point Lagrange rows of its cell: F is
        band-limited in tau as W is in u, so the rows that spread the a_n
        onto the lattice also interpolate F from it."""
        (log_n, coeffs), (eta, first, masses) = split
        log_q = math.log(self.gamma.scale)
        out = self._kernel_log(log_n + (taus[:, None] - log_q)) @ coeffs
        if not len(masses):
            return out
        t = taus / eta
        j = np.floor(t).astype(np.intp)
        t -= j
        lo = int(j.min()) + _SPREAD_OFFSETS[0]
        i = j[:, None] + _SPREAD_OFFSETS - lo   # each stencil's F indices
        k = first + lo + np.arange(len(masses) + i.max())
        lattice = np.correlate(self._kernel_log(k * eta - log_q), masses, "valid")
        rows = np.vander(t, SPREAD_POINTS, increasing=True) @ _SPREAD_BASIS
        return out + (rows * lattice[i]).sum(axis=1)

    # -- Lambda / S -----------------------------------------------------

    def _tau_sum(self, points: np.ndarray, fn, weights: np.ndarray,
                 dot=np.matmul) -> np.ndarray:
        """sum_k weights_k fn(p tau_k) at each point p, the tau quadrature of
        sum_n a_n F(s, n), one (points x tau-nodes) matrix @ weights (or
        dot) per BLOCK points."""
        flat = points.ravel()
        out = np.empty_like(flat)
        for lo in range(0, len(flat), BLOCK):
            out[lo: lo + BLOCK] = dot(fn(np.multiply.outer(
                flat[lo: lo + BLOCK], self.tau_nodes)), weights)
        return out.reshape(points.shape)

    @property
    def residue(self) -> float:
        """Residue of zeta_K at s = 1, solved from the theta functional
        equation (InconsistentResidueError when its two solutions differ)."""
        if self._residue is None:
            self._solve_residue()
        return self._residue

    @property
    def pole_term(self) -> float:
        """R = residue of Lambda at s=1 (gamma-hat(1) times residue)."""
        if self._residue is None:
            self._solve_residue()
        return self._pole_term

    def _solve_residue(self):
        """R from Theta(1/t) = t Theta(t) + R (t - 1), where Theta(x) =
        2^{r2} sum_{n<=N} a_n W(n x / Q), solved at t = 1.005 and t = 1.02.

        Both points keep n x / Q inside the kernel grid, which starts at
        0.98 / Q. The two solutions must agree to 1e-10 relative: a wrong
        coefficient, kernel or conductor breaks the functional equation
        and moves them apart.
        """
        ts = (1.005, 1.02)
        taus = np.array([math.log(x) for t in ts for x in (1.0 / t, t)])
        # from self.a as it is now: the field's array is read-only, so the
        # theta split holds unless self.a was rebound
        a, split = self._split
        if self.a is not a:
            split = self._split_terms()
        theta = [self.gamma.front * float(v) for v in self._theta(split, taus)]
        near, far = ((theta[2 * i] - t * theta[2 * i + 1]) / (t - 1.0)
                     for i, t in enumerate(ts))
        if not abs(near - far) <= 1e-10 * abs(far):
            raise InconsistentResidueError(
                f"theta functional equation gives R = {near!r} at t = 1.005 "
                f"and R = {far!r} at t = 1.02")
        rho = far / math.exp(self.gamma.log_gamma_hat(1.0).real)
        if not rho > 0:
            raise InconsistentResidueError(f"nonpositive residue {rho}")
        self._residue, self._pole_term = rho, far

    def completed(self, s):
        """Entire S(s) = s(s-1) Lambda(s), S(s) = S(1-s) by construction, at a
        number or an array of s; GridMissError past |Im s| = MAX_HEIGHT + 8.
        Its last bits depend on the rest of the call: numpy's complex
        product of a lone number rounds unlike an array's, so it keeps @."""
        s = np.asarray(s, dtype=complex)
        if np.any(abs(s.imag) > MAX_HEIGHT + 8.0):
            raise GridMissError(f"|Im s| = {abs(s.imag).max()} beyond coverage")
        lam_sum = (self._tau_sum(s, np.exp, self._weights)
                   + self._tau_sum(1.0 - s, np.exp, self._weights))
        out = s * (s - 1.0) * lam_sum + self.pole_term
        return out if out.ndim else out.item()

    def hardy(self, t):
        """Z(t) = S(1/2 + it), real, at a number or an array of t: Re sum_k
        w_k theta_k e^{(1/2 + it) tau_k} is sum_k w_k theta_k e^{tau_k / 2}
        cos(t tau_k). GridMissError past |t| = MAX_HEIGHT + 8. Each point's
        tau sum is an einsum row, so Z(t) is the same bits in any call."""
        t = np.asarray(t, dtype=float)
        if np.any(abs(t) > MAX_HEIGHT + 8.0):
            raise GridMissError(f"|t| = {abs(t).max()} beyond coverage")
        lam_sum = self._tau_sum(t, np.cos, self._hardy_weights, _row_dot)
        out = -(0.25 + t * t) * lam_sum + self.pole_term
        return out if out.ndim else out.item()


def get_evaluator(K: NumberField, config: RunConfig | None = None) -> ZetaEvaluator:
    """The field's evaluator for this config, built once per cache_key."""
    cache = K.state.evaluators
    key = (config or default_config()).cache_key()
    if key not in cache:
        cache[key] = ZetaEvaluator(K, config)
    return cache[key]


# ----------------------------------------------------------------------
# Dirichlet series with average-order tail correction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float
    correction: float


def direct_series(K: NumberField, s: complex, N: int) -> SeriesValue:
    """sum_{n<=N} a_n n^{-s} plus the average-order tail correction.

    The ideal-count summatory function grows like rho x, so the truncated
    tail is corrected by rho_hat N^{1-s}/(s-1) with rho_hat = A(N)/N; the
    returned tail_bound is the crude divisor-function estimate
    n_K (1+log N)^{n_K-1} N^{1-sigma}/(sigma-1) on the raw truncation.
    """
    s = complex(s)
    if s.real < 1.5:
        raise DomainError("direct series requires Re(s) >= 1.5")
    if N < 100:
        raise DomainError("N must be >= 100")
    a = coefficient_array(K, N)
    ns = np.arange(1, N + 1, dtype=float)
    terms = a[1: N + 1] * np.exp(-s * np.log(ns))
    value = complex(np.sum(terms))  # pairwise summation
    rho_hat = float(np.sum(a[1: N + 1])) / N
    correction = rho_hat * N ** (1.0 - s) / (s - 1.0)
    sigma = s.real
    tail_bound = (K.n_K * (1.0 + math.log(N)) ** (K.n_K - 1)
                  * N ** (1.0 - sigma) / (sigma - 1.0))
    return SeriesValue(value=value + correction, tail_bound=tail_bound,
                       correction=abs(correction))


# ----------------------------------------------------------------------
# Zero location
# ----------------------------------------------------------------------

def _bisect(ev: ZetaEvaluator, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray):
    """Bisect every bracket [lo, hi] of a sign change of Z, Z(lo) = flo, to
    BISECT_TOL at once: each halving is one hardy call at the midpoints of
    the brackets still open. A bracket closes with width 0 where Z is exactly
    0.0, at lo or at a midpoint. lo and flo are updated in place. Returns
    (ordinates, widths, Z values taken)."""
    hi = np.where(flo == 0.0, lo, hi)
    live = np.flatnonzero(hi - lo > BISECT_TOL)
    taken = 0
    while len(live):
        mid = 0.5 * (lo[live] + hi[live])
        fm = ev.hardy(mid)
        taken += len(live)
        same, zero = (fm > 0) == (flo[live] > 0), fm == 0.0
        lo[live] = np.where(same | zero, mid, lo[live])
        hi[live] = np.where(same & ~zero, hi[live], mid)
        flo[live] = np.where(same, fm, flo[live])
        live = live[hi[live] - lo[live] > BISECT_TOL]
    return tuple((0.5 * (lo + hi)).tolist()), tuple((hi - lo).tolist()), taken


def _euler_tail(n_K: int, X: int) -> float:
    """Bound on |log zeta_K(s) - sum_{N p <= X} -log(1 - N p^{-s})| for
    Re s = 3/2: at most n_K prime ideals have a given norm q, |log(1 - z)|
    <= |z| / (1 - |z|), and sum_{q > X} q^{-3/2} <= 2 / sqrt(X)."""
    return 2.0 * n_K / (math.sqrt(X) * (1.0 - X ** -1.5))


def _euler_cutoff(n_K: int) -> int:
    """The least X whose tail bound is at most ARG_TAIL, about 26 n_K^2."""
    X = math.ceil((2.0 * n_K / ARG_TAIL) ** 2)  # 2 n_K / sqrt(X) alone
    while _euler_tail(n_K, X) > ARG_TAIL:
        X += 1
    return X


def _euler_phase(K: NumberField, T: float):
    """(Im log zeta_K(3/2 + iT), X, tail): the continuous branch, 0 at T =
    0, as Im sum_q -N_q log(1 - q^{-s}) over the prime powers q <= X of the
    field's override-free norm table (Backlund, Acta Math. 41, 1918). Each
    term's principal log is continuous, as |q^{-s}| < 1/2; the prime ideals
    of norm past X move the value by at most tail."""
    X = _euler_cutoff(K.n_K)
    q, n = norm_counts(K, X)
    keep = n > 0
    terms = -np.log1p(-np.exp(-complex(1.5, T) * np.log(q[keep])))
    return math.fsum(n[keep] * terms.imag), X, _euler_tail(K.n_K, X)


def argument_count(ev: ZetaEvaluator, T: float) -> dict:
    """N(T), the zeros of S with |Im s| < T, as 2/pi times the change Delta
    of arg S along 3/2 -> 3/2 + iT -> 1/2 + iT: a quarter of the rectangle
    [-1/2, 3/2] x [-T, T], as S(s) = S(1-s) = conj S(conj s) (Turing;
    Booker, Exp. Math. 15, 2006). Up sigma = 3/2 the phase is read at its
    end alone, as Im log s(s-1) + Im log gamma-hat(s) + Im log zeta_K(s),
    the last from the Euler product (_euler_phase). Only the top edge 3/2
    + iT -> 1/2 + iT calls completed: equal steps of at most ARG_STEP in
    one call, then one per round halving every step over which the phase
    moves pi/4 or more.

    Returns {"count", "calls": points on the top edge, "min_ratio": their
    least |S| / R, "X": the Euler product's cutoff, "tail": its bound,
    "gap": the evaluator's arg S(3/2 + iT) less the series' phase, mod 2 pi,
    "rounding": Delta / pi's distance from its integer}. Raises
    IncompleteZeroSetError, with that report in diagnostics["argument"],
    where min_ratio falls below ARG_NOISE (rounding can turn the phase) or
    a step below ARG_STEP 2^-30 moves pi/4; where |gap| passes tail + 1e-6;
    or where rounding passes 1/2 - tail / pi, past which the count could be
    another. DomainError for T outside (0, MAX_HEIGHT]."""
    if not 0.0 < T <= MAX_HEIGHT:
        raise DomainError(f"T must lie in (0, {MAX_HEIGHT:g}]")
    zeta_phase, X, tail = _euler_phase(ev.field, T)
    s = complex(1.5, T)
    phase = (math.atan2(T, 1.5) + math.atan2(T, 0.5)
             + float(ev.gamma.log_gamma_hat(s).imag) + zeta_phase)
    path = np.linspace(s, complex(0.5, T), math.ceil(1.0 / ARG_STEP) + 1)
    vals = ev.completed(path)
    gap = float(np.angle(vals[0] * np.exp(-1j * phase)))
    report = {"calls": len(path), "min_ratio": None, "X": X, "tail": tail, "gap": gap}

    def refuse(why):
        return IncompleteZeroSetError(f"argument count to T = {T:g} unresolved: {why}",
                                      diagnostics={"argument": {"T": T, **report}})

    while True:
        least = float(np.abs(vals).min()) / ev.pole_term
        report.update(calls=len(path), min_ratio=least)
        steps = np.angle(vals[1:] / vals[:-1])
        wide = np.flatnonzero(np.abs(steps) >= math.pi / 4.0)
        if least < ARG_NOISE or np.any(abs(np.diff(path)[wide]) <= ARG_STEP / 2**30):
            raise refuse(f"|S| falls to {least:.3g} R on the top edge, below the "
                         f"noise floor {ARG_NOISE:g} R")
        if not len(wide):
            break
        mid = 0.5 * (path[wide] + path[wide + 1])
        path = np.insert(path, wide + 1, mid)
        vals = np.insert(vals, wide + 1, ev.completed(mid))
    if not abs(gap) <= tail + 1e-6:
        raise refuse(f"the gap between the evaluator's arg S(3/2 + iT) and the Euler "
                     f"product's phase is {gap:.3g} rad, {abs(gap) - tail - 1e-6:.3g} "
                     f"past its bound tail + 1e-6 = {tail + 1e-6:.3g}")
    turns = (phase + math.fsum(steps.tolist())) / math.pi
    report["rounding"] = off = abs(turns - round(turns))
    if not off <= 0.5 - tail / math.pi:
        raise refuse(f"Delta / pi = {turns:.6g} lies {off:.3g} from an integer, "
                     f"{off - 0.5 + tail / math.pi:.3g} past 1/2 - tail / pi = "
                     f"{0.5 - tail / math.pi:.3g}")
    return {"count": 2 * round(turns), **report}


def locate_zeros(ev: ZetaEvaluator, T: float) -> ZeroList:
    """Scan Z(t) = S(1/2+it) on [0, T], bisect sign changes to 1e-9 brackets.

    The zeros are complete when they number N(T) from argument_count,
    taken once before the scan: a count that refuses costs no scan. On a
    mismatch the scan grid halves its step, up to 3 times. The grids are
    nested, n = ceil(T / scan_step) 2^h steps, so a finer grid keeps every
    sign change of a coarser one; each grid, or halving's new points, is
    one hardy call. All brackets of a grid are bisected together, one hardy
    call per bisection step for every zero: 24 steps at step 0.01. A grid
    point or midpoint where Z is exactly 0.0 is a zero of bracket width 0.
    diagnostics["completeness"] keeps the count and its cost,
    diagnostics["z_values"] the Z(t) values scanned and bisected.
    IncompleteZeroSetError carries one report per attempt, each with its
    scan step, and names the finest step scanned and both counts.
    """
    if not 0.0 < T <= MAX_HEIGHT:
        raise DomainError(f"T must lie in (0, {MAX_HEIGHT:g}]")
    n = int(math.ceil(T / ev.config.scan_step))
    try:
        argument = argument_count(ev, T)
    except IncompleteZeroSetError as exc:
        raise IncompleteZeroSetError(str(exc), diagnostics={"attempts": [
            {"scan_step": T / n, **exc.diagnostics}]}) from exc
    ts = np.arange(n + 1) * T / n
    vals = ev.hardy(ts)
    bisected, attempts = 0, []
    for halvings in range(4):
        if halvings:
            n *= 2
            ts = np.arange(n + 1) * T / n  # bitwise the old points at even i
            finer = np.empty(n + 1)
            finer[::2] = vals
            finer[1::2] = ev.hardy(ts[1::2])
            vals = finer
        step = T / n
        hits = np.flatnonzero(((vals[:-1] == 0.0) & (ts[:-1] > 0.0))
                              | (vals[:-1] * vals[1:] < 0))
        origin = bool(abs(vals[0]) < 1e-9 * (float(np.max(np.abs(vals))) or 1.0))
        zeros, widths, steps = _bisect(ev, ts[hits], ts[hits + 1], vals[hits])
        bisected += steps
        zl = ZeroList(T=T, ordinates=zeros, bracket_widths=widths,
                      zero_at_origin=origin,
                      diagnostics={"scan_step": step, "z_values": n + 1 + bisected})
        ok, report = _completeness_checks(zl, argument)
        if ok:
            zl.diagnostics["completeness"] = report
            return zl
        attempts.append({"scan_step": step, **report})
    got = report.get("argument")
    counts = (f": the scan counts {got['scan']} zeros, the argument principle "
              f"{got['count']}" if got else "")
    raise IncompleteZeroSetError(
        f"zero scan failed completeness checks up to step {step}{counts}",
        diagnostics={"attempts": attempts})


def _completeness_checks(zl: ZeroList, argument: dict):
    """(ok, report): ok when the located zeros number argument["count"]. S(1/2
    + it) is even in t, so a zero at the origin has even order: it counts
    twice here (assumed_simple), once in count_below."""
    scan = 2 * len(zl.ordinates) + 2 * int(zl.zero_at_origin)
    return scan == argument["count"], {"argument": {**argument, "scan": scan}}


def zero_statistics(zl: ZeroList, T: float) -> ZeroStatistics:
    """N_K(T) with conjugate pairs, and lambda_K(T) = sum 1/(1+t^2)."""
    lam = zl.kernel_sum(lambda t: 1.0 / (1.0 + t * t), below=T)
    return ZeroStatistics(N=zl.count_below(T), lam=lam)
