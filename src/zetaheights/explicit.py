"""Explicit-formula identities for the completed Dedekind zeta function.

Both test kernels from the height-bound analysis are objects: Exponential,
F(x) = e^{-|x|} (phi(1/2+it) = 2/(1+t^2)), and Gaussian(y), F(x) = e^{-y x^2}
(phi(1/2+it) = sqrt(pi/y) e^{-t^2/4y}). Each carries what depends on the
kernel: F, phi and -phi' on the critical line, the archimedean integrals,
the prime m-sum and its m = 1 term, the density tail and the prime tail.
Both ledgers run through one identity body on the unnormalised form
log d_K + archimedean_side - P, which the Gaussian ledger divides by n_K,
and the bound reports read their archimedean terms from the same place.
Zero-sum tails are bracketed two-sidedly through the explicit counting
window. Every integral is exact: in closed form for the exponential kernel
(its zero tail through the inverse tangent integral, its prime tail as a
series) and for the Gaussian f-cosh integral, density and prime tails; the
adaptive Gauss-Kronrod _quad serves only the Gaussian sinh and cosh
integrals (cached) and zero tail. A prime sum is one numpy pass over the
prime powers with N_q > 0, read once per field onto K.state: np.dot for
the m-sum, numpy's pairwise np.sum, with its rounding bound, for m = 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ClosureFailureError, DomainError, QuadratureFailureError
from .fields import NumberField, norm_counts
from .zeta import ZeroList

EULER_GAMMA = float(np.euler_gamma)
LOG_8PI = math.log(8.0 * math.pi)

# explicit zero-counting constants
HSW_LOG_COEFF = 0.228
HSW_DEGREE_COEFF = 23.108
HSW_CONST = 4.520

PSI_UPPER = 1.03883  # psi(x) < 1.03883 x for all x > 0
PSI_LOWER = 0.9      # psi(x) > 0.9 x for x >= 100


class _Kernel:
    """The prime side's tail bound, which both kernels share."""

    def prime_tail_bound(self, n_K: int, X: int) -> float:
        # sum_{q > X} of N_q <= n_K times Lambda-weighted h(t) = log t
        # (m-sum at t), bounded by parts against 0.9 x <= psi(x) < 1.03883 x
        h_X, integral_h = self.prime_tail_h(X)
        return 2.0 * n_K * (PSI_UPPER * (X * h_X + integral_h)
                            - PSI_LOWER * X * h_X)


@dataclass(frozen=True)
class Exponential(_Kernel):
    """F(x) = e^{-|x|}, phi(1/2+it) = 2/(1+t^2); no method needs an
    instance but archimedean_terms."""

    name = "exponential"

    @staticmethod
    def F(x):
        return np.exp(-np.abs(x))

    @staticmethod
    def phi_critical(t):
        return 2.0 / (1.0 + t * t)

    @staticmethod
    def zero_tail(c, floor, T):
        """int_T^inf -phi'(t) max(floor, f(t)) dt, f = c . (1, log t, t, t log t)
        a counting edge, in closed form for T >= 1: -phi' = 4t/(1+t^2)^2,
        and f'' = n_K/(pi t) -+ 0.228 n_K/t^2 > 0, so f lies below the floor
        on one interval [a, b] at most, whose ends (the kinks) are bisected
        on either side of the minimum of f."""
        f = lambda t: c[0] + c[1] * math.log(t) + (c[2] + c[3] * math.log(t)) * t - floor
        slope = lambda t: c[1] / t + c[2] + c[3] * (math.log(t) + 1.0)
        low = T if slope(T) >= 0.0 else _crossing(slope, T)
        if f(low) >= 0.0:
            return float(c @ _tail_moments(T))
        a = T if f(T) <= 0.0 else _crossing(lambda t: -f(t), T, low)
        at_T, at_a, at_b = (_tail_moments(t) for t in (T, a, _crossing(f, low)))
        return float(c @ (at_T - at_a + at_b) + floor * (at_a[0] - at_b[0]))

    @staticmethod
    def integrals():
        return ArchimedeanIntegrals(2.0, math.pi - 2.0, 16.0 / 3.0)

    def archimedean_terms(self, K):
        arch = archimedean_integrals(self)
        return {"log_dK": K.log_abs_disc, **archimedean_side(K, self),
                "sinh_integral": arch.sinh_integral,
                "cosh_integral": arch.cosh_integral}

    @staticmethod
    def single(qs):
        return 1.0 / qs ** 1.5

    @staticmethod
    def prime_terms(qs):
        """Per q: the geometric m-sum 1/(q^{3/2} - 1) and its m = 1 term."""
        q15 = qs ** 1.5
        return 1.0 / (q15 - 1.0), 1.0 / q15

    @staticmethod
    def density_tail(X):
        return 2.0 / math.sqrt(X)

    @staticmethod
    def prime_tail_h(X):
        # int_{log X}^inf u e^u/(e^{3u/2} - 1) du = sum_k int u e^{-a_k u} du,
        # a_k = 3k/2 - 1, summed to the first term below 2^-54 of the total
        lx, integral_h, k = math.log(X), 0.0, 1
        while True:
            a = 1.5 * k - 1.0
            term = math.exp(-a * lx) * (lx / a + 1.0 / (a * a))
            integral_h, k = integral_h + term, k + 1
            if term < 2.0 ** -54 * integral_h:
                return lx / (X ** 1.5 - 1.0), integral_h


@dataclass(frozen=True)
class Gaussian(_Kernel):
    """F(x) = e^{-y x^2}, phi(1/2+it) = sqrt(pi/y) e^{-t^2/4y}, y in (0, 1]."""

    y: float

    def __post_init__(self):
        if not 0.0 < self.y <= 1.0:
            raise DomainError("y must lie in (0, 1]")

    @property
    def name(self):
        return f"gaussian(y={self.y})"

    def F(self, x):
        return np.exp(-self.y * x * x)

    def phi_critical(self, t):
        return math.sqrt(math.pi / self.y) * math.exp(-t * t / (4.0 * self.y))

    def zero_tail(self, c, floor, T):
        # int_T^inf -phi' max(floor, c . (1, log t, t, t log t)) on the
        # compact effective support of -phi'
        y = self.y
        return _quad(lambda t: math.sqrt(math.pi / y) * (t / (2.0 * y))
                     * np.exp(-t * t / (4.0 * y)) * np.maximum(
                         floor, c[0] + c[1] * np.log(t) + (c[2] + c[3] * np.log(t)) * t),
                     T, T + math.sqrt(4.0 * y * 250.0) + 5.0, tol=1e-13)

    def integrals(self):
        i_f = 2.0 * math.exp(1.0 / (16.0 * self.y)) * math.sqrt(math.pi / self.y)
        return ArchimedeanIntegrals(*_sinh_cosh_integrals(self.F), i_f)

    def archimedean_terms(self, K):
        arch, n = archimedean_integrals(self), K.n_K
        return {"log_dK_over_n": K.log_abs_disc / n,
                "r1_term": -math.pi * K.r1 / (2.0 * n),
                "euler_log8pi": -(EULER_GAMMA + LOG_8PI),
                "sinh_integral": arch.sinh_integral,
                "cosh_integral_scaled": (K.r1 / n) * arch.cosh_integral,
                "f_cosh_over_n": arch.f_cosh_integral / n}

    def single(self, qs):
        logq = np.log(qs)
        return np.exp(-0.5 * logq - self.y * logq ** 2)

    def prime_terms(self, qs):
        """Per q: sum_{m <= 400} q^{-m/2} F(m log q) and its m = 1 term. The
        terms fall in m, so a q leaves once its term is at most 2^-54 of its
        total: under half an ulp, it and every later term leave the total as
        is. So every q whose exponent puts its m = 2 term below 2^-54/e of
        the first leaves at once; the loop runs on the rest, totals in acc."""
        logq = np.log(qs)
        first = np.exp(-0.5 * logq - self.y * logq ** 2)
        total = first.copy()
        idx = np.flatnonzero(-0.5 * logq - 3.0 * self.y * logq ** 2
                             > -54.0 * math.log(2.0) - 1.0)
        active, acc = logq[idx], first[idx]
        for m in range(2, 401):
            term = np.exp(-0.5 * m * active - self.y * (m * active) ** 2)
            acc = acc + term
            keep = term > 2.0 ** -54 * acc
            if not keep.all():
                total[idx[~keep]] = acc[~keep]
                idx, active, acc = idx[keep], active[keep], acc[keep]
            if not len(idx):
                break
        total[idx] = acc
        return total, first

    def msum(self, qs):
        return self.prime_terms(qs)[0]

    def density_tail(self, X):
        # in u = log t, int_{log X}^inf e^{u/2 - y u^2} du = e^{1/16y}
        # sqrt(pi/y) / 2 erfc(sqrt(y) (log X - 1/4y)), completing the square
        y = self.y
        return (math.exp(1.0 / (16.0 * y)) * math.sqrt(math.pi / y) / 2.0
                * math.erfc(math.sqrt(y) * (math.log(X) - 1.0 / (4.0 * y))))

    def prime_tail_h(self, X):
        # e^u h(e^u) = u e^{g(u)} + u e^{-4 y u^2}, g(u) = u/2 - y u^2; as
        # u e^g = e^g / 4y - g' e^g / 2y, both parts integrate in closed form
        y, lx = self.y, math.log(X)
        h_X = lx * math.exp(-0.5 * lx - y * lx * lx) * (
            1.0 + math.exp(-0.5 * lx - 3.0 * y * lx * lx))
        integral_h = (self.density_tail(X) / (4.0 * y)
                      + math.exp(0.5 * lx - y * lx * lx) / (2.0 * y)
                      + math.exp(-4.0 * y * lx * lx) / (8.0 * y))
        return h_X, integral_h


EXPONENTIAL = Exponential()
gaussian = Gaussian


# ----------------------------------------------------------------------
# Zero-counting window
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HswWindow:
    T: float
    main_term: float
    error_budget: float

    @property
    def window(self) -> tuple:
        return (max(0.0, self.main_term - self.error_budget),
                self.main_term + self.error_budget)


def hsw_window(n_K: int, log_dK: float, T: float) -> HswWindow:
    """Two-sided window for N_K(T) from the explicit counting bound."""
    if T < 1.0:
        raise DomainError("window requires T >= 1")
    c, log_T = _counting_edge(n_K, log_dK, 1.0), math.log(T)
    return HswWindow(T=T, main_term=float((c[2] + c[3] * log_T) * T),
                     error_budget=float(c[0] + c[1] * log_T))


def _counting_edge(n_K, log_dK, sign):
    """The coefficients of 1, log t, t and t log t in main(t) + sign err(t),
    the explicit counting window's lower (sign -1) or upper (sign +1) edge
    for N_K(t): main(t) = (t/pi)(log d_K + n_K log(t/2 pi e)) and err(t) =
    0.228 (log d_K + n_K log t) + 23.108 n_K + 4.520."""
    return np.array([sign * (HSW_LOG_COEFF * log_dK + HSW_DEGREE_COEFF * n_K + HSW_CONST),
                     sign * HSW_LOG_COEFF * n_K,
                     (log_dK - n_K * math.log(2.0 * math.pi * math.e)) / math.pi,
                     n_K / math.pi])


def _crossing(fn, lo, hi=None):
    """Where fn, increasing, turns positive, between lo (fn <= 0) and hi (or
    the first 2^j lo with fn > 0), bisected until no double lies between."""
    if hi is None:
        hi = 2.0 * lo
        while fn(hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if fn(mid) > 0.0 else (mid, hi)
    return hi


def _tail_moments(a):
    """int_a^inf 4t/(1+t^2)^2 (1, log t, t, t log t) dt for a >= 1, with
    pi/2 - arctan a written as arctan(1/a) and Ti2(a) = Ti2(1/a) +
    (pi/2) log a, so that no term cancels at large a."""
    inv, log_a, d = 1.0 / a, math.log(a), 1.0 + a * a
    odd = math.atan(inv) + a / d
    return np.array([2.0 / d, 2.0 * log_a / d + math.log1p(inv * inv), 2.0 * odd,
                     2.0 * (log_a * odd + _ti2(inv) + math.atan(inv))])


_GL16 = np.polynomial.legendre.leggauss(16)


def _ti2(x):
    """Ti2(x) = int_0^x arctan(u)/u du, 0 < x <= 1: to 1/2 by its series
    sum (-1)^k x^{2k+1}/(2k+1)^2 up to the first term below 2^-54 of the sum;
    above by 16-point Gauss-Legendre on [0, x], whose error is at most
    (64/15) (x/2) M rho^-32/(rho^2 - 1) < 1.2e-20 (Trefethen, Approximation
    Theory and Approximation Practice, Thm 19.3): arctan(u)/u is analytic
    but at +-i, and below M = 1.46 on the ellipse rho = 4 about [0, 1]."""
    if x > 0.5:
        u = 0.5 * x * (_GL16[0] + 1.0)
        return 0.5 * x * float(_GL16[1] @ (np.arctan(u) / u))
    total, k, power = 0.0, 0, x
    while True:
        term = power / (2 * k + 1) ** 2
        total += -term if k % 2 else term
        if term < 2.0 ** -54 * total:
            return total
        k, power = k + 1, power * x * x


# ----------------------------------------------------------------------
# Archimedean integrals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArchimedeanIntegrals:
    sinh_integral: float    # int_0^inf (1-F)/(2 sinh(x/2)) dx
    cosh_integral: float    # int_0^inf (1-F)/(2 cosh(x/2)) dx
    f_cosh_integral: float  # 4 int_0^inf F cosh(x/2) dx


# Gauss-Kronrod 7-15 rule (Piessens et al., QUADPACK, 1983): the Kronrod
# abscissae in [0, 1), their 15-point weights, and the 7-point Gauss weights,
# 0 off the Gauss abscissae; _GK15 mirrors the rows onto (-1, 1).
_GK15_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
               0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
               0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
               0.207784955007898467600689403773245, 0.0)
_GK15_KRONROD = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_GK15_GAUSS = (0.0, 0.129484966168869693270611432679082,
               0.0, 0.279705391489276667901467771423780,
               0.0, 0.381830050505118944950369775488975,
               0.0, 0.417959183673469387755102040816327)
_GK15 = np.array([_GK15_NODES, _GK15_KRONROD, _GK15_GAUSS])
_GK15 = np.hstack((_GK15, _GK15[:, -2::-1] * [[-1.0], [1.0], [1.0]]))
_EPS = float(np.finfo(float).eps)


def _gk15(fn, a, b):
    """(integral, error estimate) of fn on [a, b] by the 7-15 rule, with
    QUADPACK's qk15 estimate: |K15 - G7| scaled against the spread of fn
    about its mean, and never below 50 eps of the integral of |fn|. fn takes
    the array of the 15 nodes and returns its values there."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f = fn(centre + half * _GK15[0])
    kronrod, gauss = _GK15[1:] @ f
    spread = _GK15[1] @ np.abs(f - 0.5 * kronrod) * abs(half)
    size = _GK15[1] @ np.abs(f) * abs(half)
    err = abs((kronrod - gauss) * half)
    if spread != 0.0 and err != 0.0:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    return float(kronrod * half), max(50.0 * _EPS * size, err)


def _quad(fn, a, b, tol=1e-12):
    """int_a^b fn by globally adaptive 7-15 Gauss-Kronrod: bisect the
    interval of largest error estimate until the summed estimate is within
    max(tol, 1e-11 |integral|) or 400 intervals are held. fn maps an array
    of nodes to an array of values, as in _gk15."""
    val, err = _gk15(fn, a, b)
    heap = [(-err, a, b, val)]
    while err > max(tol, 1e-11 * abs(val)) and len(heap) < 400:
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            v, e = _gk15(fn, x0, x1)
            heapq.heappush(heap, (-e, x0, x1, v))
        val = math.fsum(piece[3] for piece in heap)
        err = -sum(piece[0] for piece in heap)
    if not math.isfinite(val) or err > max(1e3 * tol, 1e-7 * abs(val) + 10 * tol):
        raise QuadratureFailureError(f"quadrature error estimate {err:.2e}")
    return val


@lru_cache(maxsize=64)
def archimedean_integrals(kind: Exponential | Gaussian) -> ArchimedeanIntegrals:
    """The three archimedean integrals of the kernel, cached by kernel.

    The exponential kernel's are (2, pi - 2, 16/3) and the Gaussian f-cosh
    integral is 2 e^{1/16y} sqrt(pi/y), all in closed form; the Gaussian
    sinh and cosh integrals come from _sinh_cosh_integrals.
    """
    return kind.integrals()


def archimedean_side(K: NumberField, kind: Exponential | Gaussian) -> dict:
    """The identity's archimedean side for the kernel, unnormalised, as the
    terms r1 (I_cosh - pi/2), n_K (I_sinh - gamma - log 8pi) and I_f: they
    sum to -(pi/2) r1 - (gamma + log 8pi) n_K + n_K I_sinh + r1 I_cosh + I_f.
    For the exponential kernel the first two are exactly -(2 - pi/2) r1 and
    -(gamma + log 8pi - 2) n_K."""
    arch = archimedean_integrals(kind)
    return {"r1_term": K.r1 * (arch.cosh_integral - math.pi / 2.0),
            "degree_term": K.n_K * (arch.sinh_integral - (EULER_GAMMA + LOG_8PI)),
            "f_cosh": arch.f_cosh_integral}


def _sinh_cosh_integrals(F):
    """int_0^inf (1-F)/(2 sinh(x/2)) dx and int_0^inf (1-F)/(2 cosh(x/2)) dx:
    by quadrature to 60; beyond, F is negligible and both denominators are
    about e^{x/2}, so each tail is 2 e^{-30}."""
    def sinh_term(x):
        # below 1e-8, (1-F)/x: both kernels give O(x) numerators
        return np.where(x < 1e-8, (1.0 - F(x)) / x,
                        (1.0 - F(x)) / (2.0 * np.sinh(x / 2.0)))

    tail = 2.0 * math.exp(-30.0)
    i_sinh = _quad(sinh_term, 0.0, 60.0) + tail
    i_cosh = _quad(lambda x: (1.0 - F(x)) / (2.0 * np.cosh(x / 2.0)), 0.0, 60.0)
    return i_sinh, i_cosh + tail


# ----------------------------------------------------------------------
# Prime side
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeSideResult:
    value: float          # truncated double sum over q <= X, m >= 1
    tail_bound: float     # rigorous bound via N_q <= n_K and psi(x) < 1.03883 x
    tail_estimate: float  # prime-counting estimate of the actual tail
    single_m: float       # the m = 1 terms alone, undoubled: single_m_prime_sum
    single_m_rounding: float  # bound on the rounding of single_m's summation

    @property
    def corrected(self) -> float:
        return self.value + self.tail_estimate


def pairwise_sum(terms):
    """np.sum(terms) and gamma_k sum |terms| (u = 2^-53, gamma_k = k u/(1 - k u)),
    which bounds its rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sec. 4.2) when no term passes more than k
    additions. numpy halves a contiguous array longer than 128, its first
    half a multiple of 8 long, and sums each block in 8 strided accumulators,
    a tree of depth 3 and at most 7 leftovers: 24 additions at most (14 + 3
    + 7 at 127 terms), so k = 24 + h for h halvings on the longest path."""
    n, k = len(terms), 24
    while n > 128:
        n, k = n - (n // 2 - n // 2 % 8), k + 1
    ku = k * 2.0 ** -53
    return float(np.sum(terms)), ku / (1.0 - ku) * float(np.sum(np.abs(terms)))


def _nonzero_counts(K: NumberField, X: int):
    """The prime powers q <= X with N_q(K) > 0 and their N_q log q: two
    read-only float arrays sliced from the pair K.state keeps for the
    largest X read, which is built from the override-free norm_counts."""
    if X < 2:
        raise DomainError("cutoff must be >= 2")
    state = K.state
    if X > state.prime_read_limit:
        q, n = norm_counts(K, X)
        qs = q[n > 0].astype(float)
        weights = n[n > 0] * np.log(qs)
        qs.flags.writeable = weights.flags.writeable = False
        state.prime_read, state.prime_read_limit = (qs, weights), X
    qs, weights = state.prime_read
    end = int(np.searchsorted(qs, X, side="right"))
    return qs[:end], weights[:end]


def prime_side(K: NumberField, kind: Exponential | Gaussian,
               X: int) -> PrimeSideResult:
    """2 sum_{q<=X} N_q(K) log q sum_m q^{-m/2} F(m log q), with tails.

    tail_bound uses N_q <= n_K and the Chebyshev bound psi(x) < 1.03883 x;
    tail_estimate replaces the prime-counting measure by its density
    (theta_K(x) ~ x), which is what the closure identities consume.
    single_m, the m = 1 sum, comes from the same per-q arrays.
    """
    qs, weights = _nonzero_counts(K, X)
    msum, single = kind.prime_terms(qs)
    return PrimeSideResult(2.0 * float(np.dot(weights, msum)),
                           kind.prime_tail_bound(K.n_K, X), 2.0 * kind.density_tail(X),
                           *pairwise_sum(weights * single))


def single_m_prime_sum(K: NumberField, kind: Exponential | Gaussian,
                       X: int) -> float:
    """sum_{q<=X} N_q log q q^{-1/2} F(log q): the prime side's m = 1
    terms alone, undoubled and without a tail: prime_side's single_m."""
    qs, weights = _nonzero_counts(K, X)
    return pairwise_sum(weights * kind.single(qs))[0]


def density_tail(kind: Exponential | Gaussian, X: int) -> float:
    """int_X^inf t^{-1/2} F(log t) dt: the m = 1 prime sum beyond X with
    N_q log q replaced by its density, in closed form for both kernels."""
    if X < 2:
        raise DomainError("cutoff must be >= 2")
    return kind.density_tail(X)


# ----------------------------------------------------------------------
# Identity ledgers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityLedger:
    kernel: str
    arithmetic_side: float
    archimedean_terms: dict
    prime_sum: float
    prime_tail_bound: float
    zero_side_located: float
    zero_side_bracket: tuple
    accepted: bool
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _identity(K: NumberField, zeros: ZeroList, kind: Exponential | Gaussian,
              ps: PrimeSideResult, scale: float, slack: float, notes: dict,
              failure: str) -> IdentityLedger:
    """Both kernels' identity: log d_K + archimedean_side - P against the
    located zero sum and the zeros above T, bracketed through the counting
    window and widened by the prime tail bound; every side divided by
    scale. A closure that misses by more than slack raises
    ClosureFailureError."""
    arithmetic = (sum(archimedean_side(K, kind).values(), K.log_abs_disc)
                  - ps.corrected) / scale
    located = zeros.kernel_sum(kind.phi_critical) / scale
    T, n_loc = max(zeros.T, 1.0), zeros.count_below(zeros.T)
    # by parts: sum_{|t|>T} phi = -phi(T) n_loc + int_T^inf -phi' N_K, with
    # N_K(t) at either edge of the window and never below n_loc
    tail_lo, tail_hi = (-kind.phi_critical(T) * n_loc + kind.zero_tail(
        _counting_edge(K.n_K, K.log_abs_disc, sign), float(n_loc), T) for sign in (-1.0, 1.0))
    bracket = (located + tail_lo / scale - ps.tail_bound / scale,
               located + tail_hi / scale + ps.tail_bound / scale)
    accepted = bracket[0] - slack <= arithmetic <= bracket[1] + slack
    ledger = IdentityLedger(
        kernel=kind.name,
        arithmetic_side=arithmetic,
        archimedean_terms=kind.archimedean_terms(K),
        prime_sum=ps.corrected / scale,
        prime_tail_bound=ps.tail_bound / scale,
        zero_side_located=located,
        zero_side_bracket=bracket,
        accepted=accepted,
        notes=notes,
    )
    if not accepted:
        raise ClosureFailureError(
            f"{failure}: {arithmetic:.6f} outside "
            f"[{bracket[0]:.6f}, {bracket[1]:.6f}]",
            payload=ledger.to_dict())
    return ledger


def identity_exponential(K: NumberField, zeros: ZeroList, X: int) -> IdentityLedger:
    """Exponential-kernel identity: arithmetic side vs bracketed zero sum.

    arithmetic = log d_K - (2 - pi/2) r1 - (gamma + log 8pi - 2) n_K
                 + 16/3 - prime side (full geometric m-sum).

    An empty zero list at any T degenerates gracefully: the bracket is the
    full counting-window tail. Nonempty lists must reach T >= 2.
    """
    if zeros.T < 2.0 and zeros.ordinates:
        raise DomainError("identity needs zeros located to T >= 2")
    ps = prime_side(K, EXPONENTIAL, X)
    # single-term rendering of the prime sum, kept as a labeled diagnostic
    single = 2.0 * ps.single_m
    return _identity(K, zeros, EXPONENTIAL, ps, 1, 1e-6,
                     {"prime_sum_truncated": ps.value,
                      "prime_tail_estimate": ps.tail_estimate,
                      "prime_sum_single_m": single,
                      "m_sum_vs_single_gap": ps.value - single},
                     "exponential identity failed")


def identity_gaussian(K: NumberField, zeros: ZeroList, y: float,
                      X: int) -> IdentityLedger:
    """Gaussian-kernel identity at parameter y, all integrals exact.

    log d_K/n_K = pi r1/(2 n_K) + (gamma + log 8pi) - exact integrals
                  - (2 sqrt(pi)/n_K) e^{1/16y}/sqrt(y) + zero term
                  + prime side / n_K, with the zero term bracketed.
    """
    kind = gaussian(y)
    if zeros.T < 2.0:
        raise DomainError("identity needs zeros located to T >= 2")
    ps = prime_side(K, kind, X)
    return _identity(K, zeros, kind, ps, K.n_K, 1e-9,
                     {"y": y, "prime_tail_estimate": ps.tail_estimate},
                     f"gaussian identity failed at y={y}")


# ----------------------------------------------------------------------
# Auxiliary functions for the discriminant bound constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuxFunctions:
    g: float
    G_at_inv_sqrt_y: float
    F1: float
    F2_integral: float
    F2: float   # F2_integral plus the HSW_CONST part of the zero tail g leaves out
    H: float


@lru_cache(maxsize=64)
def aux_functions(y: float) -> AuxFunctions:
    """g, G, F1, the field-independent F2 integral, and H at parameter y,
    cached by y."""
    kind = gaussian(y)
    # g is the n_K coefficient of the zero tail above t = 2 through the
    # counting window's lower edge, less its constant HSW_CONST
    g_val = kind.zero_tail(_counting_edge(1, 0.0, -1.0) + [HSW_CONST, 0.0, 0.0, 0.0],
                           -math.inf, 2.0)
    G_val = math.erfc(1.0 / math.sqrt(y))
    f1 = (2.0 / math.sqrt(math.pi * y) * math.exp(-1.0 / y)
          + G_val
          - HSW_LOG_COEFF * math.sqrt(math.pi / y) * math.exp(-1.0 / y))
    arch = archimedean_integrals(kind)
    return AuxFunctions(g=g_val, G_at_inv_sqrt_y=G_val, F1=f1,
                        F2_integral=arch.f_cosh_integral,
                        F2=arch.f_cosh_integral + HSW_CONST * kind.phi_critical(2.0),
                        H=g_val - arch.sinh_integral)
