"""Explicit-formula identities for the completed Dedekind zeta function.

Both test kernels from the height-bound analysis are supported: the
exponential kernel F(x) = e^{-|x|} (phi(1/2+it) = 2/(1+t^2)) and the
Gaussian kernel F(x) = e^{-y x^2} (phi(1/2+it) = sqrt(pi/y) e^{-t^2/4y}).
Asymptotic O(y)/o(1) shortcuts are replaced by exactly evaluated integrals
so the identities close at finite parameters; zero-sum tails are bracketed
two-sidedly through the explicit counting window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field

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


@dataclass(frozen=True)
class TestFunctionKind:
    """Which even test function drives the identity."""

    kind: str  # "exponential" | "gaussian"
    y: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exponential", "gaussian"):
            raise DomainError(f"unknown kernel {self.kind!r}")
        if self.kind == "gaussian" and not 0.0 < self.y <= 1.0:
            raise DomainError("gaussian kernel needs y in (0, 1]")

    def F(self, x: float) -> float:
        if self.kind == "exponential":
            return math.exp(-abs(x))
        return math.exp(-self.y * x * x)

    def phi_critical(self, t: float) -> float:
        """phi(1/2 + it), the zero-side kernel."""
        if self.kind == "exponential":
            return 2.0 / (1.0 + t * t)
        return math.sqrt(math.pi / self.y) * math.exp(-t * t / (4.0 * self.y))


EXPONENTIAL = TestFunctionKind("exponential")


def gaussian(y: float) -> TestFunctionKind:
    return TestFunctionKind("gaussian", y)


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
    return HswWindow(T=T, main_term=_counting_main(n_K, log_dK, T),
                     error_budget=_counting_err(n_K, log_dK, T))


def _counting_main(n_K, log_dK, t):
    return (t / math.pi) * (log_dK + n_K * math.log(t / (2.0 * math.pi * math.e)))


def _counting_err(n_K, log_dK, t):
    return (HSW_LOG_COEFF * (log_dK + n_K * math.log(t))
            + HSW_DEGREE_COEFF * n_K + HSW_CONST)


# ----------------------------------------------------------------------
# Archimedean integrals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArchimedeanIntegrals:
    sinh_integral: float    # int_0^inf (1-F)/(2 sinh(x/2)) dx
    cosh_integral: float    # int_0^inf (1-F)/(2 cosh(x/2)) dx
    f_cosh_integral: float  # 4 int_0^inf F cosh(x/2) dx

    def weighted(self, n_K: int, r1: int) -> float:
        return (n_K * self.sinh_integral + r1 * self.cosh_integral
                + self.f_cosh_integral)


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


def _gk15(fn, a, b):
    """(integral, error estimate) of fn on [a, b] by the 7-15 rule, with
    QUADPACK's qk15 estimate: |K15 - G7| scaled against the spread of fn
    about its mean, and never below 50 eps of the integral of |fn|."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f = np.array([fn(centre + half * x) for x in _GK15[0].tolist()])
    kronrod, gauss = _GK15[1:] @ f
    spread = _GK15[1] @ np.abs(f - 0.5 * kronrod) * abs(half)
    size = _GK15[1] @ np.abs(f) * abs(half)
    err = abs((kronrod - gauss) * half)
    if spread != 0.0 and err != 0.0:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    return float(kronrod * half), max(50.0 * np.finfo(float).eps * size, err)


def _quad(fn, a, b, tol=1e-12):
    """int_a^b fn by globally adaptive 7-15 Gauss-Kronrod: bisect the
    interval of largest error estimate until the summed estimate is within
    max(tol, 1e-11 |integral|) or 400 intervals are held. For b = inf the
    substitution x = a + (1 - t) / t maps the integral onto t in (0, 1]."""
    if b == math.inf:
        g, a, b = (lambda t, a=a: fn(a + (1.0 - t) / t) / (t * t)), 0.0, 1.0
    else:
        g = fn
    val, err = _gk15(g, a, b)
    heap = [(-err, a, b, val)]
    while err > max(tol, 1e-11 * abs(val)) and len(heap) < 400:
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for x0, x1 in ((lo, mid), (mid, hi)):
            v, e = _gk15(g, x0, x1)
            heapq.heappush(heap, (-e, x0, x1, v))
        val = math.fsum(piece[3] for piece in heap)
        err = -sum(piece[0] for piece in heap)
    if not math.isfinite(val) or err > max(1e3 * tol, 1e-7 * abs(val) + 10 * tol):
        raise QuadratureFailureError(f"quadrature error estimate {err:.2e}")
    return val


def archimedean_integrals(kind: TestFunctionKind, n_K: int = 1,
                          r1: int = 0) -> ArchimedeanIntegrals:
    """The three archimedean integrals, gated against their closed forms.

    Exponential kernel must reproduce (2, pi-2, 16/3) and the Gaussian
    f-cosh integral must match 2 e^{1/16y} sqrt(pi/y), both to 1e-10.
    """
    F = kind.F

    def sinh_term(x):
        if x < 1e-8:
            # (1-F)/x -> F'(0)-ish limit; both kernels give O(x) numerators
            return (1.0 - F(x)) / x if x > 0 else 0.0
        return (1.0 - F(x)) / (2.0 * math.sinh(x / 2.0))

    i_sinh = _quad(sinh_term, 0.0, 60.0) + _tail_one_over_sinh(60.0)
    i_cosh = _quad(lambda x: (1.0 - F(x)) / (2.0 * math.cosh(x / 2.0)), 0.0, 60.0)
    i_cosh += _tail_one_over_sinh(60.0)
    if kind.kind == "gaussian":
        # e^{-y x^2} cosh(x/2) peaks near x = 1/(4y) with width ~ 1/sqrt(y)
        peak = 1.0 / (4.0 * kind.y)
        upper = peak + 7.0 / math.sqrt(kind.y) + 20.0
        i_f = 4.0 * _quad(lambda x: F(x) * math.cosh(x / 2.0), 0.0, upper)
    else:
        i_f = 4.0 * _quad(lambda x: F(x) * math.cosh(x / 2.0), 0.0, 80.0)
    if kind.kind == "exponential":
        closed = (2.0, math.pi - 2.0, 16.0 / 3.0)
        for got, want in zip((i_sinh, i_cosh, i_f), closed):
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                raise QuadratureFailureError(
                    f"exponential integral {got!r} misses closed form {want!r}")
        i_sinh, i_cosh, i_f = closed
    else:
        closed_f = 2.0 * math.exp(1.0 / (16.0 * kind.y)) * math.sqrt(math.pi / kind.y)
        if abs(i_f / closed_f - 1.0) > 1e-10:
            raise QuadratureFailureError(
                f"gaussian f-cosh integral {i_f!r} misses {closed_f!r}")
        i_f = closed_f
    return ArchimedeanIntegrals(i_sinh, i_cosh, i_f)


def _tail_one_over_sinh(X):
    # beyond X, F is negligible and 1/(2 sinh(x/2)) ~ e^{-x/2}
    return 2.0 * math.exp(-X / 2.0)


# ----------------------------------------------------------------------
# Prime side
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeSideResult:
    value: float          # truncated double sum over q <= X, m >= 1
    tail_bound: float     # rigorous bound via N_q <= n_K and psi(x) < 1.03883 x
    tail_estimate: float  # prime-counting estimate of the actual tail

    @property
    def corrected(self) -> float:
        return self.value + self.tail_estimate


def _kernel_msum(kind: TestFunctionKind, qs: np.ndarray) -> np.ndarray:
    """sum_{m <= 400} q^{-m/2} F(m log q) per q, vectorized. The Gaussian
    terms fall in m, so a q leaves once its term is at most 2^-54 of its
    total: under half an ulp, it and every later term leave the total as is."""
    logq = np.log(qs)
    if kind.kind == "exponential":
        return 1.0 / (qs ** 1.5 - 1.0)
    total = np.zeros_like(logq)
    idx, active = np.arange(len(logq)), logq
    for m in range(1, 401):
        term = np.exp(-0.5 * m * active - kind.y * (m * active) ** 2)
        total[idx] += term
        keep = term > 2.0 ** -54 * total[idx]
        idx, active = idx[keep], active[keep]
        if not len(idx):
            break
    return total


def _nonzero_counts(K: NumberField, X: int):
    """The prime powers q <= X with N_q(K) > 0, and those N_q, as floats."""
    if X < 2:
        raise DomainError("cutoff must be >= 2")
    q, n = norm_counts(K, X)
    keep = n > 0
    return q[keep].astype(float), n[keep].astype(float)


def prime_side(K: NumberField, kind: TestFunctionKind, X: int) -> PrimeSideResult:
    """2 sum_{q<=X} N_q(K) log q sum_m q^{-m/2} F(m log q), with tails.

    tail_bound uses N_q <= n_K and the Chebyshev bound psi(x) < 1.03883 x;
    tail_estimate replaces the prime-counting measure by its density
    (theta_K(x) ~ x), which is what the closure identities consume.
    """
    qs, counts = _nonzero_counts(K, X)
    value = (2.0 * float(np.dot(counts * np.log(qs), _kernel_msum(kind, qs)))
             if len(qs) else 0.0)
    tail_bound, tail_estimate = _prime_tails(K.n_K, kind, X)
    return PrimeSideResult(value=value, tail_bound=tail_bound,
                           tail_estimate=tail_estimate)


def single_m_prime_sum(K: NumberField, kind: TestFunctionKind, X: int) -> float:
    """sum_{q<=X} N_q log q q^{-1/2} F(log q): the prime side's m = 1
    terms alone, undoubled and without a tail."""
    qs, counts = _nonzero_counts(K, X)
    weighted = counts * np.log(qs)
    if kind.kind == "exponential":
        terms = weighted / qs ** 1.5
    else:
        terms = weighted / np.sqrt(qs) * np.exp(-kind.y * np.log(qs) ** 2)
    return math.fsum(terms.tolist())


def density_tail(kind: TestFunctionKind, X: int) -> float:
    """int_X^inf t^{-1/2} F(log t) dt: the m = 1 prime sum beyond X with
    N_q log q replaced by its density. For the Gaussian, in u = log t,
    int_{log X}^inf e^{u/2 - y u^2} du = e^{1/16y} sqrt(pi/y) / 2
    erfc(sqrt(y) (log X - 1/4y)), completing the square."""
    if X < 2:
        raise DomainError("cutoff must be >= 2")
    if kind.kind == "exponential":
        return 2.0 / math.sqrt(X)
    y = kind.y
    return (math.exp(1.0 / (16.0 * y)) * math.sqrt(math.pi / y) / 2.0
            * math.erfc(math.sqrt(y) * (math.log(X) - 1.0 / (4.0 * y))))


def _prime_tails(n_K: int, kind: TestFunctionKind, X: int):
    # s(t): the per-prime factor log t * (m-sum), m = 1 dominating beyond X.
    # The integrals run in u = log t, where the integrands are smooth and
    # effectively compactly supported; the Gaussian's has a closed form.
    lx = math.log(X)
    if kind.kind == "exponential":
        def h(t):
            return math.log(t) / (t ** 1.5 - 1.0)
        integral_h = _quad(lambda u: u * math.exp(u) / (math.exp(1.5 * u) - 1.0),
                           lx, lx + 300.0, tol=1e-13)
    else:
        y = kind.y

        def h(t):
            u = math.log(t)
            return u * math.exp(-0.5 * u - y * u * u) * (
                1.0 + math.exp(-0.5 * u - 3.0 * y * u * u))
        # e^u h(e^u) = u e^{g(u)} + u e^{-4 y u^2}, g(u) = u/2 - y u^2; as
        # u e^g = e^g / 4y - g' e^g / 2y, both parts integrate in closed form
        integral_h = (density_tail(kind, X) / (4.0 * y)
                      + math.exp(0.5 * lx - y * lx * lx) / (2.0 * y)
                      + math.exp(-4.0 * y * lx * lx) / (8.0 * y))
    # sum_{q > X} Lambda-weighted h against dpsi, bounded by parts
    tail_bound = 2.0 * n_K * (PSI_UPPER * (X * h(X) + integral_h)
                              - PSI_LOWER * X * h(X))
    tail_estimate = 2.0 * density_tail(kind, X)
    return tail_bound, tail_estimate


# ----------------------------------------------------------------------
# Zero-side tail bracketing
# ----------------------------------------------------------------------

def _zero_tail_bracket(K: NumberField, zl: ZeroList, kernel, neg_deriv,
                       t_cap=None):
    """Bracket sum_{|t|>T} kernel(t) through the counting window."""
    T = max(zl.T, 1.0)
    n_loc = zl.count_below(zl.T)
    n_K, logd = K.n_K, K.log_abs_disc

    def n_lower(t):
        return max(float(n_loc),
                   _counting_main(n_K, logd, t) - _counting_err(n_K, logd, t))

    def n_upper(t):
        return max(float(n_loc), _counting_main(n_K, logd, t)
                   + _counting_err(n_K, logd, t))

    boundary = -kernel(T) * n_loc
    if t_cap is not None:
        # compact effective support: integrate directly on [T, t_cap]
        def push(counting):
            return _quad(lambda t: neg_deriv(t) * counting(t), T, t_cap,
                         tol=1e-13)
    else:
        # integrate in u = log t; integrands decay at least like e^{-u} poly(u)
        def push(counting):
            return _quad(lambda u: neg_deriv(math.exp(u)) * counting(math.exp(u))
                         * math.exp(u), math.log(T), math.log(T) + 120.0,
                         tol=1e-11)

    lo = boundary + push(n_lower)
    hi = boundary + push(n_upper)
    return lo, hi


def _located_kernel_sum(zl: ZeroList, kernel):
    terms = [2.0 * kernel(t) for t in zl.ordinates]
    if zl.zero_at_origin:
        terms.append(kernel(0.0))
    return math.fsum(terms)


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


def identity_exponential(K: NumberField, zeros: ZeroList, X: int) -> IdentityLedger:
    """Exponential-kernel identity: arithmetic side vs bracketed zero sum.

    arithmetic = log d_K - (2 - pi/2) r1 - (gamma + log 8pi - 2) n_K
                 + 16/3 - prime side (full geometric m-sum).

    An empty zero list at any T degenerates gracefully: the bracket is the
    full counting-window tail. Nonempty lists must reach T >= 2.
    """
    if zeros.T < 2.0 and zeros.ordinates:
        raise DomainError("identity needs zeros located to T >= 2")
    arch = archimedean_integrals(EXPONENTIAL, K.n_K, K.r1)
    ps = prime_side(K, EXPONENTIAL, X)
    arithmetic = (K.log_abs_disc
                  - (2.0 - math.pi / 2.0) * K.r1
                  - (EULER_GAMMA + LOG_8PI - 2.0) * K.n_K
                  + 16.0 / 3.0
                  - ps.corrected)
    kernel = EXPONENTIAL.phi_critical
    located = _located_kernel_sum(zeros, kernel)
    tail_lo, tail_hi = _zero_tail_bracket(
        K, zeros, kernel, lambda t: 4.0 * t / (1.0 + t * t) ** 2)
    bracket = (located + tail_lo - ps.tail_bound,
               located + tail_hi + ps.tail_bound)
    accepted = bracket[0] - 1e-6 <= arithmetic <= bracket[1] + 1e-6
    # single-term rendering of the prime sum, kept as a labeled diagnostic
    single = 2.0 * single_m_prime_sum(K, EXPONENTIAL, X)
    ledger = IdentityLedger(
        kernel="exponential",
        arithmetic_side=arithmetic,
        archimedean_terms={
            "log_dK": K.log_abs_disc,
            "r1_term": -(2.0 - math.pi / 2.0) * K.r1,
            "degree_term": -(EULER_GAMMA + LOG_8PI - 2.0) * K.n_K,
            "f_cosh": 16.0 / 3.0,
            "sinh_integral": arch.sinh_integral,
            "cosh_integral": arch.cosh_integral,
        },
        prime_sum=ps.corrected,
        prime_tail_bound=ps.tail_bound,
        zero_side_located=located,
        zero_side_bracket=bracket,
        accepted=accepted,
        notes={"prime_sum_truncated": ps.value,
               "prime_tail_estimate": ps.tail_estimate,
               "prime_sum_single_m": single,
               "m_sum_vs_single_gap": ps.value - single},
    )
    if not accepted:
        raise ClosureFailureError(
            f"exponential identity failed: {arithmetic:.6f} outside "
            f"[{bracket[0]:.6f}, {bracket[1]:.6f}]",
            payload=ledger.to_dict())
    return ledger


def identity_gaussian(K: NumberField, zeros: ZeroList, y: float,
                      X: int) -> IdentityLedger:
    """Gaussian-kernel identity at parameter y, all integrals exact.

    log d_K/n_K = pi r1/(2 n_K) + (gamma + log 8pi) - exact integrals
                  - (2 sqrt(pi)/n_K) e^{1/16y}/sqrt(y) + zero term
                  + prime side / n_K, with the zero term bracketed.
    """
    if not 0.0 < y <= 1.0:
        raise DomainError("y must lie in (0, 1]")
    if zeros.T < 2.0:
        raise DomainError("identity needs zeros located to T >= 2")
    kind = gaussian(y)
    arch = archimedean_integrals(kind, K.n_K, K.r1)
    ps = prime_side(K, kind, X)
    n = K.n_K
    arithmetic = (K.log_abs_disc / n
                  - math.pi * K.r1 / (2.0 * n)
                  - (EULER_GAMMA + LOG_8PI)
                  + arch.sinh_integral
                  + (K.r1 / n) * arch.cosh_integral
                  + arch.f_cosh_integral / n
                  - ps.corrected / n)
    kernel = kind.phi_critical
    located = _located_kernel_sum(zeros, kernel) / n

    def neg_deriv(t):
        return math.sqrt(math.pi / y) * (t / (2.0 * y)) * math.exp(-t * t / (4.0 * y))

    t_cap = zeros.T + math.sqrt(4.0 * y * 250.0) + 5.0
    tail_lo, tail_hi = _zero_tail_bracket(K, zeros, kernel, neg_deriv, t_cap)
    bracket = (located + tail_lo / n - ps.tail_bound / n,
               located + tail_hi / n + ps.tail_bound / n)
    accepted = bracket[0] - 1e-9 <= arithmetic <= bracket[1] + 1e-9
    ledger = IdentityLedger(
        kernel=f"gaussian(y={y})",
        arithmetic_side=arithmetic,
        archimedean_terms={
            "log_dK_over_n": K.log_abs_disc / n,
            "r1_term": -math.pi * K.r1 / (2.0 * n),
            "euler_log8pi": -(EULER_GAMMA + LOG_8PI),
            "sinh_integral": arch.sinh_integral,
            "cosh_integral_scaled": (K.r1 / n) * arch.cosh_integral,
            "f_cosh_over_n": arch.f_cosh_integral / n,
        },
        prime_sum=ps.corrected / n,
        prime_tail_bound=ps.tail_bound / n,
        zero_side_located=located,
        zero_side_bracket=bracket,
        accepted=accepted,
        notes={"y": y, "prime_tail_estimate": ps.tail_estimate},
    )
    if not accepted:
        raise ClosureFailureError(
            f"gaussian identity failed at y={y}: {arithmetic:.6f} outside "
            f"[{bracket[0]:.6f}, {bracket[1]:.6f}]",
            payload=ledger.to_dict())
    return ledger


# ----------------------------------------------------------------------
# Auxiliary functions for the discriminant bound constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuxFunctions:
    g: float
    G_at_inv_sqrt_y: float
    F1: float
    F2_integral: float
    H: float


def aux_functions(y: float) -> AuxFunctions:
    """g, G, F1, the field-independent F2 integral, and H at parameter y."""
    if not 0.0 < y <= 1.0:
        raise DomainError("y must lie in (0, 1]")
    pref = 1.0 / (2.0 * math.sqrt(math.pi) * y ** 1.5)
    kern = lambda t: math.exp(-t * t / (4.0 * y))
    g_val = pref * (
        _quad(lambda t: t * t * kern(t) * math.log(t), 2.0, np.inf)
        - math.log(2.0 * math.pi * math.e) * _quad(lambda t: t * t * kern(t), 2.0, np.inf)
        - HSW_LOG_COEFF * math.pi * _quad(lambda t: t * kern(t) * math.log(t), 2.0, np.inf)
        - HSW_DEGREE_COEFF * math.pi * _quad(lambda t: t * kern(t), 2.0, np.inf))
    G_val = math.erfc(1.0 / math.sqrt(y))
    f1 = (2.0 / math.sqrt(math.pi * y) * math.exp(-1.0 / y)
          + G_val
          - HSW_LOG_COEFF * math.sqrt(math.pi / y) * math.exp(-1.0 / y))
    f2 = 2.0 * math.sqrt(math.pi / y) * math.exp(1.0 / (16.0 * y))
    i_sinh = archimedean_integrals(gaussian(y)).sinh_integral
    return AuxFunctions(g=g_val, G_at_inv_sqrt_y=G_val, F1=f1,
                        F2_integral=f2, H=g_val - i_sinh)
