"""Exact and floating-point algebra on integer polynomials.

Polynomials are immutable coefficient tuples in ascending degree order.
Everything exact (discriminants, Sturm counts, cyclotomy) runs over Python
integers; root finding is binary64 Aberth-Ehrlich with Newton polish.
"""

from __future__ import annotations

import ast
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NonConvergenceError, ZeroPolynomialError

ABERTH_ITERATION_CAP = 200


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coefficients[k]`` multiplies x**k."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs or coeffs[-1] == 0:
            raise ZeroPolynomialError("zero polynomial or unnormalized coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coefficients(cls, coeffs) -> "IntPolynomial":
        """Build from any coefficient iterable, trimming trailing zeros."""
        coeffs = trim([int(c) for c in coeffs])
        if not coeffs:
            raise ZeroPolynomialError("zero polynomial")
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> int:
        return self.coefficients[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            raise ZeroPolynomialError("derivative of a constant is zero")
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coefficients) if k))

    def content(self) -> int:
        g = 0
        for c in self.coefficients:
            g = math.gcd(g, c)
        return g

    def text(self) -> str:
        """Human-readable expression in x (ascending terms suppressed)."""
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            elif k == 1:
                term = "x" if abs(c) == 1 else f"{abs(c)}*x"
            else:
                term = f"x^{k}" if abs(c) == 1 else f"{abs(c)}*x^{k}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + term)
        return "".join(parts)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def trim(a):
    """Drop trailing zero coefficients of the list a, in place; returns a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a, b):
    """Quotient and remainder of Fraction lists a / b over Q, both trimmed;
    b must have a nonzero leading coefficient."""
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        factor = r[shift + len(b) - 1] / b[-1]
        q[shift] = factor
        if factor:
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
    return trim(q), trim(r[:len(b) - 1])


def poly_divmod_exact(f: IntPolynomial, g: IntPolynomial):
    """Quotient/remainder over Q, requiring both to land back in Z[x]."""
    q, r = _divmod([Fraction(c) for c in f.coefficients],
                   [Fraction(c) for c in g.coefficients])
    if any(c.denominator != 1 for c in q + r):
        raise ValueError("division does not stay integral")
    return [int(c) for c in q], [int(c) for c in r]


_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Add, ast.Sub, ast.Mult, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def _expr_to_coeffs(node):
    """Recursively evaluate an AST node to a coefficient list."""
    if isinstance(node, ast.Expression):
        return _expr_to_coeffs(node.body)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int):
            raise SyntaxError("only integer literals are allowed")
        return [node.value]
    if isinstance(node, ast.Name):
        if node.id != "x":
            raise SyntaxError(f"unknown variable {node.id!r}; use x")
        return [0, 1]
    if isinstance(node, ast.UnaryOp):
        inner = _expr_to_coeffs(node.operand)
        if isinstance(node.op, ast.USub):
            return [-c for c in inner]
        if isinstance(node.op, ast.UAdd):
            return inner
        raise SyntaxError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _expr_to_coeffs(node.left)
            if not (isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int) and node.right.value >= 0):
                raise SyntaxError("exponent must be a nonnegative integer literal")
            out = [1]
            for _ in range(node.right.value):
                out = _mul(out, base)
            return out
        left = _expr_to_coeffs(node.left)
        right = _expr_to_coeffs(node.right)
        if isinstance(node.op, ast.Add):
            out = [0] * max(len(left), len(right))
            for i, c in enumerate(left):
                out[i] += c
            for i, c in enumerate(right):
                out[i] += c
            return out
        if isinstance(node.op, ast.Sub):
            out = [0] * max(len(left), len(right))
            for i, c in enumerate(left):
                out[i] += c
            for i, c in enumerate(right):
                out[i] -= c
            return out
        if isinstance(node.op, ast.Mult):
            return _mul(left, right)
        raise SyntaxError("unsupported binary operator")
    raise SyntaxError(f"unsupported syntax element {type(node).__name__}")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse a comma-separated coefficient list or an expression in x.

    Grammar: ``poly := csv | expr`` with csv = ascending integers and expr
    over the variable x using + - * ^ and integer literals.
    """
    text = text.strip()
    if not text:
        raise SyntaxError("empty polynomial text")
    if "," in text:
        try:
            coeffs = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise SyntaxError(f"bad coefficient list: {exc}") from None
        if not any(coeffs):
            raise ZeroPolynomialError("zero polynomial")
        return IntPolynomial.from_coefficients(coeffs)
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise SyntaxError(f"cannot parse polynomial {text!r}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise SyntaxError(f"disallowed syntax in {text!r}: {type(node).__name__}")
    coeffs = _expr_to_coeffs(tree)
    if not any(coeffs):
        raise ZeroPolynomialError("zero polynomial")
    return IntPolynomial.from_coefficients(coeffs)


# ----------------------------------------------------------------------
# Exact resultants and discriminants
# ----------------------------------------------------------------------

def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Exact Res(f, g) by expansion against the roots via Euclid over Q.

    Fraction-based Euclidean chain; coefficient growth is harmless at the
    desk-scale degrees this package handles.
    """
    a = [Fraction(c) for c in f.coefficients]
    b = [Fraction(c) for c in g.coefficients]
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            res *= b[0] ** da
            break
        if da < db:
            a, b = b, a
            if da % 2 == 1 and db % 2 == 1:
                res = -res
            continue
        r = _divmod(a, b)[1]
        if not r:
            return 0
        dr = len(r) - 1
        res *= b[-1] ** (da - dr)
        if da % 2 == 1 and db % 2 == 1:
            res = -res
        a, b = b, r
    assert res.denominator == 1
    return int(res)


def discriminant(f: IntPolynomial) -> int:
    """Exact D(f) = (-1)^{n(n-1)/2} Res(f, f') / lc(f); degree 1 gives 1."""
    n = f.degree
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    if n == 1:
        return 1
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    d, rem = divmod(sign * res, f.leading)
    assert rem == 0
    return d


# ----------------------------------------------------------------------
# Exact real-root counting (Sturm) and squarefree decomposition over Q
# ----------------------------------------------------------------------

def sturm_real_root_count(f: IntPolynomial) -> int:
    """Number of distinct real roots, exactly."""
    if f.degree == 0:
        return 0
    chain = [[Fraction(c) for c in f.coefficients],
             [Fraction(k * c) for k, c in enumerate(f.coefficients) if k]]
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0] != 0):
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
        if len(chain[-1]) == 1:
            break

    def sign_changes(at_infinity):
        signs = []
        for poly in chain:
            if not poly:
                continue
            lead = poly[-1]
            deg = len(poly) - 1
            s = lead if at_infinity > 0 else lead * (-1) ** deg
            if s:
                signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return sign_changes(-1) - sign_changes(+1)


def squarefree_part(f: IntPolynomial):
    """(g, multiplicity list) with g squarefree; exact over Q.

    Returns the squarefree factorization as a list of (factor, k) with
    f = lc * prod factor_i^k (factors primitive with positive leading term).
    """
    work = [Fraction(c) for c in f.coefficients]
    der = [Fraction(k) * c for k, c in enumerate(work) if k]
    g = _frac_gcd(work, der)
    if len(g) == 1:
        return [(IntPolynomial.from_coefficients(_primitive_int(work)), 1)]
    out = []
    w = _divmod(work, g)[0]
    k = 1
    while len(w) > 1:
        y = _frac_gcd(w, g)
        piece = _divmod(w, y)[0]
        if len(piece) > 1:
            out.append((IntPolynomial.from_coefficients(_primitive_int(piece)), k))
        g = _divmod(g, y)[0]
        w = y
        k += 1
    return out


def _frac_gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    lead = a[-1]
    return [c / lead for c in a]


def _primitive_int(fracs):
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = math.gcd(*ints) or 1
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


# ----------------------------------------------------------------------
# Aberth-Ehrlich simultaneous root refinement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Complex roots with multiplicities; residuals checked against tolerance."""

    roots: tuple
    multiplicities: tuple
    tolerance: float


def _horner_with_scale(coeffs, z):
    """f(z) plus the backward-error scale sum |a_i| |z|^i."""
    acc = 0j
    scale = 0.0
    az = abs(z)
    power = 1.0
    for c in coeffs:
        scale += abs(c) * power
        power *= az
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc, scale


def complex_roots(f: IntPolynomial, tol: float = 1e-12) -> RootSet:
    """All complex roots by Aberth-Ehrlich from a perturbed initial circle.

    Multiple roots are handled by exact squarefree decomposition first, so
    the simultaneous iteration only ever sees simple roots. Deterministic
    given (f, tol).
    """
    if f.degree < 1:
        raise DomainError("need degree >= 1")
    if not (1e-14 <= tol <= 1e-6):
        raise DomainError("tol must lie in [1e-14, 1e-6]")
    all_roots = []
    all_mults = []
    for factor, mult in squarefree_part(f):
        if factor.degree == 0:
            continue
        for root in _aberth_simple(factor, tol):
            all_roots.append(root)
            all_mults.append(mult)
    order = sorted(range(len(all_roots)), key=lambda i: (all_roots[i].real, all_roots[i].imag))
    roots = tuple(all_roots[i] for i in order)
    mults = tuple(all_mults[i] for i in order)
    assert sum(mults) == f.degree
    return RootSet(roots=roots, multiplicities=mults, tolerance=tol)


def _aberth_simple(f: IntPolynomial, tol: float):
    n = f.degree
    coeffs = [float(c) for c in f.coefficients]
    lead = coeffs[-1]
    if n == 1:
        return [complex(-coeffs[0] / coeffs[1], 0.0)]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    z = [radius * cmath.exp(2j * math.pi * (k + 0.25) / n) * (1 + 1e-4 * k)
         for k in range(n)]
    dcoeffs = [k * c for k, c in enumerate(coeffs) if k]

    def fval(x):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def dval(x):
        acc = 0j
        for c in reversed(dcoeffs):
            acc = acc * x + c
        return acc

    for _ in range(ABERTH_ITERATION_CAP):
        converged = True
        for k in range(n):
            fk = fval(z[k])
            _, scale = _horner_with_scale(coeffs, z[k])
            if abs(fk) > tol * scale:
                converged = False
            dk = dval(z[k])
            if dk == 0:
                z[k] += tol + tol * 1j
                converged = False
                continue
            newton = fk / dk
            accum = sum(1.0 / (z[k] - z[j]) for j in range(n) if j != k)
            denom = 1.0 - newton * accum
            step = newton / denom if denom != 0 else newton
            z[k] = z[k] - step
        if converged:
            break
    else:
        raise NonConvergenceError(
            f"Aberth iteration cap {ABERTH_ITERATION_CAP} hit for {f.text()}")

    # Newton polish, then snap conjugate structure for real polynomials.
    for k in range(n):
        for _ in range(3):
            fk, dk = fval(z[k]), dval(z[k])
            if dk == 0:
                break
            z[k] = z[k] - fk / dk
        if abs(z[k].imag) < 1e-12 * (1.0 + abs(z[k])):
            z[k] = complex(z[k].real, 0.0)
    for k in range(n):
        fk, scale = _horner_with_scale(coeffs, z[k])
        if abs(fk) > tol * scale:
            raise NonConvergenceError(
                f"residual {abs(fk):.3e} above tolerance for {f.text()}")
    return z


# ----------------------------------------------------------------------
# Heights
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HeightProfile:
    """Mahler measure, Weil height (nats per unit degree), and house."""

    mahler: float
    weil_height: float
    house: float


def height_profile(f: IntPolynomial) -> HeightProfile:
    """Mahler measure |a_n| prod max(1,|root|), height log M / deg, house.

    Irreducibility is the caller's responsibility (the CLI certifies it);
    the Mahler identity makes sense for any nonzero integer polynomial.
    """
    rs = complex_roots(f)
    log_terms = []
    house = 0.0
    for root, mult in zip(rs.roots, rs.multiplicities):
        mod = abs(root)
        house = max(house, mod)
        if mod > 1.0:
            log_terms.extend([math.log(mod)] * mult)
    log_m = math.log(abs(f.leading)) + math.fsum(log_terms)
    mahler = math.exp(log_m)
    return HeightProfile(mahler=mahler, weil_height=log_m / f.degree, house=house)


# ----------------------------------------------------------------------
# Cyclotomy
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> IntPolynomial:
    """Phi_k by iterated exact division of x^k - 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    poly = IntPolynomial(tuple(num))
    for d in range(1, k):
        if k % d == 0:
            q, r = poly_divmod_exact(poly, cyclotomic_polynomial(d))
            assert not r
            poly = IntPolynomial.from_coefficients(q)
    return poly


def _euler_phi(k: int) -> int:
    out, m, p = k, k, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def is_root_of_unity(f: IntPolynomial) -> bool:
    """True iff f equals some cyclotomic Phi_k (f monic irreducible assumed).

    k ranges over 1..2*deg^2, which covers every k with phi(k) = deg since
    phi(k) >= sqrt(k/2).
    """
    if not f.is_monic:
        return False
    n = f.degree
    for k in range(1, 2 * n * n + 1):
        if _euler_phi(k) == n and cyclotomic_polynomial(k) == f:
            return True
    return False


# ----------------------------------------------------------------------
# Mahler's discriminant inequality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MahlerMargin:
    lhs: float
    rhs: float
    holds: bool


def mahler_inequality_margin(f: IntPolynomial) -> MahlerMargin:
    """log|D| versus n log n + (2n-2) log M(f)."""
    n = f.degree
    d = discriminant(f)
    lhs = math.log(abs(d)) if d != 0 else float("-inf")
    profile = height_profile(f)
    rhs = n * math.log(n) + (2 * n - 2) * math.log(max(profile.mahler, 1e-300))
    return MahlerMargin(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-9)
