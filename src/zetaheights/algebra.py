"""Exact and floating-point algebra on integer polynomials.

Polynomials are immutable coefficient tuples in ascending degree order.
Everything exact runs over Python integers and fractions: discriminants and
Sturm counts both read one Euclid remainder chain of f and f', and
cyclotomy divides exactly. Complex roots are binary64 companion-matrix
eigenvalues (numpy.roots) with Newton polish and a residual certificate.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError, ZeroPolynomialError


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


MAX_COEFF_BITS = 4096  # largest bound on a parsed power's coefficients, in bits


def _check_degree(degree):
    """Refuse, before expanding it, a product or power past degree 64."""
    if degree > 64:
        raise SyntaxError(f"degree {degree} is above 64, the largest parsed")


def _power(base, e):
    """base^e by repeated squaring, refused before any multiplication past
    degree 64 or where its coefficients' bound ||base||_1^e passes
    2^MAX_COEFF_BITS."""
    _check_degree((len(base) - 1) * e)
    norm = sum(abs(c) for c in base)
    if norm > 1 and e * math.log2(norm) > MAX_COEFF_BITS:
        raise SyntaxError(f"a power with coefficients up to 2^{e * math.log2(norm):.0f}"
                          f" is above 2^{MAX_COEFF_BITS}, the largest parsed")
    out = [1]
    while e:
        if e & 1:
            out = _mul(out, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return out


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
            return _power(base, node.right.value)
        left = _expr_to_coeffs(node.left)
        right = _expr_to_coeffs(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            out = left + [0] * (len(right) - len(left))
            for i, c in enumerate(right):
                out[i] += sign * c
            return out
        if isinstance(node.op, ast.Mult):
            _check_degree(len(left) + len(right) - 2)
            return _mul(left, right)
        raise SyntaxError("unsupported binary operator")
    raise SyntaxError(f"unsupported syntax element {type(node).__name__}")


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse a comma-separated coefficient list or an expression in x.

    Grammar: ``poly := csv | expr`` with csv = ascending integers and expr
    over the variable x using + - * ^ and integer literals. SyntaxError,
    before expanding it, for a product or power past degree 64 or a power
    whose coefficients may pass 2^MAX_COEFF_BITS.
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
# Exact discriminants, real-root counting (Sturm) and squarefree
# decomposition over Q
# ----------------------------------------------------------------------

def _euclid_chain(f: IntPolynomial):
    """Euclid's remainder chain over Q of f (degree >= 1) and f': f, f',
    then each remainder of the two before it, down to the last nonzero one,
    a nonzero constant exactly when f is squarefree."""
    chain = [[Fraction(c) for c in f.coefficients],
             [Fraction(k * c) for k, c in enumerate(f.coefficients) if k]]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(r)
    return chain


def discriminant(f: IntPolynomial) -> int:
    """Exact D(f) = (-1)^{n(n-1)/2} Res(f, f') / lc(f); degree 1 gives 1.

    Res(f, f') runs down the Euclid chain by Res(a, b) = (-1)^{deg a deg b}
    lc(b)^{deg a - deg r} Res(b, r) with r = a mod b, ending at
    Res(a, c) = c^{deg a} for a constant c.
    """
    n = f.degree
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    chain = _euclid_chain(f)
    if len(chain[-1]) > 1:
        return 0
    res = chain[-1][0] ** (len(chain[-2]) - 1)
    for a, b, r in zip(chain, chain[1:], chain[2:]):
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
    d = (-1) ** (n * (n - 1) // 2) * res / f.leading
    assert d.denominator == 1
    return int(d)


def sturm_real_root_count(f: IntPolynomial) -> int:
    """Number of distinct real roots, exactly: Sturm's sequence is the
    Euclid chain with signs +, +, -, -, +, +, ..., and the count is its sign
    changes at -inf less those at +inf."""
    if f.degree == 0:
        return 0
    chain = _euclid_chain(f)
    # True where a member of Sturm's sequence is positive at +inf, at -inf
    at_plus = [(p[-1] > 0) == (k % 4 < 2) for k, p in enumerate(chain)]
    at_minus = [s == (len(p) % 2 == 1) for s, p in zip(at_plus, chain)]

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(at_minus) - changes(at_plus)


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
# Complex roots
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RootSet:
    """Complex roots with multiplicities; residuals checked against tolerance."""

    roots: tuple
    multiplicities: tuple
    tolerance: float


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def complex_roots(f: IntPolynomial, tol: float = 1e-12) -> RootSet:
    """All complex roots, sorted by (real, imag), with multiplicities.

    Exact squarefree decomposition comes first, so root finding only ever
    sees simple roots. Each factor's roots are its companion matrix's
    eigenvalues (numpy.roots), backward stable (Edelman and Murakami,
    1995), polished by three Newton steps and snapped onto the real axis
    within 1e-12 relative. Every root must then leave a residual
    |f(z)| <= tol sum |a_i| |z|^i, or NonConvergenceError is raised.
    Deterministic given (f, tol).
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
        for root in _simple_roots(factor, tol):
            all_roots.append(root)
            all_mults.append(mult)
    order = sorted(range(len(all_roots)), key=lambda i: (all_roots[i].real, all_roots[i].imag))
    roots = tuple(all_roots[i] for i in order)
    mults = tuple(all_mults[i] for i in order)
    assert sum(mults) == f.degree
    return RootSet(roots=roots, multiplicities=mults, tolerance=tol)


def _simple_roots(f: IntPolynomial, tol: float):
    coeffs = [float(c) for c in f.coefficients]
    dcoeffs = [k * c for k, c in enumerate(coeffs) if k]
    out = []
    for z in np.roots(coeffs[::-1]).tolist():
        z = complex(z)
        for _ in range(3):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                break
            z -= _horner(coeffs, z) / dz
        if abs(z.imag) < 1e-12 * (1.0 + abs(z)):
            z = complex(z.real, 0.0)
        residual = abs(_horner(coeffs, z))
        if residual > tol * math.fsum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs)):
            raise NonConvergenceError(
                f"residual {residual:.3e} above tolerance for {f.text()}")
        out.append(z)
    return out


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
