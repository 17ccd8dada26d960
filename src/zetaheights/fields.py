"""Arithmetic of the number field K = Q(alpha).

Maximal orders by the Dedekind criterion plus Round-2 enlargement, prime
splitting (the shape of f mod p off the index; above index divisors, rank
counts on the primitive idempotents of the Berlekamp subalgebra of O/pO,
split with the order's own multiplication), norm counting tables,
Dirichlet coefficients of the Dedekind zeta function, and the
splitting-variance discriminant bound, whose shapes are prime splitting's.
Every order basis is an upper-triangular HNF over the power basis, so
coordinates come from forward substitution in integers and the index from
its diagonal (Cohen, GTM 138, 2.4.3 and 6.1.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import intlinalg as la
from . import modp
from .algebra import (IntPolynomial, _mul, complex_roots, discriminant,
                      poly_divmod_exact, squarefree_part,
                      sturm_real_root_count, trim)
from .errors import (DomainError, NotUniformSplittingError,
                     OverrideRequiredError)
from .primes import factorize, is_prime, next_prime, sieve_primes
from .reports import BoundReport

@dataclass(frozen=True)
class NumberField:
    """Degree, signature, index, discriminant and integral basis data.

    `state` holds what is computed about the field after it is built
    (splitting shapes, coefficients, evaluators); it takes no part in
    equality or repr.
    """

    defining_poly: IntPolynomial
    n_K: int
    r1: int
    r2: int
    poly_disc: int
    index: int
    field_disc: int
    integral_basis: tuple  # rows of Fractions over the power basis
    state: _FieldState = field(compare=False, repr=False)

    @property
    def abs_disc(self) -> int:
        return abs(self.field_disc)

    @property
    def log_abs_disc(self) -> float:
        return math.log(self.abs_disc)

    def __hash__(self):
        return hash(self.defining_poly.coefficients)


@dataclass(frozen=True)
class PrimeSplitting:
    p: int
    factors: tuple  # tuple of (e_i, f_i)


@dataclass(frozen=True)
class SplittingTable:
    cutoff: int
    counts: dict  # prime power q -> N_q(K), zeros included

    def csv_rows(self):
        return [(q, self.counts[q]) for q in sorted(self.counts)]


@dataclass(frozen=True)
class DirichletCoefficients:
    N: int
    a: tuple

    def csv_rows(self):
        return [(n + 1, self.a[n]) for n in range(self.N)]


@dataclass(frozen=True)
class IrreducibilityCertificate:
    status: str  # "certified_irreducible" | "inconclusive"
    witness: tuple | None = None
    degree_sums: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified_irreducible"


@dataclass(frozen=True)
class VarianceProfile:
    q: int
    e_p: int
    f_p: int
    V_p: float
    bz_term: float


# ----------------------------------------------------------------------
# Orders over the power basis
# ----------------------------------------------------------------------

class _Order:
    """Z-order in K given by basis rows / den over the power basis of f."""

    def __init__(self, f: IntPolynomial, basis=None, den=1):
        self.f = f
        self.n = f.degree
        self.basis = basis if basis is not None else la.identity(self.n)
        self.den = den
        self._power_products = self._build_power_products()
        self._struct = None

    def _build_power_products(self):
        n = self.n
        coeffs = self.f.coefficients
        rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
        current = rows[-1]
        for _ in range(n - 1):
            shifted = [0] + current[:]
            lead = shifted.pop()
            nxt = [shifted[j] - lead * coeffs[j] for j in range(n)]
            rows.append(nxt)
            current = nxt
        return rows  # alpha^k for k = 0..2n-2

    def mul_power_vectors(self, u, v):
        n = self.n
        conv = _mul(u, v)
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                pk = self._power_products[k]
                for j in range(n):
                    out[j] += c * pk[j]
        return out

    def structure_constants(self):
        """c[i][j] = coords of b_i b_j in this basis (exact integers)."""
        if self._struct is not None:
            return self._struct
        n = self.n
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                w = self.mul_power_vectors(self.basis[i], self.basis[j])
                table[i][j] = table[j][i] = _coords(self.basis, w, self.den)
        self._struct = table
        return table

    @property
    def index(self) -> int:
        """[O : Z[alpha]] = den^n / prod of the HNF diagonal."""
        index, rem = divmod(self.den ** self.n,
                            math.prod(self.basis[i][i] for i in range(self.n)))
        assert rem == 0, "order does not contain Z[alpha]"
        return index


def _order_from_rows(f: IntPolynomial, rows, den) -> _Order:
    """The order spanned by rows / den, its HNF basis and den divided by
    their common gcd."""
    basis = la.hnf(rows, f.degree)
    g = math.gcd(den, *(x for row in basis for x in row))
    return _Order(f, [[x // g for x in row] for row in basis], den // g)


def _coords(basis, w, den=1):
    """Integer x with x . basis = w / den, by forward substitution on the
    upper-triangular (HNF) basis: column j fixes x_j."""
    x = []
    for j, wj in enumerate(w):
        xj, rem = divmod(wj - den * sum(xi * basis[i][j] for i, xi in enumerate(x)),
                         den * basis[j][j])
        assert rem == 0, "coordinates are not integral"
        x.append(xj)
    return x


def _power(struct, x, e, p):
    """x^e in the order, e >= 1, by square-and-multiply with coordinates
    reduced mod p after each product."""
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else [c % p for c in _mul_in_order(struct, acc, x)]
        e >>= 1
        if e:
            x = [c % p for c in _mul_in_order(struct, x, x)]
    return acc


def _radical_mod_p(struct, p, n):
    """Basis vectors of the nilradical of O/pO: the kernel of the F_p-linear
    map x -> x^(p^k) for the least p^k >= n, whose matrix has the rows
    b_i^(p^k)."""
    e = p
    while e < n:
        e *= p
    m = [_power(struct, row, e, p) for row in la.identity(n)]
    return la.nullspace_mod_p([list(col) for col in zip(*m)], p)


def _dedekind_p_maximal(f: IntPolynomial, p: int) -> bool:
    """Dedekind criterion: is Z[alpha] maximal at p?"""
    fp = modp.reduce_mod(f, p)
    pieces = modp._squarefree_decomposition(fp, p)
    g_star = [1]
    for poly, _mult in pieces:
        g_star = modp.pmul(g_star, poly, p)
    h_star = modp.pdivmod(fp, g_star, p)[0]
    # g* h* over Z, from the monic lifts with coefficients in [0, p)
    gh = _mul(g_star, h_star)
    t_poly = []
    for k in range(len(gh)):
        fk = f.coefficients[k] if k <= f.degree else 0
        diff = gh[k] - fk
        assert diff % p == 0
        t_poly.append((diff // p) % p)
    t_poly = trim(t_poly)
    g1 = modp.pgcd(t_poly, g_star, p) if t_poly else g_star
    g2 = modp.pgcd(g1, h_star, p)
    return len(g2) <= 1


def _round2_at_p(f: IntPolynomial, p: int, vp_disc: int):
    """p-maximal overorder of Z[alpha] and the exponent of p in its index."""
    order = _Order(f)
    for _ in range(vp_disc + 1):
        n = order.n
        struct = order.structure_constants()
        rad = _radical_mod_p(struct, p, n)
        ideal_rows = [list(v) for v in rad] + [[p if i == j else 0 for j in range(n)]
                                              for i in range(n)]
        h = la.hnf(ideal_rows, n)
        # rows i -> flattened coords of b_i * h_l in the ideal basis, mod p
        cond = []
        for i in range(n):
            row = []
            for l in range(n):
                w = _mul_in_order(struct, [1 if k == i else 0 for k in range(n)], h[l])
                row.extend(c % p for c in _coords(h, w))
            cond.append(row)
        kernel = la.nullspace_mod_p([[cond[i][c] for i in range(n)]
                                     for c in range(n * n)], p)
        if not kernel:
            break
        new_rows = [[x * p for x in row] for row in order.basis]
        for vec in kernel:
            combo = [0] * n
            for i, ci in enumerate(vec):
                if ci:
                    for j in range(n):
                        combo[j] += ci * order.basis[i][j]
            new_rows.append(combo)
        candidate = _order_from_rows(f, new_rows, order.den * p)
        if candidate.index == order.index:
            break
        order = candidate
    index, exponent = order.index, 0
    while index % p == 0:
        index //= p
        exponent += 1
    assert index == 1, "local index is not a power of p"
    return order, exponent


def _mul_in_order(struct, u, v):
    n = len(u)
    out = [0] * n
    for i in range(n):
        if u[i]:
            for j in range(n):
                if v[j]:
                    row = struct[i][j]
                    for k in range(n):
                        out[k] += u[i] * v[j] * row[k]
    return out


# ----------------------------------------------------------------------
# Irreducibility certificate
# ----------------------------------------------------------------------

def _subset_degree_sums(shape):
    reachable = 1  # bitset over 0..n
    for d, mult in shape:
        for _ in range(mult):
            reachable |= reachable << d
    return reachable


def irreducibility_certificate(f: IntPolynomial) -> IrreducibilityCertificate:
    """Degree-multiset intersection test mod the first 20 good primes.

    Certifies irreducibility when the only achievable rational factor
    degrees are 0 and n. Otherwise the result is inconclusive, and its
    witness is the pair of rational factors found by _rational_factor
    (the squarefree factors when disc f = 0), or None when f is
    irreducible after all.
    """
    if f.content() != 1:
        raise DomainError("certificate requires a primitive polynomial")
    n = f.degree
    if n < 1:
        raise DomainError("degree must be >= 1")
    if n == 1:
        return IrreducibilityCertificate("certified_irreducible", degree_sums=(0, 1))
    disc = discriminant(f)
    if disc == 0:
        return IrreducibilityCertificate("inconclusive", witness=_rational_factor(f))
    mask = (1 << (n + 1)) - 1
    tested = 0
    p = 2
    while tested < 20:
        if (f.leading * disc) % p != 0:
            shape = modp.factor_shape_mod_p(f, p)
            mask &= _subset_degree_sums(shape)
            tested += 1
            if mask == (1 | (1 << n)):
                return IrreducibilityCertificate(
                    "certified_irreducible", degree_sums=(0, n))
        p = next_prime(p)
    sums = tuple(k for k in range(n + 1) if mask >> k & 1)
    return IrreducibilityCertificate("inconclusive", witness=_rational_factor(f),
                                     degree_sums=sums)


def is_irreducible(f: IntPolynomial) -> bool:
    """Complete irreducibility decision for primitive f: certified by the
    mod-p test, or inconclusive with no rational factor as witness."""
    cert = irreducibility_certificate(f)
    return cert.certified or cert.witness is None


def _rational_factor(f: IntPolynomial):
    """Texts of rational factors of f, or None when f is irreducible.

    Screens every subset of complex roots whose product polynomial, times
    lc(f), has near-integer coefficients, then confirms the primitive part
    of each candidate by exact division, so the verdict never rests on
    floating point alone.
    """
    if discriminant(f) == 0:
        return tuple(g.text() for g, _ in squarefree_part(f))
    n = f.degree
    rs = complex_roots(f, 1e-13)
    roots = list(rs.roots)
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            coeffs = [complex(f.leading)]
            for i in subset:
                new = [0.0j] * (len(coeffs) + 1)
                for k, c in enumerate(coeffs):
                    new[k + 1] += c
                    new[k] -= c * roots[i]
                coeffs = new
            # coeffs ascending; lc(f) times a true factor's monic form is integral
            rounded = [round(c.real) for c in coeffs]
            if all(abs(c - r) < 1e-4 for c, r in zip(coeffs, rounded)):
                content = math.gcd(*rounded)
                candidate = IntPolynomial.from_coefficients([r // content for r in rounded])
                try:
                    quot, rem = poly_divmod_exact(f, candidate)
                except ValueError:
                    continue
                if not rem:
                    return (candidate.text(),
                            IntPolynomial.from_coefficients(quot).text())
    return None


# ----------------------------------------------------------------------
# Building the field
# ----------------------------------------------------------------------

_FIELDS: dict = {}  # defining coefficients -> NumberField


def build_number_field(f: IntPolynomial) -> NumberField:
    """Maximal order, signature, index and field discriminant of Q[x]/(f).

    f must be monic and irreducible: a DomainError carrying the witness of
    irreducibility_certificate is raised for reducible f.
    Fields are memoized by polynomial, so every caller shares one state.
    """
    K = _FIELDS.get(f.coefficients)
    if K is not None:
        return K
    if not f.is_monic:
        raise DomainError("defining polynomial must be monic")
    witness = irreducibility_certificate(f).witness
    if witness is not None:
        raise DomainError(f"{f.text()} is reducible over the rationals: "
                          f"witness {witness}")
    n = f.degree
    poly_disc = discriminant(f)
    r1_exact = sturm_real_root_count(f)
    if n <= 2:
        r1 = r1_exact
    else:
        rs = complex_roots(f, 1e-12)
        r1 = sum(1 for z in rs.roots if abs(z.imag) <= 1e-9 * (1 + abs(z)))
        assert r1 == r1_exact, "root-based signature disagrees with Sturm count"
    r2 = (n - r1) // 2
    assert r1 + 2 * r2 == n

    disc_factors = factorize(poly_disc)
    index = 1
    orders = []
    for p, exp in disc_factors.items():
        if exp < 2:
            continue
        if _dedekind_p_maximal(f, p):
            continue
        order, k = _round2_at_p(f, p, exp)
        index *= p ** k
        orders.append(order)
    # O_K is the sum of the p-maximal orders; the rows den e_i give Z[alpha]
    # itself when Z[alpha] is maximal everywhere
    den = math.lcm(*(o.den for o in orders))
    rows = [[x * (den // o.den) for x in row] for o in orders for row in o.basis]
    rows.extend([den if i == j else 0 for j in range(n)] for i in range(n))
    max_order = _order_from_rows(f, rows, den)
    assert max_order.index == index, f"index mismatch {max_order.index} vs {index}"
    field_disc, rem = divmod(poly_disc, index * index)
    assert rem == 0
    assert (field_disc < 0) == (r2 % 2 == 1), "discriminant sign vs signature"
    integral_basis = tuple(
        tuple(Fraction(x, max_order.den) for x in row) for row in max_order.basis)
    K = NumberField(f, n, r1, r2, poly_disc, index, field_disc, integral_basis,
                    _FieldState(max_order, sorted(disc_factors)))
    _FIELDS[f.coefficients] = K
    return K


class _FieldState:
    """Everything computed about one field after it is built: the maximal
    order, the shapes prime_splitting has found, the norm-count table, the
    coefficient array, and zeta evaluators.

    The norm-count table is the one store of N_q(K), read through
    norm_counts: norm_q holds every prime power up to norm_limit in
    increasing order, norm_n its N_q, zeros included, and primes the primes
    among them, for coefficient_array to slice. It is built
    without any override and grows when a larger cutoff is asked for, by
    batched root counts for the primes not dividing the polynomial
    discriminant; -1 marks the powers of a discriminant prime not split yet.
    """

    def __init__(self, max_order: _Order, bad_primes: list):
        self.max_order = max_order
        self.bad_primes = bad_primes   # primes dividing the polynomial discriminant
        self.shapes: dict = {}         # p -> tuple of (e, f) pairs
        self.norm_q = np.zeros(0, dtype=np.int64)
        self.norm_n = np.zeros(0, dtype=np.int64)
        self.norm_limit = 1
        self.primes = np.zeros(0, dtype=np.int64)
        self.coeff_array = None        # float64 a_n, 1-indexed via [n]
        self.coeff_limit = 0
        self.prime_read = None         # (q, N_q log q) where N_q > 0, to prime_read_limit
        self.prime_read_limit = 1
        self.evaluators: dict = {}     # RunConfig.cache_key() -> ZetaEvaluator


# ----------------------------------------------------------------------
# Prime splitting
# ----------------------------------------------------------------------

def prime_splitting(K: NumberField, p: int, override: dict | None = None) -> PrimeSplitting:
    """Shape (e_i, f_i) of the prime p in O_K; DomainError unless p is prime.

    Dedekind's theorem when p does not divide the index; otherwise the
    primitive idempotents of the Berlekamp subalgebra {x : x^p = x} of O/pO
    give one prime each, and rank counts on O/pO and its radical give its
    e and f (see _split_index_prime). An override dict {p: [(e, f), ...]}
    short-circuits the computation for every prime it names. It covers this
    call only: the forced shape is never cached, so later calls without the
    override see the true splitting. A forced shape whose sum e*f is not
    n_K raises DomainError.
    """
    if not is_prime(p):
        raise DomainError(f"prime splitting needs a prime p, got {p}")
    if override and p in override:
        return PrimeSplitting(p, _forced_shape(K, p, override[p]))
    shapes = K.state.shapes
    if p not in shapes:
        if K.index % p != 0:   # Dedekind: the factors of f mod p
            shape = tuple(sorted((mult, d) for d, mult in
                                 modp.factor_shape_mod_p(K.defining_poly, p)))
        else:
            shape = _split_index_prime(K, p)
        assert sum(e * f for e, f in shape) == K.n_K
        shapes[p] = shape
    return PrimeSplitting(p, shapes[p])


def _forced_shape(K: NumberField, p: int, entry):
    """An override's shape for p, sorted; DomainError unless sum e f = n_K."""
    shape = tuple(sorted(tuple(ef) for ef in entry))
    if sum(e * f for e, f in shape) != K.n_K:
        raise DomainError(f"override shape {list(shape)} for p={p} does not "
                          f"have sum e*f = {K.n_K}, the field degree")
    return shape


def _split_index_prime(K: NumberField, p: int):
    """Shape of p in O_K from rank counts in O/pO, for p dividing the index.

    The Berlekamp subalgebra B = {x : x^p = x}, the left kernel of F - I for
    the Frobenius matrix F, is F_p^g with one coordinate per prime P above
    p: on O/P^e, x^p = x leaves no nilpotent and only F_p of the residue
    field (Berlekamp 1967; Cohen, GTM 138, 6.2). Each basis vector b of B
    splits every idempotent eps on which x = eps b is not a multiple of eps,
    until there are g = dim B of them. At p = 2, x is idempotent: x and
    eps - x. At odd p, c = (x + a eps)^((p-1)/2) is 0 or +-1 on each prime
    of eps: (c^2 + c)/2, (c^2 - c)/2 and eps - c^2, for the first a = 0, 1,
    ... that gives two nonzero pieces (a = -v does, v a value of x on eps).
    For the idempotent of P, eps O/pO = O/P^e has dimension e f and eps J,
    J the radical, has dimension (e - 1) f.
    """
    order = K.state.max_order
    n = K.n_K
    struct = order.structure_constants()

    def mul(u, v):
        return [c % p for c in _mul_in_order(struct, u, v)]

    def rank(rows):
        return len(la.rref_mod_p(rows, p)[1])

    def pieces(eps, x):
        if p == 2:
            return [x, [(e - c) % p for e, c in zip(eps, x)]]
        for a in range(p):
            c = _power(struct, [(xi + a * ei) % p for xi, ei in zip(x, eps)], (p - 1) // 2, p)
            c2, half = mul(c, c), (p + 1) // 2
            split = [[(s + t) * half % p for s, t in zip(c2, c)],
                     [(s - t) * half % p for s, t in zip(c2, c)],
                     [(e - s) % p for e, s in zip(eps, c2)]]
            if sum(map(any, split)) > 1:
                return split

    frob = [_power(struct, row, p, p) for row in la.identity(n)]
    berlekamp = la.nullspace_mod_p(
        [[frob[i][j] - (i == j) for i in range(n)] for j in range(n)], p)
    idempotents = [[c % p for c in _coords(order.basis, [order.den] + [0] * (n - 1))]]
    for b in berlekamp:
        if len(idempotents) == len(berlekamp):
            break
        todo, idempotents = idempotents, []
        while todo:
            eps = todo.pop()
            x = mul(eps, b)
            i = next(i for i, e in enumerate(eps) if e)
            v = x[i] * pow(eps[i], -1, p)
            if x == [v * e % p for e in eps]:
                idempotents.append(eps)
            else:
                todo.extend(y for y in pieces(eps, x) if any(y))
    rad = _radical_mod_p(struct, p, n)
    shape = []
    for eps in idempotents:
        ef = rank([mul(eps, u) for u in la.identity(n)])
        f = ef - rank([mul(eps, v) for v in rad])
        shape.append((ef // f, f))
    shape = tuple(sorted(shape))
    if sum(e * f for e, f in shape) != n:
        raise OverrideRequiredError(p, f"inconsistent splitting of {p}: {shape}")
    return shape


# ----------------------------------------------------------------------
# The norm-count table and Dirichlet coefficients
# ----------------------------------------------------------------------

def _put_counts(q, n, p, shape, X):
    """Write N_{p^k} for every power p^k <= X into n, indexed like q."""
    pk, k = p, 1
    while pk <= X:
        n[np.searchsorted(q, pk)] = sum(1 for _e, f in shape if f == k)
        pk *= p
        k += 1


def _extend_norm_table(K: NumberField, X: int):
    """Grow the field's override-free norm-count table to cover X.

    For a good prime p, one not dividing the polynomial discriminant, f mod
    p is squarefree and has g_k = sum over j | k of j N_{p^j} roots in
    F_{p^k}. N_{p^k} is kept from the old table for p^k up to its limit;
    past it, two batched root counts give g_k: one at q = p, one over every
    new p^k with k >= 2, a field size per column. The powers of any other
    prime hold -1 until norm_counts splits it.
    """
    state = K.state
    f = K.defining_poly
    primes = sieve_primes(X)
    powers = []
    for p in primes[primes * primes <= X].tolist():
        pk = p * p
        while pk <= X:
            powers.append(pk)
            pk *= p
    q = np.sort(np.concatenate([primes, np.array(powers, dtype=np.int64)]))
    n = np.full(len(q), -1, dtype=np.int64)
    good = primes[~np.isin(primes, state.bad_primes)]
    levels, pk, counts = [], good, {}   # p^k over a prefix of good; how many are old
    while len(pk):
        levels.append((pk, int(np.searchsorted(pk, state.norm_limit, side="right"))))
        m = int(np.count_nonzero(pk <= X // good[: len(pk)]))   # a prefix
        pk = pk[:m] * good[:m]
    new = [(good[old:len(pk)], pk[old:]) for pk, old in levels]
    roots = [modp.batch_root_counts(f, ps) for ps, _ in new[:1]]
    if len(new) > 1:   # every k >= 2 in one call, split back by k
        ps, qs = (np.concatenate(c) for c in zip(*new[1:]))
        roots += np.split(modp.batch_root_counts(f, ps, qs),
                          np.cumsum([len(c[0]) for c in new[1:-1]]))
    for k, ((pk, old), g) in enumerate(zip(levels, roots), 1):
        counts[k] = np.empty(len(pk), dtype=np.int64)
        counts[k][:old] = state.norm_n[np.searchsorted(state.norm_q, pk[:old])]
        counts[k][old:] = (g - sum(j * counts[j][old:len(pk)]
                                   for j in range(1, k) if k % j == 0)) // k
        n[np.searchsorted(q, pk)] = counts[k]
    state.norm_q, state.norm_n, state.norm_limit, state.primes = q, n, X, primes


def norm_counts(K: NumberField, X: int, override=None):
    """The prime powers q <= X in increasing order and their N_q(K), zeros
    included, as two read-only int64 arrays sliced from the field's cached
    table. An override is laid over a copy for this call only; a forced
    prime dividing the polynomial discriminant is never split for real.
    Keys that are not primes are ignored; a prime's forced shape must have
    sum e*f = n_K, else DomainError.
    """
    state = K.state
    if X > state.norm_limit:
        _extend_norm_table(K, X)
    forced = {p: _forced_shape(K, p, shape) for p, shape in (override or {}).items()
              if p <= X and is_prime(p)}
    for p in state.bad_primes:
        if p <= X and p not in forced and (
                state.norm_n[np.searchsorted(state.norm_q, p)] < 0):
            _put_counts(state.norm_q, state.norm_n, p,
                        prime_splitting(K, p).factors, state.norm_limit)
    end = int(np.searchsorted(state.norm_q, X, side="right"))
    q, n = state.norm_q[:end], state.norm_n[:end]
    if forced:
        n = n.copy()
        for p, shape in forced.items():
            _put_counts(q, n, p, shape, X)
    q.flags.writeable = n.flags.writeable = False
    return q, n


def splitting_table(K: NumberField, X: int, override=None) -> SplittingTable:
    """N_q(K) for every prime power q <= X (zeros included): a dict view
    of norm_counts, built per call and never cached. Primes named in the
    override count with their forced shape in this call only."""
    if X < 2:
        raise DomainError("cutoff must be >= 2")
    q, n = norm_counts(K, X, override)
    return SplittingTable(cutoff=X, counts=dict(zip(q.tolist(), n.tolist())))


def dirichlet_coefficients(K: NumberField, N: int, override=None) -> DirichletCoefficients:
    """Ideal-count coefficients a_1..a_N assembled from local Euler factors
    (an override applies to this call only, as in coefficient_array)."""
    if N < 1:
        raise DomainError("N must be >= 1")
    arr = coefficient_array(K, N, override)
    return DirichletCoefficients(N=N, a=tuple(int(v) for v in arr[1:N + 1]))


def coefficient_array(K: NumberField, N: int, override=None) -> np.ndarray:
    """Float array a[0..N] with a[n] = #ideals of norm n (a[0] unused).

    Built from the norm counts to N. Only the override-free array is
    cached, read-only; with an override it is built afresh from the forced
    counts.
    """
    state = K.state
    if (not override and state.coeff_array is not None
            and state.coeff_limit >= N):
        return state.coeff_array[: N + 1]
    q, n = norm_counts(K, N, override)
    a = np.zeros(N + 1, dtype=np.float64)
    a[1] = 1.0
    primes = state.primes[: np.searchsorted(state.primes, N, side="right")]
    small = primes * primes <= N
    powers = []   # p, p^2, ... <= N for each p <= sqrt N
    for p in primes[small].tolist():
        powers.append([p])
        while powers[-1][-1] * p <= N:
            powers[-1].append(powers[-1][-1] * p)
    counts = iter(n[np.searchsorted(q, [pk for pks in powers for pk in pks])].tolist())
    for pks in powers:
        # local coefficients c_k of prod over the primes P above p of
        # (1 - T^{f_P})^{-1}; N_{p^f} of those P have f_P = f
        kmax = len(pks)
        c = [1.0] + [0.0] * kmax
        for f in range(1, kmax + 1):
            for _ in range(next(counts)):
                for k in range(f, kmax + 1):
                    c[k] += c[k - f]
        # a[m] is still 0 for p | m, so a[m p^k] += c_k a[m] over all m
        base = a[: N // pks[0] + 1].copy()
        for k, pk in enumerate(pks, 1):
            if c[k]:
                a[pk:: pk] += c[k] * base[1: N // pk + 1]
    # n <= N has at most one prime factor P > sqrt N, so a[m P], 0 until
    # now, is a[m] N_P with the cofactor m < sqrt N already final
    large = primes[~small]
    n_large = n[np.searchsorted(q, large)]
    large, n_large = large[n_large > 0], n_large[n_large > 0].astype(np.float64)
    ms = np.flatnonzero(a[1: math.isqrt(N) + 1]) + 1
    ends = np.searchsorted(large, N // ms, side="right")
    for m, end in zip(ms.tolist(), ends.tolist()):
        a[m * large[:end]] = a[m] * n_large[:end]
    if not override:
        a.flags.writeable = False   # shared by every caller of this field
        state.coeff_array = a
        state.coeff_limit = N
    return a


# ----------------------------------------------------------------------
# Splitting variance and the discriminant lower bound
# ----------------------------------------------------------------------

def variance_profile(f: IntPolynomial, K: NumberField, p: int) -> VarianceProfile:
    """Normalized variance of the conjugate reduction counts at p.

    f must be K's defining polynomial and p a prime off the index, else
    DomainError. Caller asserts K/Q Galois; uniformity of the shape of p is
    cross-checked and NotUniformSplittingError raised otherwise. By
    Dedekind's theorem f_p is the degree and e_p the multiplicity of the
    factors of f mod p, and N_x counts multiplicities of its roots in the
    prime field, one per prime of K above p with f = 1; conjugates in
    nonsplit factors count for no x, and N_infinity = 0 for monic integral f.
    """
    if not is_prime(p) or K.index % p == 0:
        raise DomainError(f"variance profile needs a prime p coprime to the index, got {p}")
    if f != K.defining_poly:
        raise DomainError(f"{f.text()} is not the defining polynomial "
                          f"{K.defining_poly.text()} of the field")
    factors = prime_splitting(K, p).factors
    if len(set(factors)) != 1:
        raise NotUniformSplittingError(
            f"splitting of {p} is not uniform: (e, f) = {list(factors)}")
    e_p, f_p = factors[0]
    m = f.degree
    q = p ** f_p
    mean = m / (q + 1)
    square_sum = 0.0
    points_hit = 0
    for e, f_i in factors:
        if f_i == 1:
            square_sum += (e - mean) ** 2
            points_hit += 1
    square_sum += (q + 1 - points_hit) * mean ** 2
    v_p = square_sum / (m * m)
    bz_term = (v_p + 1.0 / (q + 1) - 1.0 / m) * math.log(p) / e_p
    return VarianceProfile(q=q, e_p=e_p, f_p=f_p, V_p=v_p, bz_term=bz_term)


def uniform_splittings(K: NumberField, m: int):
    """(p, e_p, q = p^{f_p}) for each prime p < m with q < m.

    Every prime p < m must split uniformly (one e_p and one f_p), else
    NotUniformSplittingError.
    """
    p = 2
    while p < m:
        factors = prime_splitting(K, p).factors
        if len(set(factors)) != 1:
            raise NotUniformSplittingError(f"nonuniform splitting at p={p}")
        e_p, f_p = factors[0]
        q = p ** f_p
        if q < m:
            yield p, e_p, q
        p = next_prime(p)


def bz_disc_lower_bound(f: IntPolynomial, K: NumberField) -> BoundReport:
    """log|D(f)| against the splitting-variance sum over q = p^{f_p} < m."""
    m = f.degree
    lhs = math.log(abs(K.poly_disc))
    terms = {}
    flags = []
    for p, e_p, q in uniform_splittings(K, m):
        if K.index % p != 0:
            vp = variance_profile(f, K, p)
            terms[f"p={p}"] = m * m * vp.bz_term
        else:
            term = (1.0 / (q + 1) - 1.0 / m) * math.log(p) / e_p
            terms[f"p={p}"] = m * m * term
            flags.append(p)
    report = BoundReport(
        theorem_id="splitting-variance-disc-bound",
        lhs=lhs,
        rhs_terms=terms or {"empty_sum": 0.0},
        asymptotic_slack=False,
        notes={"variance_dropped_at": flags,
               "holds": lhs >= math.fsum(terms.values()) - 1e-9},
    )
    return report
