"""Polynomial arithmetic and factorization shapes over prime fields.

Dense coefficient lists (ascending, values in [0, p)) for the exact
single-prime path: the shape of f mod p, its factor degrees and
multiplicities, comes from squarefree and distinct-degree factorization;
no factor is split further. Root counts in F_q, q = p^k, over hundreds of
thousands of columns are swept in numpy, one (p, q) per column: x^q mod
(f, p) by square-and-multiply over the bits of q, then the trace of
Frobenius a -> a^q on F_p[x]/(f), which counts the distinct roots mod p.
Residues are balanced and reduced as x - p rint(x / p) in float64, exact
while every intermediate stays within 2^53 (p up to about 4.75e7 at degree
8, 7.75e7 at degree 3); primes past that run the same loop in int64. Pure f
= x^n + c, and quadratics at odd q = p as y^2 = b^2 - 4ac, take a
power-residue test in F_p instead.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import IntPolynomial, trim
from .errors import DomainError, LeadingCoeffVanishesError


def reduce_mod(f: IntPolynomial, p: int):
    return trim([c % p for c in f.coefficients])


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def pdivmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        factor = a[-1] * inv % p
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        a.pop()
    return trim(q), trim(a)


def pgcd(a, b, p):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pmulmod(a, b, mod, p):
    return pdivmod(pmul(a, b, p), mod, p)[1]


def ppowmod(base, e, mod, p):
    result = [1]
    base = pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pmulmod(result, base, mod, p)
        base = pmulmod(base, base, mod, p)
        e >>= 1
    return result


def pderiv(a, p):
    return trim([k * c % p for k, c in enumerate(a) if k])


def _squarefree_decomposition(f, p):
    """Yoneda char-p squarefree split: list of (squarefree poly, multiplicity)."""
    out = []
    if len(f) <= 1:
        return out
    d = pderiv(f, p)
    if not d:
        # f = g(x^p) = (h(x))^p over F_p since c^p = c.
        h = trim([f[i] for i in range(0, len(f), p)])
        for g, m in _squarefree_decomposition(h, p):
            out.append((g, m * p))
        return out
    g = pgcd(f, d, p)
    w = pdivmod(f, g, p)[0]
    k = 1
    while len(w) > 1:
        y = pgcd(w, g, p)
        piece = pdivmod(w, y, p)[0]
        if len(piece) > 1:
            out.append((piece, k))
        g = pdivmod(g, y, p)[0]
        w = y
        k += 1
    if len(g) > 1:
        # g holds exactly the factors whose multiplicity is divisible by p,
        # still at full multiplicity; the recursion returns absolute counts
        for h, m in _squarefree_decomposition(g, p):
            out.append((h, m))
    return out


def _distinct_degree(f, p):
    """[(d, product of irreducible factors of degree d)] for squarefree f."""
    out = []
    h = [0, 1]  # x
    work = list(f)
    x = [0, 1]
    d = 0
    while len(work) - 1 >= 2 * (d + 1):
        d += 1
        h = ppowmod(h, p, work, p)
        diff = trim([(a - b) % p for a, b in
                     zip(h + [0] * len(x), x + [0] * len(h))])
        g = pgcd(diff, work, p)
        if len(g) > 1:
            out.append((d, g))
            work = pdivmod(work, g, p)[0]
            h = pdivmod(h, work, p)[1]
    if len(work) > 1:
        out.append((len(work) - 1, work))
    return out


def factor_shape_mod_p(f: IntPolynomial, p: int):
    """Multiset of (degree, multiplicity) pairs for f mod p: squarefree,
    then distinct-degree factorization of f made monic mod p. Raises
    LeadingCoeffVanishesError when lc(f) = 0 mod p."""
    fp = reduce_mod(f, p)
    if len(fp) != f.degree + 1:
        raise LeadingCoeffVanishesError(f"leading coefficient of {f.text()} vanishes mod {p}")
    inv = pow(fp[-1], -1, p)
    shape = []
    for sq, mult in _squarefree_decomposition([c * inv % p for c in fp], p):
        for d, block in _distinct_degree(sq, p):
            shape.extend([(d, mult)] * ((len(block) - 1) // d))
    shape.sort()
    return shape


# ----------------------------------------------------------------------
# Batched sweeps over many primes at once
# ----------------------------------------------------------------------

_BLOCK = 1 << 13


def _float_bound(terms: int) -> int:
    """Largest p for which the float64 sweep is exact with `terms` products
    of two residues summed before a reduction: terms m^2 + p + 4 <= 2^53,
    m = p/2 + 2.

    A reduction maps an integer x with |x| < 2^53 to r = x - p rint(x (1/p)).
    x (1/p) carries two roundings, so it is within |x/p| 2^-52 (1 + 2^-54)
    of x/p, and |r| < p/2 + 2 + 2^-53: r is an integer, so |r| <= m. Every
    input is a sum of at most `terms` products of residues plus one residue,
    |x| <= terms m^2 + m, so p rint(x (1/p)) = x - r stays within terms m^2
    + 2m = terms m^2 + p + 4 <= 2^53, where every integer is a float64: the
    product, the difference and so r are exact. The sweep's rows sum up to
    2d products: terms = 2d gives p up to about 7.75e7 at d = 3, 4.75e7 at 8.
    """
    p = 2 * math.isqrt(2 ** 53 // terms)
    while terms * (p + 4) ** 2 + 4 * p + 16 > 2 ** 55:
        p -= 1
    return p


def _modulus(ps: np.ndarray, terms: int):
    """(p, mod) for one block of primes: mod(x) overwrites an array of exact
    integers by balanced residues, |r| <= p/2 + 2. Float64 with rint while
    the block's largest prime is within _float_bound(terms), else int64 with
    floor division, |r| <= p/2."""
    if ps.max() <= _float_bound(terms):
        p = ps.astype(np.float64)
        inv = 1.0 / p

        def mod(x):
            q = x * inv
            np.rint(q, out=q)
            q *= p
            x -= q
            return x
        return p, mod
    half = ps // 2

    def mod(x):
        q = x + half
        q //= ps
        q *= ps
        x -= q
        return x
    return ps, mod


def _coefficient_column(f: IntPolynomial):
    """f's ascending coefficients as a column: int64 where all of them fit,
    else Python integers, which reduce exactly mod an int64 row of primes."""
    fits = max(abs(c) for c in f.coefficients) < 2 ** 63
    return np.array(f.coefficients, dtype=np.int64 if fits else object)[:, None]


def _sweep_block(coeffs, ps, qs):
    """Distinct roots in F_q of monic f (ascending int64 coefficients) for
    one block of columns (p, q): h = x^q mod (f, p), then the trace of the
    F_p-linear map a -> a^q on F_p[x]/(f), sum_{i<d} [x^i] (h^i mod f).

    On F_p[x]/(g^e), g irreducible of degree j, the map sends (g) into
    (g^q) and so adds nothing on (g^i)/(g^(i+1)), i >= 1; on F_p[x]/(g) =
    F_(p^j) it is a power of Frobenius, a permutation of a normal basis
    with trace j when j | k, q = p^k, and 0 otherwise (von zur Gathen and
    Gerhard, Modern Computer Algebra, 14.2). The trace is the number of
    distinct roots in F_q mod p, exact where p > d, at primes dividing disc
    f too. Columns with p <= d take it from factor_shape_mod_p instead."""
    d, n = len(coeffs) - 1, len(ps)
    p, mod = _modulus(ps, 2 * d)
    f = mod((coeffs % ps).astype(p.dtype))
    low = [(j, f[j]) for j in range(d) if coeffs[j, 0] != 0]   # same in every column
    step = d - max((j for j, _ in low), default=0)   # rows that feed none of each other

    def fold(r):   # rows 0 .. 2d - 1 of exact integers -> r mod (f, p)
        for hi in range(2 * d, d, -step):   # x^i = -x^(i-d) (f - x^d), i < hi
            lo = max(hi - step, d)
            top = mod(r[lo:hi])
            for j, fj in low:
                r[lo - d + j: hi - d + j] -= top * fj
        return mod(r[:d])

    # start from x^e0, e0 = q >> shift < 2d: the largest q keeps floor(log2 2d) bits
    shift = max(int(qs.max()).bit_length() - (2 * d).bit_length() + 1, 0)
    r = fold((np.arange(2 * d)[:, None] == qs >> shift).astype(p.dtype))
    sq = np.zeros((2 * d + 1, n), dtype=p.dtype)   # r^2 in rows 1 .. 2d - 1
    for bit in range(shift - 1, -1, -1):
        sq[1: d + 1] = r[0] * r   # r_0^2, then the cross terms r_i r_j, i < j
        sq[d + 1: 2 * d] = 0
        for i in range(1, d - 1):
            sq[2 + 2 * i: 1 + i + d] += r[i] * r[i + 1:]
        sq[2: 2 * d - 1] *= 2
        sq[3: 2 * d: 2] += r[1:] * r[1:]   # and the squares r_i^2, i > 0
        # x r^2 (rows 0 .. 2d - 1) where the bit is set, else r^2
        r = fold(np.where((qs >> bit) & 1 == 1, sq[:-1], sq[1:]))
    trace, power = 1 + r[1], r   # [x^0] h^0 + [x^1] h
    for i in range(2, d):
        prod = np.zeros((2 * d, n), dtype=p.dtype)
        for j in range(d):
            prod[j: j + d] += power[j] * r
        power = fold(prod)
        trace += power[i]
    counts = np.mod(trace, p).astype(np.int64)
    for small in range(int(ps.min()), d + 1):   # the trace is only known mod p
        at = ps == small
        if at.any():   # a factor of degree j has its roots in F_q iff p^j - 1 | q - 1
            f_int = IntPolynomial.from_coefficients([int(c) for c in coeffs[:, 0]])
            counts[at] = sum(j * ((qs[at] - 1) % (small ** j - 1) == 0)
                             for j, _ in factor_shape_mod_p(f_int, small))
    return counts


def _power_residue_counts(n: int, c: int, primes: np.ndarray, field_sizes: np.ndarray):
    """Roots of x^n + c in F_q for every column (p, q), q a power of p.

    For p not dividing c there are g = gcd(n, q - 1) of them when
    (-c)^((q - 1) / g) = 1 and none otherwise (Ireland and Rosen, GTM 84,
    7.1); -c lies in F_p, so the exponent e reduces mod p - 1. For p | c the
    one root is 0. One square-and-multiply in int64 per block, over the
    columns with e != 0 (base^0 = 1), exact while (p - 1)^2 < 2^63, p up to
    about 3.04e9, past which DomainError.
    """
    p_max = math.isqrt(2 ** 63 - 1) + 1
    if int(primes.max(initial=0)) > p_max:
        raise DomainError(f"power-residue root counts need p <= {p_max}, so "
                          f"that (p - 1)^2 < 2^63; got {int(primes.max())}")
    neg = np.array(-c, dtype=np.int64 if abs(c) < 2 ** 63 else object)
    counts = np.empty(len(primes), dtype=np.int64)
    for i in range(0, len(primes), _BLOCK):
        ps, qs = primes[i: i + _BLOCK], field_sizes[i: i + _BLOCK]
        base = (neg % ps).astype(np.int64)
        g = np.gcd(n, qs - 1)
        e = (qs - 1) // g % (ps - 1)
        live = slice(None) if e.all() else np.flatnonzero(e)   # base^0 = 1 elsewhere
        r, ps, b, e = np.ones(len(ps), dtype=np.int64), ps[live], base[live], e[live]
        t = np.ones(len(ps), dtype=np.int64)
        for bit in range(int(e.max(initial=0)).bit_length() - 1, -1, -1):
            t = t * t % ps
            t = np.where((e >> bit) & 1 == 1, t * b % ps, t)
        r[live] = t
        counts[i: i + _BLOCK] = np.where(base == 0, 1, np.where(r == 1, g, 0))
    return counts


def batch_root_counts(f: IntPolynomial, primes: np.ndarray, field_sizes=None):
    """Number of roots in F_q of monic f mod p for every column (p, q) of
    `primes` and `field_sizes`, q a power of p; by default q = p.

    The count is of distinct roots. At a prime not dividing disc f, f mod p
    is squarefree, and at q = p^k the count is the sum over j | k of j
    times the number of its irreducible factors of degree j. Degree 1 has
    one root. A pure f = x^n + c takes _power_residue_counts at every
    column, as does a x^2 + b x + c at odd p = q, as y^2 = b^2 - 4ac.
    Every other column is swept, in fixed-size blocks sorted by p, one
    column per (p, q) and one row per coefficient. x^q mod f comes by
    square-and-multiply from x^e0, e0 < 2d the leading bits of q: each later
    bit squares r by symmetric products into 2d + 1 rows, takes them shifted
    by one (times x) where the bit is set, and folds rows 2d - 1 .. d down
    through f's nonzero coefficients below x^d, as many rows at once as its
    gap below x^d allows. The trace of a -> a^q on F_p[x]/(f) then takes
    d - 2 more products (_sweep_block). Residues are balanced; a row sums up
    to 2d products, so a block runs in exact float64 while its largest
    prime is within _float_bound(2d), about 7.75e7 at d = 3 and 4.75e7 at d
    = 8, and in int64 past it, exact while d (p - 1)^2 < 2^63: p up to about
    1.07e9 at d = 8 and 1.75e9 at d = 3, past which DomainError.
    """
    d = f.degree
    primes = np.asarray(primes, dtype=np.int64)
    qs = primes if field_sizes is None else np.asarray(field_sizes, dtype=np.int64)
    if d == 1:
        return np.ones(len(primes), dtype=np.int64)
    c0, *middle, lead = f.coefficients
    if lead == 1 and not any(middle):
        return _power_residue_counts(d, c0, primes, qs)
    counts = np.zeros(len(primes), dtype=np.int64)
    order = np.argsort(primes, kind="stable")
    if d == 2:   # a x^2 + b x + c at odd p = q: y = 2 a x + b, y^2 = b^2 - 4ac
        odd = (qs == primes) & (primes != 2)
        counts[odd] = _power_residue_counts(2, 4 * lead * c0 - middle[0] ** 2,
                                            primes[odd], primes[odd])
        order = order[~odd[order]]
    top = int(primes[order[-1]]) if len(order) else 0
    p_max = math.isqrt((2 ** 63 - 1) // d) + 1
    if top > p_max:
        raise DomainError(f"degree-{d} batched root counts need p <= {p_max}, "
                          f"so that d (p - 1)^2 < 2^63; got {top}")
    coeffs = _coefficient_column(f)
    split = int(np.searchsorted(primes[order], _float_bound(2 * d), side="right"))
    for part in (order[:split], order[split:]):   # float64, then int64
        for start in range(0, len(part), _BLOCK):
            at = part[start: start + _BLOCK]
            counts[at] = _sweep_block(coeffs, primes[at], qs[at])
    return counts
