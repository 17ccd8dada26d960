"""Polynomial arithmetic and factorization over prime fields.

Dense coefficient lists (ascending, values in [0, p)) for the exact
single-prime path. Root counts over hundreds of thousands of primes are
swept in numpy, one prime per column: x^p mod f by square-and-multiply and
deg gcd(x^p - x, f) by an inverse-free Euclid, in exact int64 arithmetic.
"""

from __future__ import annotations

import math
import random
import zlib

import numpy as np

from .algebra import IntPolynomial
from .errors import DomainError, LeadingCoeffVanishesError
from .primes import jacobi


def reduce_mod(f: IntPolynomial, p: int):
    return trim([c % p for c in f.coefficients])


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


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


def _rng_for(f, p):
    seed = zlib.crc32(repr((p, tuple(f))).encode()) & 0xFFFFFFFF
    return random.Random(seed)


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = [rng.randrange(p) for _ in range(n - 1)] + [1]
        r = trim(r)
        if p == 2:
            # trace map x + x^2 + ... + x^{2^{d-1}}
            t = list(r)
            acc = list(r)
            for _ in range(d - 1):
                t = pmulmod(t, t, f, p)
                acc = trim([(a + b) % p for a, b in
                            zip(acc + [0] * len(t), t + [0] * len(acc))])
            g = pgcd(acc, f, p)
        else:
            s = ppowmod(r, (p ** d - 1) // 2, f, p)
            s_minus = trim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(s)] or [p - 1])
            g = pgcd(s_minus, f, p)
        if 0 < len(g) - 1 < n:
            rest = pdivmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def factor_mod_p(f: IntPolynomial, p: int):
    """Complete factorization of f mod p into monic irreducibles.

    Returns [(IntPolynomial, multiplicity)] sorted by (degree, coefficients);
    the equal-degree stage uses a generator seeded from (f, p), so output is
    deterministic. Raises LeadingCoeffVanishesError when lc(f) = 0 mod p.
    """
    fp = reduce_mod(f, p)
    if len(fp) != f.degree + 1:
        raise LeadingCoeffVanishesError(f"leading coefficient of {f.text()} vanishes mod {p}")
    inv = pow(fp[-1], -1, p)
    fp = [c * inv % p for c in fp]
    rng = _rng_for(fp, p)
    factors = []
    for sq, mult in _squarefree_decomposition(fp, p):
        for d, block in _distinct_degree(sq, p):
            for irr in _equal_degree_split(block, d, p, rng):
                factors.append((irr, mult))
    if not factors:  # degree-0 after reduction cannot happen (lc nonzero)
        factors = [(fp, 1)]
    factors.sort(key=lambda fm: (len(fm[0]), tuple(fm[0])))
    return [(IntPolynomial(tuple(poly)), mult) for poly, mult in factors]


def factor_shape_mod_p(f: IntPolynomial, p: int):
    """Multiset of (degree, multiplicity) pairs for f mod p, without EDD.

    Cheaper than factor_mod_p when only the splitting shape is needed.
    """
    fp = reduce_mod(f, p)
    if len(fp) != f.degree + 1:
        raise LeadingCoeffVanishesError(f"leading coefficient vanishes mod {p}")
    inv = pow(fp[-1], -1, p)
    fp = [c * inv % p for c in fp]
    shape = []
    for sq, mult in _squarefree_decomposition(fp, p):
        for d, block in _distinct_degree(sq, p):
            shape.extend([(d, mult)] * ((len(block) - 1) // d))
    shape.sort()
    return shape


# ----------------------------------------------------------------------
# Batched sweeps over many primes at once
# ----------------------------------------------------------------------

_BLOCK = 1 << 13


def _times_x(r, fmod, ps):
    """x r mod (f, p) per column: a shift plus one reduction row."""
    return (np.concatenate([np.zeros_like(r[:1]), r[:-1]]) - r[-1] * fmod[:-1]) % ps


def _square(r, fold, ps):
    """r^2 mod (f, p) per column, with fold[k] = x^(d+k) mod (f, p)."""
    d = len(r)
    conv = np.zeros((2 * d - 1, r.shape[1]), dtype=np.int64)
    for i in range(d):
        conv[i: i + d] += r[i] * r
    conv %= ps
    return (conv[:d] + sum(conv[d + k] * fold[k] for k in range(d - 1))) % ps


def _degrees(a):
    """Degree of every column polynomial, -1 for zero."""
    return np.where(a.any(axis=0), len(a) - 1 - np.argmax(a[::-1] != 0, axis=0), -1)


def _gcd_degrees(a, b, ps):
    """deg gcd(a, b) mod p per column by an inverse-free Euclid: once deg a
    >= deg b, a becomes lc(b) a - lc(a) x^(deg a - deg b) b mod p, which
    lowers deg a and keeps the gcd, since lc(b) is a unit."""
    col, row = np.arange(a.shape[1]), np.arange(len(a))[:, None]
    da, db = _degrees(a), _degrees(b)
    while (db >= 0).any():
        swap = da < db
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        shifted = np.take_along_axis(np.concatenate([np.zeros_like(b), b]),
                                     row + len(b) - (da - db), axis=0)
        lc_b = np.where(db >= 0, b[db, col], 1)
        a = (lc_b * a - a[da, col] * shifted) % ps
        da = _degrees(a)
    return da


def batch_root_counts(f: IntPolynomial, primes: np.ndarray):
    """Number of roots of monic f mod p for every prime in `primes`.

    Primes dividing lc or disc must be excluded by the caller. Degree <= 2
    uses closed forms. For degree d >= 3 the primes go in fixed-size blocks,
    one prime per column and one coefficient per row: x^p mod f by
    left-to-right square-and-multiply, where the multiply is by x and each
    column takes its own exponent bits, then deg gcd(x^p - x, f) by a
    batched Euclid that needs no inverses. Each product is reduced mod p
    once, so the int64 arithmetic is exact while d (p - 1)^2 < 2^63: p up to
    about 1.07e9 at d = 8 and 1.75e9 at d = 3. A larger prime raises
    DomainError.
    """
    d = f.degree
    primes = np.asarray(primes, dtype=np.int64)
    if d == 1:
        return np.ones(len(primes), dtype=np.int64)
    counts = np.zeros(len(primes), dtype=np.int64)
    if d == 2:
        a0, a1, a2 = f.coefficients
        disc = a1 * a1 - 4 * a2 * a0
        for i, p in enumerate(primes.tolist()):
            if p == 2:
                counts[i] = sum((a2 * x * x + a1 * x + a0) % 2 == 0 for x in (0, 1))
            else:
                counts[i] = 1 + jacobi(disc % p, p)
        return counts
    p_max = math.isqrt((2 ** 63 - 1) // d) + 1
    if primes.max(initial=0) > p_max:
        raise DomainError(f"degree-{d} batched root counts need p <= {p_max}, "
                          f"so that d (p - 1)^2 < 2^63; got {primes.max()}")
    coeffs = np.array(f.coefficients, dtype=np.int64)[:, None]
    for start in range(0, len(primes), _BLOCK):
        ps = primes[start: start + _BLOCK]
        fmod, fold, r = coeffs % ps, [], np.zeros((d, len(ps)), dtype=np.int64)
        r[-1] = 1
        for _ in range(d - 1):   # fold[k] = x^(d+k) mod (f, p)
            r = _times_x(r, fmod, ps)
            fold.append(r)
        r = np.zeros_like(r)
        r[0] = 1
        for bit in range(int(ps.max()).bit_length() - 1, -1, -1):
            r = _square(r, fold, ps)
            r = np.where((ps >> bit) & 1 == 1, _times_x(r, fmod, ps), r)
        r[1] = (r[1] - 1) % ps   # x^p - x, padded to the d + 1 rows of f
        g = np.concatenate([r, np.zeros_like(r[:1])])
        counts[start: start + len(ps)] = _gcd_degrees(fmod, g, ps)
    return counts
