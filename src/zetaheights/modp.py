"""Polynomial arithmetic and factorization over prime fields.

Dense coefficient lists (ascending, values in [0, p)) for the exact
single-prime path, plus numpy-batched Frobenius powering used to sweep
hundreds of thousands of primes when building splitting tables.
"""

from __future__ import annotations

import random
import zlib

import numpy as np

from .algebra import IntPolynomial
from .errors import LeadingCoeffVanishesError
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
        _, r = pdivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pmulmod(a, b, mod, p):
    _, r = pdivmod(pmul(a, b, p), mod, p)
    return r


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

def _batched_modmul(A, B, fmods, ps):
    """(rows, d) x (rows, d) -> product reduced mod (monic f, p) per row."""
    d = A.shape[1]
    conv = np.zeros((A.shape[0], 2 * d - 1), dtype=np.int64)
    for i in range(d):
        ai = A[:, i]
        for j in range(d):
            conv[:, i + j] += ai * B[:, j]
        if (i + 1) % 2 == 0:
            conv %= ps[:, None]
    conv %= ps[:, None]
    for k in range(2 * d - 2, d - 1, -1):
        lead = conv[:, k]
        for j in range(d):
            conv[:, k - d + j] -= lead * fmods[:, j]
        conv[:, k] = 0
        conv[:, k - d: k] %= ps[:, None]
    return conv[:, :d]


def _batched_frobenius(fmods, ps):
    """x^p mod f for every row; exponents vary per row via bit masks."""
    rows, d = fmods.shape
    result = np.zeros((rows, d), dtype=np.int64)
    result[:, 0] = 1
    if d == 1:
        return result * 0
    base = np.zeros((rows, d), dtype=np.int64)
    base[:, 1] = 1
    exps = ps.copy()
    maxbits = int(ps.max()).bit_length()
    for _ in range(maxbits):
        bit = (exps & 1).astype(bool)
        if bit.any():
            prod = _batched_modmul(result[bit], base[bit], fmods[bit], ps[bit])
            result[bit] = prod
        exps >>= 1
        if not exps.any():
            break
        base = _batched_modmul(base, base, fmods, ps)
    return result


def _root_count_from_power(h, fmod, p):
    """deg gcd(h - x, f) with h = x^p mod f, everything small lists."""
    g = list(h)
    if len(g) < 2:
        g += [0] * (2 - len(g))
    g[1] = (g[1] - 1) % p
    g = trim(g)
    f_list = list(fmod) + [1]
    return len(pgcd(f_list, g, p)) - 1


def batch_root_counts(f: IntPolynomial, primes: np.ndarray, chunk: int = 200_000):
    """Number of roots of monic f mod p for every prime in `primes`.

    Primes dividing lc or disc must be excluded by the caller. Degree <= 2
    uses closed forms; otherwise batched Frobenius powering plus one gcd.
    """
    d = f.degree
    counts = np.zeros(len(primes), dtype=np.int64)
    if d == 1:
        counts[:] = 1
        return counts
    if d == 2:
        a2, a1, a0 = f.coefficients[2], f.coefficients[1], f.coefficients[0]
        disc = a1 * a1 - 4 * a2 * a0
        for i, p in enumerate(primes.tolist()):
            if p == 2:
                counts[i] = sum((a2 * x * x + a1 * x + a0) % 2 == 0 for x in (0, 1))
            else:
                j = jacobi(disc % p, p)
                counts[i] = 1 + j
        return counts
    coeffs = np.array(f.coefficients[:-1], dtype=np.int64)
    for start in range(0, len(primes), chunk):
        ps = primes[start: start + chunk]
        fmods = np.mod(coeffs[None, :], ps[:, None])
        powers = _batched_frobenius(fmods, ps)
        plist = ps.tolist()
        fml = fmods.tolist()
        pwl = powers.tolist()
        for i, p in enumerate(plist):
            counts[start + i] = _root_count_from_power(pwl[i], fml[i], p)
    return counts

