"""Factorization over prime fields and the batched prime sweeps."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import nextprime, prevprime

from zetaheights import modp
from zetaheights.algebra import IntPolynomial, discriminant, parse_polynomial
from zetaheights.errors import DomainError, LeadingCoeffVanishesError
from zetaheights.modp import (batch_root_counts, factor_shape_mod_p, pgcd, pmul,
                              ppowmod, reduce_mod)
from zetaheights.primes import jacobi, sieve_primes


def brute_force_roots(f, p):
    return [x for x in range(p) if f(x) % p == 0]


def test_factor_examples():
    f = parse_polynomial("x^2+1")
    assert factor_shape_mod_p(f, 5) == [(1, 1), (1, 1)]
    assert factor_shape_mod_p(f, 2) == [(1, 2)]
    assert factor_shape_mod_p(parse_polynomial("x^3+3*x+213"), 2) == [(3, 1)]


def test_factor_leading_coeff_vanishes():
    f = IntPolynomial.from_coefficients([1, 1, 5])
    with pytest.raises(LeadingCoeffVanishesError):
        factor_shape_mod_p(f, 5)


def test_linear_factor_count_matches_brute_force():
    """Distinct linear factors of f mod p equal brute-force root counts."""
    rng = random.Random(23)
    primes = [int(p) for p in sieve_primes(49)]
    for _ in range(40):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [1]
        f = IntPolynomial.from_coefficients(coeffs)
        for p in primes:
            distinct = sum(1 for d, _m in factor_shape_mod_p(f, p) if d == 1)
            assert distinct == len(brute_force_roots(f, p))


def test_factor_shape_agrees_with_full_factorization():
    """The shape against sympy's factorization mod p, at the primes dividing
    the discriminant (where f mod p has repeated factors) as well."""
    from sympy import Poly, symbols
    x = symbols("x")
    rng = random.Random(5)
    for _ in range(30):
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [1]
        f = IntPolynomial.from_coefficients(coeffs)
        disc = discriminant(f)
        bad = [p for p in sieve_primes(100).tolist() if disc and disc % p == 0]
        for p in sorted({2, 3, 7, 19, 31, 1000003, *bad}):
            shape = factor_shape_mod_p(f, p)
            full = sorted((g.degree(), m) for g, m in
                          Poly(coeffs[::-1], x, modulus=p).factor_list()[1])
            assert shape == full, (coeffs, p)


def test_batch_root_counts_vs_brute_force():
    for text in ("x^3+3*x+213", "x^5+2*x^2+26", "x^4+18*x^2+60", "x^2+1"):
        f = parse_polynomial(text)
        from zetaheights.algebra import discriminant
        disc = discriminant(f)
        primes = np.array([p for p in sieve_primes(200).tolist()
                           if disc % p != 0], dtype=np.int64)
        counts = batch_root_counts(f, primes)
        for p, c in zip(primes.tolist(), counts.tolist()):
            assert c == len(brute_force_roots(f, p)), (text, p)


@pytest.mark.parametrize("deg", [2, 5, 8])
def test_batch_root_counts_with_coefficients_beyond_int64(deg):
    """q^n f(x / q) with q = 2^61 - 1 has coefficients past 2^63: they
    reduce exactly mod each prime, for the sweep and for Euler's criterion."""
    rng = random.Random(deg)
    while True:
        tail = [rng.randint(-3, 3) for _ in range(deg)]
        f = IntPolynomial.from_coefficients(
            [c * (2 ** 61 - 1) ** (deg - i) for i, c in enumerate(tail)] + [1])
        disc = discriminant(f)
        if tail[0] and disc:
            break
    assert max(abs(c) for c in f.coefficients) >= 2 ** 63
    primes = np.array([p for p in sieve_primes(300).tolist() if disc % p],
                      dtype=np.int64)
    want = [len(brute_force_roots(f, p)) for p in primes.tolist()]
    assert batch_root_counts(f, primes).tolist() == want


def test_batch_root_counts_large_prime_spot_check():
    from sympy import Poly, symbols, factor_list
    x = symbols("x")
    f = parse_polynomial("x^5+42")
    primes = np.array([1000003, 1000033, 1000037, 999983], dtype=np.int64)
    counts = batch_root_counts(f, primes)
    for p, got in zip(primes.tolist(), counts.tolist()):
        fl = factor_list(Poly([1, 0, 0, 0, 0, 42], x), modulus=p)
        want = sum(1 for g, _m in fl[1] if g.degree() == 1)
        assert got == want, p


def int64_prime_bound(d):
    """Largest p with d (p - 1)^2 < 2^63."""
    return math.isqrt((2 ** 63 - 1) // d) + 1


def float_edge_primes(terms):
    """The two primes on each side of the float64 sweep's bound."""
    bound = modp._float_bound(terms)
    below, above = prevprime(bound + 1), nextprime(bound)
    return [prevprime(below), below, above, nextprime(above)]


# primes of very different bit lengths: below 100, near 1e3, near 1e6, the
# two on each side of every degree's float64 bound, and the two largest
# below the int64 bound of each degree
MIXED_PRIMES = (sieve_primes(100).tolist() + [991, 997, 1009, 1013]
                + [999979, 999983, 1000003, 1000033]
                + [q for d in range(3, 9) for q in float_edge_primes(d)])
TOP_PRIMES = {d: [prevprime(prevprime(int64_prime_bound(d) + 1)),
                  prevprime(int64_prime_bound(d) + 1)] for d in range(3, 9)}


def linear_factor_count(f, p):
    return sum(1 for deg, _m in factor_shape_mod_p(f, p) if deg == 1)


@given(st.integers(3, 8).flatmap(
           lambda d: st.lists(st.integers(-60, 60), min_size=d, max_size=d)),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_batch_root_counts_mixed_bit_lengths(tail, rnd):
    f = IntPolynomial.from_coefficients(tail + [1])
    disc = discriminant(f)
    assume(disc != 0)
    primes = [p for p in MIXED_PRIMES + TOP_PRIMES[f.degree] if disc % p]
    rnd.shuffle(primes)
    counts = batch_root_counts(f, np.array(primes, dtype=np.int64))
    assert counts.tolist() == [linear_factor_count(f, p) for p in primes]


def test_batch_root_counts_across_blocks():
    f = parse_polynomial("x^7+3*x^4-5*x+11")
    disc = discriminant(f)
    distinct = [p for p in MIXED_PRIMES + TOP_PRIMES[7] if disc % p]
    primes = distinct * (modp._BLOCK // len(distinct) + 2)
    random.Random(3).shuffle(primes)
    assert len(primes) > modp._BLOCK
    want = {p: linear_factor_count(f, p) for p in distinct}
    counts = batch_root_counts(f, np.array(primes, dtype=np.int64))
    assert counts.tolist() == [want[p] for p in primes]


def test_batch_root_counts_int64_bound():
    f = parse_polynomial("x^3+3*x+213")
    below = prevprime(int64_prime_bound(3) + 1)
    above = nextprime(int64_prime_bound(3))
    counts = batch_root_counts(f, np.array([7, below], dtype=np.int64))
    assert counts.tolist() == [linear_factor_count(f, 7),
                               linear_factor_count(f, below)]
    with pytest.raises(DomainError, match=r"2\^63"):
        batch_root_counts(f, np.array([7, above], dtype=np.int64))


@pytest.mark.parametrize("terms", range(1, 9))
def test_float_bound_is_the_largest_p_within_2_to_the_53(terms):
    """terms m^2 + p + 4 <= 2^53 with m = p/2 + 2, and no larger p."""
    def fits(p):
        return terms * (p + 4) ** 2 + 4 * p + 16 <= 2 ** 55
    bound = modp._float_bound(terms)
    assert fits(bound) and not fits(bound + 1)


@pytest.mark.parametrize("text", ["x^2+1", "x^2-x-1", "x^2+x+1",
                                  "3*x^2+7*x-1000003"])
def test_batch_root_counts_quadratic_matches_jacobi(text):
    """Euler's criterion against 1 + (disc | p) on every prime to 1e5, p = 2
    and the primes dividing disc included, and on both sides of the float
    bound, where the jacobi loop takes over."""
    f = parse_polynomial(text)
    a0, a1, a2 = f.coefficients
    disc = a1 * a1 - 4 * a2 * a0
    primes = sieve_primes(10 ** 5).tolist() + float_edge_primes(1)
    random.Random(7).shuffle(primes)
    want = [len(brute_force_roots(f, p)) if p == 2 else 1 + jacobi(disc % p, p)
            for p in primes]
    assert batch_root_counts(f, np.array(primes, dtype=np.int64)).tolist() == want


def roots_in_field(f, p, q):
    """deg gcd(x^q - x, f mod p) by the single-prime list arithmetic."""
    fp = reduce_mod(f, p)
    h = ppowmod([0, 1], q, fp, p) + [0, 0]
    h[1] = (h[1] - 1) % p
    return len(pgcd(h, fp, p)) - 1


def test_batch_root_counts_in_prime_power_fields():
    """Columns (p, p^k) against the list gcd, quadratics included, for every
    p up to 11 whether or not it divides disc f."""
    rng = random.Random(41)
    ps = np.array([2, 3, 5, 7, 11], dtype=np.int64)
    for deg in [1, 2, 2, 2] + list(range(3, 9)) * 3:
        f = IntPolynomial.from_coefficients(
            [rng.randint(-30, 30) for _ in range(deg)] + [1])
        for k in range(1, 5):
            want = [roots_in_field(f, p, p ** k) for p in ps.tolist()]
            assert batch_root_counts(f, ps, ps ** k).tolist() == want, (f, k)


def test_sweep_trace_matches_the_list_gcd():
    """The trace of a -> a^q on F_p[x]/(f) counts f's distinct roots in F_q:
    swept columns (p, p^k) against deg gcd(x^q - x, f mod p) by the list
    arithmetic, on random monic degree-8 f. p = 2, small and float-edge
    primes run in one float64 block, and a block past the float bound in
    int64. Each f is g^2 u mod 11 and 13, so those two primes above the
    degree divide disc f, and f mod p keeps a repeated factor."""
    rng = random.Random(13)
    d = 8
    for ps in ([2, 3, 5, 7, 11, 13, 101, 65537] + float_edge_primes(2 * d)[:2],
               [2, 11, 13] + float_edge_primes(2 * d)[2:]
               + [prevprime(int64_prime_bound(d))]):
        for _ in range(4):
            g = [rng.randint(-9, 9) for _ in range(2)] + [1]
            u = [rng.randint(-9, 9) for _ in range(4)] + [1]
            square = np.convolve(np.convolve(g, g), u).tolist()
            f = IntPolynomial.from_coefficients(
                [c + 143 * rng.randint(-9, 9) for c in square[:d]] + [1])
            assert discriminant(f) % 143 == 0
            cols = [(p, p ** k) for p in ps for k in range(1, 6) if p ** k < 2 ** 62]
            cols = [rng.choice(cols) for _ in range(50)]
            want = [roots_in_field(f, p, q) for p, q in cols]
            got = swept(f, np.array([p for p, _ in cols]), np.array([q for _, q in cols]))
            assert got.tolist() == want, f


def swept(f, ps, qs):
    """batch_root_counts forced through the sweep, block by block."""
    coeffs = modp._coefficient_column(f)
    return np.concatenate([modp._sweep_block(coeffs, ps[i: i + modp._BLOCK],
                                             qs[i: i + modp._BLOCK])
                           for i in range(0, len(ps), modp._BLOCK)])


def assert_pure_counts_match_the_sweep(f, X):
    """Every prime to X at q = p, the columns (p, p^2) and (p, p^3) with
    q <= 10 X, and (2, 2^k) for k to 40 against the list gcd."""
    primes = sieve_primes(X)
    for k in (1, 2, 3):
        ps = primes[primes.astype(float) ** k <= 10 * X]
        assert np.array_equal(batch_root_counts(f, ps, ps ** k), swept(f, ps, ps ** k)), k
    twos = np.full(40, 2, dtype=np.int64)
    want = [roots_in_field(f, 2, 2 ** k) for k in range(1, 41)]
    assert batch_root_counts(f, twos, twos ** np.arange(1, 41)).tolist() == want


@pytest.mark.parametrize("text", ["x^2+1", "x^4+1", "x^5+42", "x^6+65", "x^6+85"])
def test_pure_field_root_counts_match_the_sweep(text):
    """x^n + c takes the power-residue count at every column, the primes
    dividing n c included; it must agree with the sweep and the list gcd."""
    assert_pure_counts_match_the_sweep(parse_polynomial(text), 10 ** 6)


@pytest.mark.stretch
def test_sextic_root_counts_match_the_sweep_to_its_row_cutoff():
    assert_pure_counts_match_the_sweep(parse_polynomial("x^6+65"), 59 * 10 ** 6)


def power_residue_count(n, c, p, q):
    g = math.gcd(n, q - 1)
    return 1 if c % p == 0 else g * (pow(-c, (q - 1) // g, p) == 1)


def test_pure_field_root_counts_at_the_int64_edge():
    """x^6+85 near its row cutoff 1.14e8, where p^2 reaches 1.3e16, and at
    the two primes below the power-residue bound (p - 1)^2 < 2^63, against
    Python's pow, the sweep and the list gcd; the next prime raises. A
    constant past int64 is reduced mod p as a Python integer."""
    big = IntPolynomial.from_coefficients([3 - (2 ** 61 - 1) ** 5, 0, 0, 0, 0, 1])
    ps = sieve_primes(300)
    assert batch_root_counts(big, ps).tolist() == [
        len(brute_force_roots(big, p)) for p in ps.tolist()]
    f = parse_polynomial("x^6+85")
    near = [prevprime(114_000_000), nextprime(114_000_000), nextprime(114_100_000)]
    top = [prevprime(prevprime(int64_prime_bound(1) + 1)),
           prevprime(int64_prime_bound(1) + 1)]
    for k, ps in ((1, near + top), (2, near)):
        ps = np.array(ps, dtype=np.int64)
        got = batch_root_counts(f, ps, ps ** k).tolist()
        assert got == [power_residue_count(6, 85, p, p ** k) for p in ps.tolist()]
        assert got == [roots_in_field(f, p, p ** k) for p in ps.tolist()]
        assert got[:3] == swept(f, ps[:3], ps[:3] ** k).tolist()
    with pytest.raises(DomainError, match=r"2\^63"):
        batch_root_counts(f, np.array([7, nextprime(int64_prime_bound(1))]))


# the two primes on each side of each degree's float64 sweep bound, where a
# row of the square plus its top-down fold sums up to 2d products
SWEEP_EDGE_PRIMES = {d: float_edge_primes(2 * d) for d in range(3, 9)}


def sparse_polynomials(d, rng):
    """x^d + b and x^d + a x^j + b for every 0 < j < d, squarefree over Q."""
    out = []
    for j in [None] + list(range(1, d)):
        while True:
            a, b = rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(-60, 60)
            coeffs = [b] + [0] * (d - 1) + [1]
            if j is not None:
                coeffs[j] = a
            f = IntPolynomial.from_coefficients(coeffs)
            if b and discriminant(f):
                out.append(f)
                break
    return out


@pytest.mark.parametrize("d", range(3, 9))
def test_sweep_of_binomials_and_trinomials(d):
    """The top-down fold reads only f's nonzero coefficients below x^d:
    x^d + b and x^d + a x^j + b at every j, swept at primes of every bit
    length, both sides of the float64 bound at 2d products and the int64
    edge, against the single-prime factorization. Binomials take the power
    residues in batch_root_counts, and the sweep directly as well."""
    for f in sparse_polynomials(d, random.Random(100 + d)):
        disc = discriminant(f)
        primes = [p for p in MIXED_PRIMES + SWEEP_EDGE_PRIMES[d] + TOP_PRIMES[d]
                  if disc % p]
        random.Random(d).shuffle(primes)
        ps = np.array(primes, dtype=np.int64)
        want = [linear_factor_count(f, p) for p in primes]
        assert batch_root_counts(f, ps).tolist() == want, f
        order = np.argsort(ps)   # the sweep takes one block, float or int64
        split = np.searchsorted(ps[order], modp._float_bound(2 * d), side="right")
        for at in (order[:split], order[split:]):
            assert swept(f, ps[at], ps[at]).tolist() == [want[i] for i in at], f


def test_power_residue_counts_against_pow():
    """Every column against Python's pow for n = 2..8: q = p^k for k <= 3,
    columns whose exponent (q - 1)/g mod (p - 1) is 0 mixed with the rest in
    one block, constants that primes divide, and a block with no 0 exponent."""
    ps = sieve_primes(400)
    cols = [(p, p ** k) for p in ps.tolist() for k in (1, 2, 3)]
    p_arr = np.array([p for p, _ in cols], dtype=np.int64)
    q_arr = np.array([q for _, q in cols], dtype=np.int64)
    for n in range(2, 9):
        for c in (1, -2, 3, 42, 65, -210, 2 * 3 * 5 * 7 * 11 * 13, 2 ** 70 + 1):
            want = [power_residue_count(n, c, p, q) for p, q in cols]
            got = modp._power_residue_counts(n, c, p_arr, q_arr).tolist()
            assert got == want, (n, c)
        e = (q_arr - 1) // np.gcd(n, q_arr - 1) % (p_arr - 1)
        assert (e == 0).any() and (e != 0).any()
    odd = ps[1:]   # n = 2 at q = p: e = (p - 1)/2 is never 0 for odd p
    assert modp._power_residue_counts(2, -3, odd, odd).tolist() == [
        power_residue_count(2, -3, p, p) for p in odd.tolist()]


@pytest.mark.parametrize("deg", range(2, 9))
def test_sweep_block_with_field_sizes_from_2_to_2_to_the_40(deg):
    """One block whose q run from 2 to 2^40: small q start from x^q itself
    or from x^0, the largest from its leading floor(log2 2d) bits."""
    rng = random.Random(deg)
    f = IntPolynomial.from_coefficients([rng.randint(-30, 30) for _ in range(deg)] + [1])
    cols = [(p, p ** k) for p in (2, 3, 5, 7, 1009, 65537)
            for k in range(1, 41) if p ** k <= 2 ** 40]
    ps = np.array([p for p, _ in cols], dtype=np.int64)
    qs = np.array([q for _, q in cols], dtype=np.int64)
    assert len(cols) < modp._BLOCK and qs.min() == 2 and qs.max() == 2 ** 40
    want = [roots_in_field(f, p, q) for p, q in cols]
    assert swept(f, ps, qs).tolist() == want
    assert batch_root_counts(f, ps, qs).tolist() == want


def defer_args(f):
    """(sum |f_j|, passes) for f's fold, f_j below x^d, as _sweep_block has
    them while every |f_j| < p/2."""
    low = [j for j, c in enumerate(f.coefficients[:-1]) if c]
    return sum(abs(f.coefficients[j]) for j in low), -(-f.degree // (f.degree - max(low)))


def defer_edge(f, limit):
    """Largest p with 2d m^2 (1 + sum |f_j|)^passes + m < limit, m = p // 2
    + 2, by bisection."""
    f_max, passes = defer_args(f)
    lo, hi = 2, 2 ** 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        m = mid // 2 + 2
        lo, hi = (mid, hi) if 2 * f.degree * m * m * (1 + f_max) ** passes + m < limit else (lo, mid)
    return lo


@pytest.mark.parametrize("text, limit", [("x^5+2*x^2+26", 2 ** 53), ("x^3+3*x+213", 2 ** 53),
                                         ("x^7-7*x+3", 2 ** 62), ("x^3+x+1", 2 ** 62)])
def test_sweep_block_defers_within_its_bound(text, limit):
    """The two primes on each side of the deferral bound, swept as one block
    each, against linear_factor_count: below it the fold reduces only its
    last rows, above it every pass. x^7-7x+3 and x^3+x+1 reach their bound
    past the float64 one, in int64 blocks."""
    f = parse_polynomial(text)
    edge = defer_edge(f, limit)
    assert (edge > modp._float_bound(2 * f.degree)) == (limit == 2 ** 62)
    below = [prevprime(prevprime(edge + 1)), prevprime(edge + 1)]
    above = [nextprime(edge), nextprime(nextprime(edge))]
    for ps, defers in ((below, True), (above, False)):
        assert modp._defer_bound(f.degree, max(ps), *defer_args(f), limit) == defers
        got = swept(f, np.array(ps, dtype=np.int64), np.array(ps, dtype=np.int64))
        assert got.tolist() == [linear_factor_count(f, p) for p in ps], (ps, defers)


def test_sweep_block_with_large_coefficients_reduces_every_pass():
    """Coefficients near p leave 2d m^2 (1 + sum |f_j|)^passes past 2^53 at
    every p, so the fold must reduce between passes; left unreduced, its
    rows would pass 2^53 and lose bits."""
    f = parse_polynomial("x^8+999983*x^5-1000003*x^3+999979*x-1234577")
    ps = np.array(sieve_primes(400000)[-300:].tolist() + [1000003, 1000033, 1000037],
                  dtype=np.int64)
    p = int(ps.min())
    f_max = sum(abs((c + p // 2) % p - p // 2) for c in f.coefficients[:-1])
    assert not modp._defer_bound(8, p, f_max, 3, 2 ** 53)
    assert swept(f, ps, ps).tolist() == [linear_factor_count(f, p) for p in ps.tolist()]
