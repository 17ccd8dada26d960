"""Number fields: maximal orders, splitting, coefficients, variance."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from zetaheights import (build_number_field, bz_disc_lower_bound,
                         dirichlet_coefficients, irreducibility_certificate,
                         parse_polynomial, prime_splitting, splitting_table,
                         variance_profile)
from zetaheights.algebra import IntPolynomial
from zetaheights.errors import (DomainError, NotUniformSplittingError,
                               OverrideRequiredError)
from zetaheights.fields import (_split_index_prime, coefficient_array, is_irreducible,
                                norm_counts)
from zetaheights.primes import sieve_primes
from zetaheights.table1 import ROWS

P = parse_polynomial

KNOWN_FIELDS = [
    # poly, n, r1, r2, index, field_disc
    ("x^2+1", 2, 0, 1, 1, -4),
    ("x^2-5", 2, 2, 0, 2, 5),
    ("x^2+3", 2, 0, 1, 2, -3),
    ("x^2-2", 2, 2, 0, 1, 8),
    ("x^3-x-1", 3, 1, 1, 1, -23),
    ("x^3+x^2-2*x+8", 3, 1, 1, 2, -503),
    ("x^3+3*x+213", 3, 1, 1, 17, -4239),
    ("x^3+3*x+2613", 3, 1, 1, 157, -7479),
    ("x^4+1", 4, 0, 2, 1, 256),
    ("x^5+42", 5, 1, 2, 1, 9724050000),
]


@pytest.mark.parametrize("text,n,r1,r2,index,disc", KNOWN_FIELDS)
def test_known_fields(text, n, r1, r2, index, disc):
    K = build_number_field(P(text))
    assert (K.n_K, K.r1, K.r2, K.index, K.field_disc) == (n, r1, r2, index, disc)


def test_field_invariants_hold(ctx):
    from tests.conftest import FIXTURE_POLYS
    for text in FIXTURE_POLYS:
        K = ctx.field(text)
        assert K.r1 + 2 * K.r2 == K.n_K
        assert K.poly_disc == K.index ** 2 * K.field_disc
        if K.n_K > 1:
            assert (K.field_disc < 0) == (K.r2 % 2 == 1)


def test_round_two_against_sympy():
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two
    x = symbols("x")
    # x^4+3x^2+1650 is excluded: sympy 1.14 returns 64247 there, which does
    # not even divide the polynomial discriminant 2^5 3^3 5^2 11 13^6, while
    # this package's 1606176 = 2^5 3^3 11 13^2 matches the reference table.
    for text in ("x^3+18*x^2+312", "x^3+5*x^2+235", "x^4+3*x^2+2109",
                 "x^4+18*x^2+60", "x^5+2*x^2+26", "x^6+65"):
        f = P(text)
        K = build_number_field(f)
        _zk, dk = round_two(Poly(f.coefficients[::-1], x))
        assert K.field_disc == int(dk), text


def test_integral_basis_is_an_order():
    K = build_number_field(P("x^2-5"))
    rows = [tuple(r) for r in K.integral_basis]
    assert len(rows) == 2
    # index 2: lattice covolume is half the power basis, i.e. (1+sqrt5)/2 in
    vol = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    assert vol == Fraction(1, 2)
    halves = [r for r in rows if any(c.denominator == 2 for c in r)]
    assert halves, "expected a half-integral basis element"


def test_monic_required():
    with pytest.raises(DomainError):
        build_number_field(IntPoly_nonmonic())


def IntPoly_nonmonic():
    from zetaheights.algebra import IntPolynomial
    return IntPolynomial.from_coefficients([1, 0, 2])


def test_reducible_rejected():
    for bad in ("x^2-1", "x^4+4", "x^6+1"):
        with pytest.raises(DomainError, match="reducible .*witness"):
            build_number_field(P(bad))


def test_irreducibility_certificate_examples():
    assert irreducibility_certificate(P("x^2+1")).certified
    cert = irreducibility_certificate(P("x^2-1"))
    assert not cert.certified
    assert cert.witness is not None
    assert irreducibility_certificate(P("x^3+3*x+213")).certified
    # x^4+1 factors mod every prime: certificate must stay inconclusive,
    # while the complete decision still recognizes it as irreducible
    assert not irreducibility_certificate(P("x^4+1")).certified
    assert is_irreducible(P("x^4+1"))


def test_prime_splitting_gaussian_integers():
    K = build_number_field(P("x^2+1"))
    assert prime_splitting(K, 5).factors == ((1, 1), (1, 1))
    assert prime_splitting(K, 2).factors == ((2, 1),)
    assert prime_splitting(K, 3).factors == ((1, 2),)


def test_prime_splitting_dedekind_index_field():
    """2 splits completely although no generator shows it mod 2."""
    K = build_number_field(P("x^3+x^2-2*x+8"))
    assert K.index == 2
    assert prime_splitting(K, 2).factors == ((1, 1), (1, 1), (1, 1))


def test_prime_splitting_ramified_index_prime():
    # index divisors of the reference-table fields (sympy's prime_decomp
    # cannot serve as the oracle: it fails at 7 for x^3+18x^2+312)
    for text, p, shape in (("x^3+18*x^2+312", 2, ((1, 3),)),
                           ("x^3+18*x^2+312", 7, ((1, 1), (1, 2))),
                           ("x^4+18*x^2+60", 2, ((2, 2),))):
        K = build_number_field(P(text))
        assert K.index % p == 0
        assert prime_splitting(K, p).factors == shape, (text, p)
    K = build_number_field(P("x^4+3*x^2+1650"))
    assert K.index == 845  # 5 * 13^2
    assert prime_splitting(K, 13).factors == ((2, 2),)
    assert prime_splitting(K, 5).factors == ((1, 2), (1, 2))
    assert sum(e * f for e, f in prime_splitting(K, 2).factors) == 4


def _scaled(text, q):
    """q^n f(x / q): a generator of the field of f whose index q divides."""
    f = P(text)
    return IntPolynomial(tuple(c * q ** (f.degree - i)
                               for i, c in enumerate(f.coefficients)))


@pytest.mark.parametrize("text, q, shape", [
    # x^8+3x^7-18x^6+81x^4-243x^3-729x^2+2187x-19683 and
    # x^7-27x^5+54x^4-243x^3+729x^2-1458x+6561: e = 4 and e = 6 at 3
    ("x^8+x^7-2*x^6+x^4-x^3-x^2+x-3", 3, ((1, 1), (1, 3), (4, 1))),
    ("x^7-3*x^5+2*x^4-3*x^3+3*x^2-2*x+3", 3, ((1, 1), (6, 1))),
    ("x^8+3*x^7-x^6+3*x^5-2*x^4+3*x^3-3*x^2-2*x+2", 1009,
     ((1, 1), (1, 1), (1, 2), (1, 4))),
])
def test_index_prime_with_large_e_or_p(text, q, shape):
    """Index divisors with a large ramification index or a large prime; the
    norm-count table reads the same shape at every power of q it holds."""
    K = build_number_field(_scaled(text, q))
    assert K.index % q == 0
    assert prime_splitting(K, q).factors == shape
    X = max(100, q)
    qs, n = norm_counts(K, X)
    k = 1
    while q ** k <= X:
        assert n[np.searchsorted(qs, q ** k)] == sum(1 for _e, f in shape if f == k)
        k += 1


SCALED_BASES = tuple(row[0] for row in ROWS if P(row[0]).degree <= 4) + (
    "x^2+1", "x^2-5", "x^5+2*x^2+26", "x^6+65",
    "x^7-3*x^5+2*x^4-3*x^3+3*x^2-2*x+3", "x^8-2")


@pytest.mark.parametrize("q", [2, 3, 5, 101])
@pytest.mark.parametrize("text", SCALED_BASES)
def test_scaled_generator_index_closed_form(text, q):
    """Z[q alpha] has index q^(n(n-1)/2) in Z[alpha], so the maximal order
    of q^n f(x/q) has that much more index and the same discriminant."""
    K = build_number_field(P(text))
    L = build_number_field(_scaled(text, q))
    n = K.n_K
    assert L.index == q ** (n * (n - 1) // 2) * K.index
    assert L.field_disc == K.field_disc


@pytest.mark.parametrize("text", [row[0] for row in KNOWN_FIELDS] + [
    text for text in SCALED_BASES if P(text).degree >= 7])
def test_idempotent_split_matches_dedekind_off_the_index(text):
    """The Berlekamp split holds at every prime, not only above the index:
    off the index it must give Dedekind's shape, at p = 2 and at inert,
    split and ramified primes alike."""
    K = build_number_field(P(text))
    for p in sieve_primes(100).tolist():
        if K.index % p:
            assert _split_index_prime(K, p) == prime_splitting(K, p).factors, p


@pytest.mark.parametrize("p", [0, 1, 4, 9, -5])
def test_splitting_needs_a_prime(p):
    """A p that is not prime raises DomainError, even where an override
    names it, instead of hanging or failing deep inside the arithmetic."""
    for text in ("x^2+1", "x^3+3*x+213"):
        f = P(text)
        K = build_number_field(f)
        with pytest.raises(DomainError, match="prime"):
            prime_splitting(K, p)
        with pytest.raises(DomainError, match="prime"):
            prime_splitting(K, p, override={p: [(1, K.n_K)]})
        with pytest.raises(DomainError, match="prime"):
            variance_profile(f, K, p)


def test_variance_profile_reads_the_field_of_its_polynomial():
    """5 is inert in Q(sqrt(-3)) and splits in Q(i): x^2+3 is not the
    polynomial of Q(i), so its profile there is refused."""
    K = build_number_field(P("x^2+1"))
    with pytest.raises(DomainError, match="defining polynomial"):
        variance_profile(P("x^2+3"), K, 5)
    assert variance_profile(P("x^2+1"), K, 5).q == 5


def _times_mod(u, v, f):
    """u v reduced mod the monic f, as coefficient lists over the power basis."""
    n = f.degree
    out = [0] * (2 * n - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        c = out.pop()
        for j in range(n):
            out[k - n + j] -= c * f.coefficients[j]
    return out


def test_structure_constants_reproduce_products():
    K = build_number_field(_scaled("x^4+3*x^2+1650", 101))
    basis = K.integral_basis
    struct = K.state.max_order.structure_constants()
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            product = [sum(c * b[t] for c, b in zip(struct[i][j], basis))
                       for t in range(K.n_K)]
            assert product == _times_mod(bi, bj, K.defining_poly), (i, j)


def test_splitting_against_sympy_sample():
    from sympy import Poly, symbols, factor_list
    x = symbols("x")
    f = P("x^5+2*x^2+26")
    K = build_number_field(f)
    sp = Poly(f.coefficients[::-1], x)
    for p in sieve_primes(300).tolist():
        got = prime_splitting(K, p).factors
        want = tuple(sorted((m, g.degree()) for g, m in
                            factor_list(sp, modulus=p)[1]))
        assert got == want, p


def test_sum_ef_invariant(ctx):
    for text in ("x^3+3*x+213", "x^4+3*x^2+1650", "x^5+42"):
        K = ctx.field(text)
        for p in sieve_primes(1000).tolist():
            assert sum(e * f for e, f in prime_splitting(K, p).factors) == K.n_K


def test_splitting_override():
    K = build_number_field(P("x^2+1"))
    forced = prime_splitting(K, 97, override={97: [(1, 2)]})
    assert forced.factors == ((1, 2),)
    # the override covers its own call only: 97 = 1 mod 4 still splits
    assert prime_splitting(K, 97).factors == ((1, 1), (1, 1))
    assert splitting_table(K, 200).counts[97] == 2
    assert dirichlet_coefficients(K, 200).a[96] == 2
    # with the override passed, tables and coefficients show the forced shape
    override = {97: [(1, 2)]}
    assert splitting_table(K, 200, override).counts[97] == 0
    assert dirichlet_coefficients(K, 200, override).a[96] == 0
    assert splitting_table(K, 200).counts[97] == 2
    # a good prime whose shape is already cached is overridden too
    K3 = build_number_field(P("x^2+3"))
    assert splitting_table(K3, 50).counts[13] == 2
    assert splitting_table(K3, 50, override={13: [(1, 2)]}).counts[13] == 0
    assert splitting_table(K3, 50).counts[13] == 2


def test_override_stands_in_for_an_index_prime(monkeypatch):
    """The escape hatch: an index-divisor prime whose splitting cannot be
    computed still has tables and coefficients when the override names it."""
    from zetaheights import fields
    monkeypatch.setattr(fields, "_FIELDS", {})

    def unsplittable(K, p):
        raise OverrideRequiredError(p)

    monkeypatch.setattr(fields, "_split_index_prime", unsplittable)
    K = build_number_field(P("x^2+11"))   # index 2; 2 is inert in Q(sqrt(-11))
    with pytest.raises(OverrideRequiredError):
        splitting_table(K, 10)
    override = {2: [(1, 2)]}
    t = splitting_table(K, 10, override)
    assert {q: c for q, c in t.counts.items() if c} == {3: 2, 4: 1, 5: 2}
    assert dirichlet_coefficients(K, 10, override).a == (1, 0, 2, 1, 2, 0, 0, 0, 3, 0)
    with pytest.raises(OverrideRequiredError):
        dirichlet_coefficients(K, 10)


def test_splitting_table_examples():
    Ki = build_number_field(P("x^2+1"))
    t = splitting_table(Ki, 10)
    assert {q: c for q, c in t.counts.items() if c} == {2: 1, 5: 2, 9: 1}
    assert t.counts[4] == 0 and t.counts[7] == 0
    KQ = build_number_field(P("x"))
    tq = splitting_table(KQ, 10)
    assert {q: c for q, c in tq.counts.items() if c} == {2: 1, 3: 1, 5: 1, 7: 1}
    assert tq.counts[4] == tq.counts[8] == tq.counts[9] == 0
    K3 = build_number_field(P("x^3+3*x+213"))
    assert splitting_table(K3, 2).counts == {2: 0}


def test_norm_count_bound_invariant(ctx):
    for text in ("x^2+1", "x^3+3*x+213", "x^5+42"):
        K = ctx.field(text)
        t = splitting_table(K, 2000)
        for q, c in t.counts.items():
            f = 1
            p = None
            for cand in sieve_primes(int(q ** 0.5) + 1).tolist() + [q]:
                if q % cand == 0:
                    p = cand
                    break
            while p ** (f + 1) <= q:
                f += 1
            assert c <= K.n_K // f


def test_dirichlet_coefficients_examples():
    KQ = build_number_field(P("x"))
    assert dirichlet_coefficients(KQ, 6).a == (1, 1, 1, 1, 1, 1)
    Ki = build_number_field(P("x^2+1"))
    assert dirichlet_coefficients(Ki, 10).a == (1, 1, 0, 1, 2, 0, 0, 1, 1, 2)


def test_gaussian_coefficients_brute_force_oracle():
    """Ideal counts of Z[i] by enumerating Gaussian integers up to units."""
    N = 200
    counts = [0] * (N + 1)
    bound = int(math.isqrt(N)) + 1
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            if 0 < n <= N:
                counts[n] += 1
    want = tuple(c // 4 for c in counts[1:])
    Ki = build_number_field(P("x^2+1"))
    assert dirichlet_coefficients(Ki, N).a == want


def test_multiplicativity_to_1e4(ctx):
    for text in ("x^2+1", "x^3+3*x+213", "x^5+42"):
        K = ctx.field(text)
        a = (1,) + dirichlet_coefficients(K, 10 ** 4).a  # 1-indexed
        for m in range(2, 101):
            for n in range(m, 10 ** 4 // m + 1):
                if math.gcd(m, n) == 1:
                    assert a[m * n] == a[m] * a[n], (text, m, n)
        t = splitting_table(K, 1000)
        for p in sieve_primes(1000).tolist():
            assert a[p] == t.counts[p]


def _coefficients_by_definition(K, N, override=None):
    """a_n as the multiplicative function whose value at p^k counts the
    ideals of norm p^k: the T^k coefficient of prod_f (1 - T^f)^(-N_{p^f})."""
    q, n = norm_counts(K, N, override)
    count = dict(zip(q.tolist(), n.tolist()))
    spf = list(range(N + 1))
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                spf[m] = min(spf[m], p)
    local = {}
    a = [0, 1] + [0] * (N - 1)
    for m in range(2, N + 1):
        p, k, rest = spf[m], 0, m
        while rest % p == 0:
            rest //= p
            k += 1
        if p not in local:
            kmax = int(math.log(N, p)) + 1
            c = [1] + [0] * kmax
            for f in range(1, kmax + 1):
                for _ in range(count.get(p ** f, 0)):
                    for j in range(f, kmax + 1):
                        c[j] += c[j - f]
            local[p] = c
        a[m] = a[rest] * local[p][k]
    return a


@pytest.mark.parametrize("text,override", [
    ("x", None), ("x^2+1", None), ("x^3+3*x+213", None), ("x^5+42", None),
    ("x^4+1", None),
    # force a small and a large split prime inert
    ("x^2+1", {13: [(1, 2)], 157: [(1, 2)]}),
])
def test_coefficient_array_matches_definition(text, override):
    N = 20000
    K = build_number_field(P(text))
    a = coefficient_array(K, N, override)
    want = _coefficients_by_definition(K, N, override)
    assert a.tobytes() == np.array(want, dtype=np.float64).tobytes()
    q, n = norm_counts(K, N, override)
    for p in (149, 157, 9973, 19997):   # primes above sqrt N
        n_p = int(n[np.searchsorted(q, p)])
        for m in range(1, N // p + 1):
            assert a[m * p] == a[m] * n_p


def _ideal_counts_by_splitting(K, N, override=None):
    """a_n by Dirichlet convolution, over every p <= N, of the local factors
    prod_P (1 - T^{f_P})^(-1) read from prime_splitting: the coefficient of
    p^k counts the tuples (j_P) with sum_P j_P f_P = k."""
    a = [0, 1] + [0] * (N - 1)
    for p in sieve_primes(N).tolist():
        fs = [f for _e, f in prime_splitting(K, p, override).factors]
        b, pk, k = list(a), p, 1
        while pk <= N:
            local = sum(1 for js in itertools.product(*(range(k // f + 1) for f in fs))
                        if sum(j * f for j, f in zip(js, fs)) == k)
            for m in range(1, N // pk + 1):
                b[m * pk] += a[m] * local
            pk, k = pk * p, k + 1
        a = b
    return a


@pytest.mark.parametrize("text,override", [
    ("x^5+42", {11: [(1, 5)], 31: [(1, 1), (1, 2), (1, 2)]}),
    # index 56: 2 and 7 are index divisors, split by idempotents
    ("x^3+18*x^2+312", {7: [(1, 3)], 5: [(1, 1), (1, 1), (1, 1)]}),
])
def test_coefficient_array_counts_ideals(text, override):
    """coefficient_array to N = 3000 against ideal counts built prime by
    prime from prime_splitting, with the override first and then without,
    so that a forced shape cannot reach the cached array."""
    N = 3000
    K = build_number_field(P(text))
    forced, plain = (np.array(_ideal_counts_by_splitting(K, N, ov), dtype=np.float64)
                     for ov in (override, None))
    assert not np.array_equal(forced, plain)
    assert np.array_equal(coefficient_array(K, N, override), forced)
    assert np.array_equal(coefficient_array(K, N), plain)


def test_variance_profile_examples():
    f = P("x^2+1")
    K = build_number_field(f)
    v5 = variance_profile(f, K, 5)
    assert (v5.q, v5.e_p) == (5, 1)
    assert v5.V_p == pytest.approx(1.0 / 3.0, abs=1e-12)
    v3 = variance_profile(f, K, 3)
    assert v3.q == 9
    assert v3.V_p == pytest.approx(0.1, abs=1e-12)
    f8 = P("x^4+1")
    K8 = build_number_field(f8)
    v2 = variance_profile(f8, K8, 2)
    assert (v2.q, v2.e_p) == (2, 4)
    assert v2.V_p == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_variance_rejects_nonuniform():
    f = P("x^3+3*x+213")
    K = build_number_field(f)
    # 17 splits as (1)(2): degrees are not uniform
    with pytest.raises((NotUniformSplittingError, DomainError)):
        variance_profile(f, K, 17)


def test_bz_disc_lower_bound_examples():
    f = P("x^2+1")
    K = build_number_field(f)
    rep = bz_disc_lower_bound(f, K)
    assert rep.rhs_total == 0.0
    assert rep.notes["holds"]
    f8 = P("x^4+1")
    K8 = build_number_field(f8)
    rep8 = bz_disc_lower_bound(f8, K8)
    assert rep8.lhs == pytest.approx(math.log(256))
    assert rep8.rhs_total == pytest.approx(3.0 * math.log(2) * 0.75 * 4 / 3, rel=1e-12)
    assert rep8.rhs_total == pytest.approx(2.0794415, abs=1e-6)
    assert rep8.notes["holds"]


def test_tower_field_degree_16():
    K = build_number_field(P("x^16-2"))
    assert K.index == 1
    assert K.field_disc == -2 ** 79
    assert (K.r1, K.r2) == (2, 7)


def test_certificate_witness_without_a_linear_factor():
    # (x^2+1)(x^2+2) has no integer root, so only a search over factors of
    # every degree finds the witness
    f = P("x^4+3*x^2+2")
    cert = irreducibility_certificate(f)
    assert not cert.certified and cert.witness is not None
    assert sorted(cert.witness) == ["x^2+1", "x^2+2"]
    assert not is_irreducible(f)


def test_prime_splitting_dedekind_common_index_divisor_cubic():
    # Dedekind's cubic: 2 divides the index of every integral generator
    K = build_number_field(P("x^3-x^2-2*x-8"))
    assert prime_splitting(K, 2).factors == ((1, 1),) * 3


def test_override_shape_must_match_the_degree():
    K = build_number_field(P("x^2+1"))
    bad = {13: [(1, 1)]}
    with pytest.raises(DomainError, match="p=13"):
        prime_splitting(K, 13, override=bad)
    with pytest.raises(DomainError, match="p=13"):
        norm_counts(K, 100, bad)
    with pytest.raises(DomainError, match="p=13"):
        splitting_table(K, 100, bad)
    # 15 is not a prime: its key is ignored, whatever its shape
    assert list(norm_counts(K, 100, {15: [(1, 1)]})[1]) == list(norm_counts(K, 100)[1])


@pytest.mark.parametrize("text, factors", [("4*x^2+8*x+3", ("2*x+1", "2*x+3")),
                                           ("6*x^2+5*x+1", ("2*x+1", "3*x+1"))])
def test_non_monic_reducible_has_a_witness(text, factors):
    f = parse_polynomial(text)
    witness = irreducibility_certificate(f).witness
    assert witness is not None and sorted(witness) == sorted(factors)
    g, h = (parse_polynomial(w) for w in witness)
    assert all(g(x) * h(x) == f(x) for x in range(f.degree + 1))
    assert not is_irreducible(f)
