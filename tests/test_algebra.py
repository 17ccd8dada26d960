"""Exact polynomial algebra: parsing, discriminants, roots, heights."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetaheights
from zetaheights.algebra import (MAX_COEFF_BITS, IntPolynomial, complex_roots,
                                 cyclotomic_polynomial, discriminant,
                                 height_profile, is_root_of_unity,
                                 mahler_inequality_margin, parse_polynomial,
                                 poly_divmod_exact, squarefree_part,
                                 sturm_real_root_count)
from zetaheights.errors import DomainError, NonConvergenceError, ZeroPolynomialError


def test_parse_expression():
    f = parse_polynomial("x^3+3*x+213")
    assert f.coefficients == (213, 3, 0, 1)


def test_parse_csv_equivalent():
    assert parse_polynomial("213,3,0,1") == parse_polynomial("x^3+3*x+213")


def test_parse_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        parse_polynomial("0")
    with pytest.raises(ZeroPolynomialError):
        parse_polynomial("0,0,0")


def test_parse_negative_and_parens():
    assert parse_polynomial("-x^2+2").coefficients == (2, 0, -1)
    assert parse_polynomial("x*(x+1)").coefficients == (0, 1, 1)


def test_parse_refuses_degree_above_64_before_expanding():
    assert parse_polynomial("(x+1)^64").degree == 64
    for text in ("x^100000", "(x+1)^16000", "x^64*x", "(x^8+1)^9"):
        with pytest.raises(SyntaxError, match="above 64"):
            parse_polynomial(text)


def test_parse_refuses_large_constant_powers_at_once():
    """A power whose coefficient bound passes 2^MAX_COEFF_BITS fails before
    any multiplication; powers of 1 and -1 and the largest parsed ones
    expand by repeated squaring."""
    import time
    for text in ("2^100000", "10^1000000000", f"2^{MAX_COEFF_BITS + 1}"):
        start = time.perf_counter()
        with pytest.raises(SyntaxError, match=f"above 2\\^{MAX_COEFF_BITS}"):
            parse_polynomial(text)
        assert time.perf_counter() - start < 0.1, text
    assert parse_polynomial("1^1000000").coefficients == (1,)
    assert parse_polynomial("(-1)^1000001").coefficients == (-1,)
    assert parse_polynomial("2^64").coefficients == (2 ** 64,)
    assert parse_polynomial(f"2^{MAX_COEFF_BITS}").coefficients == (2 ** MAX_COEFF_BITS,)
    assert parse_polynomial("(x+1)^64").coefficients == tuple(
        math.comb(64, k) for k in range(65))
    assert parse_polynomial("(x^2-3*x+1)^13*(x+2)") == parse_polynomial(
        "*".join(["(x^2-3*x+1)"] * 13 + ["(x+2)"]))


def test_parse_rejects_garbage():
    for bad in ("x**y", "import os", "x^-1", "1/2*x", "y+1"):
        with pytest.raises((SyntaxError, ZeroPolynomialError)):
            parse_polynomial(bad)


def test_discriminant_quadratic():
    assert discriminant(parse_polynomial("x^2+1")) == -4


def test_discriminant_cubic_closed_form():
    # -4 p^3 - 27 q^2 for x^3 + p x + q
    assert discriminant(parse_polynomial("x^3+3*x+213")) == -4 * 27 - 27 * 213 ** 2
    assert discriminant(parse_polynomial("x^3+3*x+213")) == -1225071


def test_discriminant_quintic_closed_form():
    # n^n a^{n-1} for x^n + a, n = 5 odd
    assert discriminant(parse_polynomial("x^5+42")) == 5 ** 5 * 42 ** 4
    assert discriminant(parse_polynomial("x^5+42")) == 9724050000


def test_discriminant_degree_one_convention():
    assert discriminant(parse_polynomial("x-2")) == 1


def test_discriminant_against_sympy_corpus():
    from sympy import Poly, discriminant as sym_disc, symbols
    x = symbols("x")
    rng = random.Random(7)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-30, 30) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        f = IntPolynomial.from_coefficients(coeffs)
        if f.degree < 1:
            continue
        want = int(sym_disc(Poly(f.coefficients[::-1], x).as_expr(), x))
        assert discriminant(f) == want


def test_complex_roots_quadratics():
    rs = complex_roots(parse_polynomial("x^2+1"))
    assert sorted(z.imag for z in rs.roots) == pytest.approx([-1.0, 1.0])
    golden = complex_roots(parse_polynomial("x^2-x-1"))
    vals = sorted(z.real for z in golden.roots)
    assert vals == pytest.approx([-0.6180339887498949, 1.618033988749895])


def test_complex_roots_cubic_bisection_oracle():
    f = parse_polynomial("x^3+3*x+213")
    lo, hi = -6.0, -5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    real_root = 0.5 * (lo + hi)
    rs = complex_roots(f)
    reals = [z for z in rs.roots if z.imag == 0]
    assert len(reals) == 1
    assert reals[0].real == pytest.approx(real_root, abs=1e-9)
    complex_pair = [z for z in rs.roots if z.imag != 0]
    # |product of all roots| = 213, so the pair's modulus is fixed
    want_mod = math.sqrt(213.0 / abs(real_root))
    for z in complex_pair:
        assert abs(z) == pytest.approx(want_mod, rel=1e-10)


def test_complex_roots_multiplicities():
    rs = complex_roots(parse_polynomial("x^2-2*x+1"))
    assert rs.multiplicities == (2,)
    assert rs.roots[0] == pytest.approx(1.0)
    rs2 = complex_roots(parse_polynomial("x^3+3*x^2+3*x+1"))
    assert rs2.multiplicities == (3,)


def test_complex_roots_residual_invariant():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
        f = IntPolynomial.from_coefficients(coeffs)
        rs = complex_roots(f, 1e-12)
        assert sum(rs.multiplicities) == f.degree
        for z in rs.roots:
            scale = sum(abs(c) * max(1.0, abs(z)) ** k
                        for k, c in enumerate(f.coefficients))
            assert abs(f(z)) <= 1e-12 * scale * 1.01


def test_complex_roots_tol_domain():
    with pytest.raises(DomainError):
        complex_roots(parse_polynomial("x^2+1"), 1e-3)


def test_height_profile_examples():
    trivial = height_profile(parse_polynomial("x-1"))
    assert (trivial.mahler, trivial.weil_height, trivial.house) == (1.0, 0.0, 1.0)
    golden = height_profile(parse_polynomial("x^2-x-1"))
    phi = (1 + math.sqrt(5)) / 2
    assert golden.mahler == pytest.approx(phi, rel=1e-12)
    assert golden.weil_height == pytest.approx(math.log(phi) / 2, rel=1e-12)
    assert golden.house == pytest.approx(phi, rel=1e-12)
    cubic = height_profile(parse_polynomial("x^3+3*x+213"))
    assert cubic.mahler == pytest.approx(213.0, rel=1e-10)
    assert cubic.weil_height == pytest.approx(math.log(213) / 3, rel=1e-10)
    assert cubic.house == pytest.approx(6.0575945, rel=1e-5)


def test_height_identity_invariant():
    rng = random.Random(3)
    for _ in range(50):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
        f = IntPolynomial.from_coefficients(coeffs)
        p = height_profile(f)
        assert math.log(p.mahler) == pytest.approx(f.degree * p.weil_height,
                                                   rel=1e-12, abs=1e-12)
        assert p.house <= max(1.0, p.mahler) * (1 + 1e-9)


def test_is_root_of_unity():
    assert is_root_of_unity(parse_polynomial("x^2+x+1"))   # Phi_3
    assert is_root_of_unity(parse_polynomial("x^4+1"))     # Phi_8
    assert not is_root_of_unity(parse_polynomial("x^2-x-1"))


def test_cyclotomic_polynomials_against_sympy():
    from sympy import Poly, cyclotomic_poly, symbols
    x = symbols("x")
    for k in range(1, 31):
        mine = cyclotomic_polynomial(k)
        want = Poly(cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        assert list(mine.coefficients) == [int(c) for c in want]


def test_kronecker_on_cyclotomics():
    for k in range(1, 31):
        f = cyclotomic_polynomial(k)
        p = height_profile(f)
        assert p.weil_height == pytest.approx(0.0, abs=1e-12)
        assert is_root_of_unity(f)


def test_mahler_inequality_examples():
    deg1 = mahler_inequality_margin(parse_polynomial("x-2"))
    assert deg1.lhs == 0.0 and deg1.rhs == 0.0 and deg1.holds
    golden = mahler_inequality_margin(parse_polynomial("x^2-x-1"))
    assert golden.lhs == pytest.approx(math.log(5))
    assert golden.rhs == pytest.approx(math.log(4 * ((1 + math.sqrt(5)) / 2) ** 2))
    assert golden.holds
    cubic = mahler_inequality_margin(parse_polynomial("x^3+3*x+213"))
    assert cubic.lhs == pytest.approx(math.log(1225071))
    assert cubic.rhs == pytest.approx(math.log(27) + 4 * math.log(213), rel=1e-9)
    assert cubic.holds


def test_sturm_counts():
    assert sturm_real_root_count(parse_polynomial("x^3+3*x+213")) == 1
    assert sturm_real_root_count(parse_polynomial("x^2-x-1")) == 2
    assert sturm_real_root_count(parse_polynomial("x^2+1")) == 0
    assert sturm_real_root_count(parse_polynomial("x^5+42")) == 1
    assert sturm_real_root_count(parse_polynomial("x^4+3*x^2+30")) == 0


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
@settings(max_examples=120, deadline=None)
def test_root_symmetric_functions(tail):
    coeffs = tail + [1]
    try:
        f = IntPolynomial.from_coefficients(coeffs)
    except ZeroPolynomialError:
        return
    if f.degree < 1:
        return
    try:
        rs = complex_roots(f, 1e-12)
    except NonConvergenceError:
        return
    roots = [z for z, m in zip(rs.roots, rs.multiplicities) for _ in range(m)]
    n = f.degree
    total = sum(roots)
    prod = 1.0 + 0.0j
    for z in roots:
        prod *= z
    scale = 1.0 + max(abs(c) for c in f.coefficients)
    assert abs(total - (-f.coefficients[-2])) <= 1e-8 * scale
    want_prod = (-1) ** n * f.coefficients[0]
    assert abs(prod - want_prod) <= 1e-8 * max(1.0, abs(want_prod))


def test_dimitrov_house_bound_on_corpus():
    # monic irreducible non-cyclotomic integer polynomials only
    from zetaheights.fields import is_irreducible
    rng = random.Random(19)
    checked = 0
    while checked < 120:
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
        if coeffs[0] == 0:
            continue
        f = IntPolynomial.from_coefficients(coeffs)
        if f.degree < 2 or is_root_of_unity(f) or not is_irreducible(f):
            continue
        p = height_profile(f)
        assert math.log(p.house) > math.log(2) / (4 * f.degree)
        checked += 1


def test_discriminant_root_product_oracle():
    """Subresultant discriminants match a_n^{2n-2} prod (a_i - a_j)^2."""
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-25, 25) for _ in range(deg)] + [rng.choice([1, 1, 2])]
        try:
            f = IntPolynomial.from_coefficients(coeffs)
        except ZeroPolynomialError:
            continue
        if f.degree < 2:
            continue
        d = discriminant(f)
        if d == 0:
            continue
        rs = complex_roots(f, 1e-13)
        roots = [z for z, m in zip(rs.roots, rs.multiplicities)
                 for _ in range(m)]
        prod = 1.0 + 0.0j
        for i in range(len(roots)):
            for j in range(i):
                prod *= (roots[i] - roots[j]) ** 2
        approx = f.leading ** (2 * f.degree - 2) * prod
        assert abs(approx - d) <= 1e-6 * abs(d), f.text()
        checked += 1


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


@given(st.lists(st.integers(-20, 20), max_size=5),
       st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.sampled_from([1, -1]),
       st.lists(st.integers(-20, 20), max_size=4),
       st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_poly_divmod_exact_recovers_quotient_and_remainder(q, g_tail, lead, r, bad_lead):
    g = g_tail + [lead]
    r = _trimmed(r[:len(g) - 1])
    q = _trimmed(q)
    f = [a + b for a, b in zip(
        _times(q, g) + [0] * len(g), r + [0] * (len(q) + len(g)))]
    if not any(f):
        return
    G = IntPolynomial(tuple(g))
    assert poly_divmod_exact(IntPolynomial.from_coefficients(f), G) == (q, r)
    # a divisor whose leading coefficient does not divide 1: the quotient
    # of x^deg(g) by it is lc^-1, not an integer
    bad = IntPolynomial(tuple(g_tail + [bad_lead]))
    x_power = IntPolynomial(tuple([0] * (len(g) - 1) + [1]))
    with pytest.raises(ValueError):
        poly_divmod_exact(x_power, bad)


def test_discriminant_and_sturm_against_sympy_with_repeated_factors():
    """discriminant and sturm_real_root_count, which read one Euclid chain,
    against sympy's discriminant and count of distinct real roots, on
    non-monic products of repeated factors with a cofactor that may share
    one of them."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(23)
    for _ in range(80):
        factors = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 2))]
                   + [rng.choice([1, -1, 2, 3, -5])] for _ in range(rng.randint(1, 3))]
        coeffs = [rng.choice([1, -2, 3, 7])]
        for factor in factors:
            for _ in range(rng.randint(1, 2)):
                coeffs = _times(coeffs, factor)
        coeffs = _times(coeffs, rng.choice(factors + [[rng.randint(-9, 9), 1], [1]]))
        f = IntPolynomial.from_coefficients(coeffs)
        poly = sympy.Poly(list(reversed(f.coefficients)), x)
        assert discriminant(f) == int(sympy.discriminant(poly.as_expr(), x)), f.text()
        want = len(poly.real_roots(multiple=False, radicals=False))
        assert sturm_real_root_count(f) == want, f.text()


def _mignotte(n, a):
    """x^n - 2 (a x - 1)^2, with two roots near 1/a within 2 a^{-(n+2)/2}."""
    return [-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1]


def _product(*factors):
    out = [1]
    for factor in factors:
        out = _times(out, factor)
    return out


HARD_ROOT_CASES = (
    [(f"mignotte-{n}-{a}", _mignotte(n, a))
     for n in range(4, 9) for a in (10, 100, 1000, 10 ** 4)]
    + [("wilkinson-8", _product(*[[-k, 1] for k in range(1, 9)])),
       ("pair-1e8", _product([1 - 10 ** 8, 1], [-1 - 10 ** 8, 1])),
       ("triple-1e6", _product([1 - 10 ** 6, 1], [-10 ** 6, 1], [-1 - 10 ** 6, 1]))])


@pytest.mark.parametrize("coeffs", [c for _, c in HARD_ROOT_CASES],
                         ids=[name for name, _ in HARD_ROOT_CASES])
def test_complex_roots_against_mpmath_on_hard_polynomials(coeffs):
    """Clustered and ill-conditioned roots pass the residual certificate
    and lie within 1e-4 relative of mpmath's 60-digit roots, matched
    nearest to nearest; the triple cluster near 10^6 is the worst, near
    1e-5."""
    mpmath = pytest.importorskip("mpmath")
    got = complex_roots(IntPolynomial(tuple(coeffs))).roots
    with mpmath.workdps(60):
        left = [complex(z) for z in mpmath.polyroots(coeffs[::-1], maxsteps=500,
                                                     extraprec=500)]
    assert len(got) == len(left)
    for z in got:
        ref = left.pop(min(range(len(left)), key=lambda k: abs(left[k] - z)))
        assert abs(z - ref) <= 1e-4 * abs(ref), (z, ref)


def test_roots_identical_across_blas_thread_counts():
    """Roots are LAPACK eigenvalues: complex_roots and height_profile print
    the same reprs in fresh interpreters under OPENBLAS_NUM_THREADS=1 and 2."""
    corpus = ["x^2+1", "x^3+3*x+213", "x^5+42", "x^3-x^2-2*x-8", "x^6+65",
              "x^8+3*x^7-x^6+3*x^5-2*x^4+3*x^3-3*x^2-2*x+2", "x^2-2*x+1"]
    corpus += [",".join(map(str, c)) for _, c in HARD_ROOT_CASES[::3]]
    corpus += [",".join(map(str, cyclotomic_polynomial(k).coefficients))
               for k in (7, 15, 24, 40)]
    code = ("import sys\n"
            "from zetaheights.algebra import complex_roots, height_profile, parse_polynomial\n"
            "for text in sys.argv[1:]:\n"
            "    f = parse_polynomial(text)\n"
            "    print(repr(complex_roots(f)), repr(height_profile(f)))\n")
    src = os.path.dirname(os.path.dirname(zetaheights.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", code, *corpus], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0].count("RootSet") == len(corpus)
    assert outs[0] == outs[1]


def test_squarefree_part_matches_sympy_sqf_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [1]
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            factor = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, 2, 3])]
            for _ in range(rng.randint(1, 3)):
                coeffs = _times(coeffs, factor)
        f = IntPolynomial.from_coefficients(coeffs)
        got = sorted((g.coefficients, k) for g, k in squarefree_part(f))
        _, pieces = sympy.Poly(list(reversed(coeffs)), x).sqf_list()
        want = []
        for piece, k in pieces:
            c = [int(v) for v in reversed(piece.all_coeffs())]
            sign = -1 if c[-1] < 0 else 1
            want.append((tuple(sign * v for v in c), k))
        assert got == sorted(want), f.text()
