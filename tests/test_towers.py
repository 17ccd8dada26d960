"""Tower operations: monotone sums, splitting ratios, family constants."""

import math

import pytest

from zetaheights import (Tower, build_tower, bz_sum, family_constants,
                         monotone_prime_sums, parse_polynomial, psi_estimates,
                         tower_corollary_report)
from zetaheights.errors import (DegenerateDiscriminantError,
                                DegreeMismatchError, DomainError)

P = parse_polynomial


@pytest.fixture(scope="module")
def cyclotomic_tower(ctx):
    return build_tower([P("x"), P("x^2+1"), P("x^4+1")])


@pytest.fixture(scope="module")
def power_tower(ctx):
    return build_tower([P("x"), P("x^2-2"), P("x^4-2"), P("x^8-2"), P("x^16-2")])


def test_monotone_example(ctx):
    ms = monotone_prime_sums(ctx.field("x"), ctx.field("x^2+1"), 10)
    assert ms.lower_level_sum == pytest.approx(5.3471, abs=1e-4)
    assert ms.upper_level_sum == pytest.approx(3.0546, abs=1e-4)
    assert ms.holds


def test_monotone_same_field(ctx):
    ms = monotone_prime_sums(ctx.field("x"), ctx.field("x"), 50)
    assert ms.lower_level_sum == ms.upper_level_sum
    assert ms.holds


def test_monotone_requires_divisibility(ctx):
    with pytest.raises(DegreeMismatchError):
        monotone_prime_sums(ctx.field("x^2+1"), ctx.field("x^3+3*x+213"), 10)


def test_monotonicity_down_fixture_towers(cyclotomic_tower, power_tower):
    for tower in (cyclotomic_tower, power_tower):
        for x in (10, 100, 1000):
            for lower, upper in zip(tower.levels, tower.levels[1:]):
                ms = monotone_prime_sums(lower, upper, x)
                assert ms.holds, (lower.n_K, upper.n_K, x)


def test_tower_rejects_bad_degrees():
    with pytest.raises(DegreeMismatchError):
        build_tower([P("x^2+1"), P("x^3+3*x+213")])
    with pytest.raises(DegreeMismatchError):
        build_tower([P("x^4+1"), P("x^2+1")])


def test_psi_estimates_rationals(ctx):
    est = psi_estimates(Tower((ctx.field("x"),)), 10)
    for q in (2, 3, 5, 7):
        assert est.psi_hat[q] == 1.0
    for q in (4, 8, 9):
        assert est.psi_hat[q] == 0.0
    assert est.asymptotically_positive


def test_psi_estimates_gaussian(ctx):
    est = psi_estimates(Tower((ctx.field("x"), ctx.field("x^2+1"))), 10)
    assert est.psi_hat[5] == 1.0
    assert est.psi_hat[3] == 0.0
    assert est.psi_hat[9] == 0.5
    assert all(0.0 <= v <= 1.0 for v in est.psi_hat.values())
    # ratio sequences expose each level
    assert est.ratios[5] == (1.0, 1.0)
    assert est.ratios[3] == (1.0, 0.0)


def test_bz_sum_examples(ctx):
    est_q = psi_estimates(Tower((ctx.field("x"),)), 10)
    want = 0.5 * (math.log(2) / 3 + math.log(3) / 4 + math.log(5) / 6
                  + math.log(7) / 8)
    assert bz_sum(est_q) == pytest.approx(want, rel=1e-12)
    assert bz_sum(est_q) == pytest.approx(0.5086, abs=3e-4)
    est_i = psi_estimates(Tower((ctx.field("x"), ctx.field("x^2+1"))), 10)
    want_i = 0.5 * (0.5 * math.log(2) / 3 + math.log(5) / 6
                    + 0.5 * math.log(9) / 10)
    assert bz_sum(est_i) == pytest.approx(want_i, rel=1e-12)
    zero = psi_estimates(Tower((ctx.field("x^3+3*x+213"),)), 2)
    assert bz_sum(zero) == 0.0  # 2 is inert: no norm-2 ideal


def test_bz_sum_monotone_in_cutoff(ctx):
    tower = Tower((ctx.field("x"), ctx.field("x^2+1")))
    vals = [bz_sum(psi_estimates(tower, c)) for c in (10, 100, 1000)]
    assert vals[0] <= vals[1] <= vals[2]


def test_family_constants_gaussian(ctx):
    fc = family_constants(Tower((ctx.field("x^2+1"),)), 10)
    assert fc.phi_R == 0.0
    assert fc.phi_C == pytest.approx(1.0 / math.log(2), rel=1e-12)
    assert fc.phi_q[5] == pytest.approx(2.0 / math.log(2), rel=1e-12)
    assert fc.classification == "asymptotically_good"


def test_family_constants_totally_real(ctx):
    fc = family_constants(Tower((ctx.field("x^2-2"),)), 10)
    assert fc.phi_C == 0.0
    assert fc.phi_R > 0


def test_family_constants_degenerate(ctx):
    with pytest.raises(DegenerateDiscriminantError):
        family_constants(Tower((ctx.field("x"),)))


def test_corollary_rows(power_tower):
    rows = tower_corollary_report(power_tower)
    assert all(r.holds for r in rows)
    assert [r.degree for r in rows] == [1, 2, 4, 8, 16]


@pytest.mark.parametrize("cutoff", [1, 0, -5])
def test_prime_sums_reject_cutoff_below_2(cyclotomic_tower, cutoff):
    with pytest.raises(DomainError, match="cutoff must be >= 2"):
        psi_estimates(cyclotomic_tower, cutoff)
    lower, upper = cyclotomic_tower.levels[:2]
    with pytest.raises(DomainError, match="cutoff must be >= 2"):
        monotone_prime_sums(lower, upper, cutoff)
