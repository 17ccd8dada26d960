"""Bound evaluators: report structure and worked examples."""

import math

import pytest

from zetaheights import (bz_disc_lower_bound, corollary_S_check,
                         disc_bound2_report, height_profile, is_root_of_unity,
                         lehmer_grh_report, northcott_report, splitting_table,
                         uncond_membership, zeros_theorem_report)
from zetaheights.errors import DomainError
from zetaheights.fields import SplittingTable


def test_report_terms_sum(ctx):
    zl = ctx.zeros("x^3+3*x+213", 2.0)
    rep = lehmer_grh_report(ctx.poly("x^3+3*x+213"), ctx.field("x^3+3*x+213"), zl)
    assert rep.rhs_total == pytest.approx(math.fsum(rep.rhs_terms.values()),
                                          abs=1e-12)
    assert rep.margin == pytest.approx(rep.lhs - rep.rhs_total, abs=1e-12)
    assert rep.asymptotic_slack
    d = rep.to_dict()
    assert set(d) >= {"theorem", "lhs", "rhs_terms", "rhs_total", "margin",
                      "slack_flag", "notes"}


def test_lehmer_report_cubic(ctx):
    text = "x^3+3*x+213"
    rep = lehmer_grh_report(ctx.poly(text), ctx.field(text), ctx.zeros(text, 2.0))
    assert rep.notes["disc_bound_3.67"] == pytest.approx(3.71716791990380, abs=1e-6)
    assert rep.rhs_terms["main"] == pytest.approx(3.71716791990380 / 3, abs=1e-6)
    assert rep.rhs_terms["log_term"] == pytest.approx(-math.log(3))
    assert rep.lhs == pytest.approx(2 * math.log(213), rel=1e-9)
    assert rep.notes["poly_disc_dominates_field_disc"]


def test_lehmer_report_quintic(ctx):
    text = "x^5+42"
    rep = lehmer_grh_report(ctx.poly(text), ctx.field(text), ctx.zeros(text, 2.0))
    main_numerator = rep.rhs_terms["main"] * 5
    assert main_numerator == pytest.approx(10.3144599678732, abs=1e-4)


def test_lehmer_rejects_roots_of_unity(ctx):
    zl = ctx.zeros("x^2+1", 2.0)
    with pytest.raises(DomainError):
        lehmer_grh_report(ctx.poly("x^2+x+1"), ctx.field("x^2+1"), zl)


def test_membership_small_degree(ctx):
    res = uncond_membership(ctx.field("x^2+1"), 0.4, 0.5)
    assert not res.in_S
    assert res.witness_Y is None
    assert res.qualifying_primes == ()


def test_membership_synthetic_table():
    """Constructed input: N_p = n_K at p in {2,3,5,7}, pinned window Y=10."""
    counts = {q: 0 for q in (2, 3, 4, 5, 7, 8, 9)}
    counts.update({2: 10 ** 6, 3: 10 ** 6, 5: 10 ** 6, 7: 10 ** 6})
    table = SplittingTable(cutoff=10, counts=counts)
    res = uncond_membership(None, delta=0.5, epsilon=0.5, table=table,
                            degree=10 ** 6, Y=10)
    assert res.in_S
    assert res.qualifying_primes == (2, 3, 5, 7)  # pi(10) = 4, need >= 2
    assert res.witness_Y == 10
    assert res.aa_lower_bound > 0


def test_membership_monotone():
    table = SplittingTable(cutoff=10, counts={2: 10 ** 6, 3: 10 ** 6,
                                              5: 10 ** 6, 7: 10 ** 6})
    base = uncond_membership(None, 0.5, 0.5, table=table, degree=10 ** 6, Y=10)
    assert base.in_S
    # raising delta or epsilon can only lose membership, never gain it
    harder_delta = uncond_membership(None, 2.0, 0.5, table=table,
                                     degree=10 ** 6, Y=10)
    assert not harder_delta.in_S
    harder_eps = uncond_membership(None, 0.5, 1.5, table=table,
                                   degree=10 ** 6, Y=10)
    assert not harder_eps.in_S


def test_membership_edge_inputs_raise_domain_error(ctx):
    """On Q a pinned Y would take the Gaussian weight at y = 1/log 1; with
    no field, or a table without its degree, there is nothing to count or
    no n_K; a degree below 1 has no window: each raises DomainError. Q's
    unpinned search still returns, with no window to search."""
    with pytest.raises(DomainError, match="degree >= 1, and >= 2"):
        uncond_membership(ctx.field("x"), 0.5, 0.5, Y=5)
    with pytest.raises(DomainError, match="a table and its degree"):
        uncond_membership(None, 0.5, 0.5, degree=4)
    table = SplittingTable(cutoff=10, counts={2: 4, 3: 4, 5: 4, 7: 4})
    with pytest.raises(DomainError, match="a table and its degree"):
        uncond_membership(None, 0.5, 0.5, table=table, Y=10)
    for degree in (0, -3):
        with pytest.raises(DomainError, match="degree >= 1"):
            uncond_membership(None, 0.5, 0.5, table=table, degree=degree)
    assert not uncond_membership(ctx.field("x"), 0.4, 0.5).in_S


@pytest.mark.parametrize("delta,epsilon", [
    (math.nan, 0.5), (0.4, math.nan), (math.inf, 0.5), (0.4, math.inf),
    (0.0, 0.5), (0.4, -1.0),
])
def test_membership_rejects_nonfinite_or_nonpositive(ctx, delta, epsilon):
    with pytest.raises(DomainError):
        uncond_membership(ctx.field("x^2+1"), delta, epsilon)


def test_northcott_variants_gaussian_field(ctx):
    rep = northcott_report(ctx.field("x^2+1"), ctx.zeros("x^2+1", 2.0))
    variants = rep.notes["variants"]
    assert variants["a"]["margin"] < 0  # the stated bound fails at tiny degree
    assert variants["c"]["margin"] >= 0  # the proof-exact bound holds
    checks = rep.notes["constant_checks"]
    assert checks["2.032_is_2x1.016"]
    assert checks["matches_1.016_within_5e-4"]


def test_northcott_variant_c_all_small_fields(ctx):
    for text in ("x^2+1", "x^2-x-1", "x^4+1", "x^3+3*x+213"):
        rep = northcott_report(ctx.field(text), ctx.zeros(text, 2.0))
        assert rep.notes["variants"]["c"]["margin"] >= 0, text


def test_corollary_examples(ctx):
    text = "x^3+3*x+213"
    rep = corollary_S_check(ctx.poly(text), ctx.field(text), ctx.zeros(text, 2.0))
    assert rep.notes["lhs_terms"]["index_term"] == pytest.approx(
        2 * math.log(17) / 3, rel=1e-12)
    assert rep.rhs_terms["log_degree"] == pytest.approx(math.log(3))
    rep42 = corollary_S_check(ctx.poly("x^5+42"), ctx.field("x^5+42"),
                              ctx.zeros("x^5+42", 2.0))
    assert rep42.notes["lhs_terms"]["index_term"] == 0.0


def test_zeros_theorem_galois_fixtures(ctx):
    repi = zeros_theorem_report(ctx.poly("x^2+1"), ctx.field("x^2+1"),
                                ctx.zeros("x^2+1", 2.0))
    assert repi.rhs_total == 0.0  # empty sum below degree 2
    assert repi.notes["holds"]
    rep8 = zeros_theorem_report(ctx.poly("x^4+1"), ctx.field("x^4+1"),
                                ctx.zeros("x^4+1", 2.0))
    assert rep8.lhs == pytest.approx(math.log(256))
    assert rep8.rhs_total == pytest.approx(16 * 0.25 * (1 / 3 - 0.25) * math.log(2),
                                           rel=1e-12)
    assert rep8.notes["holds"]
    assert rep8.notes["lhs_identity"]["matches_logD"]
    const = rep8.notes["bz2_constant_check"]
    assert const["one_over_1_minus_0.629"] == pytest.approx(2.6954, abs=1e-4)
    assert const["doubled"] <= 5.4
    assert rep8.notes["precursor"]["holds_with_interval"]


def test_disc_bound2_cubic(ctx):
    text = "x^3+3*x+213"
    rep = disc_bound2_report(ctx.field(text), ctx.zeros(text, 2.0))
    assert rep.rhs_terms["prime_term"] == 0.0  # no prime power <= log 3
    assert rep.rhs_terms["euler_log8pi"] == pytest.approx(3.8013870925, abs=1e-9)
    assert rep.asymptotic_slack
    assert "remainders_at_y_1_over_log_n" in rep.notes


def test_disc_bound2_rejects_quadratic(ctx):
    with pytest.raises(DomainError, match=r"degree >= 3.*1/log n.*\(0, 1\]"):
        disc_bound2_report(ctx.field("x^2+1"), ctx.zeros("x^2+1", 2.0))


def test_bz_disc_bound_reports(ctx):
    rep = bz_disc_lower_bound(ctx.poly("x^4+1"), ctx.field("x^4+1"))
    assert rep.notes["holds"]
    assert rep.rhs_total == pytest.approx(2.0794, abs=1e-3)


def test_mahler_index_chain(ctx):
    """2 n_K h >= (log d_K - n log n)/n + 2 log I / n on every fixture.

    This is Mahler's |disc f| <= n^n M(f)^{2n-2} with disc f = d_K I^2, so
    it holds for the cyclotomic fixtures too; there the Lehmer report
    refuses the input, and the left side is taken from the height profile.
    """
    from tests.conftest import FIXTURE_POLYS
    for text in FIXTURE_POLYS:
        if text == "x":
            continue
        f, K = ctx.poly(text), ctx.field(text)
        if is_root_of_unity(f):
            with pytest.raises(DomainError):
                lehmer_grh_report(f, K, ctx.zeros(text, 2.0))
            lhs = 2.0 * K.n_K * height_profile(f).weil_height
        else:
            lhs = lehmer_grh_report(f, K, ctx.zeros(text, 2.0)).lhs
        chain_rhs = ((K.log_abs_disc - K.n_K * math.log(K.n_K)) / K.n_K
                     + 2.0 * math.log(K.index) / K.n_K)
        assert lhs >= chain_rhs - 1e-9, text


def test_reports_refuse_zeros_located_too_low(ctx):
    """Each report reads its zeros through zero_statistics or
    ZeroList.kernel_sum, which refuse heights past the located one: T = 2
    for four of them, T = 1 for the membership check."""
    text = "x^3+3*x+213"
    f, K, short = ctx.poly(text), ctx.field(text), ctx.zeros(text, 1.5)
    for report in (lambda: lehmer_grh_report(f, K, short),
                   lambda: northcott_report(K, short),
                   lambda: zeros_theorem_report(f, K, short),
                   lambda: disc_bound2_report(K, short)):
        with pytest.raises(DomainError, match="located to T = 1.5"):
            report()
    with pytest.raises(DomainError, match="located to T = 0.5"):
        corollary_S_check(f, K, ctx.zeros(text, 0.5))
