"""The one cached norm-count table per field, and the prime sums over it.

Each prime sum is checked against a brute-force math.fsum over the dict
that splitting_table returns, so the vectorized sums and the dict view
must agree to rounding.
"""

import math

import numpy as np
import pytest

from zetaheights import (EXPONENTIAL, Tower, build_number_field, build_tower,
                         corollary_S_check, gaussian, identity_exponential,
                         monotone_prime_sums, norm_counts, parse_polynomial,
                         prime_side, prime_splitting, psi_estimates,
                         splitting_table, tower_corollary_report)
from zetaheights.bounds import Y_STAR
from zetaheights.explicit import density_tail
from zetaheights.primes import sieve_primes

P = parse_polynomial
X = 20000
FIELDS = ("x", "x^2+1", "x^3+18*x^2+312", "x^4+18*x^2+60")


def _close(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def _brute(counts, term):
    return math.fsum(c * term(q) for q, c in counts.items() if c)


def _gauss_msum(q, y):
    u = math.log(q)
    total, m = 0.0, 1
    while True:
        t = math.exp(-0.5 * m * u - y * (m * u) ** 2)
        total += t
        if t < 1e-20 * total:
            return total
        m += 1


@pytest.mark.parametrize("text", FIELDS)
def test_prime_side_matches_brute_force(ctx, text):
    K = ctx.field(text)
    counts = splitting_table(K, X).counts
    exp_side = prime_side(K, EXPONENTIAL, X).value
    _close(exp_side, 2.0 * _brute(counts, lambda q: math.log(q) / (q ** 1.5 - 1.0)))
    y = 0.1
    gauss_side = prime_side(K, gaussian(y), X).value
    _close(gauss_side, 2.0 * _brute(counts, lambda q: math.log(q) * _gauss_msum(q, y)))


@pytest.mark.parametrize("text", ("x^2+1", "x^3+3*x+213"))
def test_single_m_and_corollary_terms_match_brute_force(ctx, text):
    K = ctx.field(text)
    zl = ctx.zeros(text, 2.0)
    counts = splitting_table(K, X).counts
    ledger = identity_exponential(K, zl, X)
    _close(ledger.notes["prime_sum_single_m"],
           2.0 * _brute(counts, lambda q: math.log(q) / q ** 1.5))
    rep = corollary_S_check(ctx.poly(text), K, zl, X)
    single = _brute(counts, lambda q: math.log(q) / math.sqrt(q)
                    * math.exp(-Y_STAR * math.log(q) ** 2))
    _close(rep.notes["lhs_terms"]["prime_term"],
           2.0 * (single + density_tail(gaussian(Y_STAR), X)))


@pytest.mark.parametrize("override", (None, {5: [(1, 2)], 13: [(1, 2)]}))
def test_tower_sums_match_brute_force(ctx, override):
    lower, upper = ctx.field("x"), ctx.field("x^2+1")
    ms = monotone_prime_sums(lower, upper, X, None, override)
    for K, ov, got in ((lower, None, ms.lower_level_sum),
                       (upper, override, ms.upper_level_sum)):
        counts = splitting_table(K, X, ov).counts
        _close(got, _brute(counts, math.log) / K.n_K)
    assert ms.holds
    tower = build_tower([P("x"), P("x^8-2")], overrides=(None, {2: [(1, 8)]}))
    row = tower_corollary_report(tower)[1]
    counts = splitting_table(tower.levels[1], 2, {2: [(1, 8)]}).counts
    assert counts == {2: 0}
    assert row.lhs == 0.0
    tower = build_tower([P("x"), P("x^8-2")])
    row = tower_corollary_report(tower)[1]
    _close(row.lhs, 0.5 * math.log(2) / math.sqrt(2) / 8)  # 2 = P^8: N_2 = 1


def test_table_after_larger_cutoff_equals_fresh_build(monkeypatch):
    from zetaheights import fields
    for text in ("x^2+1", "x^3+18*x^2+312", "x^4+18*x^2+60"):
        K = build_number_field(P(text))
        splitting_table(K, 5 * X)
        sliced = splitting_table(K, X).counts
        q, n = norm_counts(K, X)
        monkeypatch.setattr(fields, "_FIELDS", {})
        fresh = build_number_field(P(text))
        assert fresh.state is not K.state
        assert splitting_table(fresh, X).counts == sliced
        q2, n2 = norm_counts(fresh, X)
        assert np.array_equal(q, q2) and np.array_equal(n, n2)
        monkeypatch.undo()


def test_norm_counts_read_only_and_override_scoped():
    K = build_number_field(P("x^2+1"))
    q, n = norm_counts(K, 200)
    assert not q.flags.writeable and not n.flags.writeable
    with pytest.raises(ValueError):
        n[0] = 7
    i, j = np.searchsorted(q, [13, 169])
    _, forced = norm_counts(K, 200, {13: [(1, 2)], 15: [(1, 2)]})
    assert forced[i] == 0 and forced[j] == 1
    # 15 is not a prime: its key changes nothing
    assert np.array_equal(np.delete(forced, [i, j]), np.delete(n, [i, j]))
    assert norm_counts(K, 200)[1][i] == 2
    assert list(norm_counts(K, 1)[0]) == []


def test_psi_ratios_read_each_level(ctx):
    tower = Tower((ctx.field("x"), ctx.field("x^2+1")),
                  overrides=(None, {5: [(1, 2)]}))
    est = psi_estimates(tower, 50)
    assert est.ratios[5] == (1.0, 0.0)
    assert est.ratios[25] == (0.0, 0.5)
    assert est.ratios[13] == (1.0, 1.0)


@pytest.mark.parametrize("text", ["x", "x^2-x-1", "x^2+1", "x^3-x^2-2*x-8",
                                  "x^4+18*x^2+60", "x^5+42", "x^6+65", "x^8-2"])
def test_norm_counts_match_prime_splitting(text):
    """Every N_{p^k} of the batched table equals the number of primes above
    p of residue degree k, index divisors and discriminant primes included."""
    K = build_number_field(P(text))
    q, n = norm_counts(K, X)
    want = {}
    for p in sieve_primes(X).tolist():
        degrees = [f for _e, f in prime_splitting(K, p).factors]
        pk, k = p, 1
        while pk <= X:
            want[pk] = degrees.count(k)
            pk, k = pk * p, k + 1
    assert dict(zip(q.tolist(), n.tolist())) == want


def test_table_growth_counts_only_new_prime_powers(monkeypatch):
    """Growing x^2+1's table from 416 to 10^5 keeps every N_{p^k} the old
    table held: no modulus the batched root count sweeps is at most 416,
    and the grown table equals a fresh build."""
    from zetaheights import fields, modp
    monkeypatch.setattr(fields, "_FIELDS", {})
    K = build_number_field(P("x^2+1"))
    norm_counts(K, 416)
    moduli = []
    count = modp.batch_root_counts

    def recorded(f, primes, field_sizes=None):
        moduli.extend((primes if field_sizes is None else field_sizes).tolist())
        return count(f, primes, field_sizes)

    monkeypatch.setattr(modp, "batch_root_counts", recorded)
    q, n = norm_counts(K, 10 ** 5)
    assert moduli and min(moduli) > 416
    assert {419, 23 ** 2} <= set(moduli)   # a new p and a new p^2
    monkeypatch.setattr(modp, "batch_root_counts", count)
    monkeypatch.setattr(fields, "_FIELDS", {})
    q2, n2 = norm_counts(build_number_field(P("x^2+1")), 10 ** 5)
    assert np.array_equal(q, q2) and np.array_equal(n, n2)


def test_table_growth_makes_two_root_count_calls(monkeypatch):
    """x^5+2x^2+26's table to 357,786 takes one call at q = p and one over
    every p^k with k >= 2; regrown to 10^6 it takes two more, and neither
    sweeps a modulus the old table held."""
    from zetaheights import fields, modp
    monkeypatch.setattr(fields, "_FIELDS", {})
    K = build_number_field(P("x^5+2*x^2+26"))
    calls = []
    count = modp.batch_root_counts

    def recorded(f, primes, field_sizes=None):
        calls.append((primes if field_sizes is None else field_sizes).tolist())
        return count(f, primes, field_sizes)

    monkeypatch.setattr(modp, "batch_root_counts", recorded)
    norm_counts(K, 357_786)
    assert len(calls) == 2 and {3, 357_781} <= set(calls[0])
    assert {9, 27, 3 ** 11} <= set(calls[1])   # 2 divides the discriminant
    calls.clear()
    norm_counts(K, 10 ** 6)
    assert len(calls) == 2 and all(min(c) > 357_786 for c in calls)
    assert 599 ** 2 in calls[1] and 71 ** 3 in calls[1]   # new p^2 and p^3


def test_norm_counts_with_no_good_prime(monkeypatch):
    """A fresh x^2+1 table to X = 1 holds nothing, and to X = 2 only the
    ramified 2, split by prime_splitting: no root count is asked for."""
    from zetaheights import fields, modp
    monkeypatch.setattr(fields, "_FIELDS", {})
    K = build_number_field(P("x^2+1"))
    calls = []
    monkeypatch.setattr(modp, "batch_root_counts", lambda *args: calls.append(args))
    q, n = norm_counts(K, 1)
    assert q.tolist() == [] and n.tolist() == []
    q, n = norm_counts(K, 2)
    assert q.tolist() == [2] and n.tolist() == [1] and calls == []


def test_norm_table_memory(monkeypatch):
    """A fresh x^5+42 table to 914,329 peaked at 4,137,133 traced bytes
    when each growth made one root-count call per k; it must stay within
    10% of that."""
    import tracemalloc

    from zetaheights import fields
    monkeypatch.setattr(fields, "_FIELDS", {})
    K = build_number_field(P("x^5+42"))
    tracemalloc.start()
    try:
        norm_counts(K, 914_329)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4_137_133, peak
