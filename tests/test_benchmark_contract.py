"""The benchmark wraps package functions by name from outside
(perfbench/tracing.py); every name it wraps must still exist."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports nothing from zetaheights
    return module


def test_traced_names_exist(monkeypatch):
    tracing = load_tracing(monkeypatch)
    for modname, names in tracing.FUNCTIONS.values():
        module = importlib.import_module(f"zetaheights.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    from zetaheights.zeta import ZetaEvaluator
    for method in ("__init__", "_solve_residue", "hardy"):
        assert callable(getattr(ZetaEvaluator, method, None)), method


def test_traced_positional_arguments():
    """The tracer reads these arguments by position."""
    from zetaheights import fields, modp, zeta

    def leading(fn, k):
        return list(inspect.signature(fn).parameters)[:k]

    assert leading(modp.batch_root_counts, 2) == ["f", "primes"]
    assert leading(fields.coefficient_array, 2) == ["K", "N"]
    assert leading(zeta.direct_series, 3) == ["K", "s", "N"]
    assert leading(zeta.locate_zeros, 1) == ["ev"]


def _prime_powers(limit):
    """Every prime power <= limit, from a sieve of its own."""
    prime = [True] * (limit + 1)
    out = []
    for p in range(2, limit + 1):
        if prime[p]:
            prime[p * p:: p] = [False] * len(range(p * p, limit + 1, p))
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return set(out)


def test_tables_keyed_by_every_prime_power(ctx):
    """The benchmark compares splitting tables and tower ratios key for key,
    above the cut (1000) past which only linear counts are kept too."""
    from zetaheights import Tower, psi_estimates, splitting_table
    X = 20000
    want = _prime_powers(X)
    counts = splitting_table(ctx.field("x^3+3*x+213"), X).counts
    assert set(counts) == want
    assert 0 in counts.values()
    est = psi_estimates(Tower((ctx.field("x"), ctx.field("x^2+1"))), X)
    assert set(est.ratios) == want
    assert est.ratios[9] == (0.0, 0.5)


def test_synthetic_table_drives_membership():
    from zetaheights import uncond_membership
    from zetaheights.fields import SplittingTable
    table = SplittingTable(cutoff=10, counts={2: 4, 3: 0, 5: 4, 7: 4})
    res = uncond_membership(None, 0.5, 0.5, table=table, degree=4, Y=10)
    assert res.in_S and res.witness_Y == 10
    assert res.qualifying_primes == (2, 5, 7)
