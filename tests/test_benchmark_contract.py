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
