"""Spans and counts around calls into the zetaheights modules.

The program has no tracing of its own, so the benchmark wraps the public
functions of each layer from outside. A wrapper replaces a function under
every name that refers to it in a zetaheights module, so callers that
imported it by name (`zeta` and `explicit` import `coefficient_array` and
`splitting_table` that way) are covered too.

Spans are kept in memory as [name, start, end, parent] and written out at
the end. A layer's self time is its spans' durations minus the time their
child spans cover.
"""

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# layer span name -> (module, function names)
FUNCTIONS = {
    "modp.batch_root_counts": ("modp", ["batch_root_counts"]),
    "modp.factor_shape": ("modp", ["factor_shape_mod_p"]),
    "fields.build": ("fields", ["build_number_field"]),
    "fields.coefficient_array": ("fields", ["coefficient_array"]),
    "fields.splitting_table": ("fields", ["splitting_table"]),
    "zeta.direct_series": ("zeta", ["direct_series"]),
    "zeta.locate_zeros": ("zeta", ["locate_zeros"]),
    "explicit.identity": ("explicit", ["identity_exponential", "identity_gaussian"]),
    "explicit.prime_side": ("explicit", ["prime_side"]),
    "bounds.reports": ("bounds", ["lehmer_grh_report", "uncond_membership",
                                  "northcott_report", "corollary_S_check",
                                  "zeros_theorem_report", "disc_bound2_report"]),
    "towers": ("towers", ["build_tower", "monotone_prime_sums", "psi_estimates",
                          "bz_sum", "family_constants", "tower_corollary_report"]),
    "table1.verify_row": ("table1", ["verify_row"]),
}

# per-layer metric -> (span name or counter, unit)
LAYER_METRICS = {
    "modp.batch_root_counts_s": ("modp.batch_root_counts", "s"),
    "modp.primes_swept": ("primes_swept", "count"),
    "modp.factor_shape_s": ("modp.factor_shape", "s"),
    "fields.build_s": ("fields.build", "s"),
    "fields.coefficient_array_s": ("fields.coefficient_array", "s"),
    "fields.coefficient_array_calls": ("coefficient_array_calls", "count"),
    "fields.coefficients_requested": ("coefficients_requested", "count"),
    "fields.splitting_table_s": ("fields.splitting_table", "s"),
    "fields.splitting_table_calls": ("splitting_table_calls", "count"),
    "zeta.evaluator_s": ("zeta.evaluator", "s"),
    "zeta.coefficients": ("evaluator_coefficients", "count"),
    "zeta.tau_nodes": ("tau_nodes", "count"),
    "zeta.residue_s": ("zeta.residue", "s"),
    "zeta.direct_series_s": ("zeta.direct_series", "s"),
    "zeta.direct_series_terms": ("direct_series_terms", "count"),
    "zeta.locate_zeros_s": ("zeta.locate_zeros", "s"),
    "zeta.hardy_calls": ("hardy_calls", "count"),
    "zeta.scan_halvings": ("scan_halvings", "count"),
    "explicit.identity_s": ("explicit.identity", "s"),
    "explicit.prime_side_s": ("explicit.prime_side", "s"),
    "bounds.reports_s": ("bounds.reports", "s"),
    "towers.s": ("towers", "s"),
    "table1.verify_row_s": ("table1.verify_row", "s"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result) adds counts on success."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, result)
            return result
        return traced

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self):
        child_time = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def layer_metrics(self):
        totals = self.self_times()
        out = {}
        for metric, (key, unit) in LAYER_METRICS.items():
            value = totals.get(key, 0.0) if unit == "s" else self.counts.get(key, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def replace_everywhere(original, replacement):
    """Point every zetaheights name bound to original at replacement."""
    for modname, module in list(sys.modules.items()):
        if modname == "zetaheights" or modname.startswith("zetaheights."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    """Wrap every traced function and method of the imported package."""
    import zetaheights
    from zetaheights import errors, zeta

    counts = tracer.counts
    after = {
        "batch_root_counts": lambda a, r: counts.update(primes_swept=len(a[1])),
        "coefficient_array": lambda a, r: counts.update(
            coefficient_array_calls=1, coefficients_requested=int(a[1])),
        "splitting_table": lambda a, r: counts.update(splitting_table_calls=1),
        "direct_series": lambda a, r: counts.update(direct_series_terms=int(a[2])),
        "locate_zeros": lambda a, r: counts.update(scan_halvings=round(
            math.log2(a[0].config.scan_step / r.diagnostics["scan_step"]))),
    }
    for span_name, (modname, names) in FUNCTIONS.items():
        module = getattr(zetaheights, modname)
        for fname in names:
            original = getattr(module, fname)
            wrapped = tracer.wrap(span_name, original, after.get(fname))
            if fname == "locate_zeros":
                wrapped = _count_failed_scans(tracer, wrapped, errors)
            replace_everywhere(original, wrapped)

    def evaluator_sizes(args, _result):
        ev = args[0]
        counts.update(evaluator_coefficients=ev.N, tau_nodes=len(ev.tau_nodes))

    # the constructor builds the kernel and theta; _solve_residue runs once
    # per evaluator, the first time its residue is read
    cls = zeta.ZetaEvaluator
    cls.__init__ = tracer.wrap("zeta.evaluator", cls.__init__, evaluator_sizes)
    cls._solve_residue = tracer.wrap("zeta.residue", cls._solve_residue)
    cls.hardy = tracer.counter("hardy_calls", cls.hardy)


def _count_failed_scans(tracer, fn, errors):
    """A scan that fails every step size rescans three times before raising."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except errors.IncompleteZeroSetError as exc:
            tracer.counts["scan_halvings"] += len(exc.diagnostics["attempts"]) - 1
            raise
    return counted
