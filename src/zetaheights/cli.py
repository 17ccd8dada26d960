"""Command-line surface: batch drivers, table verification, identities.

Exit codes: 0 success, 2 closure/zero-set/table failures, 3 input errors,
64 usage errors. Artifacts (JSON/CSV plus a manifest) are written only
after a computation succeeds or fails-with-diagnostics (exit 2); nothing
is written on exit 3/64. Identical command + config + fixtures produce
byte-identical artifacts: no timestamps anywhere.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .algebra import height_profile, mahler_inequality_margin, parse_polynomial
from .bounds import (corollary_S_check, disc_bound2_report, lehmer_grh_report,
                     northcott_report, uncond_membership, zeros_theorem_report)
from .config import RunConfig, load_config
from .errors import (ClosureFailureError, DomainError, IncompleteZeroSetError,
                     UsageError, ZeroPolynomialError, ZetaHeightsError)
from .explicit import identity_exponential, identity_gaussian
from .fields import (build_number_field, bz_disc_lower_bound,
                     dirichlet_coefficients, splitting_table)
from .table1 import verify_table1
from .towers import (build_tower, bz_sum, family_constants,
                     monotone_prime_sums, psi_estimates, tower_corollary_report)
from .zeta import get_evaluator, locate_zeros, zero_statistics

EXIT_OK = 0
EXIT_CLOSURE = 2
EXIT_INPUT = 3
EXIT_USAGE = 64


def _decimal(n: int) -> str:
    return str(int(n))


class _Artifacts:
    """Collects artifacts and writes them atomically at the end of a run."""

    def __init__(self, config: RunConfig, command: str, inputs: dict):
        self.config = config
        self.command = command
        self.inputs = inputs
        self.files: dict = {}

    def add_json(self, name: str, payload) -> None:
        text = json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_default) + "\n"
        self.files[name + ".json"] = text

    def add_csv(self, name: str, header, rows) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.files[name + ".csv"] = buf.getvalue()

    def flush(self) -> list:
        outdir = Path(self.config.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config.as_dict(),
            "config_hash": self.config.digest(),
            "version": __version__,
            "artifacts": sorted(self.files),
        }
        self.files["manifest.json"] = json.dumps(
            manifest, sort_keys=True, indent=2) + "\n"
        written = []
        for name, text in sorted(self.files.items()):
            target = outdir / name
            tmp = outdir / (name + ".tmp")
            tmp.write_text(text)
            os.replace(tmp, target)
            written.append(str(target))
        return written


def _json_default(obj):
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if isinstance(obj, tuple):
        return list(obj)
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file "
                        "(ZH_CONFIG is the fallback)")
    common.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override one config key")
    common.add_argument("--output-dir", help="artifact directory")
    common.add_argument("--format", choices=["json", "csv"],
                        help="preferred table format")
    parser = argparse.ArgumentParser(
        prog="zh", parents=[common],
        description="Number-field invariants, zeta zeros, and height bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="field invariants for a polynomial")
    p.add_argument("poly")

    p = sub.add_parser("zeros", parents=[common],
                       help="critical-line zeros up to a height")
    p.add_argument("poly")
    p.add_argument("--height", type=float, default=2.0)

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate a named inequality")
    p.add_argument("theorem", choices=["lehmer-grh", "northcott",
                                       "corollary-s", "zeros-theorem",
                                       "disc-bound2", "bz-disc", "membership"])
    p.add_argument("poly")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.5)

    p = sub.add_parser("tower", parents=[common],
                       help="tower report from a JSON description")
    p.add_argument("file")
    p.add_argument("--cutoff", type=int, default=100)

    p = sub.add_parser("verify-table1", parents=[common],
                       help="recompute the reference table")
    p.add_argument("--stretch", action="store_true",
                   help="include degree-6 stretch rows")

    p = sub.add_parser("identity", parents=[common],
                       help="explicit-formula closure check")
    p.add_argument("poly")
    p.add_argument("--kernel", choices=["exp", "gauss"], default="exp")
    p.add_argument("--y", type=float, default=0.212)
    p.add_argument("--height", type=float, default=2.0)
    return parser


def _resolve_config(args) -> RunConfig:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if args.format:
        overrides["format"] = args.format
    return load_config(args.config or os.environ.get("ZH_CONFIG"), overrides)


def _field_for(text: str):
    f = parse_polynomial(text)
    return f, build_number_field(f)


def _cmd_invariants(args, config):
    f, K = _field_for(args.poly)
    profile = height_profile(f)
    margin = mahler_inequality_margin(f)
    payload = {
        "poly": f.text(),
        "degree": K.n_K,
        "signature": [K.r1, K.r2],
        "poly_disc": _decimal(K.poly_disc),
        "index": _decimal(K.index),
        "field_disc": _decimal(K.field_disc),
        "log_abs_disc": K.log_abs_disc,
        "integral_basis": [[str(c) for c in row] for row in K.integral_basis],
        "mahler": profile.mahler,
        "weil_height": profile.weil_height,
        "house": profile.house,
        "mahler_inequality": {"lhs": margin.lhs, "rhs": margin.rhs,
                              "holds": margin.holds},
    }
    art = _Artifacts(config, "invariants", {"poly": args.poly})
    art.add_json("invariants", payload)
    if config.format == "csv":
        table = splitting_table(K, 100)
        art.add_csv("splitting", ("q", "N_q"), table.csv_rows())
        coeffs = dirichlet_coefficients(K, 100)
        art.add_csv("coefficients", ("n", "a_n"), coeffs.csv_rows())
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK, art


def _cmd_zeros(args, config):
    f, K = _field_for(args.poly)
    ev = get_evaluator(K, config)
    art = _Artifacts(config, "zeros", {"poly": args.poly, "height": args.height})
    try:
        zl = locate_zeros(ev, args.height)
    except IncompleteZeroSetError as exc:
        art.add_json("zeros-diagnostics", exc.diagnostics)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE, art
    stats = zero_statistics(zl, args.height)
    art.add_csv("zeros", ("t", "bracket_width"),
                list(zip(zl.ordinates, zl.bracket_widths)))
    art.add_json("zero-summary", {
        "poly": f.text(), "T": args.height,
        "ordinates": list(zl.ordinates),
        "N": stats.N, "lambda": stats.lam,
        "zero_at_origin": zl.zero_at_origin,
        "assumed_simple": zl.assumed_simple,
        "evaluator": {**ev.diagnostics, "residue": ev.residue},
    })
    print(f"N_K({args.height}) = {stats.N}, lambda = {stats.lam:.12f}")
    for t, w in zip(zl.ordinates, zl.bracket_widths):
        print(f"  t = {t:.12f}  (bracket {w:.1e})")
    return EXIT_OK, art


def _cmd_bound(args, config):
    f, K = _field_for(args.poly)
    art = _Artifacts(config, "bound",
                     {"poly": args.poly, "theorem": args.theorem})
    if args.theorem == "membership":
        res = uncond_membership(K, args.delta, args.epsilon)
        art.add_json("membership", res.to_dict())
        print(json.dumps(res.to_dict(), sort_keys=True, indent=2))
        return EXIT_OK, art
    if args.theorem == "bz-disc":
        report = bz_disc_lower_bound(f, K)
    else:
        ev = get_evaluator(K, config)
        zl = locate_zeros(ev, 2.0)
        if args.theorem == "lehmer-grh":
            report = lehmer_grh_report(f, K, zl)
        elif args.theorem == "northcott":
            report = northcott_report(K, zl, config.prime_cutoff)
        elif args.theorem == "corollary-s":
            report = corollary_S_check(f, K, zl, config.prime_cutoff)
        elif args.theorem == "zeros-theorem":
            report = zeros_theorem_report(f, K, zl, config.prime_cutoff)
        else:
            report = disc_bound2_report(K, zl)
    art.add_json(f"bound-{args.theorem}", report.to_dict())
    print(report.to_json(indent=2))
    return EXIT_OK, art


def _read_override(path: Path) -> dict:
    """{p: [(e, f), ...]} from a JSON object that maps decimal keys to lists
    of [e, f] pairs of positive integers; DomainError for any other shape."""
    raw = json.loads(path.read_text())
    if isinstance(raw, dict) and all(
            key.isdecimal() and isinstance(shape, list) and all(
                isinstance(ef, list) and len(ef) == 2
                and all(type(v) is int and v > 0 for v in ef) for ef in shape)
            for key, shape in raw.items()):
        return {int(p): [tuple(ef) for ef in shape] for p, shape in raw.items()}
    raise DomainError(f"override file {path.name} must map decimal keys to "
                      f"lists of [e, f] pairs of positive integers")


def _cmd_tower(args, config):
    spec = json.loads(Path(args.file).read_text())
    entries = spec.get("levels") if isinstance(spec, dict) else spec
    if not isinstance(entries, list):
        raise DomainError('tower spec must be a list of levels or {"levels": [...]}')
    base = Path(args.file).parent
    polys = []
    overrides = []
    for entry in entries:
        text = entry.get("poly") if isinstance(entry, dict) else entry
        if not isinstance(text, str):
            raise DomainError(f"tower level {entry!r} needs a polynomial string")
        polys.append(parse_polynomial(text))
        override = None
        if isinstance(entry, dict) and entry.get("override"):
            # {"p": [[e1,f1],...]} forces those shapes in this level's
            # tables only; the field's cached splitting is left untouched
            if not isinstance(entry["override"], str):
                raise DomainError(f"override of level {text!r} must be a file name")
            override = _read_override(base / entry["override"])
        overrides.append(override)
    tower = build_tower(polys, overrides=overrides)
    est = psi_estimates(tower, args.cutoff)
    art = _Artifacts(config, "tower", {"file": args.file, "cutoff": args.cutoff})
    rows = []
    for q, seq in sorted(est.ratios.items()):
        for level, ratio in enumerate(seq):
            rows.append((level, q, ratio))
    art.add_csv("tower-ratios", ("level", "q", "ratio"), rows)
    monotone = []
    for i, (a, b) in enumerate(zip(tower.levels, tower.levels[1:])):
        ms = monotone_prime_sums(a, b, args.cutoff,
                                 tower.override(i), tower.override(i + 1))
        monotone.append({"lower_degree": a.n_K, "upper_degree": b.n_K,
                         "lower_sum": ms.lower_level_sum,
                         "upper_sum": ms.upper_level_sum, "holds": ms.holds})
    summary = {
        "levels": [K.defining_poly.text() for K in tower.levels],
        "psi_hat": {str(q): v for q, v in sorted(est.psi_hat.items())},
        "asymptotically_positive": est.asymptotically_positive,
        "bz_sum": bz_sum(est),
        "cutoff": est.cutoff,
        "monotone_sums": monotone,
        "corollary": [r.__dict__ for r in tower_corollary_report(tower)],
    }
    if tower.levels[-1].abs_disc > 1:
        fc = family_constants(tower)
        summary["family_constants"] = {
            "phi_q": {str(q): v for q, v in fc.phi_q.items()},
            "phi_R": fc.phi_R, "phi_C": fc.phi_C,
            "classification": fc.classification,
        }
    art.add_json("tower-summary", summary)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK, art


def _cmd_verify_table1(args, config):
    summary = verify_table1(config, include_stretch=args.stretch)
    art = _Artifacts(config, "verify-table1", {"stretch": args.stretch})
    art.add_json("table1-verification", summary)
    for row in summary["rows"]:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"{status} {row['poly']}: logd_err={row['log_dK_error']:.2e} "
              f"N={row['N_K_2']}/{row['N_K_2_printed']} "
              f"col_err={row['column_error']:.2e} "
              f"(tol {row['column_tolerance']:.0e})")
    code = EXIT_OK if summary["gate_passed"] else EXIT_CLOSURE
    print("gate:", "PASS" if summary["gate_passed"] else
          f"FAIL ({', '.join(summary['failures'])})")
    return code, art


def _cmd_identity(args, config):
    f, K = _field_for(args.poly)
    ev = get_evaluator(K, config)
    zl = locate_zeros(ev, max(args.height, 2.0))
    art = _Artifacts(config, "identity",
                     {"poly": args.poly, "kernel": args.kernel, "y": args.y})
    try:
        if args.kernel == "exp":
            ledger = identity_exponential(K, zl, config.prime_cutoff)
        else:
            ledger = identity_gaussian(K, zl, args.y, config.prime_cutoff)
    except ClosureFailureError as exc:
        art.add_json("identity-ledger", exc.payload)
        print(f"closure failure: {exc}", file=sys.stderr)
        return EXIT_CLOSURE, art
    art.add_json("identity-ledger", ledger.to_dict())
    art.add_csv("identity-terms", ("term", "value"),
                sorted(ledger.archimedean_terms.items())
                + [("prime_sum", ledger.prime_sum),
                   ("prime_tail_bound", ledger.prime_tail_bound),
                   ("zero_side_located", ledger.zero_side_located)])
    print(json.dumps(ledger.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK, art


_COMMANDS = {
    "invariants": _cmd_invariants,
    "zeros": _cmd_zeros,
    "bound": _cmd_bound,
    "tower": _cmd_tower,
    "verify-table1": _cmd_verify_table1,
    "identity": _cmd_identity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = _resolve_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, artifacts = _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SyntaxError, ZeroPolynomialError, DomainError,
            OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZetaHeightsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE
    artifacts.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
