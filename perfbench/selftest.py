#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must pass the true result and
reject a perturbed one. Needs no zetaheights; run.py runs it before every
benchmark run, and it runs on its own as

    python3 perfbench/selftest.py
"""

import sys

import checks


def cases():
    """(name, problems for the true result, problems for a perturbed one)."""
    ref = checks.load_reference()
    out = []

    # zeros: an ordinate moved by 1e-5, a dropped zero
    for poly, T in (("x", 26.0), ("x^2+1", 11.0), ("x^4+1", 5.0)):
        true = [t for t in ref[poly]["ordinates"] if t < T]
        moved = list(true)
        moved[-1] += 1e-5
        dropped = true[:-1]
        out.append((f"zeros {poly} T={T}: ordinate moved by 1e-5",
                    checks.check_zeros(poly, T, true, False, 2 * len(true), ref),
                    checks.check_zeros(poly, T, moved, False, 2 * len(true), ref)))
        out.append((f"zeros {poly} T={T}: dropped zero",
                    checks.check_zeros(poly, T, true, False, 2 * len(true), ref),
                    checks.check_zeros(poly, T, dropped, False, 2 * len(dropped), ref)))

    # table rows: the column off by twice its tolerance, N_K(2) off by two
    for poly, (log_dk, column, n2, tol) in checks.PRINTED.items():
        log_dk, column = float(log_dk), float(column)
        true = checks.check_row(poly, log_dk, n2, column)
        out.append((f"row {poly}: column off by twice its tolerance", true,
                     checks.check_row(poly, log_dk, n2, column + 2 * tol)))
        out.append((f"row {poly}: N_K(2) off by two", true,
                     checks.check_row(poly, log_dk, n2 + 2, column)))

    # a leaked override: the forced inert shape seen by a later plain call
    out.append(("override of 13 in x^2+1 leaked into a plain call",
                checks.check_forced_prime("x^2+1", 13, 0.0, ((1, 1), (1, 1))),
                checks.check_forced_prime("x^2+1", 13, 0.0, ((1, 2),))))
    out.append(("override of 13 in x^2+1 ignored at its level",
                checks.check_forced_prime("x^2+1", 13, 0.0, ((1, 1), (1, 1))),
                checks.check_forced_prime("x^2+1", 13, 1.0, ((1, 1), (1, 1)))))
    true_counts = {q: checks.norm_count("x^2+1", p, k)
                   for q, p, k in checks.prime_powers(200)}
    leaked = {**true_counts, 13: 0, 169: 1}
    out.append(("override of 13 in x^2+1 leaked into a splitting table",
                checks.check_counts("x^2+1", true_counts, 200),
                checks.check_counts("x^2+1", leaked, 200)))

    # identities: the arithmetic side off by twice the tolerance
    anchor = ref["x"]["exponential_zero_sum"]
    out.append(("exponential identity for x off by 1e-3",
                checks.check_exponential("x", anchor, ref),
                checks.check_exponential("x", anchor + 2 * checks.EXPONENTIAL_TOL, ref)))
    gauss = checks.gaussian_zero_sum("x^4+1", 0.5, ref)
    out.append(("gaussian identity for x^4+1 off by twice its tolerance",
                checks.check_gaussian("x^4+1", 0.5, gauss, ref),
                checks.check_gaussian("x^4+1", 0.5, gauss + 2 * checks.GAUSS_TOL, ref)))
    return out


def main():
    bad = []
    for name, true_problems, perturbed_problems in cases():
        if true_problems:
            bad.append(f"{name}: rejects the true result: {true_problems}")
        if not perturbed_problems:
            bad.append(f"{name}: accepts the perturbed result")
    for line in bad:
        print(f"selftest: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
