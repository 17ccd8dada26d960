#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from mpmath alone (no zetaheights).

    python3 perfbench/make_reference.py

The benchmark's session fields are abelian, so each Dedekind zeta function
is a product of the Riemann zeta function and Dirichlet L-functions of
real primitive characters:

    x        zeta
    x^2+1    zeta * L(chi_-4)
    x^2-x-1  zeta * L(chi_5)
    x^2+x+1  zeta * L(chi_-3)
    x^4+1    zeta * L(chi_-4) * L(chi_8) * L(chi_-8)

Zeros of zeta come from mpmath.zetazero. Zeros of each L(s, chi) up to
T = 40 are sign changes of the real function Z(t) = e^{i theta(t)}
L(1/2 + it), refined with mpmath.findroot. Each scan is certified by an
independent count: N(T) = (theta(T) + Delta arg L) / pi, with the
argument of L followed along 2 -> 2 + iT -> 1/2 + iT.

The file also holds, per field, the exponential-kernel zero sum
sum_rho 2 / (1 - (rho - 1/2)^2) = 2 sum_L Lambda_L'/Lambda_L(3/2), the
value the arithmetic side of the exponential identity must reproduce.
It takes a few minutes on one core.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

T_MAX = 40
SCAN_STEP = 0.02

# name -> (modulus, values chi(0..q-1), parity a with chi(-1) = (-1)^a)
CHARACTERS = {
    "chi_-4": (4, [0, 1, 0, -1], 1),
    "chi_5": (5, [0, 1, -1, -1, 1], 0),
    "chi_-3": (3, [0, 1, -1], 1),
    "chi_8": (8, [0, 1, 0, -1, 0, -1, 0, 1], 0),
    "chi_-8": (8, [0, 1, 0, 1, 0, -1, 0, -1], 1),
}

FIELDS = {
    "x": [],
    "x^2+1": ["chi_-4"],
    "x^2-x-1": ["chi_5"],
    "x^2+x+1": ["chi_-3"],
    "x^4+1": ["chi_-4", "chi_8", "chi_-8"],
}


def riemann_zeros():
    zeros, k = [], 1
    while True:
        t = mp.im(mp.zetazero(k))
        if t >= T_MAX:
            break
        zeros.append(t)
        k += 1
    if mp.nzeros(T_MAX) != len(zeros):
        raise SystemExit("zeta zero count disagrees with mpmath.nzeros")
    return zeros


def theta(t, q, a):
    """arg of (q/pi)^{(s+a)/2} Gamma((s+a)/2) at s = 1/2 + it."""
    return t / 2 * mp.log(q / mp.pi) + mp.im(mp.loggamma((0.5 + a + 1j * t) / 2))


def hardy_l(t, q, chi, a):
    s = mp.mpc(0.5, t)
    return mp.re(mp.expj(theta(t, q, a)) * mp.dirichlet(s, chi))


def certified_count(q, chi, a, T):
    """Zeros with 0 < gamma < T by the argument principle (no scan)."""
    # on Re s = 2, |L - 1| <= zeta(2) - 1 < 1, so arg L stays in
    # (-pi/2, pi/2) from arg L(2) = 0 and the principal value is continuous
    prev = mp.arg(mp.dirichlet(mp.mpc(2, T), chi))
    arg_total = prev
    n_steps = 600
    for k in range(1, n_steps + 1):
        sigma = 2 - mp.mpf(1.5) * k / n_steps
        cur = mp.arg(mp.dirichlet(mp.mpc(sigma, T), chi))
        jump = cur - prev
        jump -= 2 * mp.pi * mp.nint(jump / (2 * mp.pi))
        if abs(jump) > 1.0:
            raise SystemExit("argument step too coarse near height T")
        arg_total += jump
        prev = cur
    count = (theta(T, q, a) + arg_total) / mp.pi
    if abs(count - mp.nint(count)) > 1e-3:
        raise SystemExit(f"non-integral certified count {count}")
    return int(mp.nint(count))


def l_zeros(q, chi, a):
    def z(t):
        return hardy_l(t, q, chi, a)

    zeros = []
    n = int(round(T_MAX / SCAN_STEP))
    prev_t, prev_v = mp.mpf(SCAN_STEP) / 2, z(mp.mpf(SCAN_STEP) / 2)
    for k in range(1, n + 1):
        t = mp.mpf(k) * SCAN_STEP
        v = z(t)
        if prev_v * v < 0:
            zeros.append(mp.findroot(z, (prev_t, t), solver="anderson"))
        prev_t, prev_v = t, v
    expected = certified_count(q, chi, a, mp.mpf(T_MAX))
    if len(zeros) != expected:
        raise SystemExit(f"scan found {len(zeros)} zeros, argument principle "
                         f"counts {expected}")
    return zeros


def zeta_log_derivative_completed(s):
    """xi'/xi(s) for xi = s(s-1) pi^{-s/2} Gamma(s/2) zeta(s) / 2."""
    return (1 / s + 1 / (s - 1) - mp.log(mp.pi) / 2
            + mp.digamma(s / 2) / 2 + mp.zeta(s, derivative=1) / mp.zeta(s))


def l_log_derivative_completed(s, q, chi, a):
    return (mp.log(q / mp.pi) / 2 + mp.digamma((s + a) / 2) / 2
            + mp.dirichlet(s, chi, 1) / mp.dirichlet(s, chi))


def main():
    mp.mp.dps = 25
    s0 = mp.mpf(1.5)
    factors = {"zeta": riemann_zeros()}
    log_derivs = {"zeta": zeta_log_derivative_completed(s0)}
    for name, (q, chi, a) in CHARACTERS.items():
        print(f"{name} ...", file=sys.stderr, flush=True)
        factors[name] = l_zeros(q, chi, a)
        log_derivs[name] = l_log_derivative_completed(s0, q, chi, a)
    fields = {}
    for poly, chars in FIELDS.items():
        parts = ["zeta"] + chars
        ordinates = sorted(t for p in parts for t in factors[p])
        fields[poly] = {
            "factors": parts,
            "ordinates": [mp.nstr(t, 17) for t in ordinates],
            "exponential_zero_sum": mp.nstr(2 * sum(log_derivs[p] for p in parts), 17),
        }
    out = {
        "generator": "perfbench/make_reference.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "T": T_MAX,
        "factors": {name: [mp.nstr(t, 17) for t in zs]
                    for name, zs in factors.items()},
        "fields": fields,
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
