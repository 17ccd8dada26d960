"""Checks on the program's outputs, independent of the program.

Every reference here is held by the benchmark itself: the paper's printed
table, the mpmath zeros in reference.json, and splitting data worked out
from quadratic reciprocity. Nothing is read from zetaheights, so this
module imports without it (selftest.py relies on that).

Each check returns a list of problems; an empty list means the result
passed.
"""

import functools
import json
import math
from pathlib import Path

# The paper's Table 1, as printed: log d_K, 3.67 (lambda_K(2) - N_K(2)/5),
# N_K(2). Column tolerances follow the paper's stated precision; the row
# x^5+2*x^2+26 is held to the 2e-5 measured in tests/test_acceptance.py,
# because its printed column carries about 1.4e-5 of error.
PRINTED = {
    "x^3+18*x^2+312": ("8.05801080080209", "3.42934404079907", 2, 1e-6),
    "x^3+5*x^2+235": ("7.06902342657826", "3.40554888853991", 2, 1e-6),
    "x^3+3*x+213": ("8.35208267135264", "3.71716791990380", 4, 1e-6),
    "x^3+3*x+2613": ("8.91985437219167", "4.84445187879911", 4, 1e-6),
    "x^4+3*x^2+30": ("15.5928465065266", "5.98680373865722", 6, 1e-6),
    "x^4+3*x^2+1650": ("14.2893667565255", "6.16211623755126", 4, 1e-6),
    "x^4+3*x^2+2109": ("12.6237824800548", "6.33826295082401", 4, 1e-6),
    "x^4+18*x^2+60": ("12.9559781599087", "6.48197134982413", 4, 1e-6),
    "x^5+42": ("22.9978680353040", "10.3144599678732", 8, 1e-5),
    "x^5+2*x^2+26": ("21.0796386344435", "8.72232900418632", 8, 2e-5),
}
LOG_DK_TOL = 1e-9
ORDINATE_TOL = 1e-6
# the arithmetic side of the exponential identity against the mpmath zero sum
EXPONENTIAL_TOL = 5e-4
# the Gaussian identity against the reference zeros, for y in GAUSS_Y_RANGE;
# there the prime tail beyond X = 1e6 is below 1e-9
GAUSS_TOL = 1e-7
GAUSS_Y_RANGE = (0.15, 0.6)

# Session fields: degree and discriminant. Each defining polynomial
# generates the ring of integers, so disc f = d_K and the index is 1.
DEGREE = {"x": 1, "x^2+1": 2, "x^2-x-1": 2, "x^2+x+1": 2, "x^4+1": 4}
FIELD_DISC = {"x": 1, "x^2+1": -4, "x^2-x-1": 5, "x^2+x+1": -3, "x^4+1": 256}
# Mahler measures of the two non-cyclotomic session polynomials
MAHLER = {"x": 1.0, "x^2-x-1": (1.0 + math.sqrt(5.0)) / 2.0}


def load_reference(path=None):
    path = Path(path) if path else Path(__file__).with_name("reference.json")
    raw = json.loads(path.read_text())
    return {poly: {"ordinates": [float(t) for t in entry["ordinates"]],
                   "exponential_zero_sum": float(entry["exponential_zero_sum"])}
            for poly, entry in raw["fields"].items()}


def _close(got, want, tol):
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol


# ----------------------------------------------------------------------
# Table rows
# ----------------------------------------------------------------------

def check_row(poly, log_dK, zero_count, column):
    """A recomputed table row against the printed values."""
    log_printed, col_printed, n_printed, col_tol = PRINTED[poly]
    problems = []
    if not _close(log_dK, float(log_printed), LOG_DK_TOL):
        problems.append(f"{poly}: log d_K {log_dK!r} vs printed {log_printed}")
    if zero_count != n_printed:
        problems.append(f"{poly}: N_K(2) = {zero_count} vs printed {n_printed}")
    if not _close(column, float(col_printed), col_tol):
        problems.append(f"{poly}: column {column!r} vs printed {col_printed} "
                        f"(tolerance {col_tol})")
    return problems


# ----------------------------------------------------------------------
# Zeros
# ----------------------------------------------------------------------

def check_zeros(poly, T, ordinates, zero_at_origin, N, ref):
    """Located ordinates in (0, T) and N_K(T) against the mpmath zeros."""
    want = [t for t in ref[poly]["ordinates"] if t < T]
    got = sorted(float(t) for t in ordinates)
    problems = []
    if zero_at_origin:
        problems.append(f"{poly} to T={T}: reports a zero at s = 1/2")
    if len(got) != len(want):
        problems.append(f"{poly} to T={T}: {len(got)} ordinates vs "
                        f"{len(want)} in the reference")
    else:
        worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
        if not worst <= ORDINATE_TOL:
            problems.append(f"{poly} to T={T}: ordinate off by {worst:.3e}")
    if N != 2 * len(want):
        problems.append(f"{poly} to T={T}: N_K = {N} vs {2 * len(want)}")
    return problems


# ----------------------------------------------------------------------
# Identities
# ----------------------------------------------------------------------

def check_exponential(poly, arithmetic_side, ref):
    want = ref[poly]["exponential_zero_sum"]
    if _close(arithmetic_side, want, EXPONENTIAL_TOL):
        return []
    return [f"{poly}: exponential arithmetic side {arithmetic_side!r} vs "
            f"mpmath zero sum {want:.10f}"]


def gaussian_zero_sum(poly, y, ref):
    """(1/n) sum over all zeros of sqrt(pi/y) e^{-t^2/4y}, from the reference.

    Zeros above T = 40 add less than e^{-400}."""
    phi = math.sqrt(math.pi / y)
    return math.fsum(2.0 * phi * math.exp(-t * t / (4.0 * y))
                     for t in ref[poly]["ordinates"]) / DEGREE[poly]


def check_gaussian(poly, y, arithmetic_side, ref):
    want = gaussian_zero_sum(poly, y, ref)
    if _close(arithmetic_side, want, GAUSS_TOL):
        return []
    return [f"{poly}: gaussian(y={y}) arithmetic side {arithmetic_side!r} vs "
            f"reference zero sum {want:.12f}"]


# ----------------------------------------------------------------------
# Splitting data, from quadratic reciprocity
# ----------------------------------------------------------------------

def kronecker(d, p):
    """(d/p) for a fundamental discriminant d and a prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = pow(d % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def prime_shape(poly, p):
    """Sorted (e, f) pairs of p in the ring of integers of the field."""
    if poly == "x":
        return ((1, 1),)
    if DEGREE[poly] == 2:
        k = kronecker(FIELD_DISC[poly], p)
        return {1: ((1, 1), (1, 1)), 0: ((2, 1),), -1: ((1, 2),)}[k]
    if poly == "x^4+1":
        if p == 2:
            return ((4, 1),)
        return ((1, 1),) * 4 if p % 8 == 1 else ((1, 2), (1, 2))
    raise KeyError(poly)


def norm_count(poly, q_prime, k, override=None):
    """N_{p^k}: prime ideals of norm p^k, with an optional forced shape."""
    shape = prime_shape(poly, q_prime)
    if override and q_prime in override:
        shape = tuple(tuple(ef) for ef in override[q_prime])
    return sum(1 for _e, f in shape if f == k)


@functools.lru_cache(maxsize=None)
def prime_powers(limit):
    """(q, p, k) for every prime power q = p^k <= limit, in order of q."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(range(i * i, limit + 1, i)))
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            q, k = p, 1
            while q <= limit:
                out.append((q, p, k))
                q *= p
                k += 1
    return tuple(sorted(out))


def check_counts(poly, counts, limit, override=None):
    """A splitting table {q: N_q} against the benchmark's own counts."""
    problems = []
    powers = prime_powers(limit)
    if set(counts) != {q for q, _p, _k in powers}:
        problems.append(f"{poly}: table keys are not the prime powers <= {limit}")
        return problems
    for q, p, k in powers:
        want = norm_count(poly, p, k, override)
        if counts[q] != want:
            problems.append(f"{poly}: N_{q} = {counts[q]} vs {want}")
            break
    return problems


def weighted_sum(poly, x, override=None):
    """sum_{q <= x} N_q log q / n, as the monotone tower sums define it."""
    return math.fsum(norm_count(poly, p, k, override) * math.log(q)
                     for q, p, k in prime_powers(x)) / DEGREE[poly]


def check_monotone(lower, upper, x, lower_sum, upper_sum, holds,
                   lower_override=None, upper_override=None):
    problems = []
    want_lo = weighted_sum(lower, x, lower_override)
    want_up = weighted_sum(upper, x, upper_override)
    if not _close(lower_sum, want_lo, 1e-9 * max(1.0, want_lo)):
        problems.append(f"{lower} < {upper}: lower sum {lower_sum!r} vs {want_lo!r}")
    if not _close(upper_sum, want_up, 1e-9 * max(1.0, want_up)):
        problems.append(f"{lower} < {upper}: upper sum {upper_sum!r} vs {want_up!r}")
    if not (holds and want_lo >= want_up - 1e-9):
        problems.append(f"{lower} < {upper}: monotone sums do not hold to x={x}")
    return problems


def check_ratios(polys, ratios, x, overrides=None):
    """Tower ratios N_q / n per level against the benchmark's own counts."""
    overrides = overrides or (None,) * len(polys)
    powers = prime_powers(x)
    if set(ratios) != {q for q, _p, _k in powers}:
        return [f"tower ratios are not keyed by the prime powers <= {x}"]
    for q, p, k in powers:
        want = tuple(norm_count(poly, p, k, ov) / DEGREE[poly]
                     for poly, ov in zip(polys, overrides))
        if tuple(ratios[q]) != want:
            return [f"tower ratios at q={q}: {ratios[q]!r} vs {want!r}"]
    return []


def check_forced_prime(poly, p, ratio_at_level, plain_shape):
    """A prime forced inert has ratio 0 at its level, and a later call
    without the override sees the true shape (no leak)."""
    problems = []
    if ratio_at_level != 0:
        problems.append(f"{poly}: forced prime {p} has ratio {ratio_at_level!r}")
    true_shape = prime_shape(poly, p)
    if tuple(sorted(tuple(ef) for ef in plain_shape)) != true_shape:
        problems.append(f"{poly}: plain splitting of {p} is {plain_shape!r} "
                        f"after the override, true shape {true_shape!r}")
    return problems


# ----------------------------------------------------------------------
# Bound reports
# ----------------------------------------------------------------------

def check_northcott(poly, margin_c):
    if isinstance(margin_c, float) and margin_c >= 0.0:
        return []
    return [f"{poly}: northcott variant (c) margin {margin_c!r} < 0"]


def check_lehmer(poly, lhs):
    """lhs = 2 n h(f) = 2 log M(f) for the non-cyclotomic session polynomials."""
    want = 2.0 * math.log(MAHLER[poly])
    if _close(lhs, want, 1e-9):
        return []
    return [f"{poly}: lehmer-grh lhs {lhs!r} vs 2 log M(f) = {want!r}"]


def check_log_poly_disc(poly, lhs):
    want = math.log(abs(FIELD_DISC[poly]))
    if _close(lhs, want, 1e-12):
        return []
    return [f"{poly}: log|D(f)| {lhs!r} vs {want!r}"]


def check_disc_lhs(poly, lhs):
    want = math.log(abs(FIELD_DISC[poly])) / DEGREE[poly]
    if _close(lhs, want, 1e-12):
        return []
    return [f"{poly}: log d_K / n {lhs!r} vs {want!r}"]


def check_zero_count_note(poly, T, N, ref):
    want = 2 * sum(1 for t in ref[poly]["ordinates"] if t < T)
    if N == want:
        return []
    return [f"{poly}: report's N_K({T}) = {N} vs {want}"]


def check_membership(poly, in_S, witness):
    """No integer Y lies in ((log n)^2, sqrt n) for n <= 4, so no field of
    the session can be a member."""
    n = DEGREE[poly]
    lo = math.log(n) ** 2 if n > 1 else 0.0
    if any(lo < Y < math.sqrt(n) for Y in range(2, n + 1)):
        raise ValueError(f"{poly}: membership window is not empty")
    if in_S or witness is not None:
        return [f"{poly}: membership claims witness {witness!r} in an empty window"]
    return []


Y_STAR = 0.212  # the paper's Gaussian parameter for the discriminant bound


def gaussian_prime_sum(poly, X, y=Y_STAR):
    """sum_{q <= X} N_q log q / sqrt q e^{-y log^2 q} plus the density tail
    int_{log X}^inf e^{u/2 - y u^2} du (closed form)."""
    head = math.fsum(norm_count(poly, p, k) * math.log(q) / math.sqrt(q)
                     * math.exp(-y * math.log(q) ** 2)
                     for q, p, k in prime_powers(X))
    c = 1.0 / (4.0 * y)
    tail = (math.exp(1.0 / (16.0 * y)) * 0.5 * math.sqrt(math.pi / y)
            * math.erfc(math.sqrt(y) * (math.log(X) - c)))
    return head + tail


def check_corollary(poly, lhs_terms, prime_sum, ref):
    """Terms of the corollary-S left side: 1.168 N_K(1), twice the Gaussian
    prime sum, and the index term (0: the polynomials are monogenic)."""
    n1 = 2 * sum(1 for t in ref[poly]["ordinates"] if t < 1.0)
    problems = []
    if not _close(lhs_terms.get("zero_term"), 1.168 * n1, 1e-12):
        problems.append(f"{poly}: corollary-S zero term {lhs_terms.get('zero_term')!r}")
    if not _close(lhs_terms.get("prime_term"), 2.0 * prime_sum, 1e-9 * abs(prime_sum)):
        problems.append(f"{poly}: corollary-S prime term {lhs_terms.get('prime_term')!r} "
                        f"vs {2.0 * prime_sum!r}")
    if lhs_terms.get("index_term") != 0.0:
        problems.append(f"{poly}: corollary-S index term {lhs_terms.get('index_term')!r}")
    return problems
