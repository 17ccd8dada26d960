"""Prime sieves and small factorization utilities."""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np

from .errors import FactorizationFailureError

_TRIAL_LIMIT = 10 ** 6
_RHO_ITER_CAP = 10 ** 8


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2). The
    mask holds the odd n only, mask[i] for n = 2i + 1, and 2 is prepended."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones((limit + 1) // 2, dtype=bool)
    mask[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2:: p] = False
    odd = np.flatnonzero(mask).astype(np.int64)
    return np.concatenate((np.array([2], dtype=np.int64), 2 * odd + 1))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 64-bit inputs we use)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(p: int) -> int:
    """The least prime above p."""
    p += 1
    while not is_prime(p):
        p += 1
    return p


def _pollard_rho(n: int, seed: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor or 0 on budget."""
    if n % 2 == 0:
        return 2
    c = 1 + seed
    y, m, r, q, g = 2, 128, 1, 1, 1
    x = ys = y
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += m
            count += m
            if count > _RHO_ITER_CAP:
                return 0
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else 0


def factorize(n: int) -> dict:
    """Factor |n| into {prime: exponent}.

    Trial division to 1e6 then seeded Pollard rho. Raises
    FactorizationFailureError (with the partial factorization) on budget
    exhaustion; desk-scale discriminants never get near that.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 17
    while p * p <= n and p <= _TRIAL_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = 0
        for seed in range(1, 20):
            g = _pollard_rho(m, seed)
            if g not in (0, m):
                break
        if g in (0, m):
            partial = dict(out)
            partial[None] = m
            raise FactorizationFailureError(
                f"factorization budget exhausted on cofactor {m}", partial)
        stack.append(g)
        stack.append(m // g)
    return dict(sorted(out.items()))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be positive odd")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
