"""The odd-only sieve against a plain sieve over every integer."""

import numpy as np

from zetaheights.primes import sieve_primes


def _plain_sieve(limit):
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def test_sieve_matches_the_plain_sieve():
    for limit in [*range(2001), 10 ** 6, 10 ** 6 + 1]:
        got = sieve_primes(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, _plain_sieve(limit)), limit
