"""Shared vectorized oracles for the test suite."""

import numpy as np
import pytest


def eps_table(n_max: int) -> np.ndarray:
    """Signs (-1)**popcount(n) for n = 0..n_max, via an xor parity fold.

    Independent of the library's bit_count route, so it can serve as an
    oracle for it.
    """
    v = np.arange(n_max + 1, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (1 - 2 * (v & np.uint64(1)).astype(np.int64)).astype(np.int64)


def block_count(X: int, l: int, m: int, j: int) -> int:
    """#{1 <= n <= X : n = l mod m, popcount(n) = j mod 2}, by blocks."""
    free = [[1] + [0] * (m - 1), [0] * m]   # i-bit blocks by (parity, residue)
    total = 0
    for i in range(X.bit_length()):
        if X >> i & 1:
            high = X >> (i + 1) << (i + 1)
            hp, hr = high.bit_count() & 1, high % m
            total += free[j ^ hp][(l - hr) % m]
        step = pow(2, i, m)
        free = [[free[p][res] + free[1 - p][(res - step) % m] for res in range(m)]
                for p in (0, 1)]
    total += X % m == l % m and X.bit_count() & 1 == j
    return total - (l % m == 0 and j == 0)     # n = 0 is not counted


@pytest.fixture(scope="session")
def eps_1m() -> np.ndarray:
    """Sign table for n = 0..10**6, shared across tests."""
    return eps_table(10**6)
