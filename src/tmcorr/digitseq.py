"""Thue-Morse sign sequence, binary digit-sum parity classes, and exact class counts.

The sign eps(n) = (-1)**s(n), with s(n) the number of ones in the binary
expansion of n, splits the naturals into class 0 (even digit sum) and
class 1 (odd digit sum).  Everything here is exact integer arithmetic.
"""

# direct-loop guard: above this the O(X) paths refuse instead of hanging
NAIVE_LIMIT = 10**7


def check_naive_limit(X: int) -> None:
    """Refuse a direct O(X) loop for X > NAIVE_LIMIT."""
    if X > NAIVE_LIMIT:
        raise ValueError(f"direct loop refused for X > {NAIVE_LIMIT}")


def eps(n: int) -> int:
    """Sign (-1)**popcount(n) for n >= 0; eps(0) = +1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 1 - 2 * (n.bit_count() & 1)


def class_of(n: int) -> int:
    """Digit-sum parity class: 0 iff eps(n) = +1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_count() & 1


def eps_partial_sum(X: int) -> int:
    """Sum of eps(n) over 1 <= n <= X, in O(1).

    Consecutive pairs (2k, 2k+1) cancel, so the sum over 0..X is eps(X)
    for even X and 0 for odd X; the n = 0 term (+1) is then removed.
    """
    if X < 0:
        raise ValueError("X must be nonnegative")
    total_from_zero = eps(X) if X % 2 == 0 else 0
    return total_from_zero - 1


def gelfond_count(X: int, l: int, m: int, j: int) -> int:
    """Count n with 1 <= n <= X, n = l (mod m), and parity class j.

    With m = 2^a m' (m' odd), b = l mod 2^a and c = l >> a (l reduced mod
    m), the n counted are 2^a (m' t + c) + b for t = 0..T.  Their low a bits
    are b, so eps(n) = eps(b) eps(m' t + c), and the signed sum over t is the
    dilation sum U_m'(T, c) plus the t = 0 term: O(m' log X) engine steps.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if j not in (0, 1):
        raise ValueError("class index j must be 0 or 1")
    if X < 0:
        raise ValueError("X must be nonnegative")
    from .correlation import shift_vectors   # correlation imports this module
    l %= m
    a = (m & -m).bit_length() - 1
    odd, b, c = m >> a, l & ((1 << a) - 1), l >> a
    T = (((X - b) >> a) - c) // odd   # negative when no n qualifies
    if T < 0:
        return 0
    N, E = T + 1, eps(b) * (eps(c) + shift_vectors(odd, (T,), dilation=True)[T][c])
    if l == 0:   # drop the n = 0 term
        N, E = N - 1, E - 1
    return (N + E) // 2 if j == 0 else (N - E) // 2
