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


def _doubled(v: list[int], m: int) -> list[int]:
    """out[2r mod m] = sum of v[r]: residue counts after appending a 0 bit."""
    h = (m + 1) // 2
    out = [0] * m
    if m % 2:
        out[0::2], out[1::2] = v[:h], v[h:]
    else:
        out[0::2] = [a + b for a, b in zip(v[:h], v[h:])]
    return out


def gelfond_count(X: int, l: int, m: int, j: int) -> int:
    """Count n with 1 <= n <= X, n = l (mod m), and parity class j.

    Most-significant-bit-first loop over the digits of X.  The prefixes
    already below the same-length prefix of X are counted by (digit-sum
    parity, residue mod m) in two lists; the prefix equal to X's is tracked
    on its own.  Exact, O(m log X) integer steps, no recursion.  l is
    reduced mod m on entry.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if j not in (0, 1):
        raise ValueError("class index j must be 0 or 1")
    if X < 0:
        raise ValueError("X must be nonnegative")
    l %= m
    if X == 0:
        return 0

    below = [[0] * m, [0] * m]     # below[parity][residue]
    tight_r, tight_p = 0, 0
    for bit in bin(X)[2:]:
        even, odd = _doubled(below[0], m), _doubled(below[1], m)
        # a 0 bit keeps parity and residue 2r; a 1 bit flips parity, residue 2r+1
        below = [[a + b for a, b in zip(even, odd[-1:] + odd[:-1])],
                 [a + b for a, b in zip(odd, even[-1:] + even[:-1])]]
        tight_r = 2 * tight_r % m
        if bit == "1":
            below[tight_p][tight_r] += 1    # X's prefix with a 0 here drops below
            tight_r = (tight_r + 1) % m
            tight_p ^= 1
    # counts n in [0, X]; the n = 0 solution is dropped when it qualifies
    total = below[j][l] + (tight_r == l and tight_p == j)
    if l == 0 and j == 0:
        total -= 1
    return total
