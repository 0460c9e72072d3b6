"""Thue-Morse sign sequence, binary digit-sum parity classes, and exact class counts.

The sign eps(n) = (-1)**s(n), with s(n) the number of ones in the binary
expansion of n, splits the naturals into class 0 (even digit sum) and
class 1 (odd digit sum).  Everything here is exact integer arithmetic.
The fast paths run their steps on ``walk_prefixes``, which reads each bound
from the top bit.  ``shift_rows`` is the one table of the halving recursion:
with its sign at both columns it is the transfer matrix T_q, with the b
column negated the step D_q of the residue walk ``residue_sums``.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache

# direct-loop guard: above this the O(X) paths refuse instead of hanging
NAIVE_LIMIT = 10**7
# step tables kept per process, one per modulus (or multiplier and width)
TABLE_CACHE = 64


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


def _common_prefix(u: int, v: int) -> int:
    """Number of leading binary digits that u and v share."""
    lu, lv = u.bit_length(), v.bit_length()
    m = min(lu, lv)
    return m - ((u >> (lu - m)) ^ (v >> (lv - m))).bit_length()


def walk_prefixes(xs, start, advance) -> dict:
    """X -> the state after the bits of X, top bit first, for every X >= 0 in xs.

    ``start`` is the state of X = 0 (no bits); ``advance(state, bits)``
    returns the state after a '0'/'1' string and leaves ``state`` as it is,
    since later X may start from it.  X values are walked in the order of
    their bit strings, so a prefix shared by several X (a ladder 2^a..2^b, a
    run of consecutive X) is walked once: each X is walked in slices between
    the depths where a later X branches off, and a state is kept only at a
    slice end.  One distinct X has nothing to share and is walked in one call.
    """
    xs = set(xs)
    if len(xs) == 1:
        X, = xs
        return {X: advance(start, bin(X)[2:] if X else "")}
    paths = sorted((bin(X)[2:] if X else "", X) for X in xs)
    starts = [0] + [_common_prefix(u, v) for (_, u), (_, v) in zip(paths, paths[1:])]
    cuts = sorted(set(starts[1:]))   # depths where a later X branches off
    states = {0: start}   # depth -> state
    out = {}
    for (bits, X), depth in zip(paths, starts):
        state = states[depth]
        for end in cuts[bisect_right(cuts, depth):bisect_left(cuts, len(bits))] + [len(bits)]:
            states[end] = state = advance(state, bits[depth:end])
            depth = end
        out[X] = state
    return out


def shift_rows(q: int, size: int = 0) -> tuple[tuple[int, int, int], ...]:
    """Row s = (sign, a, b) of the halving recursion for the shift alphabet
    0..R, R = max(q, size) - 1.

    The terms n = 2k of shift s are sign times the terms k of shift a = s//2;
    the terms n = 2k+1 are sign times those k of shift b = (q+s)//2.
    sign = -1 for odd s.  The alphabet is closed under both maps because
    R >= q-1.  Sign at a and b gives the transfer matrix T_q of the
    correlation sums; with the b term negated the rows form D_q, the step
    matrix of the dilation sums (``residue_rows``).
    """
    return tuple((1 - 2 * (s & 1), s >> 1, (q + s) >> 1) for s in range(max(q, size)))


@lru_cache(maxsize=TABLE_CACHE)
def residue_rows(m: int) -> tuple[tuple[int, int], ...]:
    """Row l = (column of +1, column of -1) of D_m, the step of ``residue_sums``:
    ``shift_rows(m)`` with the b term negated, i.e. l/2 and (l-1)/2 mod m."""
    return tuple((a, b) if g > 0 else (b, a) for g, a, b in shift_rows(m))


def residue_sums(m: int, ys) -> dict[int, list[int]]:
    """Y -> [sum of eps(N) over 0 <= N <= Y, N = l (mod m), for l in 0..m-1]
    for every Y >= -1 in ys; m odd.

    The N <= 2h+1 are 2k and 2k+1, k <= h, and eps(2k+1) = -eps(k), so
    ``residue_rows`` give the vector at 2h+1 from that at h; the one at 2h
    drops N = 2h+1, of sign -eps(h): the state carries h mod m and eps(h).
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got m={m}")
    ys = list(ys)
    if min(ys, default=-1) < -1:
        raise ValueError("Y must be >= -1")
    rows = residue_rows(m)

    def advance(state, bits):
        R, h, e = state
        for c in bits:
            R = [R[a] - R[b] for a, b in rows]
            if c == "1":
                h, e = (2 * h + 1) % m, -e
            else:
                R[(2 * h + 1) % m] += e
                h = 2 * h % m
        return R, h, e

    start = ([1] + [0] * (m - 1), 0, 1)   # Y = 0: the single term N = 0
    walked = walk_prefixes((Y for Y in ys if Y >= 0), start, advance)
    return {Y: walked[Y][0] if Y >= 0 else [0] * m for Y in ys}


def gelfond_count(X: int, l: int, m: int, j: int) -> int:
    """Count n with 1 <= n <= X, n = l (mod m), and parity class j.

    With m = 2^a m' (m' odd), b = l mod 2^a and c = l >> a (l reduced mod
    m), the n counted are 2^a k + b, k = c (mod m'), k <= K = (X - b) >> a.
    Their low a bits are b, so eps(n) = eps(b) eps(k), and the signed sum is
    eps(b) times entry c of ``residue_sums(m', K)``: O(m' log X) steps.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if j not in (0, 1):
        raise ValueError("class index j must be 0 or 1")
    if X < 0:
        raise ValueError("X must be nonnegative")
    l %= m
    a = (m & -m).bit_length() - 1
    odd, b, c = m >> a, l & ((1 << a) - 1), l >> a
    K = (X - b) >> a
    if K < c:   # no n qualifies
        return 0
    N, E = (K - c) // odd + 1, eps(b) * residue_sums(odd, (K,))[K][c]
    if l == 0:   # drop the n = 0 term
        N, E = N - 1, E - 1
    return (N + E) // 2 if j == 0 else (N - E) // 2
