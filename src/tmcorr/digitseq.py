"""Thue-Morse sign sequence, binary digit-sum parity classes, and exact class counts.

The sign eps(n) = (-1)**s(n), with s(n) the number of ones in the binary
expansion of n, splits the naturals into class 0 (even digit sum) and
class 1 (odd digit sum).  Everything here is exact integer arithmetic.
The fast paths run their steps on ``walk_prefixes``, which reads each bound
from the top bit.  ``shift_rows`` is the one table of the halving recursion:
with its sign at both columns it is the transfer matrix T_q, with the b
column negated the step D_q of ``residue_sums``, whose walk reads no table:
it keeps every residue class in one integer, a lane each in the order of the
doubling map's orbits, so a bit is one rotation and one subtraction.  One
entry reads a row of Gelfond products per 1-bit below 2^40 and walks above.
"""

import sys
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from itertools import compress

# direct-loop guard: above this the O(X) paths refuse instead of hanging
NAIVE_LIMIT = 10**7
# step tables kept per process, one per modulus (or multiplier and width)
TABLE_CACHE = 64
# ``gelfond_rows`` keeps rows 0..40 (a row costs about 3 walk bits to build,
# so a first call stays within 2x of a 40-bit walk) if they hold <= 2^13
# entries: above m = 199, reading m lanes costs more than the 40 bits saved
GELFOND_DEPTH, GELFOND_BUDGET = 40, 2 ** 13


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
    paths = sorted((bin(X)[2:] if X else "", X) for X in set(xs))
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
    correlation sums; with the b term negated the rows form D_q
    (``residue_rows``), which the residue walk applies as a lane rotation.
    """
    return tuple((1 - 2 * (s & 1), s >> 1, (q + s) >> 1) for s in range(max(q, size)))


def residue_rows(m: int) -> tuple[tuple[int, int], ...]:
    """Row l = (column of +1, column of -1) of D_m, the step ``residue_sums``
    takes without this table: ``shift_rows(m)``, b negated: l/2, (l-1)/2 mod m."""
    return tuple((a, b) if g > 0 else (b, a) for g, a, b in shift_rows(m))


def _residue_lanes(m: int, top: int) -> tuple[int, int, int, int, int]:
    """(m, W, M, OFF, 1/2 mod m) of a residue walk to bounds <= top, m odd."""
    W = (top // m + 2).bit_length() + 2
    M = (1 << m * W) - 1
    return m, W, M, M // ((1 << W) - 1) << W - 1, (m + 1) // 2


def _residue_walk(lanes, state, bits):
    """The state (P, g, e, f) after the '0'/'1' string ``bits``, from ``state``.

    After k bits, at prefix h, P holds class l in lane l f (mod m), f = 2^-k,
    at 2^(W l f).  Row l of D_m (+1 at l/2, -1 at (l-1)/2) is then V - x^t V
    in Z[x]/(x^m - 1), t = f/2, and x -> 2^W maps that into Z/M, M = 2^(mW) - 1:
    one exact rotation and subtraction, P kept in 0..M.  g = h f is the lane
    of h and e = eps(h); a 0 bit drops N = 2h+1, of sign -e, from lane g + t.
    """
    m, W, M, _, half = lanes
    mW = m * W
    P, g, e, f = state
    for c in bits:
        f = f * half % m
        r = P << f * W
        P -= (r & M) + (r >> mW)
        if P < 0:
            P += M
        if c == "1":
            g, e = (g + f) % m, -e
        else:
            P += e << (g + f) % m * W
            if not 0 <= P <= M:
                P -= e * M
    return P, g, e, f


def _residue_read(lanes, state, ls) -> list[int]:
    """Entries ls of a walk state's sums.  A class sums at most Y//m + 1 signs,
    so each W-bit lane of P + OFF (2^(W-1) in each lane) holds one centred."""
    m, W, M, OFF, _ = lanes
    x, mask, mid = state[0] + OFF, (1 << W) - 1, 1 << W - 1
    if x >= M:
        x -= M
    return [(x >> l * state[3] % m * W & mask) - mid for l in ls]


def residue_sums(m: int, ys) -> dict[int, list[int]]:
    """Y -> [sum of eps(N) over 0 <= N <= Y, N = l (mod m), for l in 0..m-1]
    for every Y >= -1 in ys; m odd.

    The N <= 2h+1 are 2k and 2k+1, k <= h, and eps(2k+1) = -eps(k), so
    ``residue_rows`` give the vector at 2h+1 from that at h; the one at 2h
    drops N = 2h+1, of sign -eps(h).  Along Y = 2^k - 1 that is Gelfond's
    product prod_{j<k} (1 - x^(2^j)) mod x^m - 1.  One lane width serves all Y.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got m={m}")
    ys = list(ys)
    if min(ys, default=-1) < -1:
        raise ValueError("Y must be >= -1")
    lanes = _residue_lanes(m, max(ys, default=0))
    walked = walk_prefixes((Y for Y in ys if Y >= 0), (1, 0, 1, 1), partial(_residue_walk, lanes))
    return {Y: _residue_read(lanes, walked[Y], range(m)) if Y >= 0 else [0] * m for Y in ys}


@lru_cache(maxsize=TABLE_CACHE)
def gelfond_rows(m: int) -> memoryview:
    """Rows k = 0..K of Gelfond's product prod_{j<k} (1 - x^(2^j)) mod x^m - 1,
    flat and read-only: entry k m + i sums eps(L) over L < 2^k, L = i (mod m).
    Row k + 1 is row k less row k rotated by 2^k, on m 64-bit lanes of one
    integer, each offset by 2^63 so that none borrows: O(K m) in all."""
    K = GELFOND_DEPTH if (GELFOND_DEPTH + 1) * m <= GELFOND_BUDGET else 0
    M, OFF = (1 << 64 * m) - 1, int.from_bytes((bytes(7) + b"\x80") * m, "little")
    P, rows = OFF + 1, [(1).to_bytes(8 * m, "little")]
    for k in range(K):
        r = P << (1 << k) % m * 64
        P += OFF - (r & M) - (r >> 64 * m)
        rows.append((P ^ OFF).to_bytes(8 * m, "little"))   # two's complement lanes
    table = b"".join(rows)
    if sys.byteorder == "big":   # the lanes are written little-endian
        table = b"".join(table[i:i + 8][::-1] for i in range(0, len(table), 8))
    return memoryview(table).cast("q")


def residue_entry(m: int, Y: int, l: int) -> int:
    """Entry l of ``residue_sums(m, (Y,))[Y]``, unchecked (odd m, Y >= -1,
    0 <= l < m): the N < Z = Y + 1.  With rows 0..K of ``gelfond_rows(m)`` and
    h = Z >> K, the N < h 2^K are N' 2^K + L, L < 2^K: a walk to h - 1 whose
    class (l - j) / 2^K meets entry j of row K.  Each 1-bit k of Z below K adds
    row k, signed by eps and offset by the value p mod m of Z's bits above k.
    At K = 0 (m > 199) that is the walk to Y, read at lane l."""
    rows, Z = gelfond_rows(m), Y + 1
    K = len(rows) // m - 1
    h, total = Z >> K, 0
    if h:
        lanes, js = _residue_lanes(m, h - 1), list(compress(range(m), rows[K * m:]))
        state, inv = _residue_walk(lanes, (1, 0, 1, 1), bin(h - 1)[2:]), pow(2, -K, m)
        vs = _residue_read(lanes, state, [(l - j) * inv % m for j in js])
        total = sum(rows[K * m + j] * v for j, v in zip(js, vs))
    e, p, low = eps(h), (h << K) % m, Z & ((1 << K) - 1)
    while low:
        k = low.bit_length() - 1
        total += e * rows[k * m + (l - p) % m]
        low ^= 1 << k
        e, p = -e, (p + (1 << k)) % m
    return total


def gelfond_count(X: int, l: int, m: int, j: int) -> int:
    """Count n with 1 <= n <= X, n = l (mod m), and parity class j.

    With m = 2^a m' (m' odd), b = l mod 2^a and c = l >> a (l reduced mod
    m), the n counted are 2^a k + b, k = c (mod m'), k <= K = (X - b) >> a.
    Their low a bits are b, so eps(n) = eps(b) eps(k), and the signed sum is
    eps(b) times ``residue_entry(m', K, c)``: a table read per 1-bit of K below
    2^40 (m' <= 199), one width-m' step per bit above.  K >= -1 and c < m', so
    where K < c both the count (K - c) // m' + 1 and the entry are 0."""
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
    N, E = (K - c) // odd + 1, eps(b) * residue_entry(odd, K, c)
    if l == 0:   # drop the n = 0 term
        N, E = N - 1, E - 1
    return (N + E) // 2 if j == 0 else (N - E) // 2
