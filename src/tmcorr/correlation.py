"""Correlation and dilation sums of the Thue-Morse sign under odd multipliers.

For odd q and shift 0 <= r < q:

    S_q(X, r) = sum_{n=1..X} eps(n) * eps(q*n + r)      (correlation)
    U_q(X, r) = sum_{n=1..X} eps(q*n + r)               (dilation)

Both have direct O(X) evaluations and one exact halving engine.  Splitting
n into even and odd halves the range and maps the shift s to s//2 (even
part) and (q+s)//2 (odd part), with a sign flip for odd s; the correlation
adds the two halves and the dilation subtracts the odd one.  That signed
table (``shift_rows``) is the transfer matrix of ``build_transfer``; one
engine step is one pass over its rows.  The sizes floor(X/2^k) and
floor(X/2^k) - 1 are the only ones that occur, so the engine reads the
bits of X from the top with the vectors of all q shifts at those two
sizes: O(q log X) integer steps for any X, equal to the direct loop to
the last integer, and a batch of X walks each shared bit prefix once.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .digitseq import NAIVE_LIMIT, check_naive_limit, eps   # NAIVE_LIMIT: re-exported


def _validate_batch(q: int, xs) -> None:
    if q < 1 or q % 2 == 0:
        raise ValueError("multiplier must be odd")
    if any(X < 0 for X in xs):
        raise ValueError("X must be nonnegative")


def _validate(q: int, r: int, X: int) -> None:
    _validate_batch(q, (X,))
    if not 0 <= r < q:
        raise ValueError(f"shift must satisfy 0 <= r < q, got r={r} q={q}")


def corr_naive(q: int, r: int, X: int) -> int:
    """S_q(X, r) by direct summation; O(X) terms."""
    _validate(q, r, X)
    check_naive_limit(X)
    return sum(eps(n) * eps(q * n + r) for n in range(1, X + 1))


def shift_rows(q: int, size: int = 0) -> tuple[tuple[int, int, int], ...]:
    """Row s = (sign, a, b) of the halving recursion for the shift alphabet
    0..R, R = max(q, size) - 1.

    The terms n = 2k of shift s are sign times the terms k of shift a = s//2;
    the terms n = 2k+1 are sign times those k of shift b = (q+s)//2 for the
    correlation, and minus that for the dilation.  sign = -1 for odd s.  The
    alphabet is closed under both maps because R >= q-1.
    """
    return tuple((1 - 2 * (s & 1), s >> 1, (q + s) >> 1) for s in range(max(q, size)))


def _common_prefix(u: int, v: int) -> int:
    """Number of leading binary digits that u and v share."""
    lu, lv = u.bit_length(), v.bit_length()
    m = min(lu, lv)
    return m - ((u >> (lu - m)) ^ (v >> (lv - m))).bit_length()


def _prefixed_vectors(q: int, xs, dilation: bool, size: int = 0) -> dict[int, list[int]]:
    """X -> [sum_{n=0..X} w_s(n) for s in 0..R] for every X in xs (R as in shift_rows).

    w_s(n) = eps(n) eps(qn+s), or eps(qn+s) for the dilation.  With F(Y)
    the vector at size Y, the state at a bit prefix h of X is the pair
    (F(h), F(h-1)), starting from F(0) = eps(s) and F(-1) = 0; appending
    bit c gives the state at 2h+c from the signed rows (g, a, b), the halves
    of 2h+c and 2h+c-1 being h or h-1.  X values are walked in the order of
    their bit strings, so a prefix shared by several X (a ladder 2^a..2^b,
    a run of consecutive X) is walked once: each X is walked in slices
    between the depths where a later X branches off, and a state is kept
    only at a slice end.  A single X is one slice.
    """
    width = max(q, size)
    rows = shift_rows(q, width)
    paths = sorted((bin(X)[2:] if X else "", X) for X in set(xs))
    starts = [0] + [_common_prefix(u, v) for (_, u), (_, v) in zip(paths, paths[1:])]
    cuts = sorted(set(starts[1:]))   # depths where a later X branches off
    states = {0: ([eps(s) for s in range(width)], [0] * width)}   # depth -> (F(h), F(h-1))
    out = {}
    for (bits, X), depth in zip(paths, starts):
        V, W = states[depth]
        for end in cuts[bisect_right(cuts, depth):bisect_left(cuts, len(bits))] + [len(bits)]:
            for c in bits[depth:end]:
                M = V if c == "1" else W
                if dilation:
                    V, W = ([V[a] - M[b] if g > 0 else M[b] - V[a] for g, a, b in rows],
                            [M[a] - W[b] if g > 0 else W[b] - M[a] for g, a, b in rows])
                else:
                    V, W = ([V[a] + M[b] if g > 0 else -V[a] - M[b] for g, a, b in rows],
                            [M[a] + W[b] if g > 0 else -M[a] - W[b] for g, a, b in rows])
            states[end] = V, W
            depth = end
        out[X] = V
    return out


def shift_vectors(q: int, xs, dilation: bool = False, size: int = 0) -> dict[int, list[int]]:
    """X -> [S_q(X, r) for r in 0..max(q, size)-1] for every X in xs (U_q if
    dilation); a size above q adds the shifts r >= q.

    One engine pass serves the whole set: every shift at once, and every
    bit prefix that several X share (a ladder of powers of two, a range of
    consecutive X) is evaluated once.
    """
    xs = list(xs)
    _validate_batch(q, xs)
    full = _prefixed_vectors(q, xs, dilation, size)
    base = [eps(r) for r in range(max(q, size))]   # the n = 0 terms
    return {X: [v - e for v, e in zip(full[X], base)] for X in full}


def corr_fast(q: int, r: int, X: int) -> int:
    """S_q(X, r), identical to corr_naive, in O(q log X)."""
    _validate(q, r, X)
    return _prefixed_vectors(q, (X,), False)[X][r] - eps(r)


def dilation_sum(q: int, r: int, X: int) -> int:
    """U_q(X, r) = sum_{n=1..X} eps(qn+r), identical to dilation_naive; O(q log X)."""
    _validate(q, r, X)
    return _prefixed_vectors(q, (X,), True)[X][r] - eps(r)


def dilation_naive(q: int, r: int, X: int) -> int:
    """U_q(X, r) by direct summation; the oracle for dilation_sum."""
    _validate(q, r, X)
    check_naive_limit(X)
    return sum(eps(q * n + r) for n in range(1, X + 1))


@dataclass(frozen=True)
class CorrelationSystem:
    """Odd multiplier q with the transfer matrix of its shift recursion.

    Row r of ``transfer`` holds the coefficients with which the prefixed
    correlation at shift r decomposes into the half-size correlations;
    the shift alphabet 0..q-1 is closed under the recursion.
    """

    q: int
    transfer: tuple[tuple[int, ...], ...]
    shifts: tuple[int, ...]


def build_transfer(q: int) -> CorrelationSystem:
    """Transfer matrix of the halving recursion for odd q >= 3.

    Row r is ``shift_rows(q)[r]``: sign at columns r//2 and (q+r)//2, i.e.
    +1 at r//2 and (q+r-1)//2 for even r, -1 at (r-1)//2 and (q+r)//2 for
    odd r.  Row q-1-r is row r reversed (the matrix is centrosymmetric),
    which the spectral layer uses to halve its work.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError("multiplier must be odd and >= 3")
    rows = []
    for r, (sign, *cols) in enumerate(shift_rows(q)):
        row = [0] * q
        for c in cols:
            if not 0 <= c < q:
                raise AssertionError(f"shift alphabet not closed: q={q} r={r} -> {c}")
            row[c] += sign
        if sorted(abs(v) for v in row if v) != [1, 1]:
            raise AssertionError(f"transfer row {r} is not a two-entry sign row: {row}")
        rows.append(tuple(row))
    if any(rows[q - 1 - r] != row[::-1] for r, row in enumerate(rows)):
        raise AssertionError(f"transfer matrix is not centrosymmetric: q={q}")
    return CorrelationSystem(q=q, transfer=tuple(rows), shifts=tuple(range(q)))
