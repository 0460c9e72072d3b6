"""Correlation and dilation sums of the Thue-Morse sign under odd multipliers.

For odd q and shift 0 <= r < q:

    S_q(X, r) = sum_{n=1..X} eps(n) * eps(q*n + r)      (correlation)
    U_q(X, r) = sum_{n=1..X} eps(q*n + r)               (dilation)

Both have direct O(X) evaluations and exact fast paths, two steps on the
bit-prefix walker ``digitseq.walk_prefixes`` (a batch of X walks each
shared bit prefix once), equal to the direct loops for any X:

- correlation: splitting n into even and odd halves the range and maps
  the shift s to s//2 and (q+s)//2, with a sign flip for odd s.  That
  signed table (``shift_rows``) is the transfer matrix of
  ``build_transfer``.  The state is one list of all shifts at sizes
  floor(X/2^k) and floor(X/2^k) - 1; each bit maps it in one pass of a
  table of those rows, built once per q and width: O(q log X).
- dilation: the qn + r, n < X, are the N = r (mod q) up to qX - 1, so U_q
  is one entry of the residue walk ``digitseq.residue_sums`` plus the
  term n = X: O(q log qX).
"""

from dataclasses import dataclass
from functools import lru_cache

from .digitseq import (NAIVE_LIMIT, check_naive_limit, eps,   # NAIVE_LIMIT: re-exported
                       TABLE_CACHE, residue_sums, walk_prefixes)


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
    the terms n = 2k+1 are sign times those k of shift b = (q+s)//2.
    sign = -1 for odd s.  The alphabet is closed under both maps because
    R >= q-1.  With the b term negated the rows form D_q, the transfer
    matrix of the dilation sums, whose spectrum is still to be analysed.
    """
    return tuple((1 - 2 * (s & 1), s >> 1, (q + s) >> 1) for s in range(max(q, size)))


@lru_cache(maxsize=TABLE_CACHE)
def _corr_steps(q: int, width: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The '0'-bit and '1'-bit tables of ``_corr_vectors``: ``shift_rows``
    (g, a, b) offset into the state, each new entry g (S[i] + S[j])."""
    rows = shift_rows(q, width)
    return (tuple((g, a, width + b) for g, a, b in rows)
            + tuple((g, width + a, width + b) for g, a, b in rows),
            tuple((g, a, b) for g, a, b in rows)
            + tuple((g, a, width + b) for g, a, b in rows))


def _corr_vectors(q: int, xs, size: int = 0) -> dict[int, list[int]]:
    """X -> [sum_{n=0..X} eps(n) eps(qn+s) for s in 0..R] (R as in shift_rows).

    With F(Y) that vector at Y, the state at a bit prefix h is one list,
    F(h) then F(h-1) at offset width, from F(0) = eps(s) and F(-1) = 0; the
    table of bit c (``_corr_steps``) gives the state at 2h+c in one pass,
    the halves of 2h+c and 2h+c-1 being h or h-1.
    """
    width = max(q, size)
    steps = _corr_steps(q, width)

    def advance(S, bits):
        for c in bits:
            S = [S[i] + S[j] if g > 0 else -S[i] - S[j] for g, i, j in steps[c == "1"]]
        return S

    start = [eps(s) for s in range(width)] + [0] * width
    return {X: S[:width] for X, S in walk_prefixes(xs, start, advance).items()}


def shift_vectors(q: int, xs, dilation: bool = False, size: int = 0) -> dict[int, list[int]]:
    """X -> [S_q(X, r) for r in 0..max(q, size)-1] for every X in xs (U_q if
    dilation); a size above q adds the shifts r >= q.

    One walk serves the whole set: every shift at once, and every bit
    prefix that several X share (a ladder of powers of two, a range of
    consecutive X) is walked once.  A dilation shift r >= q follows from
    U_q(X, r) = U_q(X, r - q) + eps(qX + r) - eps(r).
    """
    xs = list(xs)
    _validate_batch(q, xs)
    width = max(q, size)
    base = [eps(r) for r in range(width)]   # the n = 0 terms
    if not dilation:
        full = _corr_vectors(q, xs, size)
        return {X: [v - e for v, e in zip(full[X], base)] for X in full}
    R = residue_sums(q, {q * X - 1 for X in xs})   # the terms n = 0..X-1
    out = {}
    for X in xs:
        Y = q * X
        out[X] = U = [v + eps(Y + r) - e for r, (v, e) in enumerate(zip(R[Y - 1], base))]
        for r in range(q, width):
            U.append(U[r - q] + eps(Y + r) - base[r])
    return out


def corr_fast(q: int, r: int, X: int) -> int:
    """S_q(X, r), identical to corr_naive, in O(q log X)."""
    _validate(q, r, X)
    return _corr_vectors(q, (X,))[X][r] - eps(r)


def dilation_sum(q: int, r: int, X: int) -> int:
    """U_q(X, r) = sum_{n=1..X} eps(qn+r), identical to dilation_naive; O(q log qX)."""
    _validate(q, r, X)
    Y = q * X - 1   # the N = qn + r, n = 0..X-1, are the N <= Y with N = r (mod q)
    return residue_sums(q, (Y,))[Y][r] + eps(Y + 1 + r) - eps(r)


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
    return CorrelationSystem(q=q, transfer=tuple(rows))
