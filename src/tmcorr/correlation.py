"""Correlation and dilation sums of the Thue-Morse sign under odd multipliers.

For odd q and shift 0 <= r < q:

    S_q(X, r) = sum_{n=1..X} eps(n) * eps(q*n + r)      (correlation)
    U_q(X, r) = sum_{n=1..X} eps(q*n + r)               (dilation)

Both have direct O(X) evaluations and exact fast paths, two steps on the
bit-prefix walker ``digitseq.walk_prefixes`` (a batch of X walks each
shared bit prefix once), equal to the direct loops for any X:

- correlation: splitting n into even and odd halves the range and maps
  the shift s to s//2 and (q+s)//2, with a sign flip for odd s.  That
  signed table (``digitseq.shift_rows``) is the transfer matrix T_q of
  ``build_transfer``.  The state is one list of all shifts at sizes
  floor(X/2^k) and floor(X/2^k) - 1, entry s folded by eps(s), so each bit
  is E T_q E (E = diag(eps(s)), similar to T_q): one add or one subtract per
  entry, in one pass of a table built once per q and width: O(q log X).
  Each of the two bit tables runs as a straight-line function (a kernel,
  ``lambda S: [S[i] + S[j], S[k] - S[l], ...]``) compiled from it once per
  q and width, on first use.
- dilation: the qn + r, n <= X, are the N = r (mod q) up to qX + r, so U_q
  is one entry of the residue walk ``digitseq.residue_sums`` less the term
  n = 0.  Its step is D_q, the same rows with the (q+s)//2 term negated, on
  one packed integer: a few passes over q lanes of O(log qX) bits per bit.

One (q, r, X) walks S to X >> 1 and computes only row r of the last bit's
table, and reads one lane of U; a batch keeps every row and lane.
"""

from functools import lru_cache, partial

from .digitseq import (NAIVE_LIMIT, check_naive_limit, eps,   # NAIVE_LIMIT: re-exported
                       TABLE_CACHE, residue_entry, residue_sums, shift_rows, walk_prefixes)


def _validate(q: int, r: int, X: int) -> None:
    if q < 1 or q % 2 == 0:
        raise ValueError("multiplier must be odd")
    if X < 0:
        raise ValueError("X must be nonnegative")
    if not 0 <= r < q:
        raise ValueError(f"shift must satisfy 0 <= r < q, got r={r} q={q}")


def corr_naive(q: int, r: int, X: int) -> int:
    """S_q(X, r) by direct summation; O(X) terms."""
    _validate(q, r, X)
    check_naive_limit(X)
    return sum(eps(n) * eps(q * n + r) for n in range(1, X + 1))


@lru_cache(maxsize=TABLE_CACHE)
def _corr_steps(q: int, width: int) -> tuple[tuple[tuple[bool, int, int], ...], ...]:
    """The '0'-bit and '1'-bit tables of ``_corr_walk``: ``shift_rows``
    (g, a, b) offset into the state as (p, a, b), p = (eps(a) == eps(b))."""
    rows = [(eps(a) == eps(b), a, b) for _, a, b in shift_rows(q, width)]
    return (tuple((p, a, width + b) for p, a, b in rows)
            + tuple((p, width + a, width + b) for p, a, b in rows),
            tuple((p, a, b) for p, a, b in rows)
            + tuple((p, a, width + b) for p, a, b in rows))


@lru_cache(maxsize=TABLE_CACHE)
def _corr_kernels(q: int, width: int) -> tuple:
    """``_corr_steps(q, width)`` compiled: bit c's table as one straight-line
    function ``lambda S: [S[i] + S[j], S[k] - S[l], ...]``, a term per row,
    kept like the tables."""
    kernels = []
    for c, table in enumerate(_corr_steps(q, width)):
        terms = ", ".join(f"S[{i}] {'+' if p else '-'} S[{j}]" for p, i, j in table)
        code = compile(f"lambda S: [{terms}]", f"<corr step q={q} width={width} bit={c}>", "eval")
        kernels.append(eval(code, {}))
    return tuple(kernels)


def _corr_walk(kernels, S, bits):
    """The folded state after the '0'/'1' string ``bits``, from state ``S``.

    The state at a bit prefix h is [G_s(h) for s in 0..R] (R as in
    shift_rows), then G(h-1) at offset width, with the folded sums
    G_s(Y) = eps(s) sum_{n=0..Y} eps(n) eps(qn+s), from G(0) = 1 and
    G(-1) = 0.  Row (g, a, b) of ``shift_rows`` has s = 2a + (s & 1), so
    eps(s) g = eps(a) and the step F'_s = g (F_a + F_b) of F = eps(s) G is
    G'_s = G_a + eps(a) eps(b) G_b: E T_q E, so along X = 2^j - 1 the walk
    reads E T_q^j e, e = (eps(s))_s.  Bit c's table (``_corr_steps``) gives
    the state at 2h+c in one pass, the halves of 2h+c and 2h+c-1 being h or h-1;
    that pass is one call of ``kernels[c]`` (``_corr_kernels``: the table
    compiled once per (q, width), on first use).
    """
    for c in bits:
        S = kernels[c == "1"](S)
    return S


def _corr_entry(q: int, r: int, X: int) -> int:
    """S_q(X, r), unchecked: the walk to X >> 1, then row r of the last bit alone."""
    S = _corr_walk(_corr_kernels(q, q), [1] * q + [0] * q, bin(X)[2:-1])
    p, i, j = _corr_steps(q, q)[X & 1][r]
    v = S[i] + S[j] if p else S[i] - S[j]   # G_r(X)
    return v - 1 if eps(r) > 0 else 1 - v


def _dilation_entry(q: int, r: int, X: int) -> int:
    """U_q(X, r), unchecked: entry r of the residue sums to qX + r, less n = 0."""
    return residue_entry(q, q * X + r, r) - eps(r)


def shift_vectors(q: int, xs, dilation: bool = False, size: int = 0) -> dict[int, list[int]]:
    """X -> [S_q(X, r) for r in 0..max(q, size)-1] for every X in xs (U_q if
    dilation); a size above q adds the shifts r >= q.

    One walk serves the whole set: every shift at once, and every bit
    prefix that several X share (a ladder of powers of two, a range of
    consecutive X) is walked once.  A dilation shift r >= q follows from
    U_q(X, r) = U_q(X, r - q) + eps(qX + r) - eps(r).
    """
    xs = list(xs)
    _validate(q, 0, min(xs, default=0))   # r = 0 is a shift of every odd q
    width = max(q, size)
    base = [eps(r) for r in range(width)]   # the n = 0 terms
    if not dilation:   # S_q = eps(r) (G_r - 1); zip reads G(X), the first width entries
        step = partial(_corr_walk, _corr_kernels(q, width))
        walked = walk_prefixes(xs, [1] * width + [0] * width, step)
        return {X: [v - 1 if e > 0 else 1 - v for v, e in zip(S, base)] for X, S in walked.items()}
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
    return _corr_entry(q, r, X)


def dilation_sum(q: int, r: int, X: int) -> int:
    """U_q(X, r) = sum_{n=1..X} eps(qn+r), identical to dilation_naive; O(q log qX)."""
    _validate(q, r, X)
    return _dilation_entry(q, r, X)


def dilation_naive(q: int, r: int, X: int) -> int:
    """U_q(X, r) by direct summation; the oracle for dilation_sum."""
    _validate(q, r, X)
    check_naive_limit(X)
    return sum(eps(q * n + r) for n in range(1, X + 1))


def build_transfer(q: int) -> tuple[tuple[int, ...], ...]:
    """Transfer matrix T_q of the halving recursion for odd q >= 3: the q x q
    tuple of its rows, the matrix ``spectral_report`` takes.

    Row r is ``shift_rows(q)[r]``: sign at columns r//2 and (q+r)//2, i.e.
    +1 at r//2 and (q+r-1)//2 for even r, -1 at (r-1)//2 and (q+r)//2 for
    odd r.  Row q-1-r is row r reversed (the matrix is centrosymmetric),
    which the spectral layer uses to halve its work.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError("multiplier must be odd and >= 3")
    rows = []
    for r, (sign, a, b) in enumerate(shift_rows(q)):
        if not (0 <= a < q and 0 <= b < q and a != b and sign in (1, -1)):
            raise AssertionError(f"row {r} {(sign, a, b)} of T_{q} is not a closed sign pair")
        row = [0] * q
        row[a] = row[b] = sign
        rows.append(tuple(row))
    if any(rows[q - 1 - r] != row[::-1] for r, row in enumerate(rows)):
        raise AssertionError(f"transfer matrix is not centrosymmetric: q={q}")
    return tuple(rows)
