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
  The walk is one function compiled from the two tables once per q and
  width, on first use, its state in local names, two bits per loop pass.
  It runs on the closed shifts 0..q at most; the shifts r > q of a batch
  are read through the tables over the last bitlen(r - q) bits only.
- dilation: the qn + r, n <= X, are the N = r (mod q) up to qX + r, so U_q
  is one entry of the residue walk ``digitseq.residue_sums`` less the term
  n = 0.  Its step is D_q, the same rows with the (q+s)//2 term negated, on
  one packed integer: a few passes over q lanes of O(log qX) bits per bit.

One (q, r, X) reads entry r of the walk to X, and U from a table row per
1-bit of qX + r below 2^40 (q <= 199) and one lane of the walk above; a
batch keeps every entry and lane.
"""

from functools import lru_cache

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
    """The '0'-bit and '1'-bit tables of the walk (``_corr_kernels``): ``shift_rows``
    (g, a, b) offset into the state as (p, a, b), p = (eps(a) == eps(b))."""
    rows = [(eps(a) == eps(b), a, b) for _, a, b in shift_rows(q, width)]
    return (tuple((p, a, width + b) for p, a, b in rows)
            + tuple((p, width + a, width + b) for p, a, b in rows),
            tuple((p, a, b) for p, a, b in rows)
            + tuple((p, a, width + b) for p, a, b in rows))


@lru_cache(maxsize=TABLE_CACHE)
def _corr_kernels(q: int, width: int):
    """The walk ``walk(S, bits)``: the folded state after the '0'/'1' string
    ``bits``, from state ``S``, as one function compiled from
    ``_corr_steps(q, width)`` on first use and kept like the tables.

    The state at a bit prefix h is [G_s(h) for s in 0..R] (R as in
    shift_rows), then G(h-1) at offset width, with the folded sums
    G_s(Y) = eps(s) sum_{n=0..Y} eps(n) eps(qn+s), from G(0) = 1 and
    G(-1) = 0.  Row (g, a, b) of ``shift_rows`` has s = 2a + (s & 1), so
    eps(s) g = eps(a) and the step F'_s = g (F_a + F_b) of F = eps(s) G is
    G'_s = G_a + eps(a) eps(b) G_b: E T_q E, so along X = 2^j - 1 the walk
    reads E T_q^j e, e = (eps(s))_s.  Bit c's table gives the state at 2h+c
    in one pass, the halves of 2h+c and 2h+c-1 being h or h-1.  The walk
    keeps the state in locals s0.. and reads two bits per loop pass: the
    first sets t_k = s_i +- s_j from its table, the second s_k = t_i +- t_j.
    """
    def step(table, src, dst, indent):
        return "".join(f"{indent}{dst}{k} = {src}{i} {'+' if p else '-'} {src}{j}\n"
                       for k, (p, i, j) in enumerate(table))

    zero, one = _corr_steps(q, width)
    s, t = (", ".join(f"{v}{k}" for k in range(2 * width)) for v in "st")
    src = (f"def walk(S, bits):\n    {s}, = S\n    it = iter(bits)\n    for c in it:\n"
           f"        if c == '1':\n{step(one, 's', 't', ' ' * 12)}"
           f"        else:\n{step(zero, 's', 't', ' ' * 12)}"
           f"        for c in it:\n            if c == '1':\n{step(one, 't', 's', ' ' * 16)}"
           f"            else:\n{step(zero, 't', 's', ' ' * 16)}"
           f"            break\n        else:\n            return [{t}]\n    return [{s}]\n")
    code = {}
    exec(compile(src, f"<corr walk q={q} width={width}>", "exec"), code)
    return code["walk"]


def _corr_tail(q: int, width: int, S, bits):
    """The state at width ``width`` after the last bits of an X, from the
    state S of the closed shifts 0..q at the bits above them: j bits before
    the end only the shifts s <= q + ((width-1-q) >> j) are read, and their
    rows of ``_corr_steps(q, width)`` read only shifts s // 2 and (q+s) // 2."""
    steps, D = _corr_steps(q, width), width - 1 - q
    for j, c in zip(range(len(bits) - 1, -1, -1), bits):
        n, m, table = len(S) // 2, q + 1 + (D >> j), steps[c == "1"]
        S = S[:n] + [0] * (width - n) + S[n:] + [0] * (width - n)
        S = [S[a] + S[b] if p else S[a] - S[b] for p, a, b in table[:m] + table[width:width + m]]
    return S


def _corr_entry(q: int, r: int, X: int) -> int:
    """S_q(X, r), unchecked: entry r of the walk to X."""
    v = _corr_kernels(q, q)([1] * q + [0] * q, bin(X)[2:])[r]   # G_r(X)
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
        core = min(width, q + 1)   # shifts 0..q are closed: shift q reads itself
        k = (width - core).bit_length()   # the last k bits widen the walk to 0..width-1
        walked = walk_prefixes({X >> k for X in xs}, [1] * core + [0] * core, _corr_kernels(q, core))
        if k:   # the low k bits of X, zero-padded: the start state is fixed by a 0 bit
            walked = {X: _corr_tail(q, width, walked[X >> k], bin(X | 1 << k)[-k:]) for X in xs}
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
