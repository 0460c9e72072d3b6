"""Exact class-pair solution counts for n - q*m = r and adjacent integers.

cells[i][k] counts 1 <= m <= X with m in class i and q*m + r in class k;
all four cells carry the main term X/4.  The fast path evaluates the exact
four-term identity

    4 * cells[i][k] = X + (-1)^i * P + (-1)^k * U + (-1)^(i+k) * S

with P the plain sign partial sum, U the dilation sum, and S the
correlation sum, so fast-vs-naive equality is an exact integer test.
``count_tables`` builds the tables of the asked shifts over a set of X from
one walk of the correlation module per sum.
``count_adjacent_fast`` reads the n - m = 1 table from ``count_tables`` at
q = r = 1; the direct loop ``count_adjacent`` is its oracle.
"""

from collections import namedtuple

from .digitseq import check_naive_limit, class_of, eps_partial_sum
from .correlation import _corr_entry, _dilation_entry, _validate, shift_vectors


class CountTable(namedtuple("CountTable", "q r X cells")):
    """2x2 table of class-pair counts for n - q*m = r over 1 <= m <= X.

    Only the cells are stored.  The deviation from the main term X/4 is
    derived from them: deviations4[i][k] = 4*cells[i][k] - X in exact
    quarter units, and deviation(i, k) is the same divided by 4.
    """

    __slots__ = ()

    def __new__(cls, q: int, r: int, X: int, cells: tuple[tuple[int, int], tuple[int, int]]):
        total = sum(map(sum, cells))
        if total != X:
            raise ValueError(f"cells sum to {total}, expected X={X}")
        return super().__new__(cls, q, r, X, cells)

    @property
    def deviations4(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return tuple(tuple(4 * c - self.X for c in row) for row in self.cells)

    def deviation(self, i: int, k: int) -> float:
        """cells[i][k] - X/4; exact (quarters are representable)."""
        return (4 * self.cells[i][k] - self.X) / 4

    def max_abs_deviation(self) -> float:
        return max(abs(v) for row in self.deviations4 for v in row) / 4


def count_classes_naive(q: int, r: int, X: int, extension: bool = False) -> CountTable:
    """Direct loop over m = 1..X; the oracle for count_classes_fast.

    extension=True lifts the r < q restriction (exploratory; no main-term
    claim is attached to such shifts), as count_tables does for shifts r >= q.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError("multiplier must be odd")
    if r < 0 or (not extension and r >= q):
        raise ValueError(f"shift must satisfy 0 <= r < q, got r={r} q={q} "
                         "(pass extension=True to explore r >= q)")
    if X < 0:
        raise ValueError("X must be nonnegative")
    check_naive_limit(X)
    cells = [[0, 0], [0, 0]]
    for m in range(1, X + 1):
        cells[class_of(m)][class_of(q * m + r)] += 1
    return CountTable(q, r, X, (tuple(cells[0]), tuple(cells[1])))


def _four_term_table(q: int, r: int, X: int, P: int, U: int, S: int) -> CountTable:
    """The table from 4 * cells[i][k] = X + (-1)^i P + (-1)^k U + (-1)^(i+k) S."""
    f00, f01 = X + P + U + S, X + P - U - S
    f10, f11 = X - P + U - S, X - P - U + S
    assert not (f00 % 4 or f01 % 4 or f10 % 4 or f11 % 4), \
        "four-term identity must be divisible by 4"
    return CountTable(q, r, X, ((f00 // 4, f01 // 4), (f10 // 4, f11 // 4)))


def count_classes_fast(q: int, r: int, X: int) -> CountTable:
    """Exact table via the four-term identity; O(q log X)."""
    _validate(q, r, X)   # corr_fast's and dilation_sum's checks and messages
    return _four_term_table(q, r, X, eps_partial_sum(X), _dilation_entry(q, r, X),
                            _corr_entry(q, r, X))


def count_tables(q: int, xs, shifts=None) -> dict[int, dict[int, CountTable]]:
    """X -> {r: count_classes_fast(q, r, X)} for every X in xs and r in
    shifts (default 0..q-1); a shift r >= q gives the exploratory
    count_classes_naive(q, r, X, extension=True).

    One walk each for the correlation and the dilation sums covers all
    shifts and all X (see ``correlation.shift_vectors``).
    """
    xs = list(xs)
    shifts = range(q) if shifts is None else list(shifts)
    if any(r < 0 for r in shifts):
        raise ValueError("shifts must be nonnegative")
    size = max(shifts, default=0) + 1
    S = shift_vectors(q, xs, size=size)
    U = shift_vectors(q, xs, dilation=True, size=size)
    tables = {}
    for X in S:
        P = eps_partial_sum(X)
        tables[X] = {r: _four_term_table(q, r, X, P, U[X][r], S[X][r]) for r in shifts}
    return tables


def count_adjacent(X: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """F[i][k] = number of m with m+1 <= X, m+1 in class i, m in class k.

    Direct loop with one popcount per step; guarded like the other naive
    paths.
    """
    if X < 0:
        raise ValueError("X must be nonnegative")
    check_naive_limit(X)
    F = [[0, 0], [0, 0]]
    if X < 2:
        return ((0, 0), (0, 0))
    prev = 1  # class of m = 1
    for n in range(2, X + 1):
        cls = n.bit_count() & 1
        F[cls][prev] += 1
        prev = cls
    return tuple(tuple(row) for row in F)


def _adjacent_tables(xs) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """X -> count_adjacent(X) for every X in xs, in their order: the pairs
    (m, m+1) with m+1 <= X are the q = r = 1 cells of one count_tables call
    over m = 1..max(X - 1, 0), and F[i][k] = cells[k][i]."""
    ys = {X: max(X - 1, 0) for X in xs}
    if min(ys, default=0) < 0:
        raise ValueError("X must be nonnegative")
    tables = count_tables(1, set(ys.values()), [1])
    return {X: tuple(zip(*tables[Y][1].cells)) for X, Y in ys.items()}


def count_adjacent_fast(X: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """count_adjacent(X) in O(log X) integer steps, for any X >= 0."""
    return _adjacent_tables((X,))[X]
