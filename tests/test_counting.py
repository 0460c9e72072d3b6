import random

import numpy as np
import pytest

from tmcorr import (NAIVE_LIMIT, CountTable, corr_fast, count_adjacent,
                    count_adjacent_fast, count_classes_fast, count_classes_naive,
                    count_tables, dilation_sum, eps_partial_sum)
from tmcorr.counting import _adjacent_tables, _four_cells


def test_naive_example():
    table = count_classes_naive(3, 0, 8)
    assert table.cells == ((3, 0), (4, 1))
    assert table.deviations4 == ((4, -8), (8, -4))
    assert table.deviation(0, 0) == 1.0
    assert table.max_abs_deviation() == 2.0


def test_empty_range():
    table = count_classes_naive(3, 0, 0)
    assert table.cells == ((0, 0), (0, 0))
    assert count_classes_fast(3, 0, 0).cells == ((0, 0), (0, 0))


def test_fast_matches_naive_example():
    assert count_classes_fast(3, 0, 8).cells == ((3, 0), (4, 1))


@pytest.mark.parametrize("q", [3, 5])
def test_fast_equals_naive_exhaustive_small(q):
    tables = count_tables(q, range(0, 600))
    for r in range(q):
        for X in range(0, 600):
            fast = tables[X][r]
            naive = count_classes_naive(q, r, X)
            assert fast.cells == naive.cells, (q, r, X)


def test_fast_equals_naive_spot_large():
    rng = random.Random(31415)
    for q in (3, 5, 7, 9):
        for _ in range(3):
            X = rng.randrange(10**4, 10**5)
            r = rng.randrange(q)
            assert count_classes_fast(q, r, X).cells == \
                count_classes_naive(q, r, X).cells


def test_partition_always_holds():
    rng = random.Random(9)
    for _ in range(25):
        q = rng.choice((3, 5, 7, 9))
        r = rng.randrange(q)
        X = rng.randrange(0, 10**6)
        table = count_classes_fast(q, r, X)
        assert sum(v for row in table.cells for v in row) == X


def test_validation():
    with pytest.raises(ValueError):
        count_classes_naive(4, 0, 10)
    with pytest.raises(ValueError):
        count_classes_naive(3, 3, 10)
    with pytest.raises(ValueError):
        count_classes_fast(3, -1, 10)
    with pytest.raises(ValueError):
        count_classes_fast(3, 0, -1)
    for bad in (lambda: count_classes_naive(3, 0, -1), lambda: count_adjacent(-1)):
        with pytest.raises(ValueError, match="X must be nonnegative"):
            bad()


def test_naive_guard():
    with pytest.raises(ValueError):
        count_classes_naive(3, 0, NAIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        count_adjacent(NAIVE_LIMIT + 1)


def test_extension_shifts():
    # r >= q is exploratory: naive path accepts it behind the flag, the
    # fast identity does not claim it
    with pytest.raises(ValueError):
        count_classes_naive(3, 5, 100)
    table = count_classes_naive(3, 5, 100, extension=True)
    assert sum(v for row in table.cells for v in row) == 100
    with pytest.raises(ValueError):
        count_classes_fast(3, 5, 100)


@pytest.mark.parametrize("q", [1, 3, 5, 7, 9, 15])
def test_extension_tables_equal_direct_loop(q):
    # the alphabet 0..R, R >= q-1, is closed under s -> s//2, (q+s)//2, so the
    # correlation engine gives the exploratory shifts r >= q exactly; the
    # dilation reaches r = tq + r0 through U(X, r) = U(X, r - q) + eps(qX + r)
    # - eps(r), here up to t = 5
    R = 5 * q
    tables = count_tables(q, range(200), range(R + 1))
    for X in range(200):
        assert len(tables[X]) == R + 1
        for r in range(R + 1):
            assert tables[X][r] == count_classes_naive(q, r, X, extension=True), (q, r, X)


def test_tables_of_the_asked_shifts_only():
    tables = count_tables(5, [0, 7, 2 ** 70], [3, 9])
    for X, by_shift in tables.items():
        assert list(by_shift) == [3, 9]
        assert by_shift[3] == count_classes_fast(5, 3, X)
    assert tables[7][9] == count_classes_naive(5, 9, 7, extension=True)
    assert count_tables(5, iter([0, 7, 2 ** 70]), [3, 9]) == tables   # xs read once
    with pytest.raises(ValueError, match="nonnegative"):
        count_tables(5, [7], [-1])


@pytest.mark.parametrize("q", [1, 3, 5, 63])
def test_fast_tables_derive_deviations_from_cells(q):
    # deviations4 = 4 cells - X is derived, not stored: on the fast path it
    # must equal the four-term deviation (-1)^i P + (-1)^k U + (-1)^(i+k) S
    # from the separately computed sums, and be exact at any X
    huge = 2 ** 4096
    xs = [0, 1, 2, 2 ** 64, huge] + list(range(2 ** 20 - 8, 2 ** 20 + 8))
    tables = count_tables(q, xs)
    for X in xs:
        P = eps_partial_sum(X)
        # at q = 63, X = 2^4096 one shift's four engine calls take ~0.3 s
        shifts = (0, 1, q // 2, q - 1) if (q, X) == (63, huge) else range(q)
        for r in shifts:
            table = tables[X][r]
            assert table == count_classes_fast(q, r, X), (q, r, X)
            U, S = dilation_sum(q, r, X), corr_fast(q, r, X)
            dev4 = table.deviations4
            assert dev4 == tuple(tuple((-1) ** i * P + (-1) ** k * U
                                       + (-1) ** (i + k) * S for k in (0, 1))
                                 for i in (0, 1)), (q, r, X)
            if X == huge:
                # every deviation is past double range here; the quarter
                # units stay exact integers
                for i in (0, 1):
                    for k in (0, 1):
                        with pytest.raises(OverflowError):
                            table.deviation(i, k)
                continue
            assert table.max_abs_deviation() == \
                max(abs(v) for row in dev4 for v in row) / 4
            for i in (0, 1):
                for k in (0, 1):
                    assert table.deviation(i, k) == dev4[i][k] / 4


def test_kept_checks():
    # cells summing above and below X
    with pytest.raises(ValueError, match="cells sum to"):
        CountTable(3, 0, 8, ((3, 0), (4, 2)))
    with pytest.raises(ValueError, match="cells sum to 9, expected X=10"):
        CountTable(3, 0, 10, ((3, 0), (4, 2)))
    # a four-term identity that 4 does not divide: its floored cells miss X
    P, U, S = eps_partial_sum(100), dilation_sum(3, 1, 100), corr_fast(3, 1, 100)
    c00, c01, c10, c11 = _four_cells(100, P, U, S)
    assert ((c00, c01), (c10, c11)) == count_classes_naive(3, 1, 100).cells
    with pytest.raises(ValueError, match="cells sum to 98, expected X=100"):
        _four_cells(100, P + 1, U, S)
    # the fast path validates through the correlation module, whose
    # messages name no option that count_classes_fast lacks
    for q, r, X in ((3, 5, 100), (4, 0, 10), (3, -1, 10), (3, 0, -1)):
        with pytest.raises(ValueError) as info:
            count_classes_fast(q, r, X)
        assert "extension" not in str(info.value), (q, r, X)


def test_deviation_bound_at_2_30():
    # calibrated: q=3 deviations at X = 2^30 stay within 2^(0.8 * 30)
    X = 2 ** 30
    table = count_classes_fast(3, 2, X)
    for i in (0, 1):
        for k in (0, 1):
            assert abs(table.cells[i][k] - X / 4) <= 2 ** 24


def test_adjacent_example():
    assert count_adjacent(8) == ((1, 2), (2, 2))
    assert count_adjacent(1) == ((0, 0), (0, 0))
    assert count_adjacent(0) == ((0, 0), (0, 0))


def test_adjacent_total_pairs():
    for X in (2, 3, 17, 1024, 12345):
        F = count_adjacent(X)
        assert sum(v for row in F for v in row) == X - 1


def test_adjacent_brute_force():
    from tmcorr import class_of
    for X in (2, 7, 8, 9, 200):
        expected = [[0, 0], [0, 0]]
        for m in range(1, X):
            expected[class_of(m + 1)][class_of(m)] += 1
        assert count_adjacent(X) == tuple(tuple(row) for row in expected)


def test_adjacent_off_diagonal_dominance():
    # off-diagonal cells grow at twice the diagonal rate
    X = 2 ** 20
    F = count_adjacent(X)
    for i, k in ((0, 1), (1, 0)):
        assert 1.8 <= F[i][k] / F[i][i] <= 2.2


def test_adjacent_fast_equals_loop_below_3000():
    for X in range(3000):
        assert count_adjacent_fast(X) == count_adjacent(X), X


def test_adjacent_fast_equals_brute_force_at_random_X(eps_1m):
    # running F[i][k] for every X <= 10^6 from the independent sign table:
    # pair m = n - 1, n = 2..X gets code 2 class(n) + class(m)
    cls = (1 - eps_1m) // 2
    code = 2 * cls[2:] + cls[1:-1]
    running = np.cumsum(np.eye(4, dtype=np.int64)[code], axis=0)
    xs = random.Random(1061).sample(range(2, 10**6), 200)
    for X in xs:
        c = running[X - 2]
        assert count_adjacent_fast(X) == ((c[0], c[1]), (c[2], c[3])), X
    for X in xs[:10]:
        assert count_adjacent_fast(X) == count_adjacent(X), X


def test_adjacent_fast_partition_and_domain():
    rng = random.Random(61)
    for X in [0, 1, 2, 10**7 + 1, 2**64] + [rng.getrandbits(rng.randint(1, 4096))
                                             for _ in range(50)]:
        assert sum(map(sum, count_adjacent_fast(X))) == max(X - 1, 0)
    with pytest.raises(ValueError):
        count_adjacent_fast(-1)


def test_adjacent_batch_equals_loop_and_single_calls():
    # one count_tables call for the whole set; X = 0 and X = 1 both map to Y = 0
    rng = random.Random(4096)
    xs = [0, 1, 2, 3] + [rng.getrandbits(rng.randint(1, 4096)) for _ in range(50)]
    batch = _adjacent_tables(xs)
    assert list(batch) == xs
    for X in xs:
        assert batch[X] == (count_adjacent(X) if X <= 3000 else count_adjacent_fast(X)), X
    with pytest.raises(ValueError, match="X must be nonnegative"):
        _adjacent_tables([5, -1])


@pytest.mark.parametrize("e, expected", [(20, ((-4, -1), (-1, 2))),
                                         (60, ((-4, -1), (-1, 2))),
                                         (61, ((-2, -2), (-2, 4))),
                                         (200, ((-4, -1), (-1, 2))),
                                         (4096, ((-4, -1), (-1, 2)))])
def test_adjacent_fast_exact_deviations(e, expected):
    # [[6 F00 - X, 3 F01 - X], [3 F10 - X, 6 F11 - X]]: bounded, so the
    # main terms X/6 (diagonal) and X/3 (off it) hold to O(1)
    X = 2 ** e
    F = count_adjacent_fast(X)
    assert tuple(tuple((6 if i == k else 3) * F[i][k] - X for k in (0, 1))
                 for i in (0, 1)) == expected
