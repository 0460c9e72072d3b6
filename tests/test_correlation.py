import random
from operator import mul

import pytest

from tmcorr import (NAIVE_LIMIT, build_transfer, char_poly, corr_fast, corr_naive,
                    count_classes_fast, count_classes_naive, count_tables, dilation_naive,
                    dilation_sum, eps, shift_vectors)
from tmcorr import correlation
from tmcorr.correlation import _corr_kernels, _corr_steps, shift_rows
from tmcorr.counting import _adjacent_tables
from tmcorr.digitseq import TABLE_CACHE, gelfond_rows, residue_rows


def test_corr_naive_examples():
    assert corr_naive(3, 0, 4) == -2   # terms -1,-1,+1,-1
    assert corr_naive(5, 0, 4) == -2
    assert corr_naive(3, 1, 0) == 0


def test_corr_fast_examples():
    assert corr_fast(3, 0, 4) == -2
    assert corr_fast(5, 4, 1) == -1    # eps(1)*eps(9)


def test_dilation_examples():
    assert dilation_sum(3, 1, 4) == -2   # eps(4)+eps(7)+eps(10)+eps(13)
    assert dilation_sum(3, 0, 0) == 0
    assert dilation_naive(3, 1, 4) == -2


def test_validation():
    for fn in (corr_naive, corr_fast, dilation_sum, dilation_naive):
        with pytest.raises(ValueError):
            fn(4, 0, 10)
        with pytest.raises(ValueError):
            fn(3, 3, 10)
        with pytest.raises(ValueError):
            fn(3, -1, 10)
        with pytest.raises(ValueError):
            fn(3, 0, -1)


@pytest.mark.parametrize("fn", [corr_fast, dilation_sum, count_classes_fast])
@pytest.mark.parametrize("args, message", [
    ((4, 0, 10), "multiplier must be odd"),
    ((-3, 0, 10), "multiplier must be odd"),
    ((3, 0, -1), "X must be nonnegative"),
    ((3, 3, 10), "shift must satisfy 0 <= r < q, got r=3 q=3"),
    ((3, -1, 10), "shift must satisfy 0 <= r < q, got r=-1 q=3"),
    # several bad arguments: the multiplier first, then X, then the shift
    ((4, 5, -1), "multiplier must be odd"),
    ((3, 5, -1), "X must be nonnegative"),
])
def test_validation_messages_in_order(fn, args, message):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("q", range(1, 64, 2))
def test_single_entries_equal_batched_walks(q):
    # the single-entry walk at every X <= 300, X = 0 and 1 included
    xs = range(301)
    shifts = range(q) if q < 16 else (0, 1, q // 2, q - 2, q - 1)
    S, U = shift_vectors(q, xs), shift_vectors(q, xs, dilation=True)
    tables = count_tables(q, xs, shifts)
    for X in xs:
        for r in shifts:
            assert corr_fast(q, r, X) == S[X][r], (q, r, X)
            assert dilation_sum(q, r, X) == U[X][r], (q, r, X)
            assert count_classes_fast(q, r, X) == tables[X][r], (q, r, X)


def test_naive_guard_rejects_huge_X():
    with pytest.raises(ValueError):
        corr_naive(3, 0, NAIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        dilation_naive(3, 0, NAIVE_LIMIT + 1)


@pytest.mark.parametrize("q", [1, 3, 5, 7, 9])
def test_fast_equals_naive_exhaustive_small(q):
    corr = shift_vectors(q, range(1, 1500))
    dil = shift_vectors(q, range(1, 1500), dilation=True)
    for r in range(q):
        acc_s = 0
        acc_u = 0
        for X in range(1, 1500):
            e2 = eps(q * X + r)
            acc_s += eps(X) * e2
            acc_u += e2
            assert corr[X][r] == acc_s, (q, r, X)
            assert dil[X][r] == acc_u, (q, r, X)


def test_fast_equals_naive_spot_large():
    rng = random.Random(777)
    for q in (3, 5, 9):
        for _ in range(4):
            X = rng.randrange(10**4, 10**5)
            r = rng.randrange(q)
            assert corr_fast(q, r, X) == corr_naive(q, r, X)
            assert dilation_sum(q, r, X) == dilation_naive(q, r, X)


def test_unit_multiplier_gives_total_mass():
    # q=1, r=0: sum of eps(n)^2 over 1..X
    assert corr_fast(1, 0, 12345) == 12345


def test_q3_square_root_band_extends_to_2_40():
    # calibrated single-constant bound out to the top of the fast range
    import math
    for k in (36, 38, 40):
        X = 2 ** k
        worst = max(abs(corr_fast(3, h, X)) for h in range(3))
        assert worst <= 1.25 * math.sqrt(X)


def test_shared_memo_is_pure():
    # a batch shares bit-prefix work between its X; sharing never changes results
    a = shift_vectors(5, [99991, 99990, 2 ** 17])[99991][2]
    b = shift_vectors(5, [99991])[99991][2]
    assert a == b == corr_fast(5, 2, 99991)


def test_step_tables_are_shared_tuples_rebuilt_alike_after_eviction():
    # the per-bit tables are built once per (q, width) and shared by every
    # later call, so none of them may be mutable; the Gelfond rows of the
    # single entries are one read-only int64 view per modulus
    for table in (*_corr_steps(7, 9), residue_rows(7)):
        assert isinstance(table, tuple) and all(type(row) is tuple for row in table)
    assert _corr_steps(7, 9) is _corr_steps(7, 9)
    rows = gelfond_rows(7)
    assert gelfond_rows(7) is rows and rows.readonly and rows.format == "q"
    with pytest.raises(TypeError):
        rows[0] = 2
    qs = list(range(1, 2 * TABLE_CACHE + 4, 2))   # more distinct q than a cache holds
    first = gelfond_rows(qs[0])

    def check(q):
        for X in (0, 1, 2, 37, 64):
            r = X % q
            assert corr_fast(q, r, X) == corr_naive(q, r, X), (q, X)
            assert dilation_sum(q, r, X) == dilation_naive(q, r, X), (q, X)
            assert count_classes_fast(q, r, X) == count_classes_naive(q, r, X), (q, X)
        # a bound qX + r >= 2^K walks the bits of qX + r + 1 from K up; at
        # q <= 199 the small X above read Gelfond rows alone
        X = (1 << len(gelfond_rows(q)) // q - 1) // q + 1
        assert dilation_sum(q, r, X) == shift_vectors(q, [X], dilation=True)[X][r], q

    for q in qs:
        check(q)
    tables = (_corr_kernels, gelfond_rows)
    misses = [t.cache_info().misses for t in tables]
    check(qs[0])   # evicted: its walk and its Gelfond rows are rebuilt
    assert [t.cache_info().misses for t in tables] == [n + 1 for n in misses]
    assert gelfond_rows(qs[0]) is not first and gelfond_rows(qs[0]) == first



def test_walk_equals_the_table_steps_and_is_cached_per_q_and_width():
    # the compiled walk is the tables' steps applied one bit at a time, on any
    # signed big-integer state and any bit string (odd lengths end on the t set)
    rng = random.Random(35)
    cases = [(q, w) for q in range(1, 64, 2) for w in (q, q + 1)]
    first = _corr_kernels(*cases[0])
    for q, w in cases:
        walk = _corr_kernels(q, w)
        assert _corr_kernels(q, w) is walk
        assert walk.__code__.co_filename == f"<corr walk q={q} width={w}>"
        steps = _corr_steps(q, w)
        S = [rng.randrange(-2 ** 300, 2 ** 300) for _ in range(2 * w)]
        level = {"": S}   # every bit string of each length, by one step from its prefix
        for _ in range(8):
            for bits, state in level.items():
                assert walk(S, bits) == state, (q, w, bits)
            level = {bits + c: [state[i] + state[j] if p else state[i] - state[j]
                                for p, i, j in steps[int(c)]]
                     for bits, state in level.items() for c in "01"}
        bits, state = "".join(rng.choice("01") for _ in range(61)), S
        for c in bits:
            state = [state[i] + state[j] if p else state[i] - state[j] for p, i, j in steps[int(c)]]
        assert walk(S, bits) == state, (q, w)
    _corr_kernels(65, 65)   # with the cases, more (q, width) than the cache holds
    assert len(cases) + 1 > TABLE_CACHE
    misses = _corr_kernels.cache_info().misses
    again = _corr_kernels(*cases[0])   # evicted: compiled anew, to the same code
    assert _corr_kernels.cache_info().misses == misses + 1 and again is not first
    assert (again.__code__.co_code, again.__code__.co_consts) == (first.__code__.co_code,
                                                                  first.__code__.co_consts)


def test_no_walk_wider_than_the_closed_core_is_built(monkeypatch):
    # shifts r > q are read through the tables over the last bits, so the
    # compiled walk never grows past the closed shifts 0..q
    built = []

    def spy(q, width):
        built.append((q, width))
        return kernels(q, width)

    kernels = correlation._corr_kernels
    monkeypatch.setattr(correlation, "_corr_kernels", spy)
    xs = [0, 5, 1000, 2 ** 20 + 12345]
    shift_vectors(3, xs, size=4096)
    count_tables(63, xs, [1024])
    _adjacent_tables(xs)
    assert built and all(w <= q + 1 for q, w in built), built


def _pair_state_matrix(q, w, c):
    """The signed 2w x 2w step of the plain sums F(h), F(h-1) -> F(2h+c),
    F(2h+c-1), from ``shift_rows``: the terms n = 2k and n = 2k+1 of the sum
    up to 2h+d run over k <= h + d//2 and k <= h + (d-1)//2."""
    M = [[0] * (2 * w) for _ in range(2 * w)]
    for top, d in ((0, c), (w, c - 1)):
        even, odd = (0 if d // 2 == 0 else w), (0 if (d - 1) // 2 == 0 else w)
        for s, (g, a, b) in enumerate(shift_rows(q, w)):
            M[top + s][even + a] += g
            M[top + s][odd + b] += g
    return M


@pytest.mark.parametrize("q", range(1, 64, 2))
def test_folded_step_tables_are_the_sign_similar_pair_steps(q):
    # the engine steps the folded state G = eps(s) F, so its bit tables must
    # be E M_c E, E = diag(eps), with M_c the plain pair-state step
    for w in (q, q + 4):
        E = [eps(k % w) for k in range(2 * w)]
        for c, table in enumerate(_corr_steps(q, w)):
            A = [[0] * (2 * w) for _ in range(2 * w)]
            for k, (p, i, j) in enumerate(table):
                A[k][i] += 1
                A[k][j] += 1 if p else -1
            M = _pair_state_matrix(q, w, c)
            assert A == [[E[k] * v * E[i] for i, v in enumerate(row)]
                         for k, row in enumerate(M)], (q, w, c)


@pytest.mark.parametrize("q", [1, 3, 7, 15, 63])
def test_shift_vectors_above_q_equal_direct_loop(q):
    # shifts r >= q are read from the folded state with the sign eps(r) too;
    # corr_naive refuses them, so the direct loops are written out here, on
    # one table of signs.  The walk runs on shifts 0..q and widens over the
    # last bitlen(size-1-q) bits: 10 at size 1025, so there X = 0..37 are
    # shorter than that tail, 1000 as long and 4097 longer.
    xs, e = [0, 1, 2, 3, 5, 37, 1000, 4097], [eps(n) for n in range(q * 4097 + 1025)]
    for size in (q + 1, q + 2, q + 5, 2 * q, 3 * q + 7, 1025):
        corr = shift_vectors(q, xs, size=size)
        dil = shift_vectors(q, xs, dilation=True, size=size)
        for X in xs:
            assert corr[X] == [sum(map(mul, e[1:X + 1], e[q + r:q * X + r + 1:q]))
                               for r in range(max(q, size))], (q, size, X)
            assert dil[X] == [sum(e[q + r:q * X + r + 1:q]) for r in range(max(q, size))], (q, size, X)

BATCHES = (
    [2, 5, 10, 11, 21, 43],                        # each bit string a prefix of the next
    [43, 11, 0, 21, 2, 1, 43, 5, 0, 10, 1, 11],    # unsorted, duplicated, with 0 and 1
    [2 ** a for a in range(6, 13)] + list(range(60, 68)) + [128, 127, 129],  # ladder + runs
    # deep X; the first two bit strings in sorted order diverge
    [2 ** 200 + 1, 2 ** 200, 2 ** 200 - 1, 3 ** 70, 3 << 99, 300, 301, 3 << 99],
)


@pytest.mark.parametrize("xs", BATCHES, ids=["chain", "unsorted", "ladder_run", "deep"])
def test_batch_equals_single_x_and_direct(xs):
    # the batch walk shares bit prefixes and keeps states only where a later
    # X branches off; none of that bookkeeping may change a single value
    for q in range(1, 64, 2):
        for dilation, fn, naive in ((False, corr_fast, corr_naive),
                                    (True, dilation_sum, dilation_naive)):
            batch = shift_vectors(q, xs, dilation)
            assert sorted(batch) == sorted(set(xs))
            for X in set(xs):
                assert batch[X] == shift_vectors(q, [X], dilation)[X], (q, X, dilation)
                assert batch[X][X % q] == fn(q, X % q, X)
                if X <= 2000:
                    assert batch[X] == [naive(q, r, X) for r in range(q)], (q, X, dilation)


def test_transfer_q3_matches_recursion_coefficients():
    T = build_transfer(3)
    assert T == ((1, 1, 0), (-1, 0, -1), (0, 1, 1))
    # transpose is the classical 3x3 coefficient-propagation matrix
    transpose = tuple(zip(*T))
    assert transpose == ((1, -1, 0), (1, 0, 1), (0, -1, 1))


def test_transfer_q5_rows():
    T = build_transfer(5)
    assert T[0] == (1, 0, 1, 0, 0)
    assert T[1] == (-1, 0, 0, -1, 0)
    transpose = tuple(zip(*T))
    assert transpose == ((1, -1, 0, 0, 0),
                        (0, 0, 1, -1, 0),
                        (1, 0, 0, 0, 1),
                        (0, -1, 1, 0, 0),
                        (0, 0, 0, -1, 1))


@pytest.mark.parametrize("q", range(3, 258, 2))
def test_transfer_row_structure(q):
    T = build_transfer(q)
    for row in T:
        nonzero = [v for v in row if v]
        assert len(nonzero) == 2
        assert all(v in (-1, 1) for v in nonzero)
    # the definition: row s holds its sign (-1 for odd s) at s//2 and (q+s)//2
    dense = [[0] * q for _ in range(q)]
    for s in range(q):
        dense[s][s // 2] = dense[s][(q + s) // 2] = -1 if s % 2 else 1
    assert T == tuple(map(tuple, dense))


def test_transfer_rejects_bad_q():
    with pytest.raises(ValueError):
        build_transfer(4)
    with pytest.raises(ValueError):
        build_transfer(1)


@pytest.mark.parametrize("q", range(3, 64, 2))
def test_coefficient_duality(q):
    """Pairing a coefficient vector with the prefixed correlations commutes
    with one halving step through the transpose of the transfer matrix,
    up to the single boundary term of even X."""
    T = build_transfer(q)
    rng = random.Random(4242)
    for _ in range(40):
        X = rng.randrange(1, 5000)
        c = [rng.randrange(-9, 10) for _ in range(q)]
        X_half = (X - 1) // 2
        # sums over n = 0..Y: the batched sums over 1..Y plus the n = 0 term
        sums = shift_vectors(q, [X, X_half])
        prefixed = {Y: [v + eps(r) for r, v in enumerate(sums[Y])] for Y in sums}
        lhs = sum(c[r] * prefixed[X][r] for r in range(q))
        ct = [sum(T[r][rp] * c[r] for r in range(q))
              for rp in range(q)]
        rhs = sum(ct[rp] * prefixed[X_half][rp] for rp in range(q))
        if X % 2 == 0:
            # even part has one extra index k = X/2 beyond (X-1)//2
            k = X // 2
            boundary = 0
            for r in range(q):
                sign = 1 if r % 2 == 0 else -1
                boundary += c[r] * sign * eps(k) * eps(q * k + r // 2)
            rhs += boundary
        assert lhs == rhs, (q, X)


@pytest.mark.parametrize("q", range(1, 64, 2))
def test_residue_step_has_the_dilation_characteristic_polynomial(q):
    # the dilation engine walks residues with A_q (+1 at l/2, -1 at (l-1)/2
    # mod q, the halves of the modular formula below); it must take the
    # residue sums at h to those at 2h+1, and be the shift recursion's
    # dilation rows D_q (sign at s//2, minus sign at (q+s)//2), from which
    # residue_rows is derived.  The characteristic polynomial is odd, so it
    # alone would not see a flipped sign: the direct loop and A == D do.
    assert residue_rows(q) == tuple((l * (q + 1) // 2 % q, (l - 1) * (q + 1) // 2 % q)
                                    for l in range(q))
    A = [[0] * q for _ in range(q)]
    for l, (a, b) in enumerate(residue_rows(q)):
        A[l][a] += 1
        A[l][b] -= 1
    R = [0] * q   # residue sums of eps(N) over N <= Y, by direct loop
    direct = []
    for N in range(2 * 40 + 2):
        R[N % q] += eps(N)
        direct.append(R[:])
    for h in range(41):
        assert [sum(map(int.__mul__, row, direct[h])) for row in A] == direct[2 * h + 1]
    D = [[0] * q for _ in range(q)]
    for s, (g, a, b) in enumerate(shift_rows(q)):
        D[s][a] += g
        D[s][b] -= g
    assert A == D
    assert char_poly(A) == char_poly(D)
