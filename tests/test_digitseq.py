import random
import types

import numpy as np
import pytest

from tmcorr import class_of, eps, eps_partial_sum, gelfond_count
from tmcorr.correlation import dilation_sum, shift_vectors
from tmcorr.digitseq import (_lane_view, _residue_lanes, _residue_read, _residue_walk,
                             check_naive_limit, gelfond_rows, residue_entry, residue_rows,
                             residue_sums, walk_prefixes)

from conftest import eps_table


def test_eps_examples():
    assert eps(0) == 1    # empty bit sum
    assert eps(3) == 1    # 11b
    assert eps(7) == -1   # 111b
    assert eps(1) == -1
    assert eps(6) == 1


def test_eps_rejects_negative():
    with pytest.raises(ValueError):
        eps(-1)
    with pytest.raises(ValueError):
        class_of(-5)
    with pytest.raises(ValueError, match="X must be nonnegative"):
        eps_partial_sum(-1)


def test_class_examples():
    assert class_of(5) == 0   # 101b
    assert class_of(1) == 1
    assert class_of(6) == 0   # 110b
    assert class_of(0) == 0


def test_eps_matches_independent_parity_fold(eps_1m):
    idx = np.arange(0, 10**6 + 1, 997)
    for n in idx:
        assert eps(int(n)) == eps_1m[n]


def test_eps_halving_recurrences(eps_1m):
    # eps(2n) = eps(n), eps(2n+1) = -eps(n) for all n <= 5*10^5
    half = eps_1m[: 5 * 10**5]
    assert np.array_equal(eps_1m[0:10**6:2], half)
    assert np.array_equal(eps_1m[1:10**6:2], -half)


def test_partial_sum_examples():
    assert eps_partial_sum(1) == -1
    assert eps_partial_sum(6) == 0    # -1-1+1-1+1+1
    assert eps_partial_sum(7) == -1
    assert eps_partial_sum(0) == 0


def test_partial_sum_matches_cumsum_everywhere(eps_1m):
    sums = np.cumsum(eps_1m)          # sums[X] = sum over 0..X
    expected = sums - 1               # drop the n = 0 term
    got = np.array([eps_partial_sum(X) for X in range(0, 2048)])
    assert np.array_equal(got, expected[:2048])
    for X in range(2048, 10**6 + 1, 4999):
        assert eps_partial_sum(X) == expected[X]


def test_partial_sum_boundedness(eps_1m):
    sums = np.cumsum(eps_1m)
    assert int(np.abs(sums).max()) <= 1


GELFOND_EXAMPLES = [
    (8, 0, 3, 0, 2),   # n in {3, 6}
    (8, 0, 1, 1, 5),   # n in {1, 2, 4, 7, 8}
    (0, 0, 1, 0, 0),   # empty range
]


@pytest.mark.parametrize("X,l,m,j,expected", GELFOND_EXAMPLES)
def test_gelfond_examples(X, l, m, j, expected):
    assert gelfond_count(X, l, m, j) == expected


def test_gelfond_rejects_bad_input():
    with pytest.raises(ValueError):
        gelfond_count(10, 0, 0, 0)
    with pytest.raises(ValueError):
        gelfond_count(10, 0, 3, 2)
    with pytest.raises(ValueError):
        gelfond_count(-1, 0, 3, 0)


@pytest.mark.parametrize("args, message", [
    ((10, 0, 0, 0), "modulus m must be >= 1"),
    ((10, 0, 3, 2), "class index j must be 0 or 1"),
    ((-1, 0, 3, 0), "X must be nonnegative"),
    ((-1, 0, 0, 2), "modulus m must be >= 1"),   # several bad: m, then j, then X
    ((-1, 0, 3, 2), "class index j must be 0 or 1"),
])
def test_gelfond_validation_messages_in_order(args, message):
    with pytest.raises(ValueError) as err:
        gelfond_count(*args)
    assert str(err.value) == message


def test_gelfond_reduces_residue_mod_m():
    assert gelfond_count(100, 7, 3, 0) == gelfond_count(100, 1, 3, 0)
    assert gelfond_count(100, 30, 3, 1) == gelfond_count(100, 0, 3, 1)


def test_gelfond_against_brute_force():
    rng = random.Random(20240615)
    tab = eps_table(10**4)
    cls = (tab < 0).astype(np.int64)
    n = np.arange(10**4 + 1)
    xs = list(range(0, 65)) + [10**4] + [rng.randrange(65, 10**4) for _ in range(12)]
    for m in [*range(1, 17), 20, 64, 96, 101, 128]:   # perfbench `residue` draws m in 20..101
        for l in range(m):
            match_l = (n % m == l)
            for j in (0, 1):
                mask = match_l & (cls == j)
                mask[0] = False
                counts = np.cumsum(mask)
                for X in xs:
                    assert gelfond_count(X, l, m, j) == counts[X], (X, l, m, j)


def test_gelfond_partition():
    for m in (1, 2, 5, 13):
        for X in (0, 1, 77, 4096, 10**5 + 7):
            total = sum(gelfond_count(X, l, m, j)
                        for l in range(m) for j in (0, 1))
            assert total == X


# --- the bit-prefix walker and the residue walk ------------------------------

def _prefix_batches():
    rng = random.Random(20261019)
    return [[2**k for k in range(6, 13)],
            [*range(60, 68), *range(127, 130)],
            {0, 1, 5, 5, 2, 43, 21, 10, 11},
            [rng.getrandbits(200) | 1 << 199 for _ in range(30)],
            # one distinct bound: no cut lies inside it, so it is walked in one call
            [0], [1], [2**200 + 12345], [77, 77]]


@pytest.mark.parametrize("xs", _prefix_batches())
def test_walk_prefixes_walks_each_shared_prefix_once(xs):
    walked = []

    def advance(state, bits):
        walked.append(bits)
        return state + bits

    out = walk_prefixes(xs, "", advance)
    assert out == {X: bin(X)[2:] if X else "" for X in xs}
    prefixes = {bin(X)[2:][:k] for X in xs if X for k in range(1, X.bit_length() + 1)}
    assert sum(map(len, walked)) == len(prefixes)


def test_residue_sums_equal_running_sums_by_residue():
    ys = range(-1, 2001)
    for m in (1, 3, 5, 7, 9, 15, 31, 63, 101, 129):
        got = residue_sums(m, ys)
        running = [0] * m
        assert got[-1] == running, m
        for Y in range(2001):
            running[Y % m] += eps(Y)
            assert got[Y] == running, (m, Y)


def test_single_bound_walks_equal_running_sums():
    # one bound alone: walk_prefixes walks it in one call, and residue_entry
    # reads a Gelfond row per 1-bit of Y + 1; bounds below m, at m and past it
    for m in range(1, 132, 2):
        running = [0] * m
        for Y in range(-1, 4 * m + 4):
            if Y >= 0:
                running[Y % m] += eps(Y)
            assert residue_sums(m, (Y,))[Y] == running, (m, Y)
            ls = range(m) if m < 32 else {0, Y % m, (Y + 1) % m, m // 2, m - 1}
            assert all(residue_entry(m, Y, l) == running[l] for l in ls), (m, Y)


def test_large_bounds_alone_equal_batched_walks():
    # Y // 3 shares only its top bits (if any) with Y, so the batch cuts the
    # walk after a few bits and resumes both walks from that state; Y + 1
    # branches off Y near the end.  Each m takes two of the twenty bounds
    # in turn: all forty per m would take about 20 s.
    rng = random.Random(600)
    ys = [rng.getrandbits(599) | 1 << 599 for _ in range(20)]
    for m in range(1, 132, 2):
        for Y in (ys[m % 20], ys[(m + 9) % 20]):
            batch = residue_sums(m, (Y, Y + 1, Y // 3))
            alone = residue_sums(m, (Y,))[Y]
            assert batch[Y] == alone, (m, Y)
            l = rng.randrange(m)
            assert residue_entry(m, Y, l) == alone[l], (m, Y, l)
            alone[(Y + 1) % m] += eps(Y + 1)
            assert batch[Y + 1] == alone, (m, Y)
            assert batch[Y // 3] == residue_sums(m, (Y // 3,))[Y // 3], (m, Y)


def test_all_ones_bounds_give_gelfonds_product():
    # Y = 2^k - 1: the sums by class are the coefficients of
    # prod_{j<k} (1 - x^(2^j)) mod x^m - 1, multiplied out here on plain lists;
    # so are the rows of the single-entry table, to its depth K
    for m in [*range(1, 64, 2), 199, 201]:
        poly = [1] + [0] * (m - 1)
        rows = gelfond_rows(m)
        for k in range(41):
            assert residue_sums(m, [2**k - 1])[2**k - 1] == poly, (m, k)
            if k < len(rows) // m:
                assert list(rows[k * m:(k + 1) * m]) == poly, (m, k)
            s = pow(2, k, m)
            poly = [poly[l] - poly[(l - s) % m] for l in range(m)]
    assert [len(gelfond_rows(m)) // m for m in (1, 199, 201, 10001)] == [41, 41, 1, 1]


def test_big_endian_rows_swap_the_bytes_of_each_lane(monkeypatch):
    # the rows are built as little-endian lanes; on a big-endian host each
    # 8-byte entry is reversed in place and the entries keep their order
    real = {m: gelfond_rows(m) for m in (1, 7, 199)}
    monkeypatch.setattr("tmcorr.digitseq.sys", types.SimpleNamespace(byteorder="big"))
    for m, rows in real.items():
        swapped = gelfond_rows.__wrapped__(m)
        assert len(swapped) == len(rows) and swapped.readonly, m
        assert all(swapped[i:i + 1].tobytes() == rows[i:i + 1].tobytes()[::-1]
                   for i in range(len(rows))), m


def _block_sums(m, Y):
    """[sum of eps(N) over 0 <= N <= Y, N = l (mod m), for l < m], the running
    sum taken by blocks: each N < Z = Y + 1 first falls below Z at a 1-bit i
    of Z, under the same bits above i, and the 2^i free bits below sum by
    residue as Gelfond's product, multiplied out here on plain lists."""
    Z, free, out = Y + 1, [1] + [0] * (m - 1), [0] * m
    for i in range(Z.bit_length()):
        if Z >> i & 1:
            high = Z >> i + 1 << i + 1
            e, p = eps(high), high % m
            for r, v in enumerate(free):
                out[(p + r) % m] += e * v
        s = pow(2, i, m)
        free = [free[r] - free[(r - s) % m] for r in range(m)]
    return out


def _lane_edges(m):
    """w -> (least, greatest) walk bound top whose lanes are w bits wide,
    W = bitlen(top // m + 2) + 2, for w on both sides of 8, 16, 32 and 64."""
    return {w: (m * ((1 << w - 3) - 2), m * ((1 << w - 2) - 2) - 1)
            for w in (8, 9, 16, 17, 32, 33, 64, 65)}


def test_running_sums_by_blocks_equal_the_running_sums():
    for m in (1, 3, 7, 37):
        running = [0] * m
        for Y in range(3000):
            running[Y % m] += eps(Y)
            assert _block_sums(m, Y) == running, (m, Y)


def test_byte_lanes_hold_every_sum_the_walks_lanes_hold():
    # up to 64 bits a single entry's walk widens its W-bit lanes to the next
    # of 8, 16, 32 and 64 bits, so every sum a W-bit lane holds (up to
    # 2^(W-1) - 2 either way) reads back whole from the byte view; past 64
    # bits the lanes stay as they are
    rng = random.Random(64)
    for m in (1, 3, 37, 101, 199):
        for w, tops in _lane_edges(m).items():
            for top in tops:
                lanes, exact = _residue_lanes(m, top, True), _residue_lanes(m, top)
                assert exact[1] == w, (m, top)
                if w > 64:
                    assert lanes == exact, (m, top)
                    continue
                W, M, OFF = lanes[1:4]
                assert W == next(b for b in (8, 16, 32, 64) if b >= w), (m, top)
                assert (M, OFF) == ((1 << m * W) - 1, ((1 << m * W) - 1) // ((1 << W) - 1) << W - 1)
                edge = (1 << w - 1) - 2
                R = [rng.choice((edge, -edge, rng.randint(-edge, edge))) for _ in range(m)]
                assert list(_lane_view(lanes, _packed(lanes, R, 1))) == R, (m, top)
                assert list(_lane_view(lanes, M)) == [0] * m   # M is 0 in Z/M


@pytest.mark.parametrize("m", [1, 3, 37, 101, 199, 201])
def test_single_entries_on_byte_lanes_equal_the_batch_and_running_sums(m):
    # an entry walks to h - 1, h = (Y + 1) >> K, on lanes of 1, 2, 4 or 8
    # bytes while W <= 64 and reads them through one byte view; just past
    # 64 bits, and at K = 0 (m = 201), it keeps W-bit lanes and reads lane by
    # lane.  Both ends of each width, with Y + 1 a multiple of 2^K and not
    K, rng = _depth(m), random.Random(m)
    widths = {}
    for w, tops in _lane_edges(m).items():
        for top in tops:
            for low in (0, rng.getrandbits(K)):
                byte = next(b for b in (8, 16, 32, 64, w) if b >= w)
                widths[(top + 1 << K) + low - 1] = byte if K else w
    batch = residue_sums(m, widths)
    for Y, W in widths.items():
        assert _residue_lanes(m, ((Y + 1) >> K) - 1, K > 0)[1] == W, (m, Y)
        want = _block_sums(m, Y)
        assert batch[Y] == want, (m, Y)
        ls = range(m) if m < 200 else rng.sample(range(m), 12)
        assert [residue_entry(m, Y, l) for l in ls] == [want[l] for l in ls], (m, Y)


def test_big_endian_lane_views_swap_the_bytes_of_each_lane(monkeypatch):
    # a lane view is written in the host's byte order; on a big-endian host
    # each lane's bytes come reversed and the lanes keep their order
    rng = random.Random(7)
    real = []
    for m in (1, 7, 199):
        for width, top in zip((8, 16, 32, 64), (30 * m, 2**13 * m, 2**29 * m, 2**61 * m)):
            lanes = _residue_lanes(m, top, True)
            assert lanes[1] == width, (m, top)
            P = rng.randrange(lanes[2] + 1)
            real.append((lanes, P, _lane_view(lanes, P)))
    monkeypatch.setattr("tmcorr.digitseq.sys", types.SimpleNamespace(byteorder="big"))
    for lanes, P, view in real:
        swapped = _lane_view(lanes, P)
        assert len(swapped) == len(view) == lanes[0] and swapped.format == view.format
        assert all(swapped[i:i + 1].tobytes() == view[i:i + 1].tobytes()[::-1]
                   for i in range(len(view))), lanes[:2]


def _depth(m):
    """K of the table of modulus m: a bound Y with Y + 1 < 2^K reads no walk."""
    return len(gelfond_rows(m)) // m - 1


@pytest.mark.parametrize("m", [1, 3, 5, 63, 101, 129, 199, 201, 1001])
def test_single_entries_equal_the_batch_around_the_table_depth(m):
    # with Y + 1 below 2^K an entry is table rows alone; from Y + 1 = 2^K on
    # it walks the bits of Y + 1 from K up and meets row K.  Every l, but
    # eight at m = 1001 and 600 bits, where each entry walks all 600 bits on
    # 1001 lanes
    K, rng = _depth(m), random.Random(m)
    ys = [2**K - 2, 2**K - 1, 2**K, 2**K + 1, 3 * 2**K - 1, 2**(K + 1) - 1]
    for Y in ys + [rng.getrandbits(b) | 1 << b - 1 for b in (40, 63, 65, 600)]:
        want = residue_sums(m, [Y])[Y]
        ls = rng.sample(range(m), 8) if m * Y.bit_length() > 10**5 else range(m)
        assert [residue_entry(m, Y, l) for l in ls] == [want[l] for l in ls], (m, Y)


def test_shallow_tables_equal_running_sums():
    # m = 10001 and 65537 keep only row 0: the walk to Y, read at lane l
    for m in (10001, 65537):
        assert _depth(m) == 0
        for Y in (-1, 0, 5, m - 1, m, 200001):
            for l in {0, 1, 5, Y % m, m - 1}:
                assert residue_entry(m, Y, l) == sum(map(eps, range(l, Y + 1, m))), (m, Y, l)


def test_gelfond_count_at_even_moduli_matches_the_batch():
    # m = 2^a m': the count reads entry c = l >> a of m' at T = (X - b) >> a,
    # here just below, at and above 2^K of m', and at 70 bits
    rng = random.Random(2002)
    for m in (2, 6, 64, 96, 202, 398, 402, 2002):
        a = (m & -m).bit_length() - 1
        odd, K = m >> a, _depth(m >> a)
        for T in {max(0, 2**K + d) for d in (-2, -1, 0, 1)} | {rng.getrandbits(70)}:
            sums = residue_sums(odd, [T])[T]
            for l in rng.sample(range(m), min(m, 12)):
                b, c = l & ((1 << a) - 1), l >> a
                X = (T << a) + b + rng.randrange(1 << a)   # (X - b) >> a = T
                N = (T - c) // odd + 1 if T >= c else 0
                E = eps(b) * sums[c]
                if l == 0:   # n = 0 is not counted
                    N, E = N - 1, E - 1
                assert gelfond_count(X, l, m, 0) == (N + E) // 2, (m, T, l)
                assert gelfond_count(X, l, m, 1) == (N - E) // 2, (m, T, l)


@pytest.mark.parametrize("q", [1, 3, 15, 63, 199, 201])
def test_dilation_sum_equals_the_batch_around_the_table_depth(q):
    # qX + r just below and just above 2^K, and X well past it
    K, rng = _depth(q), random.Random(q)
    xs = {max(0, (2**K - d) // q) for d in (1, 2, q, 2 * q + 1)} | {2**K // q + 1, 2**K // q + 2}
    xs |= {rng.getrandbits(80)}
    batch = shift_vectors(q, xs, dilation=True)
    for X in xs:
        rs = range(q) if q < 64 else rng.sample(range(q), 10)
        assert [dilation_sum(q, r, X) for r in rs] == [batch[X][r] for r in rs], (q, X)


def test_residue_walks_read_no_step_table(monkeypatch):
    # the packed walk takes 1/2 mod m as (m + 1) // 2, so no residue sum,
    # entry, count or dilation sum builds D_m or the halving rows; the bounds
    # lie below and above 2^40 (and so below and above 2^K of every m)
    ms, ys = (3, 101, 201, 10003), [2**40 - 12345, 2**40 - 1, 2**40, 3**30, 2**70 + 5]
    sums = {m: residue_sums(m, ys) for m in ms}
    xs = {q: [2**40 // q - 1, 2**40 // q + 1, 3**30] for q in ms}
    dilations = {q: shift_vectors(q, xs[q], dilation=True) for q in ms}

    def refuse(*args):
        raise AssertionError("a step table was built")

    monkeypatch.setattr("tmcorr.digitseq.residue_rows", refuse)
    monkeypatch.setattr("tmcorr.digitseq.shift_rows", refuse)
    for m in ms:
        assert residue_sums(m, ys) == sums[m], m
        for Y in ys:
            for l in (0, 1, m // 2, m - 1):
                R = sums[m][Y]
                assert residue_entry(m, Y, l) == R[l], (m, Y, l)
                N, E = (Y - l) // m + (l > 0), R[l] - (l == 0)
                assert gelfond_count(Y, l, m, 0) == (N + E) // 2, (m, Y, l)
        for X in xs[m]:
            for r in (0, 1, m // 2, m - 1):
                assert dilation_sum(m, r, X) == dilations[m][X][r], (m, X, r)


def _packed(lanes, R, f):
    """P holding class l of R in lane l f (mod m), as an element of Z/M."""
    m, W, M = lanes[:3]
    return sum(v << (l * f % m) * W for l, v in enumerate(R)) % M


def test_one_packed_step_is_one_residue_rows_step():
    # the packed bit and the list step of D_m (plus the 0-bit correction)
    # agree from any state whose sums fit the walk's bound |R_l| <= Y//m + 1
    rng = random.Random(131)
    for m in range(1, 132, 2):
        rows = residue_rows(m)
        for c in "01" * 3:
            top = rng.getrandbits(rng.randrange(1, 300))
            lanes = _residue_lanes(m, top)
            W, M = lanes[1:3]
            B = top // m + 1
            R = [rng.randint(-B, B) for _ in range(m)]
            k, h, e = rng.randrange(100), rng.randrange(m), rng.choice((1, -1))
            f = pow(2, -k, m)
            P, g, e2, f2 = _residue_walk(lanes, (_packed(lanes, R, f), h * f % m, e, f), c)
            want = [R[a] - R[b] for a, b in rows]
            if c == "0":
                want[(2 * h + 1) % m] += e
            assert _residue_read(lanes, (P, g, e2, f2), range(m)) == want, (m, c)
            assert 0 <= P <= M and f2 == pow(2, -k - 1, m), (m, c)
            assert (g, e2) == ((2 * h + int(c)) * f2 % m, -e if c == "1" else e), (m, c)
            edge = (1 << W - 1) - 2
            R = [rng.choice((edge, -edge)) for _ in range(m)]
            assert _residue_read(lanes, (_packed(lanes, R, f), 0, 1, f), range(m)) == R, m
        assert _residue_read(lanes, (M, 0, 1, 1), range(m)) == [0] * m   # M is 0 in Z/M


def test_mixed_width_batch_equals_each_bound_alone():
    # one lane width, from 2^600, serves bounds hundreds of bits shorter
    rng = random.Random(64)
    for m in (1, 3, 63, 101, 129):
        ys = [-1, 0, 1, m, 2**64 + 3, 2**600 + 1, 2**600]
        batch = residue_sums(m, ys)
        for Y in ys:
            assert batch[Y] == residue_sums(m, [Y])[Y], (m, Y)
            l = rng.randrange(m)
            assert residue_entry(m, Y, l) == batch[Y][l], (m, Y, l)


def test_direct_loops_stop_at_ten_million():
    # written out, not read from NAIVE_LIMIT, so a changed constant fails here
    check_naive_limit(10**7)
    with pytest.raises(ValueError, match="X > 10000000$"):
        check_naive_limit(10**7 + 1)


def test_residue_sums_read_an_iterator_once():
    assert residue_sums(3, (Y for Y in [5, 9])) == residue_sums(3, [5, 9]) == {
        5: [2, -2, 0], 9: [4, -3, -1]}


def test_residue_sums_refuse_outside_their_domain():
    for m in (0, 2, 4, -3):
        with pytest.raises(ValueError, match="odd"):
            residue_sums(m, (5,))
    with pytest.raises(ValueError, match="-1"):
        residue_sums(3, (4, -2))
