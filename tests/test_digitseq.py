import random

import numpy as np
import pytest

from tmcorr import class_of, eps, eps_partial_sum, gelfond_count
from tmcorr.digitseq import (_residue_lanes, _residue_read, _residue_walk, residue_entry,
                             residue_rows, residue_sums, walk_prefixes)

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
    # one bound alone: walk_prefixes walks it in one call, and residue_entry's
    # walk over every bit of Y read at one lane; bounds below m, at m and past it
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
    # prod_{j<k} (1 - x^(2^j)) mod x^m - 1, multiplied out here on plain lists
    for m in range(1, 64, 2):
        poly = [1] + [0] * (m - 1)
        for k in range(41):
            assert residue_sums(m, [2**k - 1])[2**k - 1] == poly, (m, k)
            s = pow(2, k, m)
            poly = [poly[l] - poly[(l - s) % m] for l in range(m)]


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


def test_residue_sums_read_an_iterator_once():
    assert residue_sums(3, (Y for Y in [5, 9])) == residue_sums(3, [5, 9]) == {
        5: [2, -2, 0], 9: [4, -3, -1]}


def test_residue_sums_refuse_outside_their_domain():
    for m in (0, 2, 4, -3):
        with pytest.raises(ValueError, match="odd"):
            residue_sums(m, (5,))
    with pytest.raises(ValueError, match="-1"):
        residue_sums(3, (4, -2))
