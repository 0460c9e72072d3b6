"""Fast paths far beyond the direct loops: X = 2^4096 and a random 4096-bit X.

The sums are checked against evaluations written here that share no code
with the library's halving engine:

- a carry automaton that reads the bits of n from the least significant
  end, with the carry of q*n + r as state (the engine halves from the top);
- for X = 2^k, the transfer-matrix identity: the prefixed correlations
  over n < 2^k are M^k applied to (eps(s))_s, M = build_transfer(q);
- Gelfond counts by blocks (``conftest.block_count``): n <= X splits at the highest bit where n and
  X differ, and the free low bits are counted by (parity, residue).

Every call runs under the interpreter's default recursion limit.
"""

import random
import sys

import pytest

from tmcorr import (RationalPhase, build_transfer, corr_fast, count_classes_fast,
                    count_tables, dilation_sum, eps, expsum_fast, gelfond_count,
                    scan_alpha, shift_vectors)
from tmcorr.cli import main

from conftest import block_count

BIG_BITS = 4096
X_RANDOM = random.Random(4096).getrandbits(BIG_BITS - 1) | 1 << (BIG_BITS - 1)
BIG_XS = (2 ** BIG_BITS, X_RANDOM)


def carry_automaton(q: int, X: int, corr: bool) -> list[int]:
    """[sum_{n=1..X} w_r(n) for r in 0..q-1], w = eps(n)eps(qn+r) or eps(qn+r).

    value[above][c] is the signed number of ways to fill the bits of n from
    position i upward when the carry into bit i of q*n + r is c; ``above``
    says whether the bits of n below i already exceed those of X.  It is
    built from the top position down, so the answer for every start carry
    r comes out at once.
    """
    # bit b of n meets carry c: the output bit is t & 1 and the next carry t >> 1
    steps = []
    for c in range(q):
        pair = []
        for b in (0, 1):
            t = q * b + c
            pair.append((-1 if (t & 1) ^ (b & corr) else 1, t >> 1))
        steps.append(pair)
    value = [[eps(c) for c in range(q)], [0] * q]   # past the top bit: n <= X iff not above
    for i in range(X.bit_length() - 1, -1, -1):
        x = X >> i & 1
        new = []
        for above in (0, 1):
            v0 = value[0 if x else above]     # b = 0: below X's bit 1, else unchanged
            v1 = value[above if x else 1]     # b = 1: above X's bit 0, else unchanged
            new.append([s0 * v0[n0] + s1 * v1[n1] for (s0, n0), (s1, n1) in steps])
        value = new
    return [value[0][r] - eps(r) for r in range(q)]


def transfer_power_corr(q: int, k: int) -> list[int]:
    """S_q(2^k, r) for all r from M^k (eps(s))_s plus the n = 2^k term."""
    rows = [[(c, m) for c, m in enumerate(row) if m]
            for row in build_transfer(q)]
    v = [eps(s) for s in range(q)]
    for _ in range(k):
        v = [sum(m * v[c] for c, m in row) for row in rows]
    X = 2 ** k
    return [v[r] + eps(X) * eps(q * X + r) - eps(r) for r in range(q)]


@pytest.mark.parametrize("q", [3, 5, 63])
@pytest.mark.parametrize("X", BIG_XS, ids=["2^4096", "random4096"])
def test_huge_x_sums_match_carry_automaton(q, X):
    S = carry_automaton(q, X, corr=True)
    U = carry_automaton(q, X, corr=False)
    P = carry_automaton(1, X, corr=False)[0]    # sum of eps(n) over 1..X
    assert shift_vectors(q, [X])[X] == S
    assert shift_vectors(q, [X], dilation=True)[X] == U
    tables = count_tables(q, [X])[X]
    for r in range(q) if q < 10 else (0, 1, 31, 62):
        assert corr_fast(q, r, X) == S[r]
        assert dilation_sum(q, r, X) == U[r]
        table = count_classes_fast(q, r, X)
        assert table == tables[r]
        si = (1, -1)
        assert all(4 * table.cells[i][k] == X + si[i] * P + si[k] * U[r]
                   + si[i] * si[k] * S[r] for i in (0, 1) for k in (0, 1))


@pytest.mark.parametrize("q", [3, 5, 63])
def test_power_of_two_sums_match_transfer_power(q):
    assert shift_vectors(q, [2 ** BIG_BITS])[2 ** BIG_BITS] == \
        transfer_power_corr(q, BIG_BITS)


def test_ladder_on_one_chain_matches_single_points():
    xs = [2 ** e for e in range(990, 1030, 3)]
    ladder = shift_vectors(7, xs)
    for X in xs[::4]:
        assert ladder[X] == shift_vectors(7, [X])[X] == carry_automaton(7, X, True)


def test_gelfond_count_huge_x_matches_blocks():
    rng = random.Random(600)
    X = rng.getrandbits(600) | 1 << 600
    for m in (1, 3, 7, 10, 64, 96, 101):
        counts = [[gelfond_count(X, l, m, j) for j in (0, 1)] for l in range(m)]
        assert sum(map(sum, counts)) == X
        for l in range(m):
            for j in (0, 1):
                assert counts[l][j] == block_count(X, l, m, j), (m, l, j)


def test_expsum_huge_x_finite_then_refused():
    # |f(2^k, 1/3)| = 3^(k/2) stays in double range up to k ~ 1290
    assert scan_alpha(2 ** 1024, 3).max_modulus == pytest.approx(float(3 ** 512), rel=1e-9)
    with pytest.raises(ValueError, match="not finite"):
        expsum_fast(RationalPhase(1, 3), 2 ** 1300)


def test_cli_huge_x_succeeds_or_fails_with_one_line(capsys):
    assert main(["corr", "5", "all", "2^995..2^1000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 6
    assert main(["count", "3", "1", "2^1200", "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["scan", "2^1024", "3"]) == 0
    capsys.readouterr()
    # past double range: a count deviation (printed as a double) and |f| at 1/3
    for argv in (["count", "3", "1", "2^2000"], ["scan", "2^1300", "3"],
                 ["count", "3", "all", "2^1280..2^1310:10"],
                 ["count", "3", "all", "2^1280..2^1310:10", "--format", "json"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_past_4300_digits(capsys):
    # 2^15000 has 4516 decimal digits, past Python's default int <-> str cap
    limit = sys.get_int_max_str_digits()
    X = 2 ** 15000
    assert main(["corr", "3", "0", "2^15000"]) == 0
    assert sys.get_int_max_str_digits() == limit
    header, row = capsys.readouterr().out.splitlines()
    assert header == "X,r,value"
    sys.set_int_max_str_digits(0)
    try:
        assert row == f"{X},0,{corr_fast(3, 0, X)}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["corr", "3", "0", "2^15000", "--format", "json"]) == 0
    assert sys.get_int_max_str_digits() == limit
    assert main(["count", "3", "0", "2^15000"]) == 1     # deviation past double range
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()
