import cmath
import math
import random
import struct
import tracemalloc

import pytest

from tmcorr import (RationalPhase, ScanResult, expsum_fast, expsum_naive,
                    product_formula, scan_alpha)
import tmcorr.expsum
from tmcorr.digitseq import eps
from tmcorr.expsum import MAX_GRID, NAIVE_LIMIT, _cis


def test_phase_normalization():
    assert (RationalPhase(5, 3).p, RationalPhase(5, 3).q) == (2, 3)
    assert (RationalPhase(-1, 3).p, RationalPhase(-1, 3).q) == (2, 3)
    assert (RationalPhase(2, 4).p, RationalPhase(2, 4).q) == (1, 2)
    assert (RationalPhase(0, 7).p, RationalPhase(0, 7).q) == (0, 1)
    assert RationalPhase(2, 4) == RationalPhase(1, 2)


def test_phase_rejects_bad_denominator():
    with pytest.raises(ValueError):
        RationalPhase(1, 0)
    with pytest.raises(ValueError):
        RationalPhase(1, -3)


def test_phase_doubling_exact():
    ph = RationalPhase(2 * 1, 4)
    assert (ph.p, ph.q) == (1, 2)
    ph = RationalPhase(2 * ph.p, ph.q)
    assert (ph.p, ph.q) == (0, 1)
    ph3 = RationalPhase(2 * 1, 3)
    assert (ph3.p, ph3.q) == (2, 3)
    ph3 = RationalPhase(2 * ph3.p, ph3.q)
    assert (ph3.p, ph3.q) == (1, 3)


def test_naive_examples():
    assert abs(expsum_naive(RationalPhase(0, 1), 4)) < 1e-12          # +,-,-,+
    assert abs(expsum_naive(RationalPhase(1, 3), 4) - 3) < 1e-12
    assert abs(expsum_naive(RationalPhase(1, 2), 2) - 2) < 1e-12


def test_naive_guard():
    with pytest.raises(ValueError):
        expsum_naive(RationalPhase(1, 3), NAIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        expsum_naive(RationalPhase(1, 3), -1)


def test_naive_huge_denominator_is_direct_sum():
    # only the residues the loop visits get a root of unity, so q = 10^30
    # costs X terms, not a table of q entries
    q = 10 ** 30
    for p in (1, 7 * 10 ** 29 + 3, 123456789012345678901234567891):
        direct = sum(eps(n) * cmath.exp(2j * math.pi * (p * n % q) / q) for n in range(50))
        assert abs(expsum_naive(RationalPhase(p, q), 50) - direct) < 1e-12


def test_fast_equals_naive_dense_small():
    phases = [RationalPhase(p, 64) for p in range(64)]
    partials = {ph: 0j for ph in phases}
    for X in range(1, 600):
        n = X - 1
        e = 1 - 2 * (n.bit_count() & 1)
        for ph in phases:
            partials[ph] += e * cmath.exp(2j * math.pi * ph.p * (n % ph.q) / ph.q)
    # closed-loop check of the incremental oracle itself at the endpoint,
    # then the fast path against direct evaluation on a coarser X sweep
    for ph in phases:
        assert abs(partials[ph] - expsum_naive(ph, 599)) < 1e-8
    for X in (0, 1, 2, 3, 5, 64, 100, 599, 1024, 10**5):
        for ph in (RationalPhase(0, 1), RationalPhase(1, 3), RationalPhase(1, 2),
                   RationalPhase(3, 7), RationalPhase(17, 64), RationalPhase(255, 1024)):
            assert abs(expsum_fast(ph, X) - expsum_naive(ph, X)) <= 1e-8 * max(X, 1)


def test_fast_power_of_two_modulus():
    third = RationalPhase(1, 3)
    for k in range(0, 41):
        mod = abs(expsum_fast(third, 2 ** k))
        assert abs(mod - 3 ** (k / 2)) <= 1e-6 * 3 ** (k / 2)


def test_fast_alpha_zero_cancels():
    zero = RationalPhase(0, 1)
    for k in (1, 5, 20, 40):
        assert abs(expsum_fast(zero, 2 ** k)) < 1e-9


def test_product_formula_examples():
    assert abs(product_formula(RationalPhase(1, 3), 2) - 3) < 1e-12
    assert abs(product_formula(RationalPhase(0, 1), 1)) < 1e-12
    assert abs(abs(product_formula(RationalPhase(1, 3), 10)) - 243) < 1e-9


def test_product_formula_matches_fast():
    for p, q in ((1, 3), (2, 5), (3, 7), (5, 64), (1, 2)):
        ph = RationalPhase(p, q)
        for k in (0, 1, 2, 5, 11, 20, 30):
            lhs = product_formula(ph, k)
            rhs = expsum_fast(ph, 2 ** k)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0), (p, q, k)


def test_product_formula_level_cap():
    with pytest.raises(ValueError):
        product_formula(RationalPhase(1, 3), 51)


def test_scan_examples():
    res = scan_alpha(2 ** 16, 3)
    assert res.argmax_p == 1
    assert abs(res.max_modulus - 6561) < 1e-6
    res2 = scan_alpha(2, 2)
    assert res2.argmax_p == 1 and abs(res2.max_modulus - 2) < 1e-12
    res3 = scan_alpha(1, 17)
    assert res3.max_modulus == 1.0 and res3.argmax_p == 1


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_alpha(16, 1)
    for grid in (2, 7, 96):
        with pytest.raises(ValueError, match="X must be nonnegative"):
            scan_alpha(-1, grid)


def test_scan_refuses_grid_above_limit_before_any_table():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"grid > {MAX_GRID}"):
            scan_alpha(16, MAX_GRID + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak   # the table alone would be about 40 MB


@pytest.mark.parametrize("grid, bound", [(2 ** 14, 125), (3 ** 9, 130)])
def test_scan_peak_memory_per_grid_point(grid, bound):
    # 3^40 - 1 has zero bits, where the walk shares e*W between the halves:
    # about 115 B per grid point when each half frees its old list before the
    # other is built, 135 B when both are built from the old V and W.  The
    # odd grid 3^9 walks all of its lanes at every bit and never widens them:
    # about 127 B per grid point
    tracemalloc.start()
    try:
        scan_alpha(3 ** 40, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid < bound, peak / grid


def test_cis_mirror_is_exact_conjugate():
    for q in (1, 2, 3, 4, 5, 7, 12, 17, 64, 97, 360, 1000, 10 ** 30 + 57):
        for p in (range(q + 1) if q < 2000 else (0, 1, 2, q // 3, q // 2, q - 1, q)):
            assert _cis(q - p, q) == _cis(p, q).conjugate(), (p, q)
        assert _cis(0, q) == 1
    assert _cis(1, 2) == -1 and _cis(3, 6) == -1 and _cis(5, 2) == -1


def _scan_reference(X: int, grid: int) -> ScanResult:
    """max_p |expsum_fast(p/grid, X)| over p = 1..grid-1, lowest p on ties."""
    best_mod, best_p = -1.0, 1
    for p in range(1, grid):
        mod = abs(expsum_fast(RationalPhase(p, grid), X))
        if mod > best_mod:
            best_mod, best_p = mod, p
    return ScanResult(X=X, grid=grid, max_modulus=best_mod, argmax_p=best_p)


_rng = random.Random(20261018)
# 96, 256 and 1000 merge lanes at the top bits and read residue 0 for p = grid/2
SCAN_GRIDS = (2, 3, 4, 5, 6, 7, 12, 64, 96, 256, 360, 999, 1000, _rng.randint(13, 99))
# 2^0..2^1200, then 300 random X up to 1200 bits.  The reference costs
# grid x bitlen(X) expsum_fast levels, so each grid checks every (4 grid)-th.
DEEP_X = ([2 ** k for k in range(1201)]
          + [_rng.getrandbits(_rng.randint(1, 1200)) for _ in range(300)])
# 1010 bits: the residue benchmark scans 996- to 1024-bit X at grids 3..9
SMALL_GRID_X = [2 ** 1009, 2 ** 1010 - 1] + [_rng.getrandbits(1010) | 1 << 1009 for _ in range(4)]


@pytest.mark.parametrize("grid", SCAN_GRIDS)
def test_scan_equals_max_of_expsum_fast(grid):
    # exact equality: the scan's root-of-unity table must give the very
    # floats that expsum_fast gets from each reduced phase
    for X in list(range(301)) + DEEP_X[::4 * grid] + (SMALL_GRID_X if 4 <= grid <= 7 else []):
        assert scan_alpha(X, grid) == _scan_reference(X, grid), (X, grid)


MIRROR_GRIDS = (2, 3, 4, 7, 12, 64, 360)


@pytest.mark.parametrize("grid", MIRROR_GRIDS)
def test_fast_mirror_phases_are_exact_conjugates(grid):
    # f(X, 1 - alpha) is conj f(X, alpha) bit for bit, which is what lets the
    # scan walk only p <= grid/2
    for X in list(range(301)) + DEEP_X[::4 * grid]:
        for p in range(grid // 2 + 1):
            f = expsum_fast(RationalPhase(p, grid), X)
            assert expsum_fast(RationalPhase(grid - p, grid), X) == f.conjugate(), (X, p, grid)


def _odd_part(grid: int) -> tuple[int, int]:
    """(j, m) with grid = 2^j m, m odd."""
    j = (grid & -grid).bit_length() - 1
    return j, grid >> j


def _spied_walk(monkeypatch):
    """Patch _walk to record each scan's lanes and the lane count at every bit."""
    seen = {}
    true_walk = tmcorr.expsum._walk

    def spy(X, width, level, low=0, widen=None):
        seen["widths"], current = {}, [width]

        def counted_level(k):
            seen["widths"][k] = current[0]
            return level(k)

        def counted_widen(lanes):   # once per walk, on V and on W
            assert len(lanes) == width
            out = widen(lanes)
            current[0] = len(out)
            return out

        seen["lanes"] = true_walk(X, width, counted_level, low, counted_widen)
        return seen["lanes"]

    monkeypatch.setattr(tmcorr.expsum, "_walk", spy)
    return seen


def test_scan_walks_only_the_lower_half(monkeypatch):
    # no bit walks a lane above grid/2; the bits above the last j of
    # grid = 2^j m walk only the m//2 + 1 lanes of the odd part
    seen = _spied_walk(monkeypatch)
    for grid in list(range(2, 65)) + [96, 640, 1000, 1024]:
        j, m = _odd_part(grid)
        for X in (0, 1, 2, 3, 2 ** j, 2 ** j + 1, 1000, 2 ** 40 + 12345):
            assert scan_alpha(X, grid).argmax_p <= grid // 2, (X, grid)
            assert len(seen["lanes"]) == grid // 2 + 1, (X, grid)
            bits = (X - 1).bit_length() if X else 0
            assert sorted(seen["widths"]) == list(range(bits)), (X, grid)
            for k, width in seen["widths"].items():
                want = m // 2 + 1 if bits > j and k >= j else grid // 2 + 1
                assert width == want, (X, grid, k)


def _bits_of(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)   # tells -0.0 from 0.0


# every lane of grids 2^j m, j <= 10: X = 0, 1, 2, the X whose walk ends
# before the odd part (bitlen(X - 1) <= j), the X that reach it by one bit,
# and deeper X; the grids of 2^7 x 125 and up check 400 lanes each
@pytest.mark.parametrize("m", [1, 3, 5, 125])
def test_scan_lanes_bitwise_equal_expsum_fast(monkeypatch, m):
    seen = _spied_walk(monkeypatch)
    rng = random.Random(31 * m)
    for j in range(11):
        grid = 2 ** j * m
        if grid < 2:
            continue
        n = grid // 2 + 1
        lanes = (range(n) if n <= 5000 else
                 sorted({*range(2 * m), *range(n - m, n), *rng.sample(range(n), 400 - 3 * m)}))
        xs = {0, 1, 2, 2 ** j - 1, 2 ** j, 2 ** j + 1, 2 ** (j + 1),
              rng.getrandbits(j + 3), rng.getrandbits(64) | 2 ** 63}
        for X in sorted(xs):
            scan_alpha(X, grid)
            got = seen["lanes"]   # expsum_fast walks too
            for p in lanes:
                want = expsum_fast(RationalPhase(p, grid), X)
                assert _bits_of(got[p]) == _bits_of(want), (X, grid, p)


def test_scan_not_finite_names_lowest_failing_phase():
    # messages as the per-phase loop raised them; at grid 15 phases 1/15..4/15
    # stay finite and 5/15 = 1/3 is the first to overflow
    for grid, phase in ((6, "1/6"), (15, "1/3")):
        with pytest.raises(ValueError) as err:
            scan_alpha(2 ** 1300, grid)
        assert str(err.value) == (f"exponential sum at phase {phase} is not finite "
                                  "in double precision (X has 1301 bits)")


def test_fast_hundred_digit_denominator_matches_naive():
    rng = random.Random(1300)
    q = 10 ** 99 + 289
    phases = [RationalPhase(1, q), RationalPhase(rng.randrange(q), q)]
    for X in list(range(40)) + [rng.randint(40, 2000) for _ in range(30)] + [2000]:
        for ph in phases:
            assert abs(expsum_fast(ph, X) - expsum_naive(ph, X)) <= 1e-8 * max(X, 1), X
