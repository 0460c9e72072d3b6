import cmath
import math
import random
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import tmcorr.spectral
from tmcorr import (MonicIntPolynomial, RootFindingError, build_transfer,
                    char_poly, cluster_roots, dilation_sum, eps, int_poly_gcd,
                    jordan_block_check, roots, shift_vectors, spectral_report,
                    square_free_factors)
from tmcorr.digitseq import residue_rows


# --- independent oracle: cofactor expansion of det(xI - M) -----------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _derivative(a):
    return tuple(k * c for k, c in enumerate(a))[1:]


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _det_poly(rows):
    """Determinant of a matrix of ascending-coefficient polynomials."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = [0]
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = _poly_mul(rows[0][j], _det_poly(minor))
        if j % 2:
            term = [-t for t in term]
        acc = _poly_add(acc, term)
    return acc


def char_poly_oracle(M):
    n = len(M)
    rows = [[[ -M[i][j], 1] if i == j else [-M[i][j]] for j in range(n)]
            for i in range(n)]
    coeffs = _det_poly(rows)
    while len(coeffs) < n + 1:
        coeffs.append(0)
    return tuple(coeffs)


def _det_bareiss(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [0] * (k + 1) + [(pivot * x - f * y) // prev
                                    for x, y in zip(a[i][k + 1:], tail)]
        prev = pivot
    return sign * a[-1][-1]


def _interpolate(ts, ys):
    """Exact ascending coefficients of the polynomial through (ts, ys)."""
    coef = [Fraction(y) for y in ys]
    for j in range(1, len(ts)):                      # Newton divided differences
        for i in range(len(ts) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ts[i] - ts[i - j])
    poly = [coef[-1]]
    for i in range(len(ts) - 2, -1, -1):             # Horner in Newton form
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= ts[i] * poly[k + 1]
        poly[0] += coef[i]
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def char_poly_bareiss_oracle(M):
    """det(tI - M) at t = 0..n by Bareiss, interpolated to coefficients."""
    n = len(M)
    ts = list(range(n + 1))
    ys = [_det_bareiss([[(t if i == j else 0) - M[i][j] for j in range(n)]
                        for i in range(n)]) for t in ts]
    return _interpolate(ts, ys)


def _random_matrix(rng, n):
    return tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))


# --- char_poly ---------------------------------------------------------------

def test_char_poly_identity_2x2():
    p = char_poly(((1, 0), (0, 1)))
    assert p.coeffs == (1, -2, 1)   # x^2 - 2x + 1


def test_char_poly_transfer_3():
    A = tuple(zip(*build_transfer(3)))
    p = char_poly(A)
    assert p.coeffs == (-2, 3, -2, 1)          # x^3 - 2x^2 + 3x - 2
    assert p.coeffs == char_poly_oracle(A)
    # transpose-invariant
    assert char_poly(build_transfer(3)).coeffs == p.coeffs


def test_char_poly_transfer_5_factors():
    A1 = tuple(zip(*build_transfer(5)))
    p = char_poly(A1)
    assert p.coeffs == (2, -5, 4, 0, -2, 1)    # x^5 - 2x^4 + 4x^2 - 5x + 2
    assert p.coeffs == char_poly_oracle(A1)
    # equals (x-1)^2 (x^3 - x + 2)
    product = _poly_mul(_poly_mul([-1, 1], [-1, 1]), [2, -1, 0, 1])
    assert tuple(product) == p.coeffs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_char_poly_matches_cofactor_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(8):
        M = _random_matrix(rng, n)
        assert char_poly(M).coeffs == char_poly_oracle(M)


def _random_mixed_matrix(rng, n):
    """Dense rows, zero rows and sparse rows, entries well beyond +-1."""
    rows = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append(tuple(rng.randrange(-40, 41) for _ in range(n)))
        elif kind == 1:
            rows.append((0,) * n)
        else:
            row = [0] * n
            for t in rng.sample(range(n), min(n, 2)):
                row[t] = rng.choice((-7, -2, -1, 1, 3, 9))
            rows.append(tuple(row))
    return tuple(rows)


def test_char_poly_matches_bareiss_oracle_random():
    rng = random.Random(404)
    for n in (1, 1, 2, 3, 4, 6, 9, 12, 16):
        for _ in range(3):
            M = _random_mixed_matrix(rng, n)
            assert char_poly(M).coeffs == char_poly_bareiss_oracle(M), M
    assert char_poly(((7,),)).coeffs == (-7, 1)
    assert char_poly(((0, 0), (0, 0))).coeffs == (0, 0, 1)


def test_char_poly_transfer_matches_bareiss_oracle():
    for q in range(3, 64, 2):
        M = build_transfer(q)
        assert char_poly(M).coeffs == char_poly_bareiss_oracle(M), q


def test_char_poly_mirror_blocks_match_bareiss_oracle():
    for q in range(3, 64, 2):
        for block in tmcorr.spectral._mirror_blocks(build_transfer(q)):
            assert char_poly(block).coeffs == char_poly_bareiss_oracle(block), q


def test_transfer_mirror_block_rows_are_sign_pairs_or_single_entries():
    # char_poly steps each such row by one add, subtract or -x - y of two
    # packed rows, or by one product; any other shape would take its general
    # weighted sum, which no transfer block reaches
    shapes = Counter()
    for q in range(3, 64, 2):
        for block in tmcorr.spectral._mirror_blocks(build_transfer(q)):
            shapes.update(tuple(filter(None, row)) for row in block)
    assert shapes == {(1, 1): 256, (-1, -1): 240, (-1, 1): 240, (1, -1): 225,
                      (1,): 31, (-2,): 16, (2,): 15}


def _two_entry_sign_matrix(rng, n):
    """Rows with exactly two nonzeros, +1 +1, -1 -1, +1 -1 or 2 -3 in
    either column order, and now and then a zero or a dense row."""
    rows = []
    for _ in range(n):
        kind = rng.randrange(6) if n > 1 else rng.randrange(4, 6)
        row = [0] * n
        if kind < 4:
            pair = ((1, 1), (-1, -1), (1, -1), (2, -3))[kind]
            for t, v in zip(rng.sample(range(n), 2), pair):
                row[t] = v
        elif kind == 5:
            row = [rng.randrange(-9, 10) for _ in range(n)]
        rows.append(tuple(row))
    return tuple(rows)


def test_char_poly_two_entry_rows_of_every_sign_match_bareiss_oracle():
    # the mirror block T+ has +1 +1 and -1 -1 rows, T- has +1 -1 and -1 +1
    # rows (465 of the 1,023 block rows over odd q <= 63), each one add or
    # subtract of two packed rows; 2 -3 rows take the general weighted sum
    rng = random.Random(1313)
    for n in range(1, 13):
        for _ in range(4):
            M = _two_entry_sign_matrix(rng, n)
            assert char_poly(M).coeffs == char_poly_bareiss_oracle(M), M


def test_char_poly_rows_of_zero_to_three_nonzeros_match_numpy():
    # the mirror blocks of a transfer matrix each have one single-entry row
    rng = random.Random(2024)
    for n in range(1, 11):
        for _ in range(6):
            rows = []
            for _ in range(n):
                row = [0] * n
                for t in rng.sample(range(n), min(n, rng.randrange(4))):
                    row[t] = rng.choice((-2, -1, 1, 2, 3))
                rows.append(tuple(row))
            want = [round(c) for c in np.poly(np.array(rows, dtype=float))]
            assert char_poly(rows).coeffs == tuple(reversed(want)), rows


def _mat_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cayley_hamilton(n):
    rng = random.Random(200 + n)
    for _ in range(4):
        M = _random_matrix(rng, n)
        p = char_poly(M)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        power = ident
        for k, c in enumerate(p.coeffs):
            acc = tuple(tuple(acc[i][j] + c * power[i][j] for j in range(n))
                        for i in range(n))
            if k < p.degree:
                power = _mat_mul(power, M)
        assert all(v == 0 for row in acc for v in row)


def test_char_poly_validation():
    with pytest.raises(ValueError):
        char_poly(((1, 2),))                       # not square
    with pytest.raises(ValueError):
        char_poly(((1.5, 0), (0, 1)))              # non-integer
    big = tuple(tuple(int(i == j) for j in range(65)) for i in range(65))
    with pytest.raises(ValueError):
        char_poly(big)                             # beyond dimension cap
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        char_poly(())


def test_char_poly_refuses_the_order_before_reading_an_entry():
    class Unread:
        def __iter__(self):
            raise AssertionError("an entry was read")

    with pytest.raises(ValueError, match="dimension 3000 exceeds limit 64"):
        char_poly([Unread()] * 3000)
    # spectral_report refuses the order of its larger mirror block, which
    # char_poly would refuse: 65 at order 129; order 127 has blocks of 64 and 63
    with pytest.raises(ValueError, match="^dimension 65 exceeds limit 64$"):
        spectral_report([Unread()] * 129)
    assert spectral_report(build_transfer(127)).poly.degree == 127


# --- char_poly at MAX_DIM: closed forms that fill the packed lanes -----------
# With the lane width W = bitlen(n a^(n+1)) + 2 (a the largest row abs-sum)
# two bits fewer misread the cycle's tr(C^n) = n = n a^n, and a diagonal's
# tr(D^(n+1)) = n a^(n+1) when its entries are equal.

N = tmcorr.spectral.MAX_DIM


def test_char_poly_of_the_max_dim_cycle_permutation():
    C = [[int(j == (i + 1) % N) for j in range(N)] for i in range(N)]
    assert char_poly(C).coeffs == (-1,) + (0,) * (N - 1) + (1,)        # x^N - 1


@pytest.mark.parametrize("c", [1, -1, -3, 2**40])
def test_char_poly_of_a_max_dim_constant_matrix(c):
    want = (0,) * (N - 1) + (-N * c, 1)                                 # x^(N-1) (x - Nc)
    assert char_poly([[c] * N for _ in range(N)]).coeffs == want


def test_char_poly_of_a_max_dim_diagonal_of_huge_entries():
    rng = random.Random(64)
    for signs in ([1] * N, [rng.choice((-1, 1)) for _ in range(N)]):
        d = [s * 2**200 for s in signs]
        want = [1]
        for di in d:
            want = _poly_mul(want, [-di, 1])
        M = [[d[i] if i == j else 0 for j in range(N)] for i in range(N)]
        assert char_poly(M).coeffs == tuple(want), signs


def test_char_poly_of_a_max_dim_companion_matrix():
    rng = random.Random(65)
    a = tuple(rng.choice((-1, 1)) * 2**100 for _ in range(N))   # x^N + sum a[k] x^k
    C = [[int(j == i - 1) for j in range(N - 1)] + [-a[i]] for i in range(N)]
    assert char_poly(C).coeffs == a + (1,)


def test_monic_polynomial_validation():
    with pytest.raises(ValueError):
        MonicIntPolynomial(coeffs=(1, 2))          # leading coeff != 1
    with pytest.raises(ValueError):
        MonicIntPolynomial(coeffs=(1,))            # degree 0
    with pytest.raises(ValueError):
        MonicIntPolynomial(coeffs=(1.0, 1))        # not an integer


# --- roots -------------------------------------------------------------------

def test_roots_x2_plus_1():
    zs = roots(MonicIntPolynomial(coeffs=(1, 0, 1)))
    zs = sorted(zs, key=lambda z: z.imag)
    assert abs(zs[0] - (-1j)) < 1e-12
    assert abs(zs[1] - 1j) < 1e-12


def test_roots_transfer_3_eigenvalues():
    p = MonicIntPolynomial(coeffs=(-2, 3, -2, 1))
    zs = sorted(roots(p), key=lambda z: (z.real, z.imag))
    half_sqrt7 = math.sqrt(7) / 2
    expected = sorted([complex(0.5, -half_sqrt7), complex(0.5, half_sqrt7),
                       complex(1.0, 0.0)], key=lambda z: (z.real, z.imag))
    for got, want in zip(zs, expected):
        assert abs(got - want) < 1e-9


def test_roots_cubic_dominant_magnitude():
    # x^3 - x + 2: one negative real root of magnitude 1.52137...
    zs = roots(MonicIntPolynomial(coeffs=(2, -1, 0, 1)))
    real = [z for z in zs if z.imag == 0]
    assert len(real) == 1
    assert real[0].real < 0
    assert abs(abs(real[0]) - 1.52138) < 1e-4


def test_roots_match_numpy_oracle():
    rng = random.Random(321)
    for deg in (2, 3, 4, 6, 9):
        for _ in range(4):
            coeffs = [rng.randrange(-6, 7) for _ in range(deg)] + [1]
            p = MonicIntPolynomial(coeffs=tuple(coeffs))
            mine = sorted(roots(p), key=lambda z: (z.real, z.imag))
            ref = sorted(np.roots(list(reversed(coeffs))),
                         key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, ref):
                assert abs(a - complex(b)) < 1e-6, (coeffs, mine, ref)


def test_roots_residual_bound(monkeypatch):
    monkeypatch.setattr(tmcorr.spectral, "ROOT_TOL", 1e-8)
    p = MonicIntPolynomial(coeffs=(2, -5, 4, 0, -2, 1))
    for z in roots(p):
        assert abs(p(z)) <= 1e-6 * (1 + abs(z)) ** p.degree
        # the acceptance bound: backward error against sum |c_k| |z|^k
        assert abs(p(z)) <= 1e-8 * sum(abs(c) * abs(z) ** k
                                       for k, c in enumerate(p.coeffs))


def test_roots_repeat_each_root_by_its_exact_multiplicity():
    # (x - 1)^2 (x^3 - x + 2) x^3: the repeated roots come back as exact copies
    p = MonicIntPolynomial(coeffs=(0, 0, 0, 2, -5, 4, 0, -2, 1))
    zs = roots(p)
    assert zs.count(0j) == 3 and zs.count(1 + 0j) == 2 and len(zs) == 8
    assert all(abs(p(z)) < 1e-12 for z in zs)


def test_roots_coefficient_beyond_float_range_is_refused():
    for coeffs in ((10 ** 400, 0, 1), (-(10 ** 400), 1), (1, 10 ** 400, 3, 1)):
        with pytest.raises(ValueError):
            roots(MonicIntPolynomial(coeffs=coeffs))
    # in range, but Horner overflows near the roots: an error, not inf/nan
    for coeffs in ((1, 2 ** 1023, 1), (1, 0, 10 ** 308, 1)):
        with pytest.raises(RootFindingError) as info:
            roots(MonicIntPolynomial(coeffs=coeffs))
        assert info.value.residuals


def _shared_real_part_products(count, seed):
    # (x - a)^2 + b^2 for two or three b and one a: all roots a +- bi lie on
    # one vertical line, where pairing by sorted real parts goes wrong
    rng = random.Random(seed)
    for _ in range(count):
        a, coeffs = rng.randint(-5, 5), [1]
        for b in rng.sample(range(1, 8), rng.randint(2, 3)):
            coeffs = _poly_mul(coeffs, [a * a + b * b, -2 * a, 1])
        yield tuple(coeffs)


def test_roots_conjugate_symmetry():
    p = MonicIntPolynomial(coeffs=(3, 1, -2, 0, 1))
    zs = roots(p)
    conj = sorted((z.conjugate() for z in zs), key=lambda z: (z.real, z.imag))
    assert all(abs(a - b) == 0 for a, b in
               zip(sorted(zs, key=lambda z: (z.real, z.imag)), conj))
    transfer = [char_poly(build_transfer(q)).coeffs for q in range(3, 64, 2)]
    products = list(_shared_real_part_products(300, 2026))
    for coeffs in transfer + products:
        zs = roots(MonicIntPolynomial(coeffs=coeffs))
        conj = sorted((z.conjugate() for z in zs), key=lambda z: (z.real, z.imag))
        assert zs == conj, coeffs
    near = lambda z: (round(z.real, 6), round(z.imag, 6))
    for coeffs in products:
        mine = sorted(roots(MonicIntPolynomial(coeffs=coeffs)), key=near)
        ref = sorted(map(complex, np.roots(coeffs[::-1])), key=near)
        assert len(mine) == len(ref)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(mine, ref)), (coeffs, mine, ref)


def test_roots_refuse_an_unbalanced_conjugate_split(monkeypatch):
    # (x - 1)(x^2 + 2x + 5); flipping the lower root into the upper half-plane
    # leaves one root twice and its conjugate never: that attempt must fail
    p = MonicIntPolynomial(coeffs=(-5, 3, 1, 1))
    want = [complex(-1, -2), complex(-1, 2), 1 + 0j]
    true_aberth = tmcorr.spectral._aberth
    flips = []

    def flip_lower_root(terms, zs):
        true_aberth(terms, zs)
        if len(flips) < flips_allowed:
            i = min(range(len(zs)), key=lambda i: zs[i].imag)
            zs[i] = zs[i].conjugate()
            flips.append(i)

    monkeypatch.setattr(tmcorr.spectral, "_aberth", flip_lower_root)
    flips_allowed = math.inf
    with monkeypatch.context() as patch:
        patch.setattr(tmcorr.spectral, "RESTARTS", 0)
        with pytest.raises(RootFindingError):
            roots(p)
    flips_allowed = len(flips) + 1                # the first attempt only
    zs = roots(p)
    assert len(flips) == 2 and len(zs) == 3
    assert all(abs(z - w) <= 1e-12 for z, w in zip(zs, want)), zs


@pytest.mark.parametrize("coeffs", [
    (0, -1, 0, 1),                  # x^3 - x: zero constant term
    (0, -1, 0, 0, 0, 1),            # x^5 - x
    (1, 0, 0, 0, 1),                # x^4 + 1: gaps
    (1, 0, 0, 1, 0, 0, 1),          # x^6 + x^3 + 1: gaps, collinear hull points
    (1, -1000, 1),                  # x^2 - 1000x + 1: two Newton-polygon circles
])
def test_roots_from_newton_polygon_starts_on_hard_patterns(coeffs, monkeypatch):
    starts = []
    true_aberth = tmcorr.spectral._aberth

    def record_starts(terms, zs):
        starts.append(list(zs))
        true_aberth(terms, zs)

    monkeypatch.setattr(tmcorr.spectral, "_aberth", record_starts)
    monkeypatch.setattr(tmcorr.spectral, "RESTARTS", 0)
    deg = len(coeffs) - 1
    zs = roots(MonicIntPolynomial(coeffs=coeffs))
    assert len(starts) == 1 and len(set(starts[0])) == len(starts[0]) == deg
    assert len(zs) == deg
    conj = sorted((z.conjugate() for z in zs), key=lambda z: (z.real, z.imag))
    assert zs == conj, zs
    near = lambda z: (round(z.real, 6), round(z.imag, 6))
    ref = sorted(map(complex, np.roots(coeffs[::-1])), key=near)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(sorted(zs, key=near), ref)), (zs, ref)


def test_aberth_work_on_the_transfer_polynomials(monkeypatch):
    # starts on twice the Fujiwara bound took 24,984 Horner evaluations here;
    # the Newton-polygon starts take about a third of that
    calls = []
    true_horner = tmcorr.spectral._horner

    def counted(terms, z):
        calls.append(z)
        return true_horner(terms, z)

    monkeypatch.setattr(tmcorr.spectral, "_horner", counted)
    yun = {q: roots(char_poly(build_transfer(q))) for q in range(3, 64, 2)}
    assert len(calls) <= 12_000, len(calls)
    # Yun on the product and the coprime pieces of the two mirror blocks give
    # the same spectrum (at most 3.5e-14 apart here)
    for q, zs in yun.items():
        report = spectral_report(build_transfer(q)).roots
        pieces = [z for z, m in report for _ in range(m)]
        assert len(zs) == len(pieces) == q
        assert all(abs(a - b) <= 1e-9 for a, b in zip(zs, pieces)), q


def test_roots_sum_and_product_match_trace_and_det(monkeypatch):
    monkeypatch.setattr(tmcorr.spectral, "ROOT_TOL", 1e-7)
    rng = random.Random(99)
    for n in (3, 4, 5):
        M = _random_matrix(rng, n)
        p = char_poly(M)
        zs = roots(p)
        trace = sum(M[i][i] for i in range(n))
        scale = max(1.0, abs(trace))
        assert abs(sum(zs) - trace) <= 1e-8 * scale
        det = (-1) ** n * p.coeffs[0]
        prod = 1 + 0j
        for z in zs:
            prod *= z
        assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))


def test_roots_nonconvergence_reports_residuals(monkeypatch):
    for name, value in (("ROOT_TOL", 1e-30), ("MAX_ITERATIONS", 1), ("RESTARTS", 0)):
        monkeypatch.setattr(tmcorr.spectral, name, value)
    p = MonicIntPolynomial(coeffs=(1, 5, -3, 2, 0, -7, 1, 4, -1, 2, 1))
    with pytest.raises(RootFindingError) as info:
        roots(p)
    assert info.value.residuals


def test_cluster_roots_groups_near_duplicates():
    clusters = cluster_roots([1 + 0j, 1 + 1e-9j, 2 + 0j])
    assert sorted(m for _, m in clusters) == [1, 2]


def _cluster_roots_oracle(zs, tol=1e-6):
    """cluster_roots as a list of members per cluster, its center recomputed
    at every comparison, each sum written as left-to-right + from 0."""
    def mean(members):
        total = 0
        for z in members:
            total = total + z
        return total / len(members)

    clusters = []
    for z in sorted(zs, key=lambda z: (z.real, z.imag)):
        for members in clusters:
            center = mean(members)
            if abs(z - center) <= tol * (1.0 + abs(center)):
                members.append(z)
                break
        else:
            clusters.append([z])
    return [(mean(ms), len(ms)) for ms in clusters]


def test_cluster_roots_centers_match_the_member_list_oracle_bitwise():
    rng = random.Random(4242)
    largest = 0
    for _ in range(200):
        zs = []
        for _ in range(rng.randrange(1, 9)):
            z = complex(rng.choice((0.0, -0.0, rng.gauss(0, 1))),
                        rng.choice((0.0, -0.0, rng.gauss(0, 1))))
            kind = rng.randrange(4)
            group = [z]
            if kind == 0:                          # exact duplicates
                group *= rng.randrange(2, 5)
            elif kind == 1:                        # near-duplicates at 1e-9
                group += [z + 1e-9 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(rng.randrange(1, 5))]
            elif kind == 2:                        # a conjugate pair
                group.append(z.conjugate())
            zs += group
        rng.shuffle(zs)
        want = _cluster_roots_oracle(zs)
        got = cluster_roots(zs)
        assert got == want and repr(got) == repr(want), zs
        largest = max(largest, max(m for _, m in got))
    assert largest >= 4


def _poly_divmod(a, b):
    """Division with remainder for ascending Fraction coefficient lists."""
    rem = a[:]
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 1)
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        quot[shift] = factor
        for i in range(len(b)):
            rem[shift + i] -= factor * b[i]
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def fraction_gcd_oracle(a, b):
    """Euclid over the rationals, scaled to the primitive integer gcd.

    Needs nonzero leading coefficients (b's especially)."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while fb and any(fb):
        _, r = _poly_divmod(fa, fb)
        fa, fb = fb, r
    denom = math.lcm(*(f.denominator for f in fa))
    ints = [int(f * denom) for f in fa]
    content = math.gcd(*(abs(v) for v in ints))
    ints = [v // content for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def prs_gcd_oracle(a, b):
    """Primitive pseudo-remainder sequence: each step takes the lead(b)-scaled
    remainder of a by b, then divides out its content."""
    a, b = tmcorr.spectral._primitive(a), tmcorr.spectral._primitive(b)
    while b:
        lead, db = b[-1], len(b) - 1
        r = a
        while len(r) > db:
            f = r.pop()
            shift = len(r) - db
            r = [lead * c for c in r]
            for i in range(db):
                r[shift + i] -= f * b[i]
            while r and r[-1] == 0:
                r.pop()
        a, b = b, tmcorr.spectral._primitive(r)
    return tuple(a) if a else (0,)


def _count_evaluation_points(monkeypatch):
    """Record the k of every base-2^k digit read: one per evaluation point of
    int_poly_gcd (and one per _poly_product)."""
    points = []
    unpack = tmcorr.spectral._unpack

    def counted(n, k):
        points.append(k)
        return unpack(n, k)

    monkeypatch.setattr(tmcorr.spectral, "_unpack", counted)
    return points


def _random_poly(rng, deg):
    """Degree-deg coefficients in -9..9 with a nonzero leading one."""
    return ([rng.randrange(-9, 10) for _ in range(deg)]
            + [rng.choice((-9, -4, -1, 1, 2, 7))])


def test_int_poly_gcd_matches_fraction_oracle_planted_factor():
    rng = random.Random(77)
    for _ in range(300):
        g = _random_poly(rng, rng.randrange(0, 5))
        a = _poly_mul(g, _random_poly(rng, rng.randrange(0, 7)))
        b = _poly_mul(g, _random_poly(rng, rng.randrange(0, 7)))
        got = int_poly_gcd(tuple(a), tuple(b))
        assert got == fraction_gcd_oracle(a, b), (a, b)
        assert len(got) >= len(g)                       # the planted factor
        assert got[-1] > 0 and math.gcd(*got) == 1


def test_int_poly_gcd_non_primitive_inputs():
    rng = random.Random(78)
    for _ in range(100):
        g = _random_poly(rng, rng.randrange(1, 4))
        a = [rng.choice((-12, 6, 10)) * c for c in _poly_mul(g, _random_poly(rng, 3))]
        b = [rng.choice((-4, 15, 30)) * c for c in _poly_mul(g, _random_poly(rng, 2))]
        got = int_poly_gcd(tuple(a), tuple(b))
        assert got == fraction_gcd_oracle(a, b), (a, b)
        assert got == int_poly_gcd(tuple(b), tuple(a))


def test_int_poly_gcd_derivatives_of_transfer_polys():
    # the Fraction oracle takes seconds per q beyond 41; the PRS oracle covers the rest
    for q in range(3, 64, 2):
        p = char_poly(build_transfer(q))
        oracle = fraction_gcd_oracle if q <= 41 else prs_gcd_oracle
        assert int_poly_gcd(p.coeffs, _derivative(p.coeffs)) == \
            oracle(p.coeffs, _derivative(p.coeffs)), q


def test_prs_oracle_matches_fraction_oracle():
    rng = random.Random(79)
    for _ in range(200):
        g = _random_poly(rng, rng.randrange(0, 5))
        a = _poly_mul(g, _random_poly(rng, rng.randrange(0, 7)))
        b = _poly_mul(g, _random_poly(rng, rng.randrange(0, 7)))
        assert prs_gcd_oracle(a, b) == fraction_gcd_oracle(a, b), (a, b)


def test_int_poly_gcd_on_every_gcd_of_spectral_report(monkeypatch):
    # every gcd that Yun's steps and the piece splits take, against the PRS,
    # each settled at its first evaluation point (one digit read; none for a
    # zero argument), which is what makes the heuristic gcd fast here; the
    # cofactors it hands back times the gcd give both arguments again
    points = _count_evaluation_points(monkeypatch)
    cofactors, calls = tmcorr.spectral._gcd_cofactors, []

    def recorded(a, b):
        start = len(points)
        out = cofactors(a, b)
        calls.append((a, b, out, len(points) - start))
        return out

    monkeypatch.setattr(tmcorr.spectral, "_gcd_cofactors", recorded)
    for q in range(3, 64, 2):
        spectral_report(build_transfer(q))
    assert len(calls) == 174
    for a, b, (g, a_g, b_g), reads in calls:
        assert g == prs_gcd_oracle(a, b), (a, b)
        assert reads == (1 if any(a) and any(b) else 0), (a, b, reads)
        for x, x_g in ((a, a_g), (b, b_g)):
            assert (tmcorr.spectral._poly_product(g, x_g) if x_g else []) == _stripped(x), (a, b)
    assert sum(len(g) > 1 and any(a) and any(b) for a, b, (g, _, _), _ in calls) == 20


def test_int_poly_gcd_retries_when_the_candidate_does_not_divide(monkeypatch):
    points = _count_evaluation_points(monkeypatch)
    candidates = []
    primitive = tmcorr.spectral._primitive

    def recorded(p):
        candidates.append(primitive(p))
        return candidates[-1]

    monkeypatch.setattr(tmcorr.spectral, "_primitive", recorded)
    # (x + 1)(x^3 + x^2 - 2) and (x + 1)(x^2 + x + 3): gcd(a(16), b(16)) = 425
    # reads as 2x^2 - 5x - 7 = (x + 1)(2x - 7), which divides neither
    a, b = (-2, -2, 1, 2, 1), (3, 4, 2, 1)
    for scale_a, scale_b in ((1, 1), (6, -10)):
        candidates.clear()
        points.clear()
        scaled = [scale_a * c for c in a], [scale_b * c for c in b]
        got = int_poly_gcd(*map(tuple, scaled))
        assert got == (1, 1) == fraction_gcd_oracle(*scaled)
        assert points == [4, 8]
        assert candidates[2:] == [[-7, -5, 2], [1, 1]]      # after pp(a), pp(b)
    # coefficients near 2^200, with a planted factor and a content
    rng = random.Random(80)

    def big():
        return rng.randrange(-2 ** 200, 2 ** 200)

    for _ in range(20):
        g = [big() for _ in range(rng.randrange(1, 4))] + [2 ** 200 + rng.randrange(9)]
        a = [6 * c for c in _poly_mul(g, [big() for _ in range(rng.randrange(0, 4))] + [1])]
        b = [-10 * c for c in _poly_mul(g, [big() for _ in range(rng.randrange(0, 4))] + [3])]
        got = int_poly_gcd(tuple(a), tuple(b))
        assert got == fraction_gcd_oracle(a, b) == prs_gcd_oracle(a, b), (a, b)
        assert len(got) >= len(g)


def test_poly_product_matches_the_double_loop():
    rng = random.Random(81)
    for _ in range(300):
        size = rng.choice((1, 3, 2 ** 40, 2 ** 200))
        a = [rng.randrange(-size, size + 1) for _ in range(rng.randrange(0, 9))]
        b = [rng.randrange(-size, size + 1) for _ in range(rng.randrange(0, 9))]
        a, b = a + [rng.choice((-size, size))], b + [rng.choice((-1, size))]
        assert tmcorr.spectral._poly_product(a, b) == _poly_mul(a, b), (a, b)


def test_int_poly_gcd_zero_and_trailing_zero_inputs():
    # zero divisor: the primitive, positively led part of the other input
    assert int_poly_gcd((-3, -12, 36, -36, -15, -9, -12, 0), (0, 0)) == \
        (1, 4, -12, 12, 5, 3, 4)
    assert int_poly_gcd((0,), (4, -2)) == (-2, 1)
    assert int_poly_gcd((0, 0), (0,)) == (0,)
    assert int_poly_gcd((), ()) == (0,)
    # trailing zeros on the divisor are not a zero leading coefficient
    assert int_poly_gcd((-1, 0, 1), (-2, 2, 0)) == (-1, 1)
    assert int_poly_gcd((6, 0, 0), (-9, 0)) == (1,)


def _stripped(p):
    """p without trailing zeros, as a list."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def test_gcd_cofactors_give_both_arguments_back():
    # g times each cofactor is the argument, also for a content, a sign,
    # trailing zeros and a zero argument, whose cofactors need no division
    rng = random.Random(82)
    cases = [((-3, -12, 36, -36, -15, -9, -12, 0), (0, 0)), ((0,), (4, -2)), ((0, 0), (0,)),
             ((6, 0, 0), (-9, 0)), ((-1, 0, 1), (-2, 2, 0)), ((0, -6), ()), ((5,), (-10,))]
    for _ in range(50):   # a planted factor, a content and a trailing zero or not
        g = _random_poly(rng, rng.randrange(0, 4))
        cases.append(tuple(tuple([s * c for c in _poly_mul(g, _random_poly(rng, 3))]
                                 + [0] * rng.randrange(2)) for s in (-6, rng.choice((1, 4)))))
    for a, b in cases:
        g, a_g, b_g = tmcorr.spectral._gcd_cofactors(a, b)
        assert g == int_poly_gcd(a, b) == prs_gcd_oracle(a, b), (a, b)
        for x, x_g in ((a, a_g), (b, b_g)):
            assert _stripped(_poly_mul(g, x_g)) == _stripped(x), (a, b, g, x_g)


def _power(a, m):
    out = [1]
    for _ in range(m):
        out = _poly_mul(out, a)
    return out


def _rebuild(factors):
    out = [1]
    for f, m in factors:
        out = _poly_mul(out, _power(list(f), m))
    return tuple(out)


def _is_one(g):
    return len(g) == 1


def _poly_deriv(a):
    return [k * c for k, c in enumerate(a)][1:]


def test_square_free_factors_rebuild_planted_products():
    rng = random.Random(515)
    for _ in range(150):
        planted = [(_random_poly(rng, rng.randrange(1, 4)), rng.randrange(1, 5))
                   for _ in range(rng.randrange(1, 4))]
        unit = rng.choice((1, 1, 1, -1, 6, -10))           # content and sign
        p = _rebuild([((unit,), 1)] + planted)
        factors = square_free_factors(p)
        assert _rebuild(factors) == tuple(p), (planted, factors)
        nonconstant = [(f, m) for f, m in factors if len(f) > 1]
        assert [m for _, m in nonconstant] == sorted({m for _, m in nonconstant})
        for i, (f, _) in enumerate(nonconstant):
            assert f[-1] > 0 and math.gcd(*f) == 1
            assert _is_one(fraction_gcd_oracle(f, _poly_deriv(f))), f
            for g, _ in nonconstant[i + 1:]:
                assert _is_one(fraction_gcd_oracle(f, g)), (f, g)
        # planted square-free, pairwise coprime g_i: f_m is their product
        gs = [g for g, _ in planted]
        if all(_is_one(fraction_gcd_oracle(g, _poly_deriv(g))) for g in gs) and \
                all(_is_one(fraction_gcd_oracle(g, h))
                    for i, g in enumerate(gs) for h in gs[i + 1:]):
            for f, m in nonconstant:
                want = [1]
                for g, mg in planted:
                    if mg == m:
                        want = _poly_mul(want, g)
                sign = 1 if want[-1] > 0 else -1
                content = math.gcd(*want)
                assert f == tuple(sign * c // content for c in want)
            assert {m for _, m in nonconstant} == {m for _, m in planted}


def test_square_free_factors_powers_of_x_and_x_minus_1():
    for k in range(1, 9):
        assert square_free_factors((0,) * k + (1,)) == [((0, 1), k)]
        assert square_free_factors(tuple(_power([-1, 1], k))) == [((-1, 1), k)]
        assert square_free_factors(tuple(_power([1, -1], k))) == \
            ([((-1,), 1)] if k % 2 else []) + [((-1, 1), k)]
    # x^3 (x - 1)^2 (x^3 - x + 2), and a content of 6
    p = _poly_mul(_poly_mul(_power([0, 1], 3), _power([-1, 1], 2)), [2, -1, 0, 1])
    assert square_free_factors(p) == [((2, -1, 0, 1), 1), ((-1, 1), 2), ((0, 1), 3)]
    assert square_free_factors([6 * c for c in p])[0] == ((6,), 1)
    assert square_free_factors((5,)) == [((5,), 1)]
    with pytest.raises(ValueError):
        square_free_factors((0, 0))


def test_square_free_factors_of_transfer_polys():
    for q in range(3, 64, 2):
        p = char_poly(build_transfer(q))
        factors = square_free_factors(p.coeffs)
        assert _rebuild(factors) == p.coeffs
        assert all(f[-1] == 1 for f, _ in factors)
        repeated = sum((m - 1) * (len(f) - 1) for f, m in factors)
        assert repeated == len(int_poly_gcd(p.coeffs, _derivative(p.coeffs))) - 1


def _check_pieces(polys):
    pieces = tmcorr.spectral._coprime_pieces(polys)
    product = [1]
    for p in polys:
        product = _poly_mul(product, list(p))
    assert _rebuild(pieces) == tuple(product), pieces
    for i, (f, _) in enumerate(pieces):
        assert len(f) > 1 and f[-1] == 1, f
        assert _is_one(fraction_gcd_oracle(f, _poly_deriv(f))), f
        for g, _ in pieces[i + 1:]:
            assert _is_one(fraction_gcd_oracle(f, g)), (f, g)
    return sorted((tuple(f), m) for f, m in pieces)


def test_coprime_pieces_of_hand_made_inputs():
    x1, x2, c = [-1, 1], [2, 0, 1], [1, 1, 0, 1]          # x-1, x^2+2, x^3+x+1
    # a factor shared across the inputs
    assert _check_pieces([_poly_mul(x1, x2), _poly_mul(x1, c)]) == \
        sorted([(tuple(x1), 2), (tuple(x2), 1), (tuple(c), 1)])
    # a factor repeated in one input, and shared with the other
    assert _check_pieces([_poly_mul(_power(x1, 2), c), _poly_mul(x1, x2)]) == \
        sorted([(tuple(x1), 3), (tuple(x2), 1), (tuple(c), 1)])
    assert _check_pieces([_power(x2, 3), x1]) == sorted([(tuple(x2), 3), (tuple(x1), 1)])
    # coprime inputs, and a factor shared by three inputs with different powers
    assert _check_pieces([x2, c]) == sorted([(tuple(x2), 1), (tuple(c), 1)])
    assert _check_pieces([_poly_mul(x1, x2), _power(x1, 2), _poly_mul(x2, c)]) == \
        sorted([(tuple(x1), 3), (tuple(x2), 2), (tuple(c), 1)])
    # the 1 x 1 block of q = 3
    plus, minus = tmcorr.spectral._mirror_blocks(build_transfer(3))
    assert len(minus) == 1
    _check_pieces([char_poly(plus).coeffs, char_poly(minus).coeffs])


def test_coprime_pieces_of_planted_products():
    # monic factors drawn from a small pool, so the inputs share some
    rng = random.Random(616)
    for _ in range(60):
        pool = [[rng.randrange(-3, 4) for _ in range(rng.randrange(1, 3))] + [1]
                for _ in range(3)]
        polys = []
        for _ in range(rng.randrange(1, 4)):
            p = [1]
            for g in rng.sample(pool, rng.randrange(1, 4)):
                p = _poly_mul(p, _power(g, rng.randrange(1, 3)))
            polys.append(p)
        _check_pieces(polys)


def test_int_poly_gcd():
    # gcd((x-1)^2 (x^3-x+2), derivative) = (x-1)
    p = MonicIntPolynomial(coeffs=(2, -5, 4, 0, -2, 1))
    g = int_poly_gcd(p.coeffs, _derivative(p.coeffs))
    assert g == (-1, 1)
    # coprime case
    g2 = int_poly_gcd((-2, 3, -2, 1), (3, -4, 3))
    assert len(g2) == 1


# --- spectral_report ---------------------------------------------------------

def test_spectral_report_q3():
    rep = spectral_report(build_transfer(3))
    assert abs(rep.radius - math.sqrt(2)) < 1e-9
    assert abs(rep.exponent - 0.5) < 1e-9
    assert sorted(m for _, m in rep.roots) == [1, 1, 1]


def test_spectral_report_q5():
    rep = spectral_report(build_transfer(5))
    assert abs(rep.radius - 1.52138) < 1e-4
    assert abs(rep.exponent - 0.60538) < 1e-4
    # eigenvalue 1 with algebraic multiplicity 2
    double = [m for z, m in rep.roots if abs(z - 1) < 1e-6]
    assert double == [2]
    assert sum(m for _, m in rep.roots) == 5


# --- the paper's two equations: exact spectra of q = 3 and q = 5 -------------

def test_q3_characteristic_polynomial_is_x_minus_1_times_x2_minus_x_plus_2():
    assert square_free_factors(char_poly(build_transfer(3)).coeffs) == [((-2, 3, -2, 1), 1)]
    assert _poly_mul([-1, 1], [2, -1, 1]) == [-2, 3, -2, 1]
    # x^2 - x + 2 has discriminant 1 - 8 < 0: no real root, and the conjugate
    # pair has z zbar = 2 (Vieta), so lambda_S(3) = log2(sqrt 2) = 1/2 exactly
    c, b, a = 2, -1, 1
    assert b * b - 4 * a * c == -7
    pair = [z for z, _ in spectral_report(build_transfer(3)).roots if z.imag]
    assert len(pair) == 2 and all(abs(abs(z) ** 2 - c / a) < 1e-12 for z in pair)


def test_q5_characteristic_polynomial_is_x_minus_1_squared_times_x3_minus_x_plus_2():
    assert square_free_factors(char_poly(build_transfer(5)).coeffs) == \
        [((2, -1, 0, 1), 1), ((-1, 1), 2)]


def test_q5_radius_by_rational_bisection():
    # the real root of f = x^3 - x + 2 lies in [-2, -1]; bisect on a/2^60
    # with exact signs of 2^180 f(a / 2^60)
    S = 60
    f = lambda a: a ** 3 - a * 2 ** (2 * S) + 2 ** (3 * S + 1)
    lo, hi = -2 << S, -1 << S
    assert f(lo) < 0 < f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    low, high = Fraction(-hi, 2 ** S), Fraction(-lo, 2 ** S)   # |rho_5| in [low, high]
    # a double cannot sit inside a 2^-60 bracket at 1.52, so round it outward
    # to doubles; likewise one ulp past math.log2 for the exponent
    rep = spectral_report(build_transfer(5))
    assert math.nextafter(float(low), 0) <= rep.radius <= math.nextafter(float(high), math.inf)
    e_low = math.nextafter(math.log2(low), 0)
    e_high = math.nextafter(math.log2(high), math.inf)
    assert e_low <= rep.exponent <= e_high
    assert round(e_low, 6) == round(e_high, 6) == 0.605380
    # the other two roots have |z|^2 = 2 / |rho_5| < |rho_5|^2
    assert 2 < low ** 3


@pytest.mark.parametrize("q", [3, 5])
def test_gelfond_product_at_a_primitive_root_is_q(q):
    # 2 is a primitive root mod 3 and mod 5: the doubling orbit of 1 has
    # length q - 1, and prod_{a=1}^{q-1} (1 - zeta^a) = Phi_q(1) = q
    orbit, a = [], 1
    while a not in orbit:
        orbit.append(a)
        a = 2 * a % q
    assert sorted(orbit) == list(range(1, q))
    prod = [1] + [0] * (q - 1)            # in Z[x]/(x^q - 1), then mod Phi_q
    for a in orbit:
        prod = [prod[i] - prod[(i - a) % q] for i in range(q)]
    top = prod[q - 1]                     # Phi_q = 1 + x + ... + x^(q-1)
    assert [c - top for c in prod] == [q] + [0] * (q - 1)


def test_q3_dilation_sum_along_powers_of_two():
    # U_3(2^k, 2) vanishes at odd k, so shift 2's deviation slope on a
    # power-of-two ladder reads below log4 3
    for k in range(1, 300):
        assert dilation_sum(3, 2, 2 ** k) == (0 if k % 2 else -2 * 3 ** (k // 2 - 1)), k


def _dilation_step(q):
    """D_q, the step matrix of the dilation sums, from residue_rows."""
    D = [[0] * q for _ in range(q)]
    for l, (a, b) in enumerate(residue_rows(q)):
        D[l][a] += 1
        D[l][b] -= 1
    return D


def test_q3_dilation_sums_of_shifts_0_and_1_along_powers_of_two():
    # |U_3(2^k, h)| reaches 3^(k/2) = X^(log4 3) at every k for h = 0 and 1
    # (at even k for h = 2, above); D_3 = x^3 - 3x has the simple roots 0 and
    # +-sqrt 3, so log4 3 bounds them at every X too
    assert char_poly(_dilation_step(3)).coeffs == (0, -3, 0, 1)
    for k in range(1, 300):
        if k % 2:
            want = (2 * 3 ** (k // 2), -2 * 3 ** (k // 2))
        else:
            want = (4 * 3 ** (k // 2 - 1), -2 * 3 ** (k // 2 - 1))
        assert (dilation_sum(3, 0, 2 ** k), dilation_sum(3, 1, 2 ** k)) == want, k


def test_q5_correlation_sums_reach_the_cubic_roots_at_every_shift():
    # char_poly(T_5) = (x - 1)^2 (x^3 - x + 2), and the cubic has no rational
    # root, so it is irreducible: a sequence (T_5^k e)_l = S_5(2^k - 1, l) +
    # eps(l) that (x - 1)^2 does not annihilate has a nonzero, Galois-conjugate
    # part on all three cubic roots, and |S_5| reaches |rho|^k = X^0.60538...
    assert all(t ** 3 - t + 2 for t in (1, -1, 2, -2))
    # U_5 grows more slowly: D_5 = x^5 - 5x has the roots 0 and |z| = 5^(1/4),
    # below |rho|, since rho lies in (-1.53, -1.52) and 1.52^4 > 5
    assert char_poly(_dilation_step(5)).coeffs == (0, -5, 0, 0, 0, 1)
    cubic = lambda t: t ** 3 - t * 100 ** 2 + 2 * 100 ** 3     # 100^3 (x^3 - x + 2), x = t/100
    assert cubic(-152) > 0 > cubic(-153) and 152 ** 4 > 5 * 100 ** 4
    powers = _engine_powers(5, 11)
    for l in range(5):
        a = [v[l] for v in powers]
        assert any(a[k + 2] - 2 * a[k + 1] + a[k] for k in range(10)), l


def test_spectral_report_every_odd_q_matches_numpy():
    for q in range(3, 64, 2):
        M = build_transfer(q)
        rep = spectral_report(build_transfer(q))
        radius = float(max(abs(np.linalg.eigvals(np.array(M, dtype=float)))))
        assert abs(rep.radius - radius) <= 1e-9, q
        assert abs(rep.exponent - math.log2(radius)) <= 1e-9, q
        assert sum(m for _, m in rep.roots) == q
        assert rep.radius <= 2                    # Gershgorin: two +-1 per row
    assert abs(spectral_report(build_transfer(53)).exponent - 0.65319) < 1e-5


def test_spectral_report_seed_matters_only_on_restart():
    # the default start converges, so the seed leaves every byte alone
    for q in (5, 25, 31):
        want = spectral_report(build_transfer(q))
        for seed in (7, 648966):
            assert spectral_report(build_transfer(q), seed=seed) == want


def test_root_finder_builds_its_generator_on_the_first_restart(monkeypatch):
    built, starts = [], []

    class Counted(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(tmcorr.spectral, "random", types.SimpleNamespace(Random=Counted))
    for q in (5, 25, 31, 63):
        spectral_report(build_transfer(q))
    assert built == []                    # no factor of these restarts
    # a factor whose every start fails: one generator, and its draws place
    # the restart circles as the docstring of _factor_roots says
    monkeypatch.setattr(tmcorr.spectral, "_aberth", lambda terms, zs: starts.append(list(zs)))
    for name, value in (("ROOT_TOL", 1e-30), ("MAX_ITERATIONS", 5), ("RESTARTS", 3)):
        monkeypatch.setattr(tmcorr.spectral, name, value)
    f = (1, 5, -3, 2, 0, -7, 1, 4, -1, 2, 1)
    with pytest.raises(RootFindingError):
        tmcorr.spectral._factor_roots(f, 99)
    assert built == [99] and len(starts) == 4
    rng, deg = random.Random(99), len(f) - 1
    fujiwara = 2.0 * max(abs(f[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
    for zs in starts[1:]:
        jitter, radius = rng.random(), fujiwara * (0.5 + rng.random())
        assert zs == [radius * cmath.exp(2j * math.pi * (k + jitter) / deg) for k in range(deg)]


def test_spectral_report_rejects_clustered_and_out_of_bound_roots(monkeypatch):
    true_factor_roots = tmcorr.spectral._factor_roots
    system = build_transfer(5)
    key = lambda z: (z.real, z.imag)

    def clustered(f, seed):   # two distinct roots 1e-9 apart
        zs = sorted(true_factor_roots(f, seed), key=key)
        return sorted(zs + [zs[0] + 1e-9], key=key)[:-1]

    def scaled(f, seed):      # radius 3.04 > Gershgorin 2
        return [2 * z for z in true_factor_roots(f, seed)]

    monkeypatch.setattr(tmcorr.spectral, "_factor_roots", clustered)
    with pytest.raises(RootFindingError, match="distinct roots cluster"):
        spectral_report(system)
    monkeypatch.setattr(tmcorr.spectral, "_factor_roots", scaled)
    with pytest.raises(RootFindingError, match="Gershgorin"):
        spectral_report(system)


def test_spectral_report_splits_each_block_once_and_no_piece_again(monkeypatch):
    calls = []
    true_factors = tmcorr.spectral.square_free_factors

    def counted(coeffs):
        calls.append(tuple(coeffs))
        return true_factors(coeffs)

    monkeypatch.setattr(tmcorr.spectral, "square_free_factors", counted)
    for q in range(3, 64, 2):
        calls.clear()
        spectral_report(build_transfer(q))
        assert len(calls) == 2, (q, calls)              # once per mirror block
    # roots itself still splits a polynomial with repeated factors:
    # (x + 2)^3 (x^2 + x + 1)^2 (x - 1)^2
    coeffs = [1]
    for factor in [(2, 1)] * 3 + [(1, 1, 1)] * 2 + [(-1, 1)] * 2:
        coeffs = _poly_mul(coeffs, list(factor))
    calls.clear()
    zs = roots(MonicIntPolynomial(coeffs=tuple(coeffs)))
    assert calls == [tuple(coeffs)]
    assert zs[:3] == [-2, -2, -2] and zs[7:] == [1, 1]
    w = complex(-0.5, math.sqrt(3) / 2)
    assert zs[3] == zs[4] == zs[5].conjugate() == zs[6].conjugate()
    assert abs(zs[5] - w) <= 1e-12, zs


def test_spectral_report_deterministic():
    a = spectral_report(build_transfer(7))
    b = spectral_report(build_transfer(7))
    assert a.roots == b.roots and a.exponent == b.exponent
    assert a.radius > 1


def test_transfer_mirror_blocks_multiply_to_the_full_polynomial():
    # the full-matrix Faddeev-LeVerrier is the oracle for the block product
    for q in range(3, 64, 2):
        T = build_transfer(q)
        assert all(T[q - 1 - i][q - 1 - j] == T[i][j] for i in range(q) for j in range(q)), q
        plus, minus = tmcorr.spectral._mirror_blocks(T)
        assert (len(plus), len(minus)) == (q // 2 + 1, q // 2)
        product = _poly_mul(list(char_poly(plus).coeffs), list(char_poly(minus).coeffs))
        assert tuple(product) == char_poly(T).coeffs, q
        assert spectral_report(build_transfer(q)).poly.coeffs == tuple(product), q


def test_spectral_report_refuses_a_matrix_without_the_mirror_symmetry():
    for transfer in (((1, 1, 0), (0, 1, 1), (1, 0, 0)), ((1, 0), (0, 1))):
        with pytest.raises(ValueError, match="centrosymmetric"):
            spectral_report(transfer)


def test_spectral_report_of_order_one_and_its_refusals():
    # order 1 has an empty antisymmetric block, which contributes 1
    rep = spectral_report(((5,),))
    assert rep.poly.coeffs == (-5, 1)
    assert rep.roots == ((5, 1),) and rep.radius == 5
    with pytest.raises(ValueError, match="matrix must be square"):
        spectral_report(((1, 1),))
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        spectral_report(())
    with pytest.raises(ValueError, match="spectral radius is 0"):
        spectral_report(((0, 0, 0),) * 3)


def _eigenvalue_one(q):
    rep = spectral_report(build_transfer(q))
    return [m for z, m in rep.roots if abs(z - 1) < 1e-6]


@pytest.mark.parametrize("q", [7, 9, 15, 31, 33, 51, 63])
def test_eigenvalue_one_in_both_blocks_is_listed_once(q):
    T = build_transfer(q)
    assert _eigenvalue_one(q) == [2]
    assert q - jordan_block_check(T, 1) == 2               # T is derogatory at 1
    for block in tmcorr.spectral._mirror_blocks(T):        # one eigenvector in each
        assert sum(char_poly(block).coeffs) == 0
        assert len(block) - jordan_block_check(block, 1) == 1


def test_eigenvalue_one_of_q5_lies_in_one_block():
    T = build_transfer(5)
    plus, minus = tmcorr.spectral._mirror_blocks(T)
    assert char_poly(minus).coeffs == (1, -2, 1)            # (x - 1)^2
    assert sum(char_poly(plus).coeffs) != 0
    assert _eigenvalue_one(5) == [2]
    assert 5 - jordan_block_check(T, 1) == 1


def test_char_poly_work_on_the_mirror_blocks(monkeypatch):
    # spectral_report hands char_poly's kernel the two mirror blocks, of
    # orders q//2 + 1 and q//2, never T_q: n^2 (n - 1) summed over the orders
    # it gets is about a quarter of sum q^2 (q - 1)
    true_char_poly = tmcorr.spectral._char_poly
    seen = []

    def recorded(M):
        seen.append(tuple(map(tuple, M)))
        return true_char_poly(M)

    monkeypatch.setattr(tmcorr.spectral, "_char_poly", recorded)
    work = 0
    for q in range(3, 64, 2):
        T, h = build_transfer(q), q // 2
        plus = tuple(tuple([row[k] + row[q - 1 - k] for k in range(h)] + [row[h]])
                     for row in T[:h + 1])
        minus = tuple(tuple(row[k] - row[q - 1 - k] for k in range(h)) for row in T[:h])
        seen.clear()
        spectral_report(T)
        assert seen == [plus, minus], q
        assert [len(M) for M in seen] == [h + 1, h], q
        work += sum(n * n * (n - 1) for n in map(len, seen))
    full = sum(q * q * (q - 1) for q in range(3, 64, 2))
    assert work <= 0.3 * full, (work, full)


# --- power growth: the engine walks the powers of T_q ------------------------

def _engine_powers(q, J):
    """[T_q^j e for j = 0..J], e = (eps(s))_s, read from the engine: along
    X = 2^j - 1 every bit is the step V <- T_q V, so S_q(X, s) + eps(s) is
    entry s of T_q^j e."""
    e = [eps(s) for s in range(q)]
    sums = shift_vectors(q, [2**j - 1 for j in range(J + 1)])
    return [[v + es for v, es in zip(sums[2**j - 1], e)] for j in range(J + 1)]


def test_power_growth_matches_exact_matrix_powers():
    # the matrix that spectral_report analyses is the step of the sums
    for q in range(3, 64, 2):
        T = build_transfer(q)
        vec = [eps(s) for s in range(q)]
        for j, got in enumerate(_engine_powers(q, 40)):
            assert got == vec, (q, j)
            vec = [sum(t * v for t, v in zip(row, vec)) for row in T]


def test_power_growth_q3_ratio_band():
    # calibrated band for max |(T^j e)_s| / 2^(j/2)
    for j, vec in enumerate(_engine_powers(3, 40)[8:], start=8):
        ratio = max(map(abs, vec)) / 2 ** (j / 2)
        assert 0.3 <= ratio <= 3.0, (j, ratio)


def test_power_growth_q5_ratio_band():
    rho = 1.5213797068045676
    for j, vec in enumerate(_engine_powers(5, 40)[8:], start=8):
        ratio = max(map(abs, vec)) / rho ** j
        assert 0.05 <= ratio <= 5.0, (j, ratio)


def test_jordan_requires_integer_eigenvalue():
    with pytest.raises(ValueError):
        jordan_block_check(((1, 0), (0, 1)), 1.0)


# --- jordan block structure --------------------------------------------------

def test_jordan_identity():
    ident3 = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert jordan_block_check(ident3, 1) == 0


def test_jordan_q5_transfer():
    # rank 4 at eigenvalue 1: geometric multiplicity 1, so the double
    # eigenvalue sits in a single 2x2 Jordan block
    assert jordan_block_check(build_transfer(5), 1) == 4


def test_jordan_q3_transfer():
    assert jordan_block_check(build_transfer(3), 1) == 2


def _pivot_columns(M):
    """The pivot columns of M by Gaussian elimination over Fraction: an oracle
    for the rank that shares no arithmetic with the integer Bareiss steps."""
    rows = [[Fraction(v) for v in row] for row in M]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def test_jordan_random_rank_oracle():
    # B = M - ev I is random, or has columns that combine earlier ones (zero
    # combinations too), or is a product of rank <= k; the dependent columns
    # get no pivot, where the exactness of Bareiss' division needs care
    rng = random.Random(55)
    gaps = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            k = rng.randrange(n)
            left, right = _random_matrix(rng, n), _random_matrix(rng, n)
            dependent = [list(row) for row in _random_matrix(rng, n)]
            for j in rng.sample(range(1, n), rng.randint(1, n - 1)):
                c = [rng.randint(-2, 2) for _ in range(j)]
                for row in dependent:
                    row[j] = sum(x * y for x, y in zip(c, row))
            product = [[sum(row[t] * right[t][j] for t in range(k)) for j in range(n)]
                       for row in left]
            for B in (_random_matrix(rng, n), dependent, product):
                ev = rng.randint(-3, 3)
                M = tuple(tuple(v + ev * (i == j) for j, v in enumerate(row))
                          for i, row in enumerate(B))
                pivots = _pivot_columns(B)
                assert jordan_block_check(M, ev) == len(pivots), (B, ev)
                assert len(pivots) == np.linalg.matrix_rank(np.array(B, dtype=float)), B
                gaps += pivots != list(range(len(pivots)))
    assert gaps >= 40                     # a column without a pivot before a later pivot
