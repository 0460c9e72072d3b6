"""Exact characteristic polynomials and complex spectra of integer matrices.

Matrices are plain sequences of equal-length integer rows.  The
characteristic polynomial is computed exactly by the Faddeev-LeVerrier
trace recursion over Python integers; each step combines the rows named by
the nonzero entries of each row only, so a transfer matrix (two +-1 entries
per row) costs n^2 additions per step, not n^3.  The polynomial is split
exactly into square-free factors (Yun's algorithm, with integer gcds and
exact division), so root multiplicities are exact.  The simple roots of each
factor are found by Aberth-Ehrlich iteration (Bini 1996) on float copies of
its coefficients, started on their Newton-polygon circles (restarts use
Fujiwara-bound circles), and accepted on a backward-error bound.  The spectral
radius of a correlation transfer matrix predicts the growth exponent
log2(radius) of the correlation sums; spectral_report takes that matrix and
finds the radius on the two half-size mirror blocks of the centrosymmetric
matrix.
"""

import cmath
import math
import random
from collections import namedtuple
from itertools import zip_longest
from operator import add, neg, sub

MAX_DIM = 64
DEFAULT_SEED = 12345
ROOT_TOL = 1e-8      # backward-error bound of an accepted root
CLUSTER_TOL = 1e-6   # relative distance at which two roots count as one
MAX_ITERATIONS, RESTARTS = 500, 3    # Aberth budget of roots and spectral_report
# a root stops moving once |p(z)| <= this * sum |c_k| |z|**k: about twice
# the machine epsilon, below which Horner's own rounding decides the value
FREEZE_BACKWARD_ERROR = 4e-16

IntMatrix = tuple[tuple[int, ...], ...]


class RootFindingError(RuntimeError):
    """Root finding missed its backward-error bound or a spectral check."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(f"{message}; residuals={residuals}")
        self.residuals = residuals


def _as_matrix(M) -> IntMatrix:
    rows = tuple([tuple(row) for row in M])   # tuple(generator) reallocates as it grows
    n = len(rows)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for v in row:
            if not isinstance(v, int):
                raise ValueError("matrix entries must be integers")
    return rows


def _nonzero_rows(A: IntMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row, the (column, value) pairs of its nonzero entries."""
    return tuple([tuple([(t, v) for t, v in enumerate(row) if v]) for row in A])


def _row_combination(nonzero: tuple[tuple[int, int], ...], B) -> list[int]:
    """sum(v * B[t]) over the nonzero (t, v) of one row: a row of A @ B, in one
    pass; one-entry and +-1 two-entry rows (all transfer-block rows) use map."""
    if len(nonzero) == 1:
        (t, v), = nonzero
        return list(map(v.__mul__, B[t]))
    if len(nonzero) == 2:
        (t, v), (u, w) = nonzero
        if v == w == 1:
            return list(map(add, B[t], B[u]))
        if v == w == -1:
            return list(map(neg, map(add, B[t], B[u])))
        if v == -w == 1:
            return list(map(sub, B[t], B[u]))
        if w == -v == 1:
            return list(map(sub, B[u], B[t]))
        return [v * x + w * y for x, y in zip(B[t], B[u])]
    return [sum(v * B[t][j] for t, v in nonzero) for j in range(len(B))]


class MonicIntPolynomial(namedtuple("MonicIntPolynomial", "coeffs")):
    """Monic polynomial with integer coefficients, ascending order:
    coeffs[k] multiplies x**k and coeffs[-1] == 1."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("coefficients must be integers")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def char_poly(M) -> MonicIntPolynomial:
    """Exact characteristic polynomial det(xI - M), Faddeev-LeVerrier.

    Every trace division in the recursion is exact for integer input;
    the terminal identity M_n + c_n I = 0 is asserted as a self-check.
    """
    A = _as_matrix(M)
    n = len(A)
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds limit {MAX_DIM}")
    nonzero = _nonzero_rows(A)
    coeffs_desc = [1]
    Mk = [list(row) for row in A]
    for k in range(1, n + 1):
        c, rem = divmod(-sum(Mk[i][i] for i in range(n)), k)
        assert rem == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs_desc.append(c)
        for i in range(n):
            Mk[i][i] += c                      # Mk + c I, in place
        if k < n:
            Mk = [_row_combination(row, Mk) for row in nonzero]
    assert all(v == 0 for row in Mk for v in row), \
        "Faddeev-LeVerrier terminal identity violated"
    return MonicIntPolynomial(coeffs=tuple(reversed(coeffs_desc)))


def roots(p: MonicIntPolynomial, tol: float = ROOT_TOL, max_iterations: int = MAX_ITERATIONS,
          restarts: int = RESTARTS, seed: int = DEFAULT_SEED) -> list[complex]:
    """All complex roots of p, each repeated by its exact multiplicity.

    p is split into exact square-free factors (square_free_factors); the
    roots of each factor are found by Aberth-Ehrlich iteration and each is
    returned m times for a factor of multiplicity m, sorted by (re, im).
    A factor's iteration starts on its Newton-polygon circles
    (_newton_polygon_starts) and is accepted when every root meets the
    backward-error bound |p(z)| <= tol * sum |c_k| |z|**k once its roots
    are made conjugate-symmetric (_pair_conjugates; the coefficients are
    real).  Only if that fails, or the roots off the real axis do not split
    evenly between the half-planes, does it restart from `seed`, up to
    `restarts` times, on a random circle of 0.5 to 1.5 times the Fujiwara
    bound 2 max_k |c_{n-k}|**(1/k).  Raises RootFindingError with the
    backward errors as residuals otherwise, and ValueError beyond float range.
    """
    zs: list[complex] = []
    for f, m in square_free_factors(p.coeffs):      # monic: no constant factor
        zs.extend(_factor_roots(f, tol, max_iterations, restarts, seed) * m)
    return sorted(zs, key=lambda z: (z.real, z.imag))


def _factor_roots(f: tuple[int, ...], tol: float, max_iterations: int,
                  restarts: int, seed: int) -> list[complex]:
    """Roots of one monic square-free factor; see roots."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        cf = [float(c) for c in f]
    except OverflowError:
        raise ValueError("polynomial coefficient beyond float range") from None
    deg = len(cf) - 1
    if deg == 1:
        return [complex(-cf[0])]
    terms = [(c, abs(c)) for c in reversed(cf)]
    fujiwara = 2.0 * max(abs(cf[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
    for attempt in range(restarts + 1):
        if attempt == 0:
            zs = _newton_polygon_starts(cf)
        else:
            if attempt == 1:              # a generator only for a factor that restarts
                rng = random.Random(seed)
            jitter, radius = rng.random(), fujiwara * (0.5 + rng.random())
            zs = [radius * cmath.exp(2j * math.pi * (k + jitter) / deg) for k in range(deg)]
        _aberth(cf, zs, max_iterations)
        paired = _pair_conjugates(zs)
        residuals = [_backward_error(terms, z) for z in paired or zs]
        if paired and all(r <= tol for r in residuals):
            return paired
    raise RootFindingError("root iteration did not converge", sorted(residuals))


def _newton_polygon_starts(cf: list[float]) -> list[complex]:
    """Bini's starts: each edge k_i -> k_j of the upper hull of (k, log|c_k|), c_k != 0,
    spaces k_j - k_i points on |z| = |c_{k_i} / c_{k_j}|**(1/(k_j - k_i)), turned by
    2 pi k_i / deg so that no two coincide; a square-free factor's root 0 starts at 0."""
    deg = len(cf) - 1
    points = [(k, math.log(abs(c))) for k, c in enumerate(cf) if c]
    i, y = points[0]
    zs = [0j] * i
    while i < deg:                  # next hull vertex: steepest chord, farthest on a tie
        _, j, y = max(((b - y) / (k - i), k, b) for k, b in points if k > i)
        radius = (abs(cf[i]) / abs(cf[j])) ** (1.0 / (j - i))
        zs += [radius * cmath.exp(2j * math.pi * ((t + 0.41) / (j - i) + i / deg))
               for t in range(j - i)]
        i = j
    return zs


def _horner(terms: list[tuple[float, float]], z: complex) -> tuple[complex, complex, float]:
    """p(z), p'(z) and sum |c_k| |z|**k from the (c_k, |c_k|), descending."""
    value = slope = 0j
    scale, r = 0.0, abs(z)
    for c, a in terms:
        slope = slope * z + value
        value = value * z + c
        scale = scale * r + a
    return value, slope, scale


def _backward_error(terms: list[tuple[float, float]], z: complex) -> float:
    """|p(z)| / sum |c_k| |z|**k; inf when z or p(z) is not finite."""
    value, _, scale = _horner(terms, z)
    if not (math.isfinite(scale) and cmath.isfinite(value)):
        return math.inf
    return abs(value) / scale if scale else 0.0


def _aberth(cf: list[float], zs: list[complex], max_iterations: int) -> None:
    """Aberth-Ehrlich iteration on the approximations zs, in place.

    Each root is updated with the values already updated in the sweep
    (Gauss-Seidel); it freezes once its backward error is at rounding
    level, and the iteration ends when all are frozen.
    """
    terms = [(c, abs(c)) for c in reversed(cf)]
    live = range(len(zs))
    for _ in range(max_iterations):
        moving = []
        for i in live:
            z = zs[i]
            value, slope, scale = _horner(terms, z)
            if abs(value) <= FREEZE_BACKWARD_ERROR * scale:
                continue
            sigma = 0j
            for w in zs:
                d = z - w
                if d:                     # d == 0 for zs[i] itself
                    sigma += 1 / d
            denom = slope - value * sigma
            if denom:
                zs[i] = z - value / denom
            moving.append(i)
        if not moving:
            return
        live = moving


def _pair_conjugates(ws: list[complex]) -> list[complex] | None:
    """Snap near-real roots to the real axis and average each upper root
    with the lower root nearest its conjugate into an exact conjugate pair
    (valid for real-coefficient input); None if the halves differ in size."""
    out, upper, lower = [], [], []
    for w in ws:
        if abs(w.imag) <= 1e-9 * (1.0 + abs(w)):
            out.append(complex(w.real, 0.0))
        else:
            (upper if w.imag > 0 else lower).append(w)
    if len(upper) != len(lower):
        return None
    for w in upper:
        mate = min(lower, key=lambda v: abs(w - v.conjugate()))
        lower.remove(mate)
        re = 0.5 * (w.real + mate.real)
        im = 0.5 * (abs(w.imag) + abs(mate.imag))
        out.extend([complex(re, im), complex(re, -im)])
    return out


def cluster_roots(zs: list[complex]) -> list[tuple[complex, int]]:
    """Group numerically coincident roots into (center, multiplicity) pairs."""
    clusters: list[list] = []   # [center, sum from 0 + z as in sum(), count]
    for z in sorted(zs, key=lambda z: (z.real, z.imag)):
        for cluster in clusters:
            center, total, count = cluster
            if abs(z - center) <= CLUSTER_TOL * (1.0 + abs(center)):
                total += z
                cluster[:] = total / (count + 1), total, count + 1
                break
        else:
            clusters.append([(0 + z) / 1, 0 + z, 1])
    return [(center, count) for center, _, count in clusters]


def _primitive(p) -> list[int]:
    """p without trailing zeros over its content, leading coefficient > 0."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return p
    content = math.gcd(*p)
    if p[-1] < 0:
        content = -content
    return [c // content for c in p]


def int_poly_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd of two integer polynomials (ascending coefficients).

    Primitive pseudo-remainder sequence: each step takes the lead(b)-scaled
    remainder of a by b, then divides out its content.  The result has
    content 1 and a positive leading coefficient; gcd(0, 0) is (0,).
    """
    a, b = _primitive(a), _primitive(b)
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
        a, b = b, _primitive(r)
    return tuple(a) if a else (0,)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials (ascending) where b divides a over Z."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c, rem = divmod(a[shift + db], lead)
        if rem:
            raise ArithmeticError("polynomial division is not exact")
        quot[shift] = c
        for i in range(db + 1):
            a[shift + i] -= c * b[i]
    if any(a):
        raise ArithmeticError("polynomial division is not exact")
    while quot and quot[-1] == 0:
        quot.pop()
    return quot


def _derivative(a) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _poly_product(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def square_free_factors(coeffs) -> list[tuple[tuple[int, ...], int]]:
    """Exact square-free factorization of an integer polynomial (Yun).

    Returns [(f_m, m)] with coeffs == prod f_m**m.  The f_m of degree >= 1
    are primitive, square-free and pairwise coprime, with a positive
    leading coefficient (so monic when coeffs is monic), in increasing m;
    a constant factor other than 1 (content and sign) comes first.  Every
    gcd is int_poly_gcd and every division is exact over the integers.
    """
    f = _primitive(coeffs)
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    unit = next(c for c in reversed(coeffs) if c) // f[-1]
    factors = [((unit,), 1)] if unit != 1 else []
    df = _derivative(f)
    g = list(int_poly_gcd(f, df))
    b, c = _exact_quotient(f, g), _exact_quotient(df, g)
    m = 1
    while len(b) > 1:
        # b = prod_{j >= m} f_j and d = f_m * sum_{j > m} (j - m) f_j' prod f_l
        d = [x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)]
        a = list(int_poly_gcd(b, d))
        if len(a) > 1:
            factors.append((tuple(a), m))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        m += 1
    return factors


def _coprime_pieces(polys) -> list[tuple[tuple[int, ...], int]]:
    """[(f, m)] with prod f**m == prod polys (monic), the f square-free and
    pairwise coprime: each square-free factor of each input splits the pieces
    so far along its gcds with them, so a shared root lies in one piece."""
    pieces: list[tuple[tuple[int, ...], int]] = []
    for p in polys:
        for f, m in square_free_factors(p):
            split = []
            for g, n in pieces:
                d = int_poly_gcd(f, g)
                f, g = _exact_quotient(f, d), _exact_quotient(g, d)
                split += [(d, m + n), (g, n)]
            pieces = [(tuple(g), n) for g, n in split + [(f, m)] if len(g) > 1]
    return pieces


def _mirror_blocks(T: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """(T+, T-) of a centrosymmetric T of odd order n = 2h + 1: T on the bases
    e_k + e_{n-1-k} (k < h), e_h and e_k - e_{n-1-k} of its mirror-symmetric and
    antisymmetric vectors, so det(xI - T) is their product (Cantoni-Butler 1976)."""
    n, h = len(T), len(T) // 2
    if n % 2 == 0 or any(T[n - 1 - i][::-1] != row for i, row in enumerate(T)):
        raise ValueError("matrix is not centrosymmetric of odd order")
    plus = [[row[k] + row[n - 1 - k] for k in range(h)] + [row[h]] for row in T[:h + 1]]
    minus = [[row[k] - row[n - 1 - k] for k in range(h)] for row in T[:h]]
    return plus, minus


class SpectralReport(namedtuple("SpectralReport", "poly roots radius exponent")):
    """Characteristic polynomial (a MonicIntPolynomial), spectrum as (root,
    algebraic multiplicity) pairs, spectral radius, and the predicted
    correlation growth exponent log2(radius)."""

    __slots__ = ()


def spectral_report(T, seed: int = DEFAULT_SEED) -> SpectralReport:
    """Spectrum of the square integer matrix T and the exponent log2(spectral radius).

    T, such as a transfer matrix from ``build_transfer``, must be
    centrosymmetric of odd order (ValueError otherwise), so its characteristic
    polynomial is the exact product of those of its half-size mirror blocks;
    the antisymmetric block of order 1 is empty and contributes 1.
    Aberth-Ehrlich (_factor_roots, as in roots) runs once per square-free,
    pairwise coprime piece of the two, so each distinct eigenvalue is found
    once, with its exact multiplicity, even when both blocks have it.
    ValueError is raised for a spectral radius of 0, which has no exponent.
    RootFindingError is raised if two distinct roots cluster
    (cluster_roots), which means the iteration missed one, or if the radius
    exceeds the exact Gershgorin bound, the largest row abs-sum.
    """
    T = _as_matrix(T)
    halves = [char_poly(block).coeffs if block else (1,) for block in _mirror_blocks(T)]
    p = MonicIntPolynomial(coeffs=tuple(_poly_product(*halves)))
    spectrum = sorted(((z, m) for f, m in _coprime_pieces(halves)
                       for z in _factor_roots(f, ROOT_TOL, MAX_ITERATIONS, RESTARTS, seed)),
                      key=lambda zm: (zm[0].real, zm[0].imag))
    radius = max(abs(z) for z, _ in spectrum)
    if radius == 0:
        raise ValueError("spectral radius is 0: no growth exponent")
    gershgorin = max(sum(map(abs, row)) for row in T)
    if len(cluster_roots([z for z, _ in spectrum])) < len(spectrum):
        problem = "distinct roots cluster"
    elif radius > gershgorin * (1 + ROOT_TOL):    # slack for the rounding of radius
        problem = f"radius {radius} exceeds the Gershgorin bound {gershgorin}"
    else:
        return SpectralReport(poly=p, roots=tuple(spectrum), radius=radius,
                              exponent=math.log2(radius))
    raise RootFindingError(problem, sorted(abs(p(z)) for z, _ in spectrum))


def jordan_block_check(M, eigval: int) -> int:
    """rank(M - eigval*I) by exact fraction-free (Bareiss) integer elimination.

    dim - rank is the geometric multiplicity of eigval; together with the
    algebraic multiplicity it pins down the Jordan block sizes.  After each
    step an entry is a minor on the pivot rows and columns so far (Sylvester's
    identity), so the division by the previous pivot is exact, also past a
    column with no pivot.
    """
    if not isinstance(eigval, int):
        raise ValueError("eigval must be an exact integer")
    rows = [[v - eigval if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(_as_matrix(M))]
    n = len(rows)
    rank, prev = 0, 1
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, n):
            f = rows[i][col]
            rows[i] = [(top[col] * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = top[col]
        rank += 1
    return rank
