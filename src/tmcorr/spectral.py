"""Exact characteristic polynomials and complex spectra of integer matrices.

Matrices are plain sequences of equal-length integer rows.  The
characteristic polynomial comes exactly from the traces of the powers M^k
by Newton's identities.  Each row of M^k is one Python integer, entry j in
lane j of a proved width (Kronecker substitution), so a step to M^(k+1) of a
transfer matrix (two +-1 entries per row) costs one addition per row.
Polynomials are split exactly into square-free, pairwise coprime pieces
(Yun's algorithm, with exact division), so root multiplicities are exact.
Each gcd is a heuristic gcd (Char-Geddes-Gonnet): the digits of one integer
gcd of both polynomials packed at 2^k >= 2 max |coefficient| + 2; a constant
certifies gcd 1, other digits must divide both, else k doubles until exact.
One loop, _spectrum, behind both roots and spectral_report, finds the simple
roots of each piece by Aberth-Ehrlich iteration (Bini 1996) on float copies
of its coefficients, started on their Newton-polygon circles (restarts use
Fujiwara-bound circles), accepted on a backward-error bound, within the one
budget ROOT_TOL, MAX_ITERATIONS and RESTARTS.  The spectral radius of a
correlation transfer matrix predicts the growth exponent log2(radius) of the
correlation sums; spectral_report takes that matrix and finds the radius on
the two half-size mirror blocks of the centrosymmetric matrix.
"""

import cmath
import math
import random
from collections import namedtuple
from itertools import compress, count, zip_longest
from operator import add, itemgetter, lshift, mul, sub

MAX_DIM = 64
DEFAULT_SEED = 12345
ROOT_TOL = 1e-8      # backward-error bound of an accepted root
CLUSTER_TOL = 1e-6   # relative distance at which two roots count as one
MAX_ITERATIONS, RESTARTS = 500, 3    # Aberth budget of every square-free piece
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


_PAIR_OPS = {(1, 1): add, (1, -1): sub, (-1, -1): lambda x, y: -x - y}


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
    """Exact characteristic polynomial det(xI - M) from traces of powers.

    P[i] = sum_j M^k[i][j] 2^(jW) packs row i of M^k, and a row of M @ P is
    one call f(*get(P)): v times the slice P[t:t+1] for one entry v; add, sub
    or -x - y for a +-1 pair, as in most transfer-block rows; else the sum of
    the weighted rows it reads (0 for a zero row).  The trace p_k is lane
    n - 1 of sum_i P[i] 2^((n-1-i)W), read by centred rounding: its at most n
    entries of size <= a^(n+1), a the largest row abs-sum, sum to below
    2^(W-2).  Newton's identities give the c_k, each division by k asserted
    exact; the one at k = n + 1 is a self-check.
    """
    if len(M) > MAX_DIM:                      # before any entry is read
        raise ValueError(f"dimension {len(M)} exceeds limit {MAX_DIM}")
    return MonicIntPolynomial(coeffs=_char_poly(_as_matrix(M)))


def _char_poly(A: IntMatrix) -> tuple[int, ...]:   # the kernel of char_poly, on checked rows
    n, ops = len(A), []
    for row in A:
        cols, weights = list(compress(count(), row)), tuple(filter(None, row))
        if weights == (-1, 1):
            cols, weights = cols[::-1], (1, -1)
        f = _PAIR_OPS.get(weights)
        if len(cols) == 1:
            f, cols = weights[0].__mul__, [slice(cols[0], cols[0] + 1)]
        elif f is None:      # a zero row reads the empty slice P[0:0], whose sum is 0
            f, cols = (lambda *values, w=weights: sum(map(mul, w, values))), cols or [slice(0)]
        ops.append((f, itemgetter(*cols)))
    W = (n * max([sum(map(abs, row)) for row in A]) ** (n + 1)).bit_length() + 2
    base, half, shifts = (n - 1) * W, 1 << (W - 1), range((n - 1) * W, -1, -W)
    offset, mask = (1 << base >> 1) + (half << base), (1 << W) - 1   # round, centre
    P = [1 << s for s in reversed(shifts)]    # the rows of M^0 = I
    p, c = [n], [1]                           # p[k] = tr(M^k); c descending
    for k in range(1, n + 2):
        P = [f(*get(P)) for f, get in ops]
        p.append((sum(map(lshift, P, shifts)) + offset >> base & mask) - half)
        ck, rem = divmod(-sum(map(mul, c, reversed(p))), k)
        assert rem == 0, "Newton's identity must divide exactly"
        c.append(ck)
    assert c.pop() == 0, "Newton's identity at k = n + 1 violated"
    return tuple(reversed(c))


def roots(p: MonicIntPolynomial, seed: int = DEFAULT_SEED) -> list[complex]:
    """All complex roots of p, sorted by (re, im), each repeated by its exact
    multiplicity: _spectrum on p alone, whose pieces are its square-free factors."""
    return [z for z, m in _spectrum([p.coeffs], seed) for _ in range(m)]


def _spectrum(polys, seed: int) -> list[tuple[complex, int]]:
    """Sorted (root, multiplicity) pairs of prod polys: _factor_roots per _coprime_pieces."""
    return sorted(((z, m) for f, m in _coprime_pieces(polys) for z in _factor_roots(f, seed)),
                  key=lambda zm: (zm[0].real, zm[0].imag))


def _factor_roots(f: tuple[int, ...], seed: int) -> list[complex]:
    """Roots of one monic square-free factor f by Aberth-Ehrlich iteration.

    The iteration starts on the Newton-polygon circles of f
    (_newton_polygon_starts) and is accepted when every root meets the
    backward-error bound |f(z)| <= ROOT_TOL * sum |c_k| |z|**k once the roots
    are made conjugate-symmetric (_pair_conjugates; the coefficients are
    real).  Only if that fails, or the roots off the real axis do not split
    evenly between the half-planes, does it restart from `seed`, up to
    RESTARTS times, on a random circle of 0.5 to 1.5 times the Fujiwara bound
    2 max_k |c_{n-k}|**(1/k).  Raises RootFindingError with the backward
    errors as residuals otherwise, and ValueError beyond float range.
    """
    try:
        cf = [float(c) for c in f]
    except OverflowError:
        raise ValueError("polynomial coefficient beyond float range") from None
    deg = len(cf) - 1
    if deg == 1:
        return [complex(-cf[0])]
    terms = [(c, abs(c)) for c in reversed(cf)]
    for attempt in range(RESTARTS + 1):
        if attempt == 0:
            zs = _newton_polygon_starts(cf)
        else:
            if attempt == 1:              # only a factor that restarts needs these
                rng = random.Random(seed)
                fujiwara = 2.0 * max(abs(cf[deg - k]) ** (1.0 / k) for k in range(1, deg + 1))
            jitter, radius = rng.random(), fujiwara * (0.5 + rng.random())
            zs = [radius * cmath.exp(2j * math.pi * (k + jitter) / deg) for k in range(deg)]
        _aberth(terms, zs)
        paired = _pair_conjugates(zs)
        residuals = [_backward_error(terms, z) for z in paired or zs]
        if paired and all(r <= ROOT_TOL for r in residuals):
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


def _aberth(terms: list[tuple[float, float]], zs: list[complex]) -> None:
    """Aberth-Ehrlich iteration on the approximations zs, in place, for the
    polynomial of the (c_k, |c_k|), descending, for up to MAX_ITERATIONS sweeps.

    Each root is updated with the values already updated in the sweep
    (Gauss-Seidel); it freezes once its backward error is at rounding
    level, and the iteration ends when all are frozen.
    """
    live = range(len(zs))
    for _ in range(MAX_ITERATIONS):
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


def _pack(p, k: int) -> int:
    """p(2^k) for integer coefficients p, ascending (Kronecker substitution)."""
    return sum(map(lshift, p, range(0, k * len(p), k)))


def _unpack(n: int, k: int) -> list[int]:
    """n's base-2^k digits in [-2^(k-1), 2^(k-1)), ascending; inverts _pack on such."""
    half, mask, digits = 1 << k - 1, (1 << k) - 1, []
    while n:
        digits.append((n + half & mask) - half)
        n = n - digits[-1] >> k
    return digits


def int_poly_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd of two integer polynomials (ascending coefficients), with
    lead > 0; gcd(0, 0) is (0,).  It is the g of ``_gcd_cofactors``."""
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a, b) -> tuple[tuple[int, ...], list[int], list[int]]:
    """(g, a / g, b / g), g = int_poly_gcd(a, b), by heuristic gcd
    (Char-Geddes-Gonnet 1989) of the primitive parts: h is the primitive part
    of the symmetric base-2^k digits of gcd(a(2^k), b(2^k)).  With 2^k >=
    2 min(|a|_inf, |b|_inf) + 2, an h dividing a and b is their gcd g, as
    (g/h)(2^k) divides the digits' content (<= 2^(k-1)) yet exceeds 2^(k-1) by
    the Cauchy root bound unless g/h is constant: a constant h certifies gcd 1,
    with cofactors a and b.  k starts at 2^k >= 2 max(|a|_inf, |b|_inf) + 2
    (each spectral_report gcd succeeds there) and doubles on a failed division
    until the digits of g(2^k) times a divisor of the cofactors' resultant are
    exact; that division's quotients are returned (a primitive h divides a iff
    it divides a's primitive part).  A zero argument divides nothing: g is the
    other's primitive part, and the cofactors are 0 and lead(x) / lead(g).
    """
    pa, pb = _primitive(a), _primitive(b)
    if not (pa and pb):
        g = pa or pb
        return tuple(g) or (0,), pa and [a[len(g) - 1] // g[-1]], pb and [b[len(g) - 1] // g[-1]]
    k = (2 * max(map(abs, pa + pb)) + 1).bit_length()
    while True:
        h = _primitive(_unpack(math.gcd(_pack(pa, k), _pack(pb, k)), k))
        if len(h) == 1:
            return (1,), a, b
        try:
            return tuple(h), _exact_quotient(a, h), _exact_quotient(b, h)
        except ArithmeticError:
            k *= 2


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
    """a * b (nonzero leading coefficients) by one integer product at 2^k."""
    k = (min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    return _unpack(_pack(a, k) * _pack(b, k), k)


def square_free_factors(coeffs) -> list[tuple[tuple[int, ...], int]]:
    """Exact square-free factorization of an integer polynomial (Yun).

    Returns [(f_m, m)] with coeffs == prod f_m**m.  The f_m of degree >= 1
    are primitive, square-free and pairwise coprime, with a positive
    leading coefficient (so monic when coeffs is monic), in increasing m;
    a constant factor other than 1 (content and sign) comes first.  Each
    step divides by a gcd through the quotients ``_gcd_cofactors`` returns.
    """
    f = _primitive(coeffs)
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    unit = next(c for c in reversed(coeffs) if c) // f[-1]
    factors = [((unit,), 1)] if unit != 1 else []
    _, b, c = _gcd_cofactors(f, _derivative(f))
    m = 1
    while len(b) > 1:
        # b = prod_{j >= m} f_j and c - b' = f_m * sum_{j > m} (j - m) f_j' prod f_l
        a, b, c = _gcd_cofactors(b, [x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        if a != (1,):
            factors.append((a, m))
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
                d, f, g = _gcd_cofactors(f, g)
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
    centrosymmetric of odd order n, with (n+1)/2 <= MAX_DIM (ValueError
    otherwise; the order is checked before any entry is read), so its
    characteristic polynomial is the exact product of those of its half-size
    mirror blocks; the antisymmetric block of order 1 is empty and contributes 1.
    Aberth-Ehrlich (_factor_roots) runs once per square-free, pairwise
    coprime piece of the two (_spectrum, as in roots), so each distinct
    eigenvalue is found once, with its exact multiplicity, even if both blocks have it.
    ValueError is raised for a spectral radius of 0, which has no exponent.
    RootFindingError is raised if two distinct roots cluster
    (cluster_roots), which means the iteration missed one, or if the radius
    exceeds the exact Gershgorin bound, the largest row abs-sum.
    """
    if len(T) // 2 + 1 > MAX_DIM:             # the larger mirror block, before any entry is read
        raise ValueError(f"dimension {len(T) // 2 + 1} exceeds limit {MAX_DIM}")
    T = _as_matrix(T)
    halves = [_char_poly(block) if block else (1,) for block in _mirror_blocks(T)]
    p = MonicIntPolynomial(coeffs=tuple(_poly_product(*halves)))
    spectrum = _spectrum(halves, seed)
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
