"""Exact characteristic polynomials and complex spectra of integer matrices.

Matrices are plain sequences of equal-length integer rows.  The
characteristic polynomial is computed exactly by the Faddeev-LeVerrier
trace recursion over Python integers; each step multiplies through the
nonzero entries of each row only, so a transfer matrix (two +-1 entries
per row) costs 2n^2 per step, not n^3.  Roots are found numerically by a
simultaneous Durand-Kerner iteration started from a perturbed circle, and
root multiplicities are cross-checked against the exact square-free part
gcd(p, p'), taken by a primitive pseudo-remainder sequence over the
integers.  The spectral radius of a correlation transfer matrix predicts
the growth exponent log2(radius) of the correlation sums.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .correlation import CorrelationSystem

MAX_DIM = 64
MAX_POWER_STEPS = 80
DEFAULT_SEED = 12345

IntMatrix = tuple[tuple[int, ...], ...]


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to meet the residual bound."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(f"{message}; residuals={residuals}")
        self.residuals = residuals


def _as_matrix(M) -> IntMatrix:
    rows = tuple(tuple(row) for row in M)
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
    return tuple(tuple((t, v) for t, v in enumerate(row) if v) for row in A)


def _row_combination(nonzero: tuple[tuple[int, int], ...], B) -> list[int]:
    """sum(v * B[t]) over the nonzero (t, v) of one row: a row of A @ B."""
    acc = [0] * len(B)
    for t, v in nonzero:
        acc = [a + v * b for a, b in zip(acc, B[t])]
    return acc


@dataclass(frozen=True)
class MonicIntPolynomial:
    """Monic polynomial with integer coefficients, ascending order."""

    coeffs: tuple[int, ...]  # coeffs[k] multiplies x**k; coeffs[-1] == 1

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be integers")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative_coeffs(self) -> tuple[int, ...]:
        return tuple(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "x" if k == 1 else (f"x^{k}" if k > 1 else "")
            mag = abs(c)
            coef = "" if (mag == 1 and k > 0) else str(mag)
            parts.append(("-" if c < 0 else "+", f"{coef}{term}"))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


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


def roots(p: MonicIntPolynomial, tol: float = 1e-8, max_iterations: int = 500,
          restarts: int = 3, seed: int = DEFAULT_SEED) -> list[complex]:
    """All complex roots of p by Durand-Kerner simultaneous iteration.

    Starts from a perturbed circle of radius given by the Cauchy bound;
    on stagnation the circle is re-randomized (seeded, reproducible).
    Accepts when every residual satisfies |p(z)| <= tol * (1+|z|)**deg;
    conjugate symmetry is enforced on the result (coefficients are real).
    Raises RootFindingError with the residuals otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    deg = p.degree
    if deg == 1:
        return [complex(-p.coeffs[0])]

    cauchy = 1.0 + max(abs(c) for c in p.coeffs[:-1])
    rng = random.Random(seed)
    ws: list[complex] = []
    for attempt in range(restarts + 1):
        if attempt == 0:
            jitter = 0.41
            radius = 0.95 * cauchy
        else:
            jitter = rng.random()
            radius = cauchy * (0.5 + rng.random())
        ws = [radius * cmath.exp(2j * math.pi * (k + jitter) / deg) for k in range(deg)]
        for _ in range(max_iterations):
            max_step = 0.0
            for i in range(deg):
                denom = 1 + 0j
                for j in range(deg):
                    if j != i:
                        denom *= ws[i] - ws[j]
                if denom == 0:
                    denom = complex(1e-30)
                delta = p(ws[i]) / denom
                ws[i] -= delta
                step = abs(delta)
                if step > max_step:
                    max_step = step
            if max_step < 1e-14 * (1.0 + max(abs(w) for w in ws)):
                break
        ws = _enforce_conjugate_symmetry(ws)
        if all(abs(p(w)) <= tol * (1.0 + abs(w)) ** deg for w in ws):
            return sorted(ws, key=lambda z: (z.real, z.imag))
    residuals = sorted(abs(p(w)) for w in ws)
    raise RootFindingError("root iteration did not converge", residuals)


def _enforce_conjugate_symmetry(ws: list[complex]) -> list[complex]:
    """Snap near-real roots to the real axis and pair the rest as exact
    conjugates (valid for real-coefficient input)."""
    out: list[complex] = []
    pending: list[complex] = []
    for w in ws:
        if abs(w.imag) <= 1e-9 * (1.0 + abs(w)):
            out.append(complex(w.real, 0.0))
        else:
            pending.append(w)
    pending.sort(key=lambda z: (z.real, abs(z.imag), z.imag))
    used = [False] * len(pending)
    for i, w in enumerate(pending):
        if used[i]:
            continue
        best, best_d = -1, math.inf
        for j in range(i + 1, len(pending)):
            if used[j] or (w.imag > 0) == (pending[j].imag > 0):
                continue
            d = abs(w - pending[j].conjugate())
            if d < best_d:
                best, best_d = j, d
        if best < 0:
            # unpaired stray; keep as-is and let the residual check decide
            out.append(w)
            used[i] = True
            continue
        mate = pending[best]
        re = 0.5 * (w.real + mate.real)
        im = 0.5 * (abs(w.imag) + abs(mate.imag))
        out.extend([complex(re, im), complex(re, -im)])
        used[i] = used[best] = True
    return out


def cluster_roots(zs: list[complex], tol: float = 1e-6) -> list[tuple[complex, int]]:
    """Group numerically coincident roots into (center, multiplicity) pairs."""
    clusters: list[list[complex]] = []
    for z in sorted(zs, key=lambda z: (z.real, z.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(z - center) <= tol * (1.0 + abs(center)):
                members.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(ms) / len(ms), len(ms)) for ms in clusters]


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


@dataclass(frozen=True)
class SpectralReport:
    """Characteristic polynomial, clustered spectrum, and growth exponent."""

    poly: MonicIntPolynomial
    roots: tuple[tuple[complex, int], ...]  # (root, algebraic multiplicity)
    radius: float
    exponent: float  # log2(radius): predicted correlation growth exponent


def spectral_report(system: CorrelationSystem, tol: float = 1e-8,
                    seed: int = DEFAULT_SEED) -> SpectralReport:
    """Spectrum of the transfer matrix and the exponent log2(spectral radius).

    Multiplicities come from clustering the numerical roots and are
    cross-checked against deg gcd(p, p'), the exact count of repeated
    roots; a mismatch raises RootFindingError.
    """
    p = char_poly(system.transfer)
    zs = roots(p, tol=tol, seed=seed)
    clusters = cluster_roots(zs)
    assert sum(m for _, m in clusters) == p.degree
    g = int_poly_gcd(p.coeffs, p.derivative_coeffs())
    repeated = sum(m - 1 for _, m in clusters)
    if len(g) - 1 != repeated:
        raise RootFindingError(
            f"multiplicity mismatch: clustered {repeated} repeated roots, "
            f"gcd(p, p') has degree {len(g) - 1}",
            sorted(abs(p(z)) for z, _ in clusters))
    radius = max(abs(z) for z, _ in clusters)
    return SpectralReport(poly=p, roots=tuple(clusters), radius=radius,
                          exponent=math.log2(radius))


def power_growth(M, start, J: int) -> list[tuple[int, int]]:
    """Exact max-norms of M**j * start for j = 0..J.

    Pure integer iteration; J is capped so runs stay desk-scale.
    """
    A = _as_matrix(M)
    if not 0 <= J <= MAX_POWER_STEPS:
        raise ValueError(f"J must lie in 0..{MAX_POWER_STEPS}")
    v = tuple(start)
    if len(v) != len(A):
        raise ValueError("start vector length must match matrix dimension")
    if any(not isinstance(x, int) for x in v):
        raise ValueError("start vector entries must be integers")
    nonzero = _nonzero_rows(A)
    out = [(0, max(abs(x) for x in v))]
    for j in range(1, J + 1):
        v = tuple(sum(w * v[t] for t, w in row) for row in nonzero)
        out.append((j, max(abs(x) for x in v)))
    return out


def jordan_block_check(M, eigval: int) -> int:
    """rank(M - eigval*I) by exact fraction-free elimination.

    dim - rank is the geometric multiplicity of eigval; together with the
    algebraic multiplicity it pins down the Jordan block sizes.
    """
    if not isinstance(eigval, int):
        raise ValueError("eigval must be an exact integer")
    A = _as_matrix(M)
    n = len(A)
    rows = [[Fraction(A[i][j] - (eigval if i == j else 0)) for j in range(n)]
            for i in range(n)]
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for i in range(rank + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / inv
                for j in range(col, n):
                    rows[i][j] -= f * rows[rank][j]
        rank += 1
        col += 1
    return rank
