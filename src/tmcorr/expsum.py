"""Signed exponential sums over the Thue-Morse sign with exact rational phases.

    f(X, alpha) = sum_{n=0..X-1} eps(n) * e^{2 pi i alpha n}

Phases are kept as reduced fractions so that the halving recursion can
double alpha exactly (integer arithmetic mod 1); repeatedly doubling a
floating-point phase would lose the phase entirely after ~50 levels.
"""

import cmath
import math
from dataclasses import dataclass

from .digitseq import NAIVE_LIMIT, check_naive_limit, eps   # NAIVE_LIMIT: re-exported
MAX_PRODUCT_LEVELS = 50
_TWO_PI = 2.0 * math.pi
_BASE = (0j, 1 + 0j)   # f(0), f(1)


def _cis(p: int, q: int) -> complex:
    """e^{2 pi i p/q} from the reduced p/q mod 1: equal phases, equal floats."""
    g = math.gcd(p, q)
    return cmath.exp(1j * _TWO_PI * (p % q // g) / (q // g))


@dataclass(frozen=True)
class RationalPhase:
    """Phase p/q reduced mod 1; 0 <= p < q and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p % self.q // g)
        object.__setattr__(self, "q", self.q // g)

    def double(self) -> "RationalPhase":
        """2*alpha mod 1, exactly."""
        return RationalPhase(2 * self.p, self.q)

    def cis(self) -> complex:
        """e^{2 pi i p/q}."""
        return _cis(self.p, self.q)


def expsum_naive(alpha: RationalPhase, X: int) -> complex:
    """Direct left-to-right evaluation of f(X, alpha); guarded O(X) loop.

    The phase of term n is the exact root of unity e^{2 pi i (p n mod q)/q},
    from integers, so there is no accumulated angle drift; it is computed once
    for each of the min(X, q) residues n mod q the loop visits.
    """
    if X < 0:
        raise ValueError("X must be nonnegative")
    check_naive_limit(X)
    q = alpha.q
    table = [cmath.exp(1j * _TWO_PI * (alpha.p * n % q) / q) for n in range(min(X, q))]
    total = 0j
    for n in range(X):
        total += eps(n) * table[n % q]
    return total


def expsum_fast(alpha: RationalPhase, X: int) -> complex:
    """f(X, alpha) by ceil/floor halving; O(log X) complex operations.

    Recursion: f(Y) at phase a equals f(ceil(Y/2)) - e(a) * f(floor(Y/2)),
    both at phase 2a; bases f(0) = 0, f(1) = 1.  A loop climbs the sizes of
    `_schedule(X)`, keeping the values at two sizes per level; there is no
    recursion and no limit on X.  Raises ValueError when the result is not
    finite: |f| can grow like X^0.79 (at alpha = 1/3), which leaves
    double precision near X = 2^1293.
    """
    sizes, p, q = _schedule(X), alpha.p, alpha.q
    es = [_cis(p * pow(2, k, q), q) for k in range(len(sizes) - 2, -1, -1)]
    return _finite(_halve(sizes, es), p, q, X)


def _schedule(X: int) -> list:
    """Sizes (floor(X/2^k), ceil(X/2^k)) from the first k where both are <= 1
    down to k = 0; the halves of a size are the two sizes one level deeper."""
    if X < 0:
        raise ValueError("X must be nonnegative")
    depth = (X - 1).bit_length() if X else 0
    return [(X >> k, -(-X >> k)) for k in range(depth, -1, -1)]


def _halve(sizes: list, es) -> complex:
    """f at the last of `sizes`, climbing from the first; es holds e(2^k alpha)
    for each later level k, in the same order."""
    f_lo, f_hi = _BASE[sizes[0][0]], _BASE[sizes[0][1]]
    for (lo, hi), e in zip(sizes[1:], es):
        f_lo, f_hi = (_BASE[lo] if lo <= 1 else (f_hi if lo & 1 else f_lo) - e * f_lo,
                      _BASE[hi] if hi <= 1 else f_hi - e * (f_lo if hi & 1 else f_hi))
    return f_hi


def _finite(f: complex, p: int, q: int, X: int) -> complex:
    if not cmath.isfinite(f):
        alpha = RationalPhase(p, q)
        raise ValueError(f"exponential sum at phase {alpha.p}/{alpha.q} is not finite "
                         f"in double precision (X has {X.bit_length()} bits)")
    return f


def product_formula(alpha: RationalPhase, k: int) -> complex:
    """prod_{j=0..k-1} (1 - e^{2 pi i 2^j alpha}), the closed form of
    f(2^k, alpha)."""
    if not 0 <= k <= MAX_PRODUCT_LEVELS:
        raise ValueError(f"k must lie in 0..{MAX_PRODUCT_LEVELS}")
    result = 1 + 0j
    for j in range(k):
        result *= 1 - _cis(alpha.p * pow(2, j, alpha.q), alpha.q)
    return result


@dataclass(frozen=True)
class ScanResult:
    """Maximum modulus of f(X, p/grid) over p = 1..grid-1."""

    X: int
    grid: int
    max_modulus: float
    argmax_p: int


def scan_alpha(X: int, grid: int) -> ScanResult:
    """Deterministic phase scan; ties keep the lowest numerator p."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    sizes = _schedule(X)
    # e(j/grid) once per residue j; the level-k phase of p/grid is the
    # residue p 2^k mod grid
    cis = [_cis(j, grid) for j in range(grid)]
    twos = [pow(2, k, grid) for k in range(len(sizes) - 2, -1, -1)]
    best_mod, best_p = -1.0, 1
    for p in range(1, grid):
        mod = abs(_finite(_halve(sizes, [cis[p * t % grid] for t in twos]), p, grid, X))
        if mod > best_mod:
            best_mod, best_p = mod, p
    return ScanResult(X=X, grid=grid, max_modulus=best_mod, argmax_p=best_p)
