"""Signed exponential sums over the Thue-Morse sign with exact rational phases.

    f(X, alpha) = sum_{n=0..X-1} eps(n) * e^{2 pi i alpha n}

Phases are kept as reduced fractions so that the prefix walk can double
alpha exactly (integer arithmetic mod 1); repeatedly doubling a
floating-point phase would lose the phase entirely after ~50 levels.

eps is real, so f(X, 1 - alpha) is the conjugate of f(X, alpha).  The roots
of unity are exactly conjugate-symmetric (e((q-p)/q) is the conjugate of
e(p/q), and e(1/2) is exactly -1), and complex * and - commute with
conjugation, so the mirror sums are bitwise conjugates of one modulus: a scan
of grid 2^j m (m odd) walks p/grid for p <= m/2, then p <= grid/2 at the last j bits.
"""

import cmath
import math
from collections import namedtuple
from operator import mul, sub

from .digitseq import NAIVE_LIMIT, check_naive_limit, eps   # NAIVE_LIMIT: re-exported
MAX_PRODUCT_LEVELS = 50
MAX_GRID = 2**20   # a scan keeps up to about 126 B per grid point in memory
_TWO_PI = 2.0 * math.pi


def _cis(p: int, q: int) -> complex:
    """e^{2 pi i p/q} from the reduced p/q mod 1: equal phases, equal floats.

    Computed at the lower of the mirror phases p/q and (q-p)/q and conjugated
    for the upper one, so _cis(q-p, q) is exactly _cis(p, q).conjugate(); the
    self-mirror phase 1/2 gives exactly -1 (e^{i pi} in floats has imaginary
    part 1.2e-16).
    """
    g = math.gcd(p, q)
    p, q = p % q // g, q // g
    if 2 * p < q:
        return cmath.exp(1j * _TWO_PI * p / q)
    if 2 * p == q:
        return -1 + 0j
    return cmath.exp(1j * _TWO_PI * (q - p) / q).conjugate()


class RationalPhase(namedtuple("RationalPhase", "p q")):
    """Phase p/q reduced mod 1; 0 <= p < q and gcd(p, q) = 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if q < 1:
            raise ValueError("denominator must be positive")
        g = math.gcd(p, q)
        return super().__new__(cls, p % q // g, q // g)


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
    """f(X, alpha) by the prefix walk over the bits of X-1: O(log X) complex
    operations, any X >= 0.  Raises ValueError when the result is not finite:
    |f| can grow like X^0.79 (at alpha = 1/3), leaving double range near X = 2^1293.
    """
    p, q = alpha.p, alpha.q
    return _finite(_walk(X, 1, lambda k: [_cis(p * pow(2, k, q), q)])[0], p, q, X)


def _walk(X: int, width: int, level, low: int = 0, widen=None) -> list:
    """[f(X, alpha) per lane]; level(k) lists e(2^k alpha), widen relabels after bit low.

    With G(Y) = sum_{n<=Y} eps(n) e(alpha n), f(X) = G(X-1).  The walk reads
    the bits of X-1 from the top and keeps the state (G(h), G(h-1)) of the
    prefix h read so far, from (G(0), G(-1)) = (1, 0).  Splitting n into
    even and odd, G at phase alpha and prefix 2h+c comes from G' at phase
    2 alpha and prefix h: with M = G'(h+c-1) and e = e(2^k alpha), k the
    number of bits below c, the new state is (G'(h) - e M, M - e G'(h-1)).
    """
    if X < 0:
        raise ValueError("X must be nonnegative")
    Y, V, W = X - 1, [1 + 0j] * width, [0j] * width
    for k in reversed(range(1, Y.bit_length())):
        es = level(k)
        # first the half whose old list the other half does not read (W on a
        # 1 bit, V on a 0 bit): that list is freed before the other is built
        if Y >> k & 1:
            W = list(map(sub, V, map(mul, es, W)))
            V = list(map(sub, V, map(mul, es, V)))
        else:   # M = W: both halves subtract the same e G'(h-1)
            eW = list(map(mul, es, W))
            V = list(map(sub, V, eW))
            W = list(map(sub, W, eW))
        if k == low:
            V, W = widen(V), widen(W)
    if Y > 0:   # the last bit needs only G(X-1)
        V = list(map(sub, V, map(mul, level(0), V if Y & 1 else W)))
    return V if X else W   # f(0) = G(-1) = 0


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


class ScanResult(namedtuple("ScanResult", "X grid max_modulus argmax_p")):
    """Maximum modulus of f(X, p/grid) over p = 1..grid-1 (attained at p <= grid/2)."""

    __slots__ = ()


def scan_alpha(X: int, grid: int) -> ScanResult:
    """Phase scan over p/grid, p = 1..grid-1; ties keep the lowest p.

    f(X, (grid-p)/grid) is bitwise conj f(X, p/grid), so the lowest p of every
    tie (and of every sum that is not finite) is <= grid/2, and lane p holds
    p/grid.  With grid = 2^j m, m odd, bit k >= j reads T[p mod m], T[s] =
    e(s 2^(k-j)/m), so the cost is (m//2 + 1) x (bitlen(X) - j) + (grid//2 + 1) x j steps.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid > MAX_GRID:
        raise ValueError(f"phase grid refused for grid > {MAX_GRID}")
    j, cis = (grid & -grid).bit_length() - 1, [_cis(r, grid) for r in range(grid // 2 + 1)]
    m, n, top = grid >> j, len(cis), (X - 1).bit_length() - j   # grid = 2^j m, m odd

    def periodic(h, P, w=n):   # x[:w] for x of period P, x[:P//2 + 1] = h, x[-s] = conj x[s]
        return ((h + [*map(complex.conjugate, h[(P - 1) // 2:0:-1])]) * (w // P + 1))[:w]

    def level(k):
        if k >= j:   # T for bit k from T for bit k + 1: s/2 mod m is s/2 or (s+m)/2
            T[::2], T[1::2] = T[:(m + 1) // 2], T[(m + 1) // 2:]
            return T
        return periodic(cis[::1 << k], grid >> k) if k else cis
    T, d = periodic(cis[::1 << j], m, m), pow(2, top, m)   # T[s] = e(s/m)
    T = [T[s * d % m] for s in range(m)]                    # T for the bit above the top
    lanes = _walk(X, m // 2 + 1 if top > 0 else n, level, j, lambda v: periodic(v, m))
    mods = [abs(_finite(lanes[p], p, grid, X)) for p in range(1, n)]
    best = mods.index(max(mods))
    return ScanResult(X=X, grid=grid, max_modulus=mods[best], argmax_p=best + 1)
