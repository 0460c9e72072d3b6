"""Independent answers for every benchmark job, checked outside the timed child.

Nothing here imports tmcorr.  Small X is checked by brute force with
numpy; large X by short evaluators written for this benchmark that use a
different decomposition than the library:

- S_q / U_q: a least-significant-bit carry automaton for q*n + r (the
  library halves from the top);
- T_j(X, l, m): counts of free low-bit blocks by (residue, parity);
- exponential sums: blocks below each set bit of X, each a product
  prod_j (1 - e(2^j alpha)) with exact integer phases;
- spectra: numpy eigenvalues of the transfer matrix, and exact
  det(tI - M) modulo primes for the characteristic polynomial.

``Oracle(jobs).check(spec, output)`` returns ``(ok, reason, n_results)``.
"""

import csv
import io
import json
import math

# Spectra: every exponent and radius must match numpy to this.
EIGEN_TOL = 1e-9
# CLI floats carry 12 significant digits.
FLOAT_RTOL = 1e-10
FIT_TOL = 1e-9
SCAN_RTOL = 1e-9

# Inputs in the documented domain that fail today.  A failure on one of
# them counts as a failed job but does not make the run incorrect.
KNOWN_BAD_EIGEN_Q = frozenset({37, 41, 51, 53, 55, 57, 59, 61, 63})
FAST_PATH_RECURSION_BITS = 996      # X >= 2^995
GELFOND_RECURSION_BITS = 500        # X >= 2^499
_PRIMES = (2147483647, 1000000007)


def eps(n: int) -> int:
    return -1 if bin(n).count("1") & 1 else 1


def known_defect(spec: dict, reason: str = "") -> str | None:
    """Why a job that failed with `reason` was expected to fail today, or None."""
    if spec.get("cmd") == "eigen" and spec["q"] in KNOWN_BAD_EIGEN_Q:
        return f"spectral_report fails or is wrong at q={spec['q']}"
    if spec.get("cmd") == "eigen" and reason.startswith("RootFindingError"):
        return "root iteration does not converge at some root-finder seeds"
    if spec.get("cmd") in ("corr", "count", "scan"):
        xs = spec["X"] if isinstance(spec["X"], list) else [spec["X"]]
        if max(xs).bit_length() >= FAST_PATH_RECURSION_BITS:
            return "fast-path recursion at X >= 2^995"
    if any(fn == "digitseq.gelfond_count" and args[0].bit_length() >= GELFOND_RECURSION_BITS
           for fn, args in spec.get("calls", [])):
        return "gelfond_count recursion at X >= 2^499"
    return None


# ---------------------------------------------------------------- S_q, U_q

def _digit_step(q: int, b: int, c: int, corr: bool) -> tuple[int, int]:
    """Sign and next carry when bit b of n meets carry c in q*n + c."""
    t = q * b + c
    sign = -1 if (t & 1) ^ (b & corr) else 1
    return sign, t >> 1


def carry_sums(q: int, X: int, corr: bool) -> list[int]:
    """[sum_{n=0..X} w_r(n) for r in 0..q-1], w = eps(n)eps(qn+r) or eps(qn+r).

    Bits of n are read from the least significant end with the carry of
    q*n + r as state, plus a flag saying whether the low bits of n already
    exceed those of X.  Values are filled from the top bit down, so all
    initial carries r are answered at once.
    """
    L = max(X.bit_length(), 1)
    # V[g][c]: signed count of completions of bits i..L-1
    V = [[eps(c) for c in range(q)], [0] * q]
    for i in range(L - 1, -1, -1):
        x = (X >> i) & 1
        W = [[0] * q, [0] * q]
        for g in (0, 1):
            for c in range(q):
                total = 0
                for b in (0, 1):
                    sign, nc = _digit_step(q, b, c, corr)
                    ng = 1 if b > x else 0 if b < x else g
                    total += sign * V[ng][nc]
                W[g][c] = total
        V = W
    return V[0]


def pow2_prefix(q: int, emax: int, corr: bool) -> list[list[int]]:
    """F[k][r] = sum_{n < 2^k} w_r(n) for k = 0..emax (all low bits free)."""
    F = [[eps(c) for c in range(q)]]
    for _ in range(emax):
        prev = F[-1]
        row = []
        for c in range(q):
            total = 0
            for b in (0, 1):
                sign, nc = _digit_step(q, b, c, corr)
                total += sign * prev[nc]
            row.append(total)
        F.append(row)
    return F


def shift_sums(q: int, xs: list[int], corr: bool) -> dict[int, list[int]]:
    """X -> [S_q(X, r) or U_q(X, r) for r in 0..q-1], sums over 1 <= n <= X."""
    out = {}
    pows = [X for X in xs if X and X & (X - 1) == 0]
    F = pow2_prefix(q, max(pows).bit_length() - 1, corr) if pows else []
    for X in xs:
        if X in pows:
            k = X.bit_length() - 1
            last = [(eps(X) if corr else 1) * eps(q * X + r) for r in range(q)]
            full = [F[k][r] + last[r] for r in range(q)]
        else:
            full = carry_sums(q, X, corr)
        out[X] = [full[r] - eps(r) for r in range(q)]
    return out


def eps_prefix(X: int) -> int:
    """sum_{n=1..X} eps(n): blocks below set bits i >= 1 of X cancel."""
    below = eps(X - 1) if X & 1 else 0
    return below + eps(X) - 1


def count_cells(q: int, r: int, X: int, S: int, U: int) -> list[list[int]]:
    """cells[i][k] from [class(m) = i] = (1 + (-1)^i eps(m)) / 2."""
    P = eps_prefix(X)
    cells = [[0, 0], [0, 0]]
    for i in (0, 1):
        for k in (0, 1):
            si, sk = (-1) ** i, (-1) ** k
            four = X + si * P + sk * U + si * sk * S
            if four % 4:
                raise ArithmeticError("class counts are not integral")
            cells[i][k] = four // 4
    return cells


# ---------------------------------------------------------------- T_j

def gelfond_table(X: int, m: int) -> list[list[int]]:
    """T[l][j] = #{1 <= n <= X : n = l mod m, class(n) = j}.

    n <= X is n = X or, for a set bit i of X, the high bits of X above i,
    a 0 at i, and any i low bits; C[p][res] counts i-bit blocks by
    parity and residue.
    """
    T = [[0, 0] for _ in range(m)]
    C = [[0] * m, [0] * m]
    C[0][0] = 1
    for i in range(X.bit_length()):
        if (X >> i) & 1:
            base = (X >> (i + 1)) << (i + 1)
            bp, br = bin(base).count("1") & 1, base % m
            for p in (0, 1):
                for res, cnt in enumerate(C[p]):
                    if cnt:
                        T[(br + res) % m][bp ^ p] += cnt
        s = pow(2, i, m)
        rot = [C[1][(res - s) % m] for res in range(m)], [C[0][(res - s) % m] for res in range(m)]
        C = [[C[0][res] + rot[0][res] for res in range(m)],
             [C[1][res] + rot[1][res] for res in range(m)]]
    T[X % m][bin(X).count("1") & 1] += 1
    T[0][0] -= 1     # n = 0 is not counted
    return T


# ---------------------------------------------------------------- exp sums

def expsum_moduli(X: int, grid: int):
    """|f(X, p/grid)| for p = 1..grid-1 as a numpy array; f sums n < X."""
    import numpy as np
    p = np.arange(1, grid, dtype=np.int64)
    tau = 2 * np.pi / grid
    total = np.zeros(grid - 1, dtype=np.complex128)
    prod = np.ones(grid - 1, dtype=np.complex128)    # prod_{j<i} (1 - e(2^j a))
    for i in range(X.bit_length()):
        if (X >> i) & 1:
            base = (X >> (i + 1)) << (i + 1)
            phase = (base % grid) * p % grid
            total += eps(base) * np.exp(1j * tau * phase) * prod
        prod = prod * (1 - np.exp(1j * tau * (pow(2, i, grid) * p % grid)))
    return np.abs(total)


# ---------------------------------------------------------------- adjacent

def adjacent_tables(xs: list[int]) -> dict[int, list[list[int]]]:
    """X -> F[i][k] = #{m : m+1 <= X, class(m+1) = i, class(m) = k}, brute force."""
    import numpy as np
    top = max(xs)
    t = np.zeros(1, dtype=np.int8)
    while len(t) <= top:
        t = np.concatenate([t, 1 - t])          # Thue-Morse parities
    code = 2 * t[2:top + 1].astype(np.int64) + t[1:top]   # index n-2 for n = 2..top
    out = {}
    for X in xs:
        counts = np.bincount(code[:max(X - 1, 0)], minlength=4)
        out[X] = [[int(counts[0]), int(counts[1])], [int(counts[2]), int(counts[3])]]
    return out


# ---------------------------------------------------------------- sweep

def brute_sums(q: int, xs: list[int]) -> dict[int, dict[int, tuple[int, int]]]:
    """r -> X -> (S_q(X, r), U_q(X, r)) by direct numpy summation over n <= max(xs)."""
    import numpy as np
    n = np.arange(max(xs) + 1, dtype=np.int64)
    sign_n = 1 - 2 * (np.bitwise_count(n) & 1).astype(np.int64)
    at = np.array(xs)
    out = {}
    for r in range(q):
        sign_v = 1 - 2 * (np.bitwise_count(q * n + r) & 1).astype(np.int64)
        sign_v[0] = 0          # sums start at n = 1
        S = np.cumsum(sign_n * sign_v)[at]
        U = np.cumsum(sign_v)[at]
        out[r] = {X: (int(s), int(u)) for X, s, u in zip(xs, S, U)}
    return out


# ---------------------------------------------------------------- spectra

def transfer_matrix(q: int) -> list[list[int]]:
    """Coefficients of sum_{n<=Y} eps(n)eps(qn+s) in the half-size sums.

    n = 2m keeps eps(n) = eps(m) and maps qn + s to q m + s/2 (s even) or
    flips a sign (s odd); n = 2m + 1 flips eps(n) and maps to
    q m + (q + s - 1)/2 or (q + s)/2.
    """
    M = [[0] * q for _ in range(q)]
    for s in range(q):
        if s % 2 == 0:
            M[s][s // 2] += 1
            M[s][(q + s - 1) // 2] += 1
        else:
            M[s][(s - 1) // 2] -= 1
            M[s][(q + s) // 2] -= 1
    return M


def det_mod(M: list[list[int]], prime: int) -> int:
    """det M modulo a prime below 2^31, by elimination in int64."""
    import numpy as np
    a = np.array(M, dtype=np.int64) % prime
    n, det = len(M), 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if len(nz) == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
            det = -det
        det = det * int(a[c, c]) % prime
        inv = pow(int(a[c, c]), prime - 2, prime)
        factors = a[c + 1:, c] * inv % prime
        a[c + 1:, c:] = (a[c + 1:, c:] - factors[:, None] * a[c, c:]) % prime
    return det % prime


def char_poly_ok(q: int, coeffs: list[int]) -> bool:
    """coeffs (ascending, monic, degree q) equal det(tI - M) at sample t mod primes."""
    if len(coeffs) != q + 1 or coeffs[-1] != 1:
        return False
    M = transfer_matrix(q)
    for t in (3, 7):
        shifted = [[(t if i == j else 0) - M[i][j] for j in range(q)] for i in range(q)]
        for prime in _PRIMES:
            value = sum(c * pow(t, k, prime) for k, c in enumerate(coeffs)) % prime
            if value != det_mod(shifted, prime):
                return False
    return True


def spectral_radius(q: int) -> float:
    import numpy as np
    return float(max(abs(np.linalg.eigvals(np.array(transfer_matrix(q), dtype=float)))))


# ---------------------------------------------------------------- fits

def ols_fit(by_X: dict[int, float]) -> dict:
    """Least squares of log2(max(v, 1)) on log2(X), as the CLI reports it."""
    xs = sorted(by_X)
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(max(by_X[x], 1.0)) for x in xs]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx
    intercept = my - slope * mx
    return {"slope": slope, "intercept": intercept,
            "max_residual": max(abs(b - (slope * a + intercept)) for a, b in zip(lx, ly)),
            "n_samples": len(xs), "n_clamped": sum(1 for x in xs if by_X[x] < 1)}


def _close(got, want, rtol=FLOAT_RTOL, atol=0.0) -> bool:
    return abs(float(got) - want) <= atol + rtol * abs(want)


def _fit_ok(got: dict, want: dict) -> bool:
    return (set(got) == set(want)
            and got["n_samples"] == want["n_samples"]
            and got["n_clamped"] == want["n_clamped"]
            and all(_close(got[k], want[k], FIT_TOL, FIT_TOL)
                    for k in ("slope", "intercept", "max_residual")))


# ---------------------------------------------------------------- parsing

def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty csv")
    return rows[0], rows[1:]


def _number(text: str):
    return float(text) if any(ch in text for ch in ".eE") else int(text)


def _records(text: str, fmt: str, header: list[str]) -> tuple[list[dict], dict]:
    """Rows of a CLI table as dicts of numbers, plus the JSON envelope."""
    if fmt == "json":
        obj = json.loads(text)
        return obj["rows"], obj
    head, rows = _csv(text)
    if head != header:
        raise ValueError(f"header {head} != {header}")
    return [dict(zip(header, map(_number, row))) for row in rows], {}


# ---------------------------------------------------------------- per command

def _expected_corr(spec) -> dict:
    return shift_sums(spec["q"], spec["X"], corr=True)


def _check_corr(spec, text):
    want = _expected_corr(spec)
    rows, obj = _records(text, spec.get("format", "csv"), ["X", "r", "value"])
    q = spec["q"]
    if obj and (obj["q"] != q or obj["shifts"] != list(range(q))):
        return False, "json envelope", 0
    expect = [(X, r, want[X][r]) for X in spec["X"] for r in range(q)]
    got = [(row["X"], row["r"], row["value"]) for row in rows]
    if got != expect:
        return False, "corr values mismatch", 0
    return True, "", len(expect)


def _expected_count(spec) -> dict:
    q = spec["q"]
    S = shift_sums(q, spec["X"], corr=True)
    U = shift_sums(q, spec["X"], corr=False)
    return {X: [count_cells(q, r, X, S[X][r], U[X][r]) for r in range(q)] for X in spec["X"]}


def _check_count(spec, text):
    want = _expected_count(spec)
    q, fmt = spec["q"], spec.get("format", "csv")
    rows, obj = _records(text, fmt, ["X", "q", "r", "i", "k", "cell", "deviation"])
    expect = [(X, q, r, i, k, want[X][r][i][k])
              for X in spec["X"] for r in range(q) for i in (0, 1) for k in (0, 1)]
    got = [(row["X"], row["q"], row["r"], row["i"], row["k"], row["cell"]) for row in rows]
    if got != expect:
        return False, "count cells mismatch", 0
    worst = {}
    for row in rows:
        dev = (4 * row["cell"] - row["X"]) / 4     # exact quarters, one rounding
        if not _close(row["deviation"], dev, atol=1e-12):
            return False, f"deviation {row['deviation']} != {dev}", 0
        worst[row["X"]] = max(worst.get(row["X"], 0.0), abs(dev))
    if fmt == "json":
        if obj["q"] != q or obj["shifts"] != list(range(q)) or obj["extension"]:
            return False, "json envelope", 0
        if len(worst) >= 3 and min(worst) >= 2:
            if "deviation_fit" not in obj or not _fit_ok(obj["deviation_fit"], ols_fit(worst)):
                return False, "deviation_fit mismatch", 0
        elif "deviation_fit" in obj:
            return False, "unexpected deviation_fit", 0
    return True, "", len(spec["X"]) * q


def _check_adjacent(spec, text):
    fmt = spec.get("format", "csv")
    want = adjacent_tables(spec["X"])
    rows, obj = _records(text, fmt, ["X", "i", "k", "count", "main", "deviation"])
    expect = [(X, i, k, want[X][i][k]) for X in spec["X"] for i in (0, 1) for k in (0, 1)]
    if [(r["X"], r["i"], r["k"], r["count"]) for r in rows] != expect:
        return False, "adjacent counts mismatch", 0
    worst = {}
    for r in rows:
        main = r["X"] / 6 if r["i"] == r["k"] else r["X"] / 3
        dev = r["count"] - main
        if not (_close(r["main"], main) and _close(r["deviation"], dev, atol=1e-9)):
            return False, "adjacent main/deviation mismatch", 0
        worst[r["X"]] = max(worst.get(r["X"], 0.0), abs(dev))
    if fmt == "json":
        if len(worst) >= 3 and min(worst) >= 2:
            if "deviation_fit" not in obj or not _fit_ok(obj["deviation_fit"], ols_fit(worst)):
                return False, "deviation_fit mismatch", 0
    return True, "", len(spec["X"])


def _check_scan(spec, text):
    X, grid = spec["X"], spec["grid"]
    if spec.get("format") == "json":
        obj = json.loads(text)
    else:
        head, rows = _csv(text)
        if head != ["X", "grid", "max_modulus", "p"] or len(rows) != 1:
            return False, "scan csv shape", 0
        obj = dict(zip(head, rows[0]))
    mods = expsum_moduli(X, grid)
    best = float(mods.max())
    p = int(obj["p"])
    if int(obj["X"]) != X or int(obj["grid"]) != grid or not 1 <= p < grid:
        return False, "scan echo mismatch", 0
    if not _close(obj["max_modulus"], best, SCAN_RTOL):
        return False, f"max_modulus {obj['max_modulus']} != {best}", 0
    if mods[p - 1] < best * (1 - SCAN_RTOL):
        return False, f"argmax p={p} is not a maximum", 0
    if "alpha" in obj:
        g = math.gcd(p, grid)
        if obj["alpha"] != f"{p // g}/{grid // g}":
            return False, "alpha mismatch", 0
    return True, "", 1


def _check_eigen(spec, text):
    q = spec["q"]
    obj = json.loads(text)
    if obj["q"] != q:
        return False, "q mismatch", 0
    if not char_poly_ok(q, obj["char_poly"]):
        return False, "char_poly is not det(xI - M)", 0
    if sum(root["multiplicity"] for root in obj["roots"]) != q:
        return False, "root multiplicities do not sum to q", 0
    radius = spectral_radius(q)
    if abs(obj["radius"] - radius) > EIGEN_TOL:
        return False, f"radius {obj['radius']} != numpy {radius}", 0
    if abs(obj["exponent"] - math.log2(radius)) > EIGEN_TOL:
        return False, f"exponent {obj['exponent']} != numpy {math.log2(radius)}", 0
    return True, "", 1


def _check_fit(spec, text):
    src = spec["source"]
    if src["cmd"] == "corr":
        vals = _expected_corr(src)
        by_X = {X: float(max(abs(v) for v in vals[X])) for X in src["X"]}
    else:
        tables = _expected_count(src)
        by_X = {X: max(abs(4 * c - X) for t in tables[X] for row in t for c in row) / 4
                for X in src["X"]}
    want = ols_fit(by_X)
    if spec.get("format", "json") == "json":
        got = json.loads(text)
    else:
        head, rows = _csv(text)
        got = {h: (int(v) if h.startswith("n_") else float(v)) for h, v in zip(head, rows[0])}
    if not _fit_ok(got, want):
        return False, f"fit {got} != {want}", 0
    return True, "", 0


_CLI = {"corr": _check_corr, "count": _check_count, "adjacent": _check_adjacent,
        "scan": _check_scan, "eigen": _check_eigen, "fit": _check_fit}
_SWEEP_FNS = ("correlation.corr_fast", "correlation.dilation_sum",
              "counting.count_classes_fast")


class Oracle:
    """Checks the outputs of one job list; shares brute-force tables across jobs."""

    def __init__(self, jobs: list[dict]):
        xs_by_q: dict[int, set[int]] = {}
        for job in jobs:
            for fn, args in job["spec"].get("calls", []):
                if fn in _SWEEP_FNS:
                    xs_by_q.setdefault(args[0], set()).add(args[2])
        self.sweep = {q: brute_sums(q, sorted(xs)) for q, xs in xs_by_q.items()}

    def _call(self, fn, args):
        if fn == "digitseq.gelfond_count":
            X, l, m, j = args
            return gelfond_table(X, m)[l % m][j]
        q, r, X = args
        S, U = self.sweep[q][r][X]
        return {"correlation.corr_fast": S, "correlation.dilation_sum": U,
                "counting.count_classes_fast": count_cells(q, r, X, S, U)}[fn]

    def _lib(self, spec, values):
        if len(values) != len(spec["calls"]):
            return False, "wrong number of results", 0
        for (fn, args), value in zip(spec["calls"], values):
            want = self._call(fn, args)
            if value != want:
                return False, f"{fn}{tuple(args)} = {value}, want {want}", 0
        return True, "", len(values)

    def check(self, spec: dict, output) -> tuple[bool, str, int]:
        """Compare one job's output with the independent answer.

        Returns (ok, reason, number of results the job produced).
        """
        try:
            if "calls" in spec:
                return self._lib(spec, output)
            return _CLI[spec["cmd"]](spec, output)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return False, f"unparseable output: {type(exc).__name__}: {exc}", 0
