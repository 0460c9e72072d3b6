"""Spans and work counters around tmcorr's public functions.

The wrappers live here, not in tmcorr: ``Tracer.install()`` replaces each
traced function in its home module and everywhere another tmcorr module
imported it (``cli``, ``counting``, the package namespace), so calls made
by the library itself are seen too.  Spans are kept in memory as
``(id, parent, name, start, end, failed, job)`` tuples; ``layer_totals``
folds one pass of them into calls, self time and failures per name.
Stdlib only: the timed child must not import numpy.
"""

import sys
import time


def _bits(X) -> int:
    return X.bit_length() if isinstance(X, int) else 0


# (module, function) -> counters derived from the call's arguments
TRACED = {
    ("digitseq", "gelfond_count"):
        lambda X, l, m, j: {"digitseq.gelfond_count.states": 2 * m * _bits(X)},
    ("correlation", "corr_fast"):
        lambda q, r, X, memo=None: {"correlation.shift_levels": q * _bits(X)},
    ("correlation", "dilation_sum"):
        lambda q, r, X, memo=None: {"correlation.shift_levels": q * _bits(X)},
    ("correlation", "build_transfer"): None,
    ("counting", "count_classes_fast"): None,
    ("counting", "count_adjacent"): lambda X: {"counting.count_adjacent.n": X},
    ("expsum", "expsum_fast"):
        lambda alpha, X: {"expsum.expsum_fast.levels": _bits(X)},
    ("expsum", "scan_alpha"): None,
    ("spectral", "char_poly"):
        lambda M: {"spectral.char_poly.mult_adds": (len(M) - 1) * len(M) ** 3},
    ("spectral", "roots"): None,
    ("spectral", "int_poly_gcd"): None,
    ("spectral", "cluster_roots"): None,
    ("spectral", "spectral_report"): None,
    ("report", "emit"): None,
    ("report", "fit_exponent"): None,
    ("cli", "main"): None,
}
POLY_EVALS = "spectral.roots.poly_evals"


class Tracer:
    """Records a span per traced call and adds up work counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack: list[int] = []
        self._next = 0

    def reset(self) -> None:
        self.spans, self.counts = [], {}

    def _count(self, deltas: dict) -> None:
        for key, value in deltas.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            if counter is not None:
                self._count(counter(*args, **kwargs))
            sid, self._next = self._next, self._next + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, failed, self.job))
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever tmcorr modules reference it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "tmcorr" or k.startswith("tmcorr."))]
        for (mod, fn_name), counter in TRACED.items():
            home = sys.modules[f"tmcorr.{mod}"]
            original = getattr(home, fn_name)
            wrapper = self.wrap(f"{mod}.{fn_name}", original, counter)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
        poly = sys.modules["tmcorr.spectral"].MonicIntPolynomial
        evaluate = poly.__call__

        def counted(p, z):
            self.counts[POLY_EVALS] = self.counts.get(POLY_EVALS, 0) + 1
            return evaluate(p, z)
        poly.__call__ = counted


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, [])]
        out[sid] = (end - start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Name -> {"calls", "self_s", "failed"} over one pass of spans."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for sid, _parent, name, _start, _end, failed, _job in spans:
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        t["calls"] += 1
        t["self_s"] += own[sid]
        t["failed"] += int(failed)
    return totals
