"""CSV/JSON serialization of the CLI's records, and exponent fitting.

``emit`` writes every CSV and JSON the package produces.  A payload is a
dict whose ``"rows"`` are tuples in the order of the chosen columns.  JSON
prints ``json.dumps(payload, indent=2)`` plus LF with each row an object
keyed by the columns; CSV prints a header of the columns and one line per
row (or the payload itself when it has no rows).  Integers are written
verbatim and CSV reals with 12 significant digits; NaN and infinities are
refused.

A ladder is an ordered list of (X, value) samples; its growth exponent is
the least-squares slope in log2-log2 space.
"""

import math
from collections import namedtuple
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import sub


def format_number(x) -> str:
    """Fixed-format scalar: integers verbatim, floats at 12 significant digits."""
    if isinstance(x, int):
        if isinstance(x, bool):
            raise TypeError("booleans are not serialized")
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} is not serialized")
    if abs(x) < 2**53 and x == int(x):
        return str(int(x))
    return f"{x:.12g}"


def round12(x: float) -> float:
    """x rounded to the 12 significant digits that every printed real carries."""
    return float(f"{x:.12g}")


def _json(o, pad: str) -> str:
    """o as json.dumps(o, indent=2, allow_nan=False) prints it nested at indent pad."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, (int, float)):
        if o - o:                       # NaN or an infinity
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return (int if isinstance(o, int) else float).__repr__(o)
    if isinstance(o, dict):
        return "".join(_object(o, pad))
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    return _array(o, pad)


def _object(o: dict, pad: str, columns=None) -> list[str]:
    """The pieces of dict o at indent pad, to be joined once; with columns,
    o["rows"] holds tuples, each written as an object keyed by columns."""
    inner, parts = pad + "  ", []
    for k, v in o.items():
        parts += (",\n", inner, _quote(k), ": ", _array(v, inner, columns)
                  if columns is not None and k == "rows" else _json(v, inner))
    return ["{\n", *parts[1:], "\n", pad, "}"] if parts else ["{}"]


def _array(items, pad: str, keys=None) -> str:
    """List items at indent pad by one % template each: tuples as objects
    keyed by keys when they are given, dicts with one key sequence as objects
    (dict views compare as sets), else '%s'."""
    if not items:
        return "[]"
    first = tuple(items[0]) if keys is None and isinstance(items[0], dict) else None
    if first is not None and all(isinstance(row, dict) and tuple(row) == first for row in items):
        keys, items = first, [row.values() for row in items]
    inner, template, cells, n = pad + "  ", "%s", tuple(items), 1
    if keys is not None:
        inner, n, cells = pad + "    ", len(keys), tuple(chain.from_iterable(items))
        fields = f",\n{inner}".join(_quote(k).replace("%", "%%") + ": %s" for k in keys)
        template = f"{{\n{inner}{fields}\n{pad}  }}" if keys else "{}"
    # '%s' prints plain ints and finite floats as json does; x - x is NaN off the finite reals
    if not all((t := {*map(type, c)}) <= {int} or t <= {int, float} and not any(map(sub, c, c))
               for c in (cells[j::n] for j in range(n))):
        cells = tuple([_json(v, inner) for v in cells])
    text = f",\n{pad}  ".join([template] * len(items))
    return f"[\n{pad}  {text}\n{pad}]" % cells


def emit(payload: dict, format: str = "csv", columns=()) -> str:
    """Serialize a payload as json, or as csv with the given columns: CSV
    writes ints and strings as they are, other cells through format_number."""
    rows = payload["rows"] if "rows" in payload else [tuple(map(payload.__getitem__, columns))]
    if {*map(type, rows)} - {tuple} or {*map(len, rows)} - {len(columns)}:
        raise ValueError(f"rows must be tuples of one value per column of {columns}")
    if format == "json":
        return "".join([*_object(payload, "", columns), "\n"])
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    cells = [v if type(v) is int or isinstance(v, str) else format_number(v)
             for row in rows for v in row]
    return (",".join(["%s"] * len(columns)) + "\n") * (len(rows) + 1) % (*columns, *cells)


class SumLadder(namedtuple("SumLadder", "samples")):
    """(X, value) samples with strictly increasing X."""

    __slots__ = ()

    def __new__(cls, samples: tuple[tuple[int, float], ...]):
        xs = [x for x, _ in samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("ladder X values must be strictly increasing")
        if any(x < 0 for x in xs):
            raise ValueError("ladder X values must be nonnegative")
        return super().__new__(cls, samples)


class ExponentFit(namedtuple("ExponentFit",
                             "slope intercept max_residual n_samples n_clamped")):
    """Least-squares line in log2-log2 space.

    n_clamped counts samples whose value was clamped from below to 1
    before taking logs (exact cancellations produce zero values).
    """

    __slots__ = ()


def fit_exponent(ladder: SumLadder) -> ExponentFit:
    """Ordinary least squares of log2(value) against log2(X).

    Needs >= 3 samples with X >= 2 and log2(X) not all equal; values below 1
    (including exact zeros) are clamped to 1 and counted in n_clamped.  The
    sums are math.fsum's, as in statistics.linear_regression of Python 3.11.
    """
    if len(ladder.samples) < 3:
        raise ValueError("need >= 3 samples")
    if any(x < 2 for x, _ in ladder.samples):
        raise ValueError("exponent fit needs all X >= 2")
    if any(v < 0 for _, v in ladder.samples):
        raise ValueError("ladder values must be nonnegative")
    xs = [math.log2(x) for x, _ in ladder.samples]
    n_clamped = sum(1 for _, v in ladder.samples if v < 1)
    ys = [math.log2(max(v, 1.0)) for _, v in ladder.samples]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
    if not sxx:
        raise ValueError("x is constant")
    slope = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    max_residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return ExponentFit(slope=slope, intercept=intercept,
                       max_residual=max_residual,
                       n_samples=len(ladder.samples), n_clamped=n_clamped)


def fit_record(fit: ExponentFit) -> dict:
    """The printed fields of a fit, reals rounded by round12."""
    return {k: round12(v) if isinstance(v, float) else v for k, v in fit._asdict().items()}
