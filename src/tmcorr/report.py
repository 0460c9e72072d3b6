"""CSV/JSON serialization of the CLI's records, and exponent fitting.

``emit`` writes every CSV and JSON the package produces.  A payload is a
dict: JSON prints it whole; CSV prints a header of the chosen columns and
one line per record of ``payload["rows"]`` (or the payload itself when
it has no rows), with LF endings.  Integers are written without a decimal
point and reals with 12 significant digits, so integer values round-trip
losslessly.

A ladder is an ordered list of (X, value) samples; its growth exponent is
the least-squares slope in log2-log2 space.
"""

import json
import math
import statistics
from dataclasses import dataclass


def format_number(x) -> str:
    """Fixed-format scalar: integers verbatim, floats at 12 significant digits."""
    if isinstance(x, bool):
        raise TypeError("booleans are not serialized")
    if isinstance(x, int):
        return str(x)
    if x == int(x) and abs(x) < 2**53:
        return str(int(x))
    return f"{x:.12g}"


def round12(x: float) -> float:
    """x rounded to the 12 significant digits that every printed real carries."""
    return float(f"{x:.12g}")


def emit(payload: dict, format: str = "csv", columns=()) -> str:
    """Serialize a record payload as json, or as csv with the given columns.

    CSV values go through format_number; strings pass through as they are.
    """
    if format == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    lines = [",".join(columns)]
    for record in payload.get("rows", (payload,)):
        lines.append(",".join(v if isinstance(v, str) else format_number(v)
                              for v in map(record.__getitem__, columns)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SumLadder:
    """(X, value) samples with strictly increasing X."""

    samples: tuple[tuple[int, float], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("ladder X values must be strictly increasing")
        if any(x < 0 for x in xs):
            raise ValueError("ladder X values must be nonnegative")


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line in log2-log2 space.

    n_clamped counts samples whose value was clamped from below to 1
    before taking logs (exact cancellations produce zero values).
    """

    slope: float
    intercept: float
    max_residual: float
    n_samples: int
    n_clamped: int


def fit_exponent(ladder: SumLadder) -> ExponentFit:
    """Ordinary least squares of log2(value) against log2(X).

    Needs >= 3 samples with X >= 2; values below 1 (including exact
    zeros) are clamped to 1 and counted in n_clamped.
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
    slope, intercept = statistics.linear_regression(xs, ys)
    max_residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return ExponentFit(slope=slope, intercept=intercept,
                       max_residual=max_residual,
                       n_samples=len(ladder.samples), n_clamped=n_clamped)


def fit_record(fit: ExponentFit) -> dict:
    """The printed fields of a fit, reals rounded by round12."""
    return {"slope": round12(fit.slope),
            "intercept": round12(fit.intercept),
            "max_residual": round12(fit.max_residual),
            "n_samples": fit.n_samples,
            "n_clamped": fit.n_clamped}
