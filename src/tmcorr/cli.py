"""Command-line front end wiring the library into reproducible experiments.

Every subcommand is deterministic: identical flags produce byte-identical
output.  Ladder arguments take the form ``2^a..2^b[:step]`` (powers of
two, step applied to the exponent) or a single integer point; ``a..a``
with a raw integer is accepted as a single point.
"""

import argparse
import csv
import functools
import math
import sys

from .digitseq import eps, class_of
from .correlation import corr_naive, build_transfer, shift_vectors
from .spectral import DEFAULT_SEED, MAX_DIM, RootFindingError, spectral_report
from .expsum import RationalPhase, scan_alpha
from .counting import _adjacent_tables, _cells
from .report import SumLadder, emit, fit_exponent, fit_record, round12

NAIVE_CHECK_LIMIT = 10**5
EXTENSION_LIMIT = 2**10   # count --extension walks shifts 0..r over the last bitlen(r - q) bits


def _parse_exponent(text: str) -> int:
    exponent = int(text)
    if exponent < 0:
        raise ValueError("powers of two need a nonnegative exponent")
    return exponent


def _parse_point(token: str) -> int:
    if token.startswith("2^"):
        return 2 ** _parse_exponent(token[2:])
    return int(token)


def parse_ladder(spec: str) -> list[int]:
    """Expand a ladder argument into a sorted list of X values."""
    body, step = spec, 1
    if ":" in spec:
        body, step_text = spec.rsplit(":", 1)
        step = int(step_text)
        if step < 1:
            raise ValueError("ladder step must be >= 1")
    if ".." in body:
        lo_text, hi_text = body.split("..", 1)
        if lo_text.startswith("2^") and hi_text.startswith("2^"):
            lo_exp, hi_exp = _parse_exponent(lo_text[2:]), _parse_exponent(hi_text[2:])
            if hi_exp < lo_exp:
                raise ValueError("ladder upper exponent below lower")
            return [2 ** e for e in range(lo_exp, hi_exp + 1, step)]
        point, hi = _parse_point(lo_text), _parse_point(hi_text)
        if point != hi:
            raise ValueError("raw integer ranges must be single points; "
                             "use 2^a..2^b for geometric ladders")
    else:
        point = _parse_point(body)
    if point < 0:
        raise ValueError("ladder points must be nonnegative")
    return [point]


def _parse_shifts(text: str, q: int, extension: bool | None = None) -> list[int]:
    if q < 1 or q % 2 == 0:
        raise ValueError("multiplier must be odd")
    if text == "all":
        return list(range(q))
    r = int(text)
    if r < 0 or (not extension and r >= q):
        hint = "; pass --extension for exploratory r >= q" if extension is False else ""
        raise ValueError(f"shift must satisfy 0 <= r < q, got r={r} q={q}{hint}")
    if r >= q and r > EXTENSION_LIMIT:
        raise ValueError(f"extension shifts are refused for r > {EXTENSION_LIMIT}")
    return [r]


def cmd_eps(args) -> str:
    n = _parse_point(args.n)
    return f"{eps(n):+d} class={class_of(n)} bits={n.bit_count()}\n"


def cmd_corr(args) -> str:
    q = args.q
    shifts = _parse_shifts(args.shift, q)
    ladder = parse_ladder(args.ladder)
    sums = shift_vectors(q, ladder)
    rows = [(X, r, sums[X][r]) for X in ladder for r in shifts]
    columns = ["X", "r", "value"]
    if args.naive_check:
        for X, r, value in rows:
            if X <= NAIVE_CHECK_LIMIT and corr_naive(q, r, X) != value:
                raise ValueError(f"fast/naive mismatch at q={q} r={r} X={X}")
        rows = [(*row, "ok" if row[0] <= NAIVE_CHECK_LIMIT else "skipped") for row in rows]
        columns.append("check")
    return emit({"q": q, "shifts": shifts, "rows": rows}, args.format, columns)


def cmd_eigen(args) -> str:
    if args.format == "csv":
        raise ValueError("eigen output is json only")
    if args.q > MAX_DIM:                       # before the dense q x q transfer exists
        raise ValueError(f"dimension {args.q} exceeds limit {MAX_DIM}")
    rep = spectral_report(build_transfer(args.q), seed=args.seed)
    payload = {
        "q": args.q,
        "char_poly": list(rep.poly.coeffs),
        "roots": [{"re": round12(z.real), "im": round12(z.imag), "multiplicity": m}
                  for z, m in rep.roots],
        "radius": round12(rep.radius),
        "exponent": round12(rep.exponent),
    }
    return emit(payload, "json")


def _fit(worst: dict) -> dict:
    """The fit record of worst, X -> the largest |value| at X."""
    return fit_record(fit_exponent(SumLadder(samples=tuple(sorted(worst.items())))))


def _emit_ladder(payload: dict, format: str, columns: list[str], worst: dict) -> str:
    """Emit the rows; JSON also gets the fit of worst, X -> the largest
    |deviation| at X, when it spans >= 3 X, all >= 2."""
    if format == "json" and len(worst) >= 3 and min(worst) >= 2:
        payload["deviation_fit"] = _fit(worst)
    return emit(payload, format, columns)


def cmd_count(args) -> str:
    q = args.q
    shifts = _parse_shifts(args.shift, q, extension=args.extension)
    ladder = parse_ladder(args.ladder)
    rows, worst, cells = [], {}, _cells(q, ladder, shifts)
    for X in ladder:
        d4 = []   # 4 * cell - X, the deviation in exact quarters
        for r, c00, c01, c10, c11 in cells[X]:
            d00, d01, d10, d11 = 4 * c00 - X, 4 * c01 - X, 4 * c10 - X, 4 * c11 - X
            rows += ((X, q, r, 0, 0, c00, d00 / 4), (X, q, r, 0, 1, c01, d01 / 4),
                     (X, q, r, 1, 0, c10, d10 / 4), (X, q, r, 1, 1, c11, d11 / 4))
            d4 += (d00, d01, d10, d11)
        worst[X] = max(max(d4), -min(d4)) / 4
    return _emit_ladder({"q": q, "shifts": shifts, "extension": bool(args.extension), "rows": rows},
                        args.format, ["X", "q", "r", "i", "k", "cell", "deviation"], worst)


def cmd_adjacent(args) -> str:
    ladder = parse_ladder(args.ladder)
    rows, worst = [], {}
    for X, F in _adjacent_tables(ladder).items():
        for i, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
            # exact deviation in sixths/thirds; F - X/d in floats
            # loses digits from about 2^15 and all of them by 2^60
            d = 6 if i == k else 3
            dev = round12((d * F[i][k] - X) / d)
            rows.append((X, i, k, F[i][k], round12(X / d), dev))
            worst[X] = max(worst.get(X, 0.0), abs(dev))
    return _emit_ladder({"rows": rows}, args.format,
                        ["X", "i", "k", "count", "main", "deviation"], worst)


def cmd_scan(args) -> str:
    X = _parse_point(args.X)
    result = scan_alpha(X, args.grid)
    alpha = RationalPhase(result.argmax_p, result.grid)
    payload = {"X": result.X, "grid": result.grid,
               "max_modulus": round12(result.max_modulus),
               "p": result.argmax_p, "alpha": f"{alpha.p}/{alpha.q}"}
    return emit(payload, args.format, ["X", "grid", "max_modulus", "p"])


def cmd_fit(args) -> str:
    with open(args.path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("need >= 3 samples")
        for col in ("value", "deviation", "count"):
            if col in reader.fieldnames:
                break
        else:
            raise ValueError("no value/deviation/count column to fit")
        if "X" not in reader.fieldnames:
            raise ValueError("no X column to fit against")
        worst: dict[int, float] = {}
        for row in reader:
            try:
                X = int(row["X"] or "")   # a short row leaves its missing cells None
            except ValueError:
                raise ValueError(f"X must be an integer at row {reader.line_num}") from None
            if None in row:           # and a long row keeps its extra cells under None
                raise ValueError(f"extra field at X={X}")
            try:
                v = float(row[col] or "nan")
            except ValueError:
                raise ValueError(f"{col} must be a number at X={X}") from None
            if not math.isfinite(v):
                raise ValueError(f"missing or non-finite {col} at X={X}")
            worst[X] = max(worst.get(X, 0.0), abs(v))
    record = _fit(worst)
    return emit(record, args.format, list(record))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="tmcorr",
        description="Exact Thue-Morse correlation sums, transfer-matrix "
                    "spectra, exponential sums, and class-pair counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, default_format="csv"):
        p.set_defaults(func=func)
        if default_format is not None:
            p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("eps", help="sign, class, and bit count of n")
    p.add_argument("n")
    add_common(p, cmd_eps, default_format=None)

    p = sub.add_parser("corr", help="correlation sums S_q(X, r) over a ladder")
    p.add_argument("q", type=int)
    p.add_argument("shift", help="shift r, or 'all'")
    p.add_argument("ladder")
    p.add_argument("--naive-check", action="store_true",
                   help="cross-validate against the direct loop (X <= 1e5)")
    add_common(p, cmd_corr)

    p = sub.add_parser("eigen", help="transfer-matrix spectrum for odd q")
    p.add_argument("q", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="root-finder restart seed, used only if the first run fails")
    add_common(p, cmd_eigen, default_format="json")

    p = sub.add_parser("count", help="class-pair count tables over a ladder")
    p.add_argument("q", type=int)
    p.add_argument("shift", help="shift r, or 'all'")
    p.add_argument("ladder")
    p.add_argument("--extension", action="store_true",
                   help="allow exploratory shifts r >= q (no main-term claim)")
    add_common(p, cmd_count)

    p = sub.add_parser("adjacent", help="adjacent-pair class tables over a ladder")
    p.add_argument("ladder")
    add_common(p, cmd_adjacent)

    p = sub.add_parser("scan", help="max |exponential sum| over a phase grid")
    p.add_argument("X")
    p.add_argument("grid", type=int)
    add_common(p, cmd_scan)

    p = sub.add_parser("fit", help="log-log exponent fit of a CSV ladder")
    p.add_argument("path")
    add_common(p, cmd_fit, default_format="json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # X, the sums and the cells may have any number of decimal digits; Python
    # caps int <-> str conversion at 4300 digits (from 3.10.7) unless lifted
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    # a CSV field that `fit` reads back holds one such number
    field_limit = csv.field_size_limit(sys.maxsize)
    try:
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, OverflowError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        csv.field_size_limit(field_limit)
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
