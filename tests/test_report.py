import csv
import io
import json
import math
import random
import statistics
import sys
from collections import OrderedDict, namedtuple

import pytest

import tmcorr.cli
from tmcorr import (RationalPhase, SumLadder, count_classes_fast, emit,
                    fit_exponent, product_formula)
from tmcorr.cli import main
from tmcorr.report import fit_record


def _ladder(values):
    return SumLadder(samples=tuple(values))


def test_fit_exact_square_root():
    ladder = _ladder((2 ** k, (2 ** k) ** 0.5) for k in range(4, 16))
    fit = fit_exponent(ladder)
    assert abs(fit.slope - 0.5) < 1e-12
    assert fit.max_residual < 1e-10
    assert fit.n_clamped == 0


def test_fit_constant_is_flat():
    fit = fit_exponent(_ladder((2 ** k, 1.0) for k in range(3, 10)))
    assert abs(fit.slope) < 1e-12


def test_fit_expsum_ladder_hits_gelfond_exponent():
    # oracle: power-of-two product formula, |value| = 3^(k/2)
    samples = []
    for k in range(8, 21):
        value = abs(product_formula(RationalPhase(1, 3), k))
        samples.append((2 ** k, value))
    fit = fit_exponent(_ladder(samples))
    assert abs(fit.slope - 0.7924818) < 1e-3


def test_fit_rescaling_moves_intercept_only():
    base = [(2 ** k, (2 ** k) ** 0.73 + k) for k in range(4, 20)]
    f1 = fit_exponent(_ladder(base))
    f2 = fit_exponent(_ladder((x, 37.5 * v) for x, v in base))
    assert abs(f1.slope - f2.slope) < 1e-12
    assert f2.intercept > f1.intercept


def test_fit_clamps_zero_values():
    fit = fit_exponent(_ladder([(4, 0.0), (8, 0.0), (16, 2.0), (32, 4.0)]))
    assert fit.n_clamped == 2


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_exponent(_ladder([(4, 1.0), (8, 2.0)]))       # too few
    with pytest.raises(ValueError):
        fit_exponent(_ladder([(1, 1.0), (8, 2.0), (16, 3.0)]))  # X < 2
    with pytest.raises(ValueError):
        fit_exponent(_ladder([(4, 1.0), (8, -2.0), (16, 3.0)]))  # negative value
    with pytest.raises(ValueError):                         # log2(X) all 60.0
        fit_exponent(_ladder([(2 ** 60, 1.0), (2 ** 60 + 1, 2.0), (2 ** 60 + 2, 3.0)]))


def test_fit_matches_statistics_linear_regression():
    # the same fsum formula as 3.10/3.11; 3.12+ sums the products with sumprod
    rng = random.Random(21)
    for _ in range(200):
        exps = sorted(rng.sample(range(1, 300), rng.randint(3, 40)))
        samples = [(2 ** e + rng.randrange(2 ** e), rng.choice((0.0, rng.uniform(0, 2 ** e))))
                   for e in exps]
        fit = fit_exponent(_ladder(samples))
        xs = [math.log2(x) for x, _ in samples]
        ys = [math.log2(max(v, 1.0)) for _, v in samples]
        want = statistics.linear_regression(xs, ys)
        for got, expected in ((fit.slope, want.slope), (fit.intercept, want.intercept)):
            if sys.version_info < (3, 12):
                assert got == expected, samples
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), samples


def test_ladder_requires_increasing_X():
    with pytest.raises(ValueError):
        SumLadder(samples=((8, 1.0), (4, 2.0)))
    with pytest.raises(ValueError):
        SumLadder(samples=((4, 1.0), (4, 2.0)))
    with pytest.raises(ValueError):
        SumLadder(samples=((-1, 1.0), (4, 2.0)))


def _cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_emit_empty_ladder_csv_header_only():
    assert emit({"rows": []}, "csv", ["X", "value"]) == "X,value\n"


def test_emit_ladder_round_trip():
    rows = [{"X": 4, "value": 3.0}, {"X": 8, "value": 0.0}, {"X": 1024, "value": 6561.0}]
    assert emit({"rows": rows}, "csv", ["X", "value"]) == "X,value\n4,3\n8,0\n1024,6561\n"
    # integers of any size come back exactly
    rows = [{"X": 2 ** 256, "value": -(3 ** 161)}, {"X": 2 ** 256 + 1, "value": 0}]
    text = emit({"rows": rows}, "csv", ["X", "value"])
    back = [{k: int(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]
    assert back == rows


def test_emit_count_table_csv(capsys):
    lines = _cli_stdout(capsys, "count", "3", "0", "8").splitlines()
    assert lines[0] == "X,q,r,i,k,cell,deviation"
    assert lines[1:] == ["8,3,0,0,0,3,1", "8,3,0,0,1,0,-2",
                         "8,3,0,1,0,4,2", "8,3,0,1,1,1,-1"]


def test_count_table_round_trip(capsys, tmp_path):
    table = count_classes_fast(5, 2, 1000)
    out = tmp_path / "count.csv"
    assert main(["count", "5", "2", "1000", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all((row["X"], row["q"], row["r"]) == ("1000", "5", "2") for row in rows)
    cells = [[0, 0], [0, 0]]
    for row in rows:
        i, k = int(row["i"]), int(row["k"])
        cells[i][k] = int(row["cell"])
        assert float(row["deviation"]) == table.deviation(i, k)
    assert tuple(map(tuple, cells)) == table.cells
    as_json = json.loads(_cli_stdout(capsys, "count", "5", "2", "1000", "--format", "json"))
    assert [row["cell"] for row in as_json["rows"]] == [c for row in table.cells for c in row]
    assert {row["X"] for row in as_json["rows"]} == {1000}


def test_emit_fit_json_fields():
    fit = fit_exponent(_ladder((2 ** k, 2.0 ** (0.5 * k)) for k in range(4, 10)))
    payload = json.loads(emit(fit_record(fit), "json"))
    assert set(payload) == {"slope", "intercept", "max_residual",
                            "n_samples", "n_clamped"}
    assert abs(payload["slope"] - 0.5) < 1e-9


def test_emit_uses_lf_and_12_digits():
    rows = [{"X": 4, "value": 1 / 3}, {"X": 8, "value": 2 / 3}, {"X": 16, "value": 4 / 3}]
    text = emit({"rows": rows}, "csv", ["X", "value"])
    assert "\r" not in text
    assert "0.333333333333" in text
    assert emit({"X": 4, "check": "ok"}, "csv", ["X", "check"]) == "X,check\n4,ok\n"


def test_emit_rejects_unknown():
    with pytest.raises(KeyError):
        emit({"rows": [{"X": 4}]}, "csv", ["X", "value"])
    with pytest.raises(ValueError):
        emit({"rows": []}, "yaml")
    with pytest.raises(TypeError) as want:
        json.dumps({"x": object()})
    with pytest.raises(TypeError) as got:
        emit({"x": object()}, "json")
    assert str(got.value) == str(want.value)


def test_emit_never_receives_a_record_whole(capsys, monkeypatch, tmp_path):
    # the records are tuples, which json.dumps would print as bare lists
    payloads = []

    def spy(payload, format="csv", columns=()):
        payloads.append(payload)
        return emit(payload, format, columns)

    def parts(value):
        yield value
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from parts(item)

    monkeypatch.setattr(tmcorr.cli, "emit", spy)
    ladder = str(tmp_path / "l.csv")
    for argv in (["corr", "3", "0", "2^10..2^20", "--out", ladder], ["fit", ladder],
                 ["count", "5", "all", "2^4..2^8", "--format", "json"],
                 ["adjacent", "2^4..2^6", "--format", "json"],
                 ["scan", "2^10", "12", "--format", "json"], ["eigen", "5"]):
        assert main(argv) == 0, argv
    assert len(payloads) == 6
    assert not [v for p in payloads for v in parts(p) if hasattr(v, "_fields")]


# keys that need escaping in json, and '%' that a % template must escape
KEYS = ("X", "value", "r%s", "%", "100%%", '"q"', "back\\slash", "tab\t", "é", "Ω≈∞", "")
Pair = namedtuple("Pair", "left right")


def _scalar(rng, numeric):
    kind = rng.randrange(4 if numeric else 7)
    if kind == 0:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if kind == 1:   # up to about 6000 digits, past the 4300-digit str() cap
        return rng.getrandbits(rng.choice((70, 300, 20000))) * rng.choice((1, -1))
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.choice((-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 2.0 ** 60))
    if kind == 4:
        return rng.choice(KEYS)
    return rng.choice((True, False, None))


def _rows(rng, numeric):
    """Dicts over one key set, some in another key order."""
    keys = rng.sample(KEYS, rng.randint(1, 5))
    return [{k: _scalar(rng, numeric) if rng.random() < 0.95 else _value(rng, 3)
             for k in (keys if rng.random() < 0.8 else rng.sample(keys, len(keys)))}
            for _ in range(rng.randint(1, 6))]


def _value(rng, depth):
    kind = rng.randrange(7) if depth < 3 else 0
    if kind == 0:
        return _scalar(rng, rng.random() < 0.5)
    if kind == 1:
        return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if kind == 2:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 3:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    if kind == 4:
        return Pair(_value(rng, depth + 1), _scalar(rng, False))
    return _rows(rng, numeric=kind == 5)


@pytest.fixture
def no_digit_cap():
    # lifted as cli.main lifts it around a command
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def _same_as_json_dumps(payload):
    assert emit(payload, "json") == json.dumps(payload, indent=2, allow_nan=False) + "\n"


def test_emit_json_is_json_dumps_on_random_payloads(no_digit_cap):
    rng = random.Random(28)
    for _ in range(400):
        payload = {rng.choice(KEYS): _value(rng, 1) for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.5:
            payload["rows"] = _rows(rng, numeric=rng.random() < 0.7)
        _same_as_json_dumps(payload)


@pytest.mark.parametrize("payload", [
    # one key set in two orders: each row keeps its own order
    {"rows": [{"a": 1, "b": 2.5}, {"b": 3, "a": 4}, {"a": 5, "b": 6}]},
    {"rows": [{"a%s": 1, "%": 2, "%%d": 3.5}] * 3},
    {"t": (1, 2.5, "x"), "n": Pair(1, [Pair(2, None)]), "e": (), "d": {}, "l": [[], {}]},
    {"rows": [{}, {}], "mixed": [{"a": 1}, {"a": "s"}, {"b": 1}, 7]},
    {"rows": [{"X": 2 ** 64, "check": "ok", "v": -0.0, "f": True, "n": None}] * 2},
    {"é\"\\": ["\x00\u2028", 5e-324, 1e308]},
    {"o": OrderedDict(a=1, b=[OrderedDict(c=2.5)] * 2), "c": list(range(-3, 70))},
])
def test_emit_json_is_json_dumps_on_the_template_traps(payload):
    _same_as_json_dumps(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_refuses_non_finite_reals_in_both_formats(bad):
    for payload in ({"v": bad}, {"rows": [{"X": 1, "v": 2.5}, {"X": 2, "v": bad}]},
                    {"rows": [{"X": 1, "v": bad, "check": "ok"}]}, {"x": [{"y": [bad]}]}):
        with pytest.raises(ValueError):
            json.dumps(payload, allow_nan=False)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON"
                                             f" compliant: {bad!r}$"):
            emit(payload, "json")
    with pytest.raises(ValueError, match=f"^non-finite value {bad!r} is not serialized$"):
        emit({"rows": [{"X": 1, "v": 2.5}, {"X": 2, "v": bad}]}, "csv", ["X", "v"])
    with pytest.raises(ValueError, match=f"^non-finite value {bad!r} is not serialized$"):
        emit({"X": 1, "v": bad}, "csv", ["X", "v"])


def test_emit_csv_cells():
    rows = [{"X": 2 ** 70, "v": 5, "s": "ok", "f": 2.5, "g": 3.0},
            {"X": 0, "v": -1, "s": "a%sb", "f": 1 / 3, "g": 1e300}]
    assert emit({"rows": rows}, "csv", ["X", "v", "s", "f", "g"]) == (
        "X,v,s,f,g\n1180591620717411303424,5,ok,2.5,3\n0,-1,a%sb,0.333333333333,1e+300\n")
    with pytest.raises(TypeError):
        emit({"rows": [{"X": 1, "v": True}]}, "csv", ["X", "v"])
