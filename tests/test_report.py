import csv
import io
import json
import math
import random
import statistics
import sys

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
