import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tmcorr import count_adjacent
from tmcorr.cli import EXTENSION_LIMIT, main, parse_ladder
from tmcorr.expsum import MAX_GRID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ladder_forms():
    assert parse_ladder("8") == [8]
    assert parse_ladder("2^10") == [1024]
    assert parse_ladder("4..4") == [4]
    assert parse_ladder("2^3..2^6") == [8, 16, 32, 64]
    assert parse_ladder("2^4..2^10:3") == [16, 128, 1024]


def test_parse_ladder_errors():
    with pytest.raises(ValueError):
        parse_ladder("4..8")
    with pytest.raises(ValueError):
        parse_ladder("2^8..2^4")
    with pytest.raises(ValueError):
        parse_ladder("2^4..2^8:0")
    with pytest.raises(ValueError, match="ladder points must be nonnegative"):
        parse_ladder("-5")
    with pytest.raises(ValueError, match="ladder points must be nonnegative"):
        parse_ladder("-5..-5")


def test_eps_command(capsys):
    code, out, _ = run_cli(capsys, "eps", "3")
    assert code == 0 and out == "+1 class=0 bits=2\n"
    code, out, _ = run_cli(capsys, "eps", "7")
    assert code == 0 and out == "-1 class=1 bits=3\n"
    code, out, _ = run_cli(capsys, "eps", "0")
    assert code == 0 and out == "+1 class=0 bits=0\n"
    with pytest.raises(SystemExit):        # eps prints plain text only
        main(["eps", "7", "--format", "json"])


def test_corr_ladder_row_count(capsys):
    code, out, _ = run_cli(capsys, "corr", "3", "all", "2^10..2^20")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "X,r,value"
    assert len(lines) == 1 + 3 * 11


def test_corr_naive_check(capsys):
    code, out, _ = run_cli(capsys, "corr", "3", "0", "4..4", "--naive-check")
    assert code == 0
    assert out == "X,r,value,check\n4,0,-2,ok\n"


def test_corr_naive_check_mismatch_is_one_error_line(capsys, monkeypatch):
    import tmcorr.cli
    monkeypatch.setattr(tmcorr.cli, "corr_naive", lambda q, r, X: 99)
    code, out, err = run_cli(capsys, "corr", "3", "all", "2^2..2^3", "--naive-check")
    assert code == 1
    assert out == ""
    assert err == "error: fast/naive mismatch at q=3 r=0 X=4\n"


def test_corr_rejects_even_multiplier(capsys):
    code, out, err = run_cli(capsys, "corr", "4", "0", "8..8")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: multiplier must be odd"


@pytest.mark.parametrize("argv", [("corr", "3", "all", "2^-1"),
                                  ("count", "3", "0", "2^-2..2^1"),
                                  ("scan", "2^-1", "3")])
def test_negative_power_exponent_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: powers of two need a nonnegative exponent\n"


def test_corr_json(capsys):
    code, out, _ = run_cli(capsys, "corr", "5", "2", "2^8..2^8", "--format", "json")
    payload = json.loads(out)
    assert payload["q"] == 5
    assert payload["rows"][0]["X"] == 256


def test_eigen_q3(capsys):
    code, out, _ = run_cli(capsys, "eigen", "3")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["radius"] - 1.414213562) < 1e-8
    assert abs(payload["exponent"] - 0.5) < 1e-9
    assert payload["char_poly"] == [-2, 3, -2, 1]


def test_eigen_q5(capsys):
    _, out, _ = run_cli(capsys, "eigen", "5")
    payload = json.loads(out)
    assert abs(payload["exponent"] - 0.60538) < 1e-4
    mults = sorted(r["multiplicity"] for r in payload["roots"])
    assert mults == [1, 1, 1, 2]


def test_eigen_q7_has_growth(capsys):
    _, out, _ = run_cli(capsys, "eigen", "7")
    payload = json.loads(out)
    assert payload["radius"] > 1


def test_eigen_root_finding_error_is_one_error_line(capsys, monkeypatch):
    import tmcorr.spectral
    from tmcorr import RootFindingError

    def failing(f, seed):
        raise RootFindingError("root iteration did not converge", [1e28, 3e99])

    monkeypatch.setattr(tmcorr.spectral, "_factor_roots", failing)
    code, out, err = run_cli(capsys, "eigen", "9", "--seed", "4")
    assert code == 1
    assert out == ""
    assert err == ("error: root iteration did not converge; "
                   "residuals=[1e+28, 3e+99]\n")


def test_eigen_refuses_a_too_large_q_before_building_it(capsys):
    import tracemalloc

    run_cli(capsys, "eigen", "3")                 # the parser is built once
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eigen", "4097")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == "error: dimension 4097 exceeds limit 64\n"
    assert peak < 5 * 2 ** 20, peak


def test_eigen_rejects_csv(capsys):
    code, _, err = run_cli(capsys, "eigen", "3", "--format", "csv")
    assert code == 1 and "json" in err


def test_count_rejects_even_multiplier(capsys):
    code, out, err = run_cli(capsys, "count", "4", "0", "8..8")
    assert code == 1 and out == ""
    assert err == "error: multiplier must be odd\n"


def test_count_single_point(capsys):
    code, out, _ = run_cli(capsys, "count", "3", "0", "8..8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "X,q,r,i,k,cell,deviation"
    cells = [int(line.split(",")[5]) for line in lines[1:]]
    assert cells == [3, 0, 4, 1]


def test_count_deviation_bound_2_20(capsys):
    _, out, _ = run_cli(capsys, "count", "5", "2", "2^20..2^20")
    X = 2 ** 20
    for line in out.strip().split("\n")[1:]:
        cell = int(line.split(",")[5])
        assert abs(cell - X / 4) <= 2 ** 17


def test_count_extension_flag(capsys):
    code, _, err = run_cli(capsys, "count", "3", "5", "100..100")
    assert code == 1 and "extension" in err
    code, out, _ = run_cli(capsys, "count", "3", "5", "100..100", "--extension")
    assert code == 0
    total = sum(int(line.split(",")[5]) for line in out.strip().split("\n")[1:])
    assert total == 100


@pytest.mark.parametrize("q, r, X", [(3, 5, "10000001"), (5, 7, "2^1000")])
def test_count_extension_runs_past_the_direct_loop_limit(capsys, q, r, X):
    code, out, _ = run_cli(capsys, "count", str(q), str(r), X, "--extension")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 4
    assert sum(int(line.split(",")[5]) for line in lines) == parse_ladder(X)[0]


def test_count_extension_refuses_a_shift_past_the_limit(capsys):
    code, out, err = run_cli(capsys, "count", "3", str(EXTENSION_LIMIT + 1), "8",
                             "--extension")
    assert code == 1 and out == ""
    assert err == f"error: extension shifts are refused for r > {EXTENSION_LIMIT}\n"
    code, _, _ = run_cli(capsys, "count", "3", str(EXTENSION_LIMIT), "8", "--extension")
    assert code == 0


def test_count_json_includes_fit(capsys):
    _, out, _ = run_cli(capsys, "count", "3", "all", "2^10..2^14",
                        "--format", "json")
    payload = json.loads(out)
    assert "deviation_fit" in payload
    assert payload["deviation_fit"]["n_samples"] == 5


def test_adjacent_example(capsys):
    code, out, _ = run_cli(capsys, "adjacent", "8..8")
    assert code == 0
    counts = [int(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
    assert counts == [1, 2, 2, 2]


def test_adjacent_ladder_rows_equal_the_direct_loop(capsys):
    code, out, _ = run_cli(capsys, "adjacent", "2^0..2^12")
    assert code == 0
    rows = [[int(v) for v in line.split(",")[:4]] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 4 * 13
    for X, i, k, count in rows:
        assert count == count_adjacent(X)[i][k], (X, i, k)


def test_adjacent_past_double_range_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "adjacent", "2^1100")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_scan_example(capsys):
    code, out, _ = run_cli(capsys, "scan", "2^16", "3")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[2] == "6561" and row[3] == "1"


def test_scan_grid_above_limit_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "scan", "16", str(MAX_GRID + 1))
    assert code == 1 and out == ""
    assert err == f"error: phase grid refused for grid > {MAX_GRID}\n"


def test_scan_negative_x_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "scan", "--", "-5", "7")
    assert code == 1 and out == ""
    assert err == "error: X must be nonnegative\n"


def test_fit_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "s3.csv"
    code, out, _ = run_cli(capsys, "corr", "3", "all", "2^10..2^24",
                           "--out", str(csv_path))
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "fit", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] <= 0.55


def test_fit_needs_three_samples(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("X,value\n")
    code, _, err = run_cli(capsys, "fit", str(empty))
    assert code == 1
    assert err.strip() == "error: need >= 3 samples"


@pytest.mark.parametrize("text, message", [
    ("", "need >= 3 samples"),
    ("X,slope\n4,1\n8,2\n16,3\n", "no value/deviation/count column to fit"),
    ("n,value\n4,1\n8,2\n16,3\n", "no X column to fit against"),
])
def test_fit_refuses_a_file_without_its_columns(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "fit", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_fit_missing_file(capsys):
    code, _, err = run_cli(capsys, "fit", "/nonexistent/ladder.csv")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("rows, X", [("4", 4), ("4,1\n8,nan\n16,2\n32,3", 8),
                                     ("4,1\n8,inf\n16,2\n32,3", 8)])
def test_fit_refuses_missing_or_non_finite_value(tmp_path, capsys, rows, X):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"X,value\n{rows}\n")
    code, out, err = run_cli(capsys, "fit", str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: missing or non-finite value at X={X}"]


@pytest.mark.parametrize("col, rows, X", [("value", "4,1\n8,abc\n16,3", 8),
                                          ("deviation", "4,1\n8,2\n16,0x10", 16)])
def test_fit_refuses_a_non_numeric_value_naming_its_x(tmp_path, capsys, col, rows, X):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"X,{col}\n{rows}\n")
    code, out, err = run_cli(capsys, "fit", str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {col} must be a number at X={X}"]


@pytest.mark.parametrize("rows, X", [("4,1\n8,2\n16,3,extra", 16), ("4,1\n8,2,\n16,3", 8)])
def test_fit_refuses_a_row_with_an_extra_field(tmp_path, capsys, rows, X):
    # csv.DictReader keeps the cells past the header under the key None
    bad = tmp_path / "bad.csv"
    bad.write_text(f"X,value\n{rows}\n")
    code, out, err = run_cli(capsys, "fit", str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: extra field at X={X}"]


@pytest.mark.parametrize("cell", ["", "8.5"])
def test_fit_refuses_a_non_integer_X_naming_its_row(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"X,value\n4,1\n{cell},2\n16,3\n32,4\n")
    code, out, err = run_cli(capsys, "fit", str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: X must be an integer at row 3"]


def test_fit_reads_a_field_past_the_csv_default_limit(tmp_path, capsys):
    # an X of about 2^465000 has 140,000 digits, past csv's 131,072-character
    # field limit; `corr --out` can write such a file
    big = tmp_path / "big.csv"
    zeros = "0" * 139999
    big.write_text(f"X,value\n1{zeros},5\n2{zeros},6\n4{zeros},7\n")
    limit = csv.field_size_limit()
    code, out, _ = run_cli(capsys, "fit", str(big))
    assert code == 0 and json.loads(out)["n_samples"] == 3
    assert csv.field_size_limit() == limit


def test_cli_runs_as_a_process():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "tmcorr.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = run("eps", "7")
    assert (done.returncode, done.stdout) == (0, "-1 class=1 bits=3\n")
    done = run("corr", "4", "0", "8")
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error:")
    # a command line argparse cannot parse exits 2 with a usage message
    done = run("corr", "x", "0", "5")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: tmcorr corr ")
    assert done.stderr.splitlines()[-1] == "tmcorr corr: error: argument q: invalid int value: 'x'"


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "corr", "7", "all", "2^10..2^16")
    _, out2, _ = run_cli(capsys, "corr", "7", "all", "2^10..2^16")
    assert out1 == out2
    _, e1, _ = run_cli(capsys, "eigen", "9")
    _, e2, _ = run_cli(capsys, "eigen", "9")
    assert e1 == e2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "count", "3", "0", "8..8", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("X,q,r,i,k,cell,deviation\n")


@pytest.mark.parametrize("target", ["missing-dir/out.csv", "."])
def test_out_to_an_unwritable_path_is_one_error_line(tmp_path, capsys, target):
    code, out, err = run_cli(capsys, "corr", "3", "0", "8", "--out", str(tmp_path / target))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
