"""Checks of the benchmark harness itself: seeding, oracles, tail, self time, speed scaling."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import oracles      # noqa: E402
import run          # noqa: E402
import speed        # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402


def _cli(argv):
    from tmcorr import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = workloads.make_jobs(workload, 7, "w")
    assert json.dumps(first) == json.dumps(workloads.make_jobs(workload, 7, "w"))
    assert json.dumps(first) != json.dumps(workloads.make_jobs(workload, 8, "w"))


def test_ladder_job_list_shape():
    jobs = workloads.make_jobs("ladder", 3, "w")[len(workloads.smoke(3, "w")):]
    specs = [j["spec"] for j in jobs]
    assert any(s["cmd"] in ("corr", "count") and s["q"] >= 47 for s in specs)
    assert max(max(s["X"]) for s in specs if s["cmd"] != "fit"
               and not oracles.known_defect(s)).bit_length() > 100
    assert sum(s["cmd"] == "fit" for s in specs) == 2
    assert sum(bool(oracles.known_defect(s)) for s in specs) == 1


def test_spectra_covers_every_odd_q():
    qs = sorted(j["spec"]["q"] for j in workloads.spectra(5, "w"))
    assert sorted(set(qs)) == list(range(3, 64, 2))
    assert [q for q in range(3, 64, 2) if qs.count(q) == 3] == list(range(25, 36, 2))
    assert len(qs) == 31 + 12
    assert sum(bool(oracles.known_defect({"cmd": "eigen", "q": q})) for q in set(qs)) == 9
    # elsewhere only a root-finder failure is a known defect, never a wrong answer
    spec = {"cmd": "eigen", "q": 25}
    assert oracles.known_defect(spec, "RootFindingError: root iteration did not converge")
    assert not oracles.known_defect(spec, "exponent 1.2 != numpy 1.1")


def test_oracle_accepts_true_and_rejects_injected_wrong_corr():
    spec = {"cmd": "corr", "q": 5, "X": [2 ** e for e in range(10, 60, 7)],
            "ladder": "2^10..2^59:7", "format": "csv"}
    job = workloads.cli_job(spec)
    text = _cli(job["argv"])
    oracle = oracles.Oracle([job])
    assert oracle.check(spec, text) == (True, "", 5 * len(spec["X"]))
    lines = text.splitlines()
    X, r, value = lines[4].split(",")
    lines[4] = f"{X},{r},{int(value) + 1}"
    ok, reason, _ = oracle.check(spec, "\n".join(lines) + "\n")
    assert not ok and "mismatch" in reason


def test_oracle_rejects_injected_wrong_count_scan_and_library_values():
    count = {"cmd": "count", "q": 3, "X": [2 ** 100 + 12345], "format": "json"}
    text = _cli(workloads.cli_job(count)["argv"])
    assert oracles.Oracle([]).check(count, text)[0]
    obj = json.loads(text)
    obj["rows"][2]["cell"] += 1
    assert not oracles.Oracle([]).check(count, json.dumps(obj))[0]

    scan = {"cmd": "scan", "X": 2 ** 30 + 7, "grid": 50, "format": "json"}
    obj = json.loads(_cli(workloads.cli_job(scan)["argv"]))
    assert oracles.Oracle([]).check(scan, json.dumps(obj))[0]
    obj["max_modulus"] *= 1 + 1e-6
    assert not oracles.Oracle([]).check(scan, json.dumps(obj))[0]

    from tmcorr import corr_fast, dilation_sum, gelfond_count
    X = 2 ** 19 + 5
    job = workloads.lib_job(("correlation.corr_fast", [7, 3, X]),
                            ("correlation.dilation_sum", [7, 3, X]))
    oracle = oracles.Oracle([job])
    values = [corr_fast(7, 3, X), dilation_sum(7, 3, X)]
    assert oracle.check(job["spec"], values) == (True, "", 2)
    assert not oracle.check(job["spec"], [values[0], values[1] - 2])[0]
    g = workloads.lib_job(("digitseq.gelfond_count", [10 ** 30, 4, 37, 1]))
    assert oracle.check(g["spec"], [gelfond_count(10 ** 30, 4, 37, 1)])[0]
    assert not oracle.check(g["spec"], [gelfond_count(10 ** 30, 4, 37, 1) + 1])[0]


def test_oracle_checks_eigen_exponent_against_numpy():
    spec = {"cmd": "eigen", "q": 5, "root_seed": 1}
    obj = json.loads(_cli(workloads.cli_job(spec)["argv"]))
    assert oracles.Oracle([]).check(spec, json.dumps(obj))[0]
    obj["exponent"] += 2e-9
    assert not oracles.Oracle([]).check(spec, json.dumps(obj))[0]
    obj["exponent"] -= 2e-9
    obj["char_poly"][0] += 1
    assert not oracles.Oracle([]).check(spec, json.dumps(obj))[0]


def test_independent_evaluators_agree_with_brute_force():
    for q in (3, 7):
        xs = [1, 2, 5, 64, 1000, 1023]
        brute = oracles.brute_sums(q, xs)
        S, U = oracles.shift_sums(q, xs, True), oracles.shift_sums(q, xs, False)
        for X in xs:
            assert [brute[r][X] for r in range(q)] == list(zip(S[X], U[X]))
    T = oracles.gelfond_table(1000, 7)
    for l in range(7):
        for j in (0, 1):
            assert T[l][j] == sum(1 for n in range(1, 1001)
                                  if n % 7 == l and bin(n).count("1") % 2 == j)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_fraction(100) == 0.9
    assert run.tail_fraction(25) == 0.6
    assert run.tail_fraction(10) == 1.0
    samples = [float(v) for v in range(100, 0, -1)]
    tail = run.harrell_davis(samples, run.tail_fraction(100))
    assert 90 < tail < 91 and sum(s > tail for s in samples) == 10
    assert run.harrell_davis([3.0, 1.0, 2.0], 1.0) == 3.0


def test_harrell_davis_is_a_smoothed_percentile():
    xs = [float(v) for v in range(1, 24)]
    assert run.harrell_davis(xs, 0.5) == pytest.approx(12.0)
    assert run.harrell_davis([5.0] * 7, 0.73) == pytest.approx(5.0)
    # a gap at the median: swapping the two middle jobs' ranks moves the
    # nearest-rank median across the whole gap, the estimate much less
    low = [1.0] * 10 + [2.0, 100.0] + [200.0] * 10
    high = [1.0] * 10 + [100.0, 100.0] + [200.0] * 10
    assert abs(run.harrell_davis(high, 0.5) - run.harrell_davis(low, 0.5)) < 0.3 * 98


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        (0, None, "root", 0.0, 10.0, False, 0),
        (1, 0, "a", 1.0, 3.0, False, 0),
        (2, 0, "b", 2.0, 5.0, True, 0),       # overlaps a: union [1, 5]
        (3, 0, "a", 7.0, 8.0, False, 0),
        (4, 1, "leaf", 1.5, 2.0, False, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 5.0, 1: 1.5, 2: 3.0, 3: 1.0, 4: 0.5}
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "self_s": 2.5, "failed": 0}
    assert totals["b"]["failed"] == 1


def test_times_are_rescaled_by_the_run_mean_of_the_reference_units():
    ref = speed.REFERENCE_UNIT_S
    # the units took 1, 3 and 2 reference times: the host ran at half speed on average
    child = {"passes": [{"ms": [100.0, 300.0], "units": [ref, 3 * ref]},
                        {"ms": [300.0, 500.0], "units": [2 * ref]}]}
    assert run.run_scale(child) == pytest.approx(0.5)
    assert run.mean_pass_s(child) == pytest.approx(0.6)
    assert speed.reference_unit() == speed.UNIT_VALUE


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
