"""tmcorr benchmark: one workload, checked answers, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Run from the root of a tmcorr checkout; tmcorr is imported from ./src.
The harness builds the workload's job list from --seed, runs it in a fresh
child interpreter (perfbench/child.py) in a closed loop for --seconds,
then checks every job's output against the oracles in perfbench/oracles.py
outside the timed region.  --trace 0 reports the end-to-end metrics;
--trace 1 runs the list untraced and then traced, for the same time each,
and reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.  A full
report with the run's stamp and every job's verdict is written under
.perfbench_work/.  Every time is reported in seconds at the host's
reference speed (perfbench/speed.py); raw times are in the notes.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracles      # noqa: E402
import speed        # noqa: E402
import workloads    # noqa: E402

WORKDIR = ".perfbench_work"
SETUP_PROBES = 15
SETUP_UNITS = 4          # reference units timed before and after each probe's import
RUN_DEADLINE_S = 160      # all timed children of one run together; a run must end in 180 s
TAIL_BEYOND = 10

END_TO_END = {           # name -> unit
    "wall_s": "s", "results_per_s": "1/s", "job_ms_p50": "ms", "job_ms_tail": "ms",
    "ok_ratio": "1", "setup_s": "s", "peak_rss_mb": "MB",
}
# span name -> fields reported from its spans
SPAN_FIELDS = {
    "digitseq.gelfond_count": ("calls", "self_s", "failed"),
    "correlation.corr_fast": ("calls", "self_s", "failed"),
    "correlation.dilation_sum": ("calls", "self_s", "failed"),
    "correlation.build_transfer": ("self_s",),
    "counting.count_classes_fast": ("calls", "self_s"),
    "counting.count_adjacent": ("calls", "self_s"),
    "expsum.expsum_fast": ("calls", "self_s", "failed"),
    "expsum.scan_alpha": ("calls", "self_s"),
    "spectral.char_poly": ("calls", "self_s"),
    "spectral.roots": ("calls", "self_s", "failed"),
    "spectral.int_poly_gcd": ("self_s",),
    "spectral.cluster_roots": ("self_s",),
    "spectral.spectral_report": ("self_s", "failed"),
    "report.emit": ("calls", "self_s"),
    "report.fit_exponent": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
WORK_COUNTERS = ("digitseq.gelfond_count.states", "correlation.shift_levels",
                 "counting.count_adjacent.n", "expsum.expsum_fast.levels",
                 "spectral.char_poly.mult_adds", "spectral.roots.poly_evals")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            units[f"{name}.{field}"] = "s" if field == "self_s" else "count"
    units.update({name: "count" for name in WORK_COUNTERS})
    units.update({"spectral.spectral_report.wrong": "count", "spectral.ok_ratio": "1",
                  "cli.out_bytes": "bytes", "trace.overhead_ratio": "1"})
    return units


def tail_fraction(n_jobs: int) -> float:
    """The highest quantile with TAIL_BEYOND of `n_jobs` jobs above it (1 if too few)."""
    return (n_jobs - TAIL_BEYOND) / n_jobs if n_jobs > TAIL_BEYOND else 1.0


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `samples`.

    A weighted mean of all order statistics; the i-th of n weighs the
    Beta((n+1)p, (n+1)(1-p)) probability of ((i-1)/n, i/n).  It estimates
    the same quantile as the nearest-rank value, but when neighbouring jobs
    swap ranks it moves a little instead of jumping a whole gap.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if n == 1 or b <= 0:
        return xs[-1]
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 16                  # Simpson's rule on each (i-1)/n .. i/n
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + 1 / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def stamp(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"
    if Path(".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "git_rev": rev, "nproc": os.cpu_count(), "cpu_model": cpu,
            "thread_pins": THREAD_PINS}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(raw seconds, seconds at reference speed) a fresh interpreter spends
    importing tmcorr.cli, one pair per probe.  The probe times reference
    units just before and after the import to learn the host's speed."""
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
            f"speed.time_unit(); u = [speed.time_unit() for _ in range({SETUP_UNITS})]; "
            "t0 = time.perf_counter(); import tmcorr.cli; dt = time.perf_counter() - t0; "
            f"u += [speed.time_unit() for _ in range({SETUP_UNITS})]; "
            "print(dt, dt * speed.run_scale(u), tmcorr.cli.__file__)")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(root), timeout=60)
        fields = proc.stdout.split(maxsplit=2)
        if proc.returncode != 0 or len(fields) != 3 or not _from_checkout(fields[2].strip(), root):
            raise RuntimeError(f"cannot import tmcorr.cli from ./src: {proc.stderr[-500:]}")
        times.append((float(fields[0]), float(fields[1])))
    return times


def _from_checkout(path: str, root: Path) -> bool:
    return bool(path) and Path(path).resolve().is_relative_to((root / "src").resolve())


def run_child(root: Path, jobs_path: Path, tag: str, seconds: float, trace: bool,
              deadline: float) -> dict:
    result_path = root / WORKDIR / f"child-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(jobs_path), str(result_path),
           repr(seconds), "1" if trace else "0", repr(deadline)]
    proc = subprocess.run(cmd, env=child_env(root), timeout=deadline + 5,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"timed child failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["numpy_imported"]:
        raise RuntimeError("the timed child imported numpy")
    if not _from_checkout(result["tmcorr_file"], root):
        raise RuntimeError(f"tmcorr was imported from {result['tmcorr_file']}, not ./src")
    return result


def judge(jobs: list[dict], child: dict, oracle: oracles.Oracle) -> list[dict]:
    """Per job: ok, reason, results, and whether a failure is a known defect."""
    verdicts = []
    for job, res in zip(jobs, child["jobs"]):
        spec = job["spec"]
        if res["status"] != "ok":
            ok, reason, n = False, res["output"], 0
        elif not res["stable"]:
            ok, reason, n = False, "output changed between passes", 0
        else:
            ok, reason, n = oracle.check(spec, res["output"])
        known = None if ok else oracles.known_defect(spec, reason)
        verdicts.append({"ok": ok, "reason": reason, "results": n, "known_defect": known,
                         "wrong": not ok and res["status"] == "ok",
                         "job": job.get("argv") or [f"{fn}{tuple(args)}" for fn, args in spec["calls"]]})
    return verdicts


def run_scale(child: dict) -> float:
    """Reference speed over the host's mean speed while `child` ran."""
    return speed.run_scale([s for p in child["passes"] for s in p["units"]])


def mean_pass_s(child: dict) -> float:
    """Raw job seconds of one pass, mean over the passes."""
    return statistics.mean(sum(p["ms"]) for p in child["passes"]) / 1e3


def end_to_end(child: dict, verdicts: list[dict], setup: list[tuple[float, float]],
               jobs: list[dict]) -> dict:
    """Metric -> (value, sample note).  Smoke jobs are left out of the latencies."""
    passes = child["passes"]
    scale = run_scale(child)
    raw_wall = mean_pass_s(child)
    wall = raw_wall * scale
    n_jobs, n_pass = len(verdicts), len(passes)
    results = sum(v["results"] for v in verdicts if v["ok"])
    timed = [i for i, job in enumerate(jobs) if not job.get("smoke")]
    per_pass = [[p["ms"][i] * scale for i in timed] for p in passes]
    frac = tail_fraction(len(timed))
    n_ok = sum(v["ok"] for v in verdicts)
    return {
        "wall_s": (wall, f"mean of {n_pass} passes of {n_jobs} jobs; raw {raw_wall:.4g} s "
                         f"with the host at {1 / scale:.3g}x the reference unit time"),
        "results_per_s": (results / wall, f"{results} correct results per pass, {n_pass} passes"),
        "job_ms_p50": (statistics.mean(harrell_davis(lat, 0.5) for lat in per_pass),
                       f"Harrell-Davis median of {len(timed)} jobs, mean of {n_pass} passes"),
        "job_ms_tail": (statistics.mean(harrell_davis(lat, frac) for lat in per_pass),
                        f"Harrell-Davis p{100 * frac:.1f} of {len(timed)} jobs "
                        f"({min(TAIL_BEYOND, len(timed))} beyond), mean of {n_pass} passes"),
        "ok_ratio": (n_ok / n_jobs, f"{n_ok}/{n_jobs} jobs ok, fail_ratio "
                                    f"{(n_jobs - n_ok) / n_jobs:.6f}"),
        "setup_s": (statistics.median(s for _raw, s in setup),
                    f"median of {len(setup)} fresh interpreters; raw "
                    f"{statistics.median(raw for raw, _s in setup):.4g} s"),
        "peak_rss_mb": (child["peak_rss_mb"], "high-water RSS of the timed child"),
    }


def per_layer(traced: dict, untraced: dict, verdicts: list[dict], jobs: list[dict]) -> dict:
    """Per-layer metric -> (value, sample note), medians over the traced passes."""
    scale = run_scale(traced)
    wrong = sum(v["wrong"] for job, v in zip(jobs, verdicts) if job["spec"].get("cmd") == "eigen")
    rows = []
    for p in traced["passes"]:
        layers, counts = p["layers"], p["counts"]
        row = {}
        for name, fields in SPAN_FIELDS.items():
            for field in fields:
                value = layers.get(name, {}).get(field, 0)
                row[f"{name}.{field}"] = value * scale if field == "self_s" else value
        for name in WORK_COUNTERS:
            row[name] = counts.get(name, 0)
        reports = layers.get("spectral.spectral_report", {"calls": 0, "failed": 0})
        row["spectral.spectral_report.wrong"] = wrong
        row["spectral.ok_ratio"] = ((reports["calls"] - reports["failed"] - wrong)
                                    / reports["calls"] if reports["calls"] else 0.0)
        row["cli.out_bytes"] = p["out_bytes"]
        rows.append(row)
    n = len(rows)
    out = {k: (statistics.median(r[k] for r in rows), f"median of {n} traced passes")
           for k in rows[0]}
    ratio = mean_pass_s(traced) * scale / (mean_pass_s(untraced) * run_scale(untraced)) - 1
    out["trace.overhead_ratio"] = (ratio, f"traced over untraced wall_s, {n} and "
                                          f"{len(untraced['passes'])} passes")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_PINS)        # before the oracles import numpy

    root = Path.cwd()
    if not (root / "src" / "tmcorr" / "cli.py").is_file():
        print("error: run from the root of a tmcorr checkout (no src/tmcorr/cli.py)",
              file=sys.stderr)
        return 2
    work = root / WORKDIR
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = workloads.make_jobs(args.workload, args.seed, WORKDIR)
    jobs_path = work / f"jobs-{tag}.json"
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)

    try:
        if args.trace:
            half = RUN_DEADLINE_S / 2
            untraced = run_child(root, jobs_path, tag + "-plain", args.seconds / 2, False, half)
            traced = run_child(root, jobs_path, tag, args.seconds / 2, True, half)
            children = [untraced, traced]
        else:
            setup = measure_setup(root)
            children = [run_child(root, jobs_path, tag, args.seconds, False, RUN_DEADLINE_S)]
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    oracle = oracles.Oracle(jobs)
    all_verdicts = [judge(jobs, child, oracle) for child in children]
    verdicts = all_verdicts[-1]
    if args.trace:
        metrics = per_layer(children[1], children[0], verdicts, jobs)
        units = per_layer_units()
    else:
        metrics = end_to_end(children[0], verdicts, setup, jobs)
        units = END_TO_END
    attempted = sum(len(vs) * len(c["passes"]) for vs, c in zip(all_verdicts, children))
    failed = sum(sum(not v["ok"] for v in vs) * len(c["passes"])
                 for vs, c in zip(all_verdicts, children))
    correct = all(v["ok"] or v["known_defect"] for vs in all_verdicts for v in vs)

    info = stamp(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items() if k != "thread_pins")
          + " pins=" + ",".join(f"{k}=1" for k in THREAD_PINS))
    for name, (value, note) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]:6s} {note}")
    for i, v in enumerate(verdicts):
        if not v["ok"]:
            kind = f"known defect: {v['known_defect']}" if v["known_defect"] else "UNEXPECTED"
            print(f"failed job {i}: {' '.join(v['job'])[:100]} -- {v['reason'][:120]} ({kind})")
    report = {"stamp": info, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k], "samples": note}
                          for k, (v, note) in metrics.items()},
              "verdicts": verdicts}
    with open(work / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, (v, _note) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
