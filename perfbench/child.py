"""Timed child: runs one job list in a closed loop in a fresh interpreter.

    python3 perfbench/child.py JOBS.json RESULT.json SECONDS TRACE DEADLINE

One client, one thread: each job starts only after the previous one
returned.  The list is run in passes for about SECONDS: at least one
pass, and another only if at least half of it fits in the time left.
CLI jobs run in-process as ``tmcorr.cli.main(argv)`` with stdout and
stderr captured; library jobs make their calls in order.  Each job has a
timeout, and the whole run DEADLINE seconds, so a stalled call counts as
a failed job instead of hanging the benchmark.  Outputs of the first pass
go back to the harness, which checks them; later passes must repeat them
exactly.  Between jobs the child times units of reference work
(``speed.reference_unit``), about CAL_SHARE of the job time, so the
harness can rescale every time to the host's reference speed.  This
process never imports numpy.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import speed

JOB_TIMEOUT_S = 20.0
CAL_SHARE = 0.15        # reference-unit time per second of job time
WARM_UNITS = 50


class JobTimeout(Exception):
    """A job ran past its time limit."""


def _alarm(_signum, _frame):
    raise JobTimeout("job exceeded its time limit")


def _plain(value):
    """JSON-ready form of a library result (CountTable -> its cells)."""
    cells = getattr(value, "cells", None)
    return [list(row) for row in cells] if cells is not None else value


def run_job(job: dict, modules: dict, limit: float):
    """Run one job; returns (status, output or error text, stdout bytes)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        if "calls" in job:
            results = []
            for fn, args in job["calls"]:
                mod, name = fn.split(".")
                results.append(_plain(getattr(modules[mod], name)(*args)))
            return "ok", results, 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = modules["cli"].main(job["argv"])
    except (Exception, SystemExit) as exc:
        return "error", f"{type(exc).__name__}: {str(exc)[:300]}", 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = out.getvalue()
    if code != 0:
        return "error", f"exit {code}: {err.getvalue().strip()[:300]}", len(text)
    if job.get("out"):
        with open(job["out"], encoding="utf-8") as fh:
            text = fh.read()
    return "ok", text, len(text.encode("utf-8"))


def main(argv: list[str]) -> int:
    jobs_path, result_path = argv[0], argv[1]
    seconds, trace, deadline = float(argv[2]), argv[3] == "1", float(argv[4])
    started = time.perf_counter()
    import tmcorr.cli
    modules = {name: sys.modules[f"tmcorr.{name}"] for name in
               ("cli", "correlation", "counting", "digitseq", "expsum", "spectral", "report")}
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if trace:
        from tracing import Tracer, layer_totals
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)

    for _ in range(WARM_UNITS):
        speed.time_unit()
    first: list[dict] = []
    passes = []
    loop_start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        ms, units, out_bytes = [], [], 0
        job_s = unit_s = 0.0
        pass_start = time.perf_counter()
        for index, job in enumerate(jobs):
            left = deadline - (time.perf_counter() - started)
            if left <= 0:
                status, output, nbytes, dt = "error", "run deadline passed before the job", 0, 0.0
            else:
                if tracer:
                    tracer.job = index
                t0 = time.perf_counter()
                try:
                    status, output, nbytes = run_job(job, modules, min(JOB_TIMEOUT_S, left))
                except JobTimeout as exc:    # fired after the job returned
                    status, output, nbytes = "error", f"JobTimeout: {exc}", 0
                dt = time.perf_counter() - t0
            ms.append(1e3 * dt)
            job_s += dt
            while unit_s < CAL_SHARE * job_s:
                units.append(speed.time_unit())
                unit_s += units[-1]
            out_bytes += nbytes
            if not passes:
                first.append({"status": status, "output": output, "stable": True})
            elif (status, output) != (first[index]["status"], first[index]["output"]):
                first[index]["stable"] = False
        if not units:       # every pass gets its host speed, even one cut by the deadline
            units.append(speed.time_unit())
        record = {"wall_s": time.perf_counter() - pass_start, "ms": ms, "units": units,
                  "out_bytes": out_bytes}
        if tracer:
            record["layers"] = layer_totals(tracer.spans)
            record["counts"] = dict(tracer.counts)
            if not passes:      # the raw spans of one pass are kept for inspection
                record["spans"] = tracer.spans
        passes.append(record)
        # another pass starts only if at least half of it fits in SECONDS
        elapsed = time.perf_counter() - loop_start
        if (elapsed + record["wall_s"] / 2 >= seconds
                or time.perf_counter() - started >= deadline):
            break

    result = {
        "tmcorr_file": tmcorr.cli.__file__,
        "numpy_imported": "numpy" in sys.modules,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "jobs": first,
    }
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
