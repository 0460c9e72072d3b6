"""Seeded job lists for the four benchmark workloads.

A job is a dict the timed child can run without further input:

- CLI job: ``{"argv": [...], "out": path-or-None, "spec": {...}}``; the child
  runs ``tmcorr.cli.main(argv)`` in-process and returns stdout (or the
  ``--out`` file).
- library job: ``{"calls": [["module.name", [args...]], ...], "spec": {...}}``;
  the child makes the calls in order and returns their results.

``spec`` is read only by the harness: it is the input the oracles answer
for, and the argv is built from it, so the two cannot disagree.

Every workload is a fixed template whose slots are filled from the seed.
Slot sizes come from a cost model of today's code, so that each seed
gives about the same amount of work; the seed changes the values of q, X,
shifts, grids, moduli, formats and the order, not the size of a pass.
"""

import math
import random

WORKLOADS = ("ladder", "sweep", "spectra", "residue")

# Seconds per unit of q*q*bitlen(X) for `corr q all` at one X (count: x2),
# and per unit of grid*bitlen(X) for `scan`; measured on the seed code and
# used only to size slots.
CORR_UNIT_S = 1.6e-6
SCAN_UNIT_S = 5.5e-6

LADDER_TOP = 256          # ladders reach 2^100..2^256
RECURSION_BITS = (996, 1024)   # fast paths raise RecursionError here today
GELFOND_RECURSION_BITS = (510, 560)


def _odd(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if q % 2]


def _random_bits(rng: random.Random, bits: int) -> int:
    """Uniform integer with exactly `bits` binary digits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1))


def ladder_exponents(rng: random.Random, q: int, mult: int, cost: float) -> list[int]:
    """Exponents e of a ladder 2^a..2^b:s whose predicted cost is `cost`.

    The exponent budget E = cost / (unit * mult * q^2) is split into the
    fewest points with mean exponent <= 230; the seed picks the step, and
    the top is placed so the exponents still sum to about E.
    """
    budget = cost / (CORR_UNIT_S * mult * q * q)
    n = max(1, math.ceil(budget / 230))
    if n == 1:
        return [min(LADDER_TOP, max(100, round(budget)))]
    mean = budget / n
    s_max = math.floor(2 * min(LADDER_TOP - mean, mean - 2) / (n - 1))
    s = rng.randint(1, max(1, s_max))
    top = min(LADDER_TOP, round(mean + s * (n - 1) / 2))
    return [top - i * s for i in range(n - 1, -1, -1)]


def _ladder_arg(exps: list[int]) -> str:
    if len(exps) == 1:
        return f"2^{exps[0]}"
    step = exps[1] - exps[0]
    return f"2^{exps[0]}..2^{exps[-1]}" + (f":{step}" if step > 1 else "")


def cli_job(spec: dict) -> dict:
    """Build the argv for a CLI spec; `spec["X"]` holds the exact X values."""
    cmd = spec["cmd"]
    if cmd in ("corr", "count"):
        xs = spec["X"]
        ladder = spec.get("ladder") or str(xs[0])
        argv = [cmd, str(spec["q"]), "all", ladder]
    elif cmd == "adjacent":
        argv = [cmd, spec["ladder"]]
    elif cmd == "scan":
        argv = [cmd, str(spec["X"]), str(spec["grid"])]
    elif cmd == "eigen":
        argv = [cmd, str(spec["q"]), "--seed", str(spec["root_seed"])]
    elif cmd == "fit":
        argv = [cmd, spec["path"]]
    else:
        raise ValueError(f"unknown command {cmd!r}")
    if "format" in spec:
        argv += ["--format", spec["format"]]
    if spec.get("out"):
        argv += ["--out", spec["out"]]
    return {"argv": argv, "out": spec.get("out"), "spec": spec}


def lib_job(*calls: tuple[str, list]) -> dict:
    calls = [[fn, list(args)] for fn, args in calls]
    return {"calls": calls, "spec": {"calls": calls}}


def _format(rng: random.Random) -> str:
    return rng.choice(("csv", "json"))


def _ladder_spec(rng: random.Random, cmd: str, q: int, cost: float) -> dict:
    exps = ladder_exponents(rng, q, 2 if cmd == "count" else 1, cost)
    if len(exps) == 1:   # one point: a random X of that size
        return {"cmd": cmd, "q": q, "X": [_random_bits(rng, exps[0])], "format": _format(rng)}
    return {"cmd": cmd, "q": q, "X": [2 ** e for e in exps], "ladder": _ladder_arg(exps),
            "format": _format(rng)}


def ladder(seed: int, workdir: str) -> list[dict]:
    """Huge-X, wide-q CLI ladders; the halving recursions do the work."""
    rng = random.Random(f"ladder:{seed}")
    specs = []
    # equal cost for corr and count keeps the median job inside one cluster
    for q in _odd(3, 15) * 2:
        specs.append(_ladder_spec(rng, "corr", q, 0.045))
        specs.append(_ladder_spec(rng, "count", q, 0.045))
    for band, costs in ((_odd(17, 45), (0.15, 0.3, 0.15, 0.3)), (_odd(47, 63), (0.8, 1.3))):
        cmds = ("corr", "count") * (len(costs) // 2)
        for cmd, q, cost in zip(cmds, rng.sample(band, len(costs)), costs):
            specs.append(_ladder_spec(rng, cmd, q, cost))
    specs.append({"cmd": rng.choice(("corr", "count")), "q": rng.choice((3, 5, 7)),
                  "X": [_random_bits(rng, rng.randint(*RECURSION_BITS))],
                  "format": _format(rng)})
    units = [[cli_job(s)] for s in specs]
    # two ladders go through --out and are read back by `fit`
    fittable = [u for u in units if len(u[0]["spec"]["X"]) >= 3]
    for k, unit in enumerate(rng.sample(fittable, 2)):
        spec = dict(unit[0]["spec"], format="csv", out=f"{workdir}/ladder-out-{k}.csv")
        unit[0] = cli_job(spec)
        unit.append(cli_job({"cmd": "fit", "path": spec["out"], "source": spec,
                             "format": _format(rng)}))
    rng.shuffle(units)
    return [job for unit in units for job in unit]


SWEEP_WINDOW = 32


def sweep(seed: int, workdir: str) -> list[dict]:
    """Library calls at small X, one per (q, r, X) and function: per-call cost.

    A job is the 3q calls of one (q, X).  Single calls of 0.1-0.2 ms would
    put the tail percentile on millisecond host hiccups instead of on tmcorr.
    """
    rng = random.Random(f"sweep:{seed}")
    x0 = rng.randint(2 ** 19, 2 ** 20 - SWEEP_WINDOW)
    qs = _odd(3, 15)
    jobs = []
    for X in range(x0, x0 + SWEEP_WINDOW):
        rng.shuffle(qs)
        for q in qs:
            jobs.append(lib_job(*[(fn, [q, r, X]) for r in range(q)
                                  for fn in ("correlation.corr_fast", "correlation.dilation_sum",
                                             "counting.count_classes_fast")]))
    return jobs


def spectra(seed: int, workdir: str) -> list[dict]:
    """`eigen q --seed s` for every odd q in 3..63, in seeded order.

    q = 25..35 run with three root-finder seeds each.  Their latencies sit
    at the median of the pass, and with one run each the root finder's seed
    dependence (up to 2x at q = 25) and single-job host noise would decide
    job_ms_p50 alone.
    """
    rng = random.Random(f"spectra:{seed}")
    qs = _odd(3, 63) + _odd(25, 35) * 2
    rng.shuffle(qs)
    return [cli_job({"cmd": "eigen", "q": q, "root_seed": rng.randrange(1, 10 ** 6)})
            for q in qs]


def residue(seed: int, workdir: str) -> list[dict]:
    """Phase scans, adjacent tables and Gelfond counts: digitseq/expsum work."""
    rng = random.Random(f"residue:{seed}")
    jobs = []
    for k in range(12):
        grid = rng.randint(100, 1000)
        bits = round(0.1 / (SCAN_UNIT_S * grid))
        X = 2 ** bits if k == 0 else _random_bits(rng, bits)
        jobs.append(cli_job({"cmd": "scan", "X": X, "grid": grid, "format": _format(rng)}))
    # count_adjacent is O(X), so seeded ladders would change both the work
    # (by up to 50%) and the number of results; only the format is seeded
    for exps in (list(range(16, 23)), list(range(17, 21))):
        jobs.append(cli_job({"cmd": "adjacent", "X": [2 ** e for e in exps],
                             "ladder": _ladder_arg(exps), "format": _format(rng)}))
    # m * bitlen(X) is held near 4000, so every call does about the same work
    for _ in range(60):
        m = rng.randint(20, 101)
        jobs.append(lib_job(("digitseq.gelfond_count", [_random_bits(rng, round(4000 / m)),
                                                        rng.randrange(m), m, rng.randint(0, 1)])))
    for _ in range(2):
        m = rng.randint(3, 7)
        jobs.append(lib_job(("digitseq.gelfond_count",
                             [_random_bits(rng, rng.randint(*GELFOND_RECURSION_BITS)),
                              rng.randrange(m), m, rng.randint(0, 1)])))
    jobs.append(cli_job({"cmd": "scan", "grid": rng.randint(3, 9), "format": _format(rng),
                         "X": _random_bits(rng, rng.randint(*RECURSION_BITS))}))
    rng.shuffle(jobs)
    return jobs


def smoke(seed: int, workdir: str) -> list[dict]:
    """Seven tiny jobs that call every traced function once or a few times.

    Every workload starts its pass with them, so every per-layer metric is
    measured on every workload; together they take a few milliseconds.  They
    count in wall_s and ok_ratio but not in the per-job latency percentiles.
    """
    rng = random.Random(f"smoke:{seed}")
    out = f"{workdir}/smoke-out.csv"
    pows = {"X": [16, 32, 64], "ladder": "2^4..2^6"}
    corr = {"cmd": "corr", "q": 3, **pows, "format": "csv", "out": out}
    jobs = [cli_job(corr),
            cli_job({"cmd": "fit", "path": out, "source": corr, "format": "json"}),
            cli_job({"cmd": "count", "q": 3, **pows, "format": "json"}),
            cli_job({"cmd": "eigen", "q": 5, "root_seed": rng.randrange(1, 10 ** 6)}),
            cli_job({"cmd": "adjacent", **pows, "format": "csv"}),
            cli_job({"cmd": "scan", "X": 64, "grid": 5, "format": "csv"}),
            lib_job(("digitseq.gelfond_count", [1000, rng.randrange(7), 7, rng.randint(0, 1)]))]
    for job in jobs:
        job["smoke"] = True
    return jobs


def make_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    by_name = {"ladder": ladder, "sweep": sweep, "spectra": spectra, "residue": residue}
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return smoke(seed, workdir) + by_name[workload](seed, workdir)
