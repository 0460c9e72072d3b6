"""Mutants of ``src/`` that named tests must kill, run one at a time.

Each entry of MUTANTS is ``(file, old text, new text, reason, tests)``.  The
old text must occur exactly once in ``src/<file>``.  The harness copies
``src/`` to a temp directory, replaces the old text by the new one there and
runs ``python -m pytest -x -q -p no:cacheprovider <tests>`` from the repo
root with ``PYTHONPATH`` at the copy: the run must fail.  EQUIVALENT lists
mutants that change no answer, each with its proof as the reason; their
tests must pass.  Before any mutant, the unmutated copy must pass every
named test.  Each child caps its own address space and CPU time, so a
mutant that explodes fails fast instead of filling the machine.

    python tests/mutants.py

prints one line per mutant and exits 1 if a mutant survives, an equivalent
one is killed, or pytest ends in an error of its own (no test collected, a
usage error).  It is not a test module: tier-1 does not collect it.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 4 << 30   # bytes per child
CPU_SECONDS = 300         # per child

DIGITSEQ = "tmcorr/digitseq.py"
CORRELATION = "tmcorr/correlation.py"
COUNTING = "tmcorr/counting.py"
SPECTRAL = "tmcorr/spectral.py"
CLI = "tmcorr/cli.py"
T = "tests/test_digitseq.py::"
PACKED_STEP = T + "test_one_packed_step_is_one_residue_rows_step"
RUNNING_SUMS = T + "test_residue_sums_equal_running_sums_by_residue"
SINGLE_BOUNDS = T + "test_single_bound_walks_equal_running_sums"
SHALLOW = T + "test_shallow_tables_equal_running_sums"
TABLE_DEPTH = T + "test_single_entries_equal_the_batch_around_the_table_depth"
GELFOND_PRODUCT = T + "test_all_ones_bounds_give_gelfonds_product"
NO_STEP_TABLE = T + "test_residue_walks_read_no_step_table"
C1D = "tests/test_acceptance.py::test_c1_gelfond_count_equals_brute_force"
S = "tests/test_spectral.py::"

MUTANTS = [
    (DIGITSEQ, "W = (top // m + 2).bit_length() + 2", "W = (top // m + 2).bit_length() + 1",
     "residue lanes one bit narrower (W - 1): a centred sum at the bound overflows its lane",
     [PACKED_STEP]),
    (DIGITSEQ, "W = (top // m + 2).bit_length() + 2", "W = (top // m + 2).bit_length()",
     "residue lanes two bits narrower (W - 2)",
     [PACKED_STEP, RUNNING_SUMS, C1D]),
    (DIGITSEQ, "(m + 1) // 2", "(m - 1) // 2",
     "1/2 mod m taken as (m - 1) / 2: the lanes rotate by the wrong power of 2",
     [PACKED_STEP, RUNNING_SUMS]),
    (DIGITSEQ, "(m + 1) // 2", "-residue_rows(m)[0][1] % m",
     "1/2 mod m read off the D_m table again: right values, but a walk builds a step table",
     [NO_STEP_TABLE]),
    (DIGITSEQ, "rows, Z = gelfond_rows(m), Y + 1", "rows, Z = gelfond_rows(m), Y",
     "a single entry sums N < Y, not N <= Y: it drops N = Y",
     [SINGLE_BOUNDS, SHALLOW]),
    (DIGITSEQ, "total += e * rows[k * m + (l - p) % m]",
     "total += e * rows[(k + 1) * m + (l - p) % m]",
     "a 1-bit k of the bound reads Gelfond row k + 1",
     [TABLE_DEPTH]),
    (DIGITSEQ, "e, p = -e, (p + (1 << k)) % m", "e, p = -e, p",
     "the offset p of the bits above k is not advanced past a 1-bit",
     [TABLE_DEPTH]),
    (DIGITSEQ, "r = P << (1 << k) % m * 64", "r = P << (2 << k) % m * 64",
     "Gelfond row k + 1 built by rotating row k by 2^(k+1), not 2^k",
     [GELFOND_PRODUCT]),
    (DIGITSEQ, "pow(2, -K, m)", "pow(2, K, m)",
     "the walk's classes read row K in the frame 2^K, not 2^-K",
     [TABLE_DEPTH]),
    (DIGITSEQ, "GELFOND_DEPTH, GELFOND_BUDGET = 40, 2 ** 13",
     "GELFOND_DEPTH, GELFOND_BUDGET = 39, 2 ** 13",
     "Gelfond tables one row shallower than the documented 2^40",
     [GELFOND_PRODUCT]),
    (CORRELATION, "bin(X)[2:])[r]", "bin(X)[2:-1])[r]",
     "a single correlation entry walks to X >> 1, one bit short of X",
     ["tests/test_correlation.py::test_corr_fast_examples"]),
    (CORRELATION, "q + 1 + (D >> j)", "q + (D >> j)",
     "the tail of a wide walk reads one shift too few per bit",
     ["tests/test_cli.py::test_count_extension_flag"]),
    (COUNTING, "if total != X:", "if total > X:",
     "CountTable refuses only cells that sum above X",
     ["tests/test_counting.py::test_kept_checks"]),
    (SPECTRAL, "return (1,), a, b", "return (1,), b, a",
     "the cofactors of a gcd 1 come back swapped",
     [S + "test_gcd_cofactors_give_both_arguments_back",
      S + "test_square_free_factors_powers_of_x_and_x_minus_1"]),
    (SPECTRAL, "pa and [a[len(g) - 1] // g[-1]]", "pa and [1]",
     "against a zero argument, a's cofactor drops a's content and sign",
     [S + "test_gcd_cofactors_give_both_arguments_back"]),
    (SPECTRAL, "max(map(abs, b))).bit_length() + 1", "max(map(abs, b))).bit_length()",
     "_poly_product packs at 2^(k - 1): a product coefficient overflows its digit",
     [S + "test_poly_product_matches_the_double_loop"]),
    (SPECTRAL, "** (n + 1)).bit_length() + 2", "** (n + 1)).bit_length()",
     "char_poly's power lanes two bits narrower (W - 2): a trace is misread",
     ["tests/test_cli.py::test_eigen_q3"]),
    (CLI, "r >= q and r > EXTENSION_LIMIT", "r >= q and r >= EXTENSION_LIMIT",
     "count --extension refuses r = EXTENSION_LIMIT itself",
     ["tests/test_cli.py::test_count_extension_refuses_a_shift_past_the_limit"]),
]

EQUIVALENT = [
    (DIGITSEQ, "(GELFOND_DEPTH + 1) * m <= GELFOND_BUDGET",
     "(GELFOND_DEPTH + 1) * m < GELFOND_BUDGET",
     "the two differ only at 41 m = 2^13, and 41 does not divide 8192",
     [GELFOND_PRODUCT]),
]


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def _copy(dest: Path, file: str = "", old: str = "", new: str = "") -> Path:
    """A copy of src/ under dest, with old replaced by new in file if given."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if file:
        path = src / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return src


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, preexec_fn=_limit,
                          capture_output=True, text=True)


def main() -> int:
    entries = [(e, True) for e in MUTANTS] + [(e, False) for e in EQUIVALENT]
    for (file, old, _, reason, _), _ in entries:
        n = (ROOT / "src" / file).read_text(encoding="utf-8").count(old)
        if n != 1:
            sys.exit(f"mutant list is stale: {old!r} occurs {n} times in src/{file} ({reason})")
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(Path(tmp) / "base")
        where = subprocess.run([sys.executable, "-c", "import tmcorr; print(tmcorr.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            sys.exit(f"the children import tmcorr from {where!r}, not from the copy")
        tests = sorted({t for (*_, named), _ in entries for t in named})
        run = _pytest(src, tests)
        if run.returncode != 0:
            print(run.stdout[-3000:], run.stderr[-3000:])
            sys.exit("the unmutated source fails the named tests")
        for i, ((file, old, new, reason, named), must_fail) in enumerate(entries):
            run = _pytest(_copy(Path(tmp) / str(i), file, old, new), named)
            code = run.returncode   # 1: a test failed; below 0: a limit's signal
            if code > 1:
                verdict, ok = f"pytest error {code}", False
            elif must_fail:
                verdict, ok = ("killed", True) if code else ("SURVIVED", False)
            else:
                verdict, ok = ("KILLED, listed equivalent", False) if code else ("equivalent", True)
            print(f"{verdict:>12}  {file}: {reason}", flush=True)
            if not ok:
                print(run.stdout[-3000:], run.stderr[-3000:])
                bad += 1
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {bad} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
