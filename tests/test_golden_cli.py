"""Golden stdout: the exact bytes of every CLI subcommand's output.

Each case runs the CLI in-process and compares stdout with
``tests/golden/<name>.txt`` byte for byte.  The files pin the output of
`corr` and `count` ladders reaching 2^256, single raw points, both
formats, `--naive-check`, `--extension`, scans at a power of two, at a
random 180-bit X, at a fixed 1000-bit X and over a 1000-point grid, `eps`,
`eigen` spectra up to q = 63 (including the rounding noise in `re` of its
roots +-i), `adjacent` tables with and without a deviation fit and up to
2^64, and `fit` over the committed `corr`/`count` CSVs, so any change to the
engines or the serializer behind the CLI must keep every byte.  The table
``tests/golden/eigen_sha256.txt`` pins `eigen` for every odd q in 3..63 at
the default seed and at `--seed 648966` by the sha256 of its stdout.

After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tmcorr.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
X180 = 969185484185812792720387683606630142986788310967182944   # 180 bits
X1000 = int("89588467319516707039314649057912049227601133260073474049371231841641"
            "13213635104594899821541668039167230046661948359764253573677666709121"
            "89820809004184519762577363750733280927083737368205811088386788195485"
            "59836566447076722895482611198438531752407373202345826951094685419784"
            "03316874695222000807187634252")   # 1000 bits

CASES = {
    "corr_all_csv": ["corr", "3", "all", "2^10..2^20"],
    "corr_all_json": ["corr", "7", "all", "2^100..2^256:12", "--format", "json"],
    "corr_all_q63_2_256": ["corr", "63", "all", "2^256"],
    "corr_shift_ladder_csv": ["corr", "15", "11", "2^200..2^256:8"],
    "corr_shift_point_json": ["corr", "5", "2", "123456789", "--format", "json"],
    "corr_raw_range_point": ["corr", "9", "all", "4..4"],
    "corr_zero": ["corr", "3", "all", "0", "--format", "json"],
    "corr_naive_check_csv": ["corr", "5", "all", "2^6..2^18:3", "--naive-check"],
    "corr_naive_check_json": ["corr", "3", "1", "1000", "--naive-check",
                              "--format", "json"],
    "count_all_csv": ["count", "5", "all", "2^10..2^30:5"],
    "count_all_json": ["count", "3", "all", "2^200..2^256:8", "--format", "json"],
    "count_shift_2_256_csv": ["count", "63", "40", "2^256"],
    "count_shift_point_json": ["count", "11", "3", "98765", "--format", "json"],
    "count_raw_range_point": ["count", "7", "all", "4..4"],
    "count_extension_csv": ["count", "3", "5", "2^12", "--extension"],
    "count_extension_json": ["count", "5", "7", "2^4..2^12:4", "--extension",
                             "--format", "json"],
    "scan_pow2_csv": ["scan", "2^40", "97"],
    "scan_pow2_json": ["scan", "2^30", "12", "--format", "json"],
    "scan_random_csv": ["scan", str(X180), "31"],
    "scan_random_json": ["scan", str(X180), "17", "--format", "json"],
    "scan_wide_grid_json": ["scan", "2^20", "1000", "--format", "json"],
    "scan_deep_x_csv": ["scan", str(X1000), "7"],
    "eps": ["eps", str(X180)],
    "eigen_q3": ["eigen", "3"],
    "eigen_q5": ["eigen", "5"],
    "eigen_q9": ["eigen", "9"],
    "eigen_q15": ["eigen", "15"],
    "eigen_q31": ["eigen", "31"],
    "eigen_q63": ["eigen", "63"],
    "adjacent_fit_csv": ["adjacent", "2^8..2^14:2"],
    "adjacent_fit_json": ["adjacent", "2^8..2^14:2", "--format", "json"],
    "adjacent_two_csv": ["adjacent", "2^10..2^12:2"],
    "adjacent_two_json": ["adjacent", "2^10..2^12:2", "--format", "json"],
    "adjacent_2_64_csv": ["adjacent", "2^16..2^64:8"],
    "adjacent_2_64_json": ["adjacent", "2^16..2^64:8", "--format", "json"],
    "fit_corr_csv": ["fit", str(GOLDEN_DIR / "corr_all_csv.txt"), "--format", "csv"],
    "fit_corr_json": ["fit", str(GOLDEN_DIR / "corr_all_csv.txt")],
    "fit_count_csv": ["fit", str(GOLDEN_DIR / "count_all_csv.txt"), "--format", "csv"],
    "fit_count_json": ["fit", str(GOLDEN_DIR / "count_all_csv.txt")],
}

EIGEN_TABLE = GOLDEN_DIR / "eigen_sha256.txt"
EIGEN_CASES = [["eigen", str(q)] + seed for seed in ([], ["--seed", "648966"])
               for q in range(3, 64, 2)]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert _stdout(CASES[name]).encode("utf-8") == expected


def _eigen_digest(argv: list[str]) -> str:
    return hashlib.sha256(_stdout(argv).encode("utf-8")).hexdigest()


def test_eigen_stdout_matches_the_sha256_table():
    table = dict(line.rsplit("\t", 1) for line in EIGEN_TABLE.read_text().splitlines())
    assert sorted(table) == sorted(" ".join(argv) for argv in EIGEN_CASES)
    for argv in EIGEN_CASES:
        assert _eigen_digest(argv) == table[" ".join(argv)], argv


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, args in CASES.items():
        (GOLDEN_DIR / f"{case}.txt").write_bytes(_stdout(args).encode("utf-8"))
    EIGEN_TABLE.write_text("".join(f"{' '.join(argv)}\t{_eigen_digest(argv)}\n"
                                   for argv in EIGEN_CASES))
