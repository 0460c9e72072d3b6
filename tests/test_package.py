"""The package as shipped: a stdlib-only runtime, frozen records and a README
example that runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tmcorr import (CountTable, ExponentFit, MonicIntPolynomial, RationalPhase,
                    ScanResult, SpectralReport, SumLadder)

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_imports_only_the_standard_library():
    # pyproject declares no dependencies and the benchmark child must not
    # import numpy; the test extras install numpy, so only a fresh
    # interpreter shows what importing the CLI pulls in.  Modules that site
    # hooks preload before the import are not counted.  Start-up cost: no
    # command needs the heavy modules below, and the benchmark child reads
    # sys.modules["tmcorr.spectral"] right after importing the CLI.
    script = ("import sys; before = set(sys.modules); import tmcorr.cli; "
              "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    new = {name.partition(".")[0] for name in loaded}
    assert "tmcorr" in new
    assert {name for name in new if name != "tmcorr"} <= set(sys.stdlib_module_names)
    assert not new & {"dataclasses", "fractions", "statistics", "inspect", "decimal"}
    assert "tmcorr.spectral" in loaded


@pytest.mark.parametrize("cls, fields", [
    (CountTable, {"q": 3, "r": 0, "X": 8, "cells": ((3, 0), (4, 1))}),
    (RationalPhase, {"p": 1, "q": 2}),
    (ScanResult, {"X": 1024, "grid": 12, "max_modulus": 59.0, "argmax_p": 4}),
    (SumLadder, {"samples": ((4, 1.0), (8, 2.0))}),
    (ExponentFit, {"slope": 0.5, "intercept": 0.0, "max_residual": 0.0,
                   "n_samples": 3, "n_clamped": 0}),
    (MonicIntPolynomial, {"coeffs": (1, 0, 1)}),
    (SpectralReport, {"poly": MonicIntPolynomial((-1, 1)), "roots": ((1 + 0j, 1),),
                      "radius": 1.0, "exponent": 0.0}),
])
def test_records_are_frozen_and_built_by_keyword(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_readme_library_quick_start_states_true_values():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    *body, last = ast.parse(block.split("```", 1)[0]).body
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    assert abs(namespace["rep"].exponent - 0.60538) < 1e-5
    assert ast.unparse(last) == "abs(expsum_fast(RationalPhase(1, 3), 2 ** 40))"
    value = eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace)
    assert value == pytest.approx(3 ** 20, rel=1e-9)
