"""The package as shipped: a stdlib-only runtime and a README example that runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_imports_only_the_standard_library():
    # pyproject declares no dependencies and the benchmark child must not
    # import numpy; the test extras install numpy, so only a fresh
    # interpreter shows what importing the CLI pulls in.  Modules that site
    # hooks preload before the import are not counted.
    script = ("import sys; before = set(sys.modules); import tmcorr.cli; "
              "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert done.returncode == 0, done.stderr
    new = {name.partition(".")[0] for name in done.stdout.split()}
    assert "tmcorr" in new
    assert {name for name in new if name != "tmcorr"} <= set(sys.stdlib_module_names)


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
