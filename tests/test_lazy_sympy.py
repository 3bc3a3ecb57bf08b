"""sympy is imported only where a symbolic bound appears.

Each case runs in a fresh interpreter, because other test modules import
sympy themselves and a module once loaded stays in sys.modules.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden_cli import DATA, NEST, NEST_NORMAL, TRANSCRIPT

SRC = DATA.parents[1]

_RUN = """
import contextlib, io, json, sys
from gvlam.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "stdout": out.getvalue(),
                  "sympy": "sympy" in sys.modules}))
"""


def fresh(code, *args):
    """Run code in a new interpreter that finds this gvlam first; return
    its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(*argv):
    return json.loads(fresh(_RUN, *map(str, argv)))


def test_import_leaves_sympy_unloaded():
    out = fresh("import sys, gvlam; print('sympy' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("argv, stdout", [
    (["check", DATA / "timed.thy", "wait_1(x)", "--context", "x : X"],
     "X\n"),
    (["bound", DATA / "timed.thy", "wait_1(x)", "wait_3(x)",
      "--context", "x : X"], "2\n"),
    (["bound", DATA / "timed.thy", NEST, NEST_NORMAL, "--context", "y : X",
      "--normalize-first"], "1\n"),
    (["model", "distance", DATA / "timed.thy", "wait_1(x)", "wait_3(x)",
      "--context", "x : X", "--model", "timed(8)"], "2\n"),
], ids=["check", "bound", "bound-normalize-first", "model-distance"])
def test_rational_commands_leave_sympy_unloaded(argv, stdout):
    assert run_cli(*argv) == {"exit": 0, "stdout": stdout, "sympy": False}


def test_declared_axiom_bound_leaves_sympy_unloaded(tmp_path):
    theory = tmp_path / "tick.thy"
    theory.write_text((DATA / "timed.thy").read_text()
                      + "opfamily tick_<n> : X -> X\n"
                      "axiom tickd[n,m] : [x : X] tick_n(x) =[abs(n-m)] "
                      "tick_m(x)\n")
    assert run_cli("bound", theory, "tick_1(x)", "tick_3(x)",
                   "--context", "x : X") \
        == {"exit": 0, "stdout": "2\n", "sympy": False}


def test_symbolic_proof_loads_sympy():
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        want = json.load(fh)["prove-walk"]
    got = run_cli("prove", DATA / "prob.thy", DATA / "walk.proof")
    assert got == {"exit": 0, "stdout": want["stdout"], "sympy": True}
