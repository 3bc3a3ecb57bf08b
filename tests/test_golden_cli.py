"""Golden CLI transcript: stdout, stderr and exit code of each command,
byte for byte.

The reports of `gvlam` must not change when the implementation does, so
these commands cover binder renaming in typing and in beta steps, proof
errors from context terms that do not decompose, synthesis failures,
model queries, the comonad-law audit, the exact urn distances of
`prob-sweep` and the Gaussian labels of `gaussian-grid`.  After a
deliberate change of output, rewrite the transcript with

    PYTHONPATH=src python tests/test_golden_cli.py

and review its diff.
"""

import json
from pathlib import Path

import pytest

import gvlam
from gvlam.cli import main

DATA = Path(gvlam.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT = GOLDEN / "cli_transcript.json"

NEST = "(fn a : X => (fn b : X => fn y : X => wait_1(b) (*) y) a) y"
NEST_NORMAL = "fn z : X => wait_2(y) (*) z"

COMMANDS = {
    "check-renames-binders": [
        "check", "{data}/timed.thy",
        "let x (*) y = x in copy [1,1] y as y, z in "
        "wait_1(derelict y) (*) (x (*) derelict z)",
        "--context", "x : X * !2 X", "--emit-derivation"],
    "check-unused-variable": [
        "check", "{data}/timed.thy", "wait_1(x)", "--context", "x : X, y : X"],
    "bound-wait": [
        "bound", "{data}/timed.thy", "wait_1(x)", "wait_3(x)",
        "--context", "x : X"],
    "bound-nested-wait": [
        "bound", "{data}/timed.thy", "wait_1(wait_1(x))", "wait_2(wait_2(x))",
        "--context", "x : X"],
    "bound-tensor-eta": [
        "bound", "{data}/timed.thy", "let a (*) b = p in a (*) b", "p",
        "--context", "p : X * X"],
    "bound-beta-nest": [
        "bound", "{data}/timed.thy", NEST, NEST_NORMAL, "--context", "y : X"],
    "bound-beta-nest-normalize-first": [
        "bound", "{data}/timed.thy", NEST, NEST_NORMAL, "--context", "y : X",
        "--normalize-first"],
    "prove-walk": ["prove", "{data}/prob.thy", "{data}/walk.proof"],
    "prove-beta-capture": [
        "prove", "{data}/timed.thy", "{golden}/beta_capture.proof"],
    "prove-beta-no-decompose": [
        "prove", "{data}/timed.thy", "{golden}/no_decompose.proof"],
    "prove-eta-no-decompose": [
        "prove", "{data}/timed.thy", "{golden}/eta_no_decompose.proof"],
    "prove-tensor-beta-clash": [
        "prove", "{data}/timed.thy", "{golden}/tensor_beta_clash.proof"],
    "model-distance-wait": [
        "model", "distance", "{data}/timed.thy", "wait_1(x)", "wait_3(x)",
        "--context", "x : X", "--model", "timed(8)"],
    "model-distance-lambda": [
        "model", "distance", "{data}/timed.thy",
        "fn f : X -o X => f wait_1(x)", "fn f : X -o X => f wait_2(x)",
        "--context", "x : X", "--model", "timed(3)"],
    "model-distance-higher-order": [
        "model", "distance", "{data}/timed.thy",
        "fn f : X -o X => f (wait_0(x))", "fn f : X -o X => f (wait_3(x))",
        "--context", "x : X", "--model", "timed(3)"],
    "model-eval-applied-lambda": [
        "model", "eval", "{data}/timed.thy", "(fn z : X => wait_1(z)) x",
        "--context", "x : X", "--model", "timed(2)"],
    "model-eval-let-tensor": [
        "model", "eval", "{data}/timed.thy",
        "let a (*) b = p in wait_1(b) (*) a",
        "--context", "p : X * X", "--model", "timed(2)"],
    "model-prob-sweep": ["model", "prob-sweep", "--max", "8"],
    "model-gaussian-grid": ["model", "gaussian-grid"],
    "model-verify-laws-verbose": [
        "model", "verify-laws", "--verbose", "--grades", "0..3",
        "--max-space", "4"],
}


def _argv(name):
    return [arg.format(data=DATA, golden=GOLDEN) for arg in COMMANDS[name]]


def _transcript():
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_transcript(capsys, name):
    want = _transcript()[name]
    code = main(_argv(name))
    out = capsys.readouterr()
    assert (out.out, out.err, code) \
        == (want["stdout"], want["stderr"], want["exit"])


def test_transcript_covers_every_command():
    assert sorted(_transcript()) == sorted(COMMANDS)


def _capture():
    import contextlib
    import io

    out = {}
    for name in sorted(COMMANDS):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(_argv(name))
        out[name] = {"stdout": stdout.getvalue(),
                     "stderr": stderr.getvalue(), "exit": code}
    return out


if __name__ == "__main__":
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        json.dump(_capture(), fh, indent=1, ensure_ascii=False)
        fh.write("\n")
