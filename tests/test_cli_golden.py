"""Byte-golden command line output: each case's stdout against recorded bytes.

The cases cover all nine trace kinds, two of them also on a rate file
through the RK4 step, `check` with and without `--pi`, the five `measure`
ops and `bounds` in JSON and CSV.  Laws are dyadic and the chain is a lazy
4-cycle, so every propagated law is exact on any BLAS; the RK4 laws are
not, but 12 significant digits leave room for a last-bit difference.
After an intended output change, re-record from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from infodyn.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FIXTURES = {
    "lazy4": {
        "kind": "discrete",
        "n": 4,
        "matrix": [[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0.5, 0.5], [0.5, 0, 0, 0.5]],
    },
    "rates4": {
        "kind": "continuous",
        "n": 4,
        "matrix": [[0, 1, 0, 0.5], [0.5, 0, 1, 0], [0, 0.5, 0, 1], [1, 0, 0.5, 0]],
    },
    "law": {"probs": [0.5, 0.25, 0.125, 0.125]},
    "law2": {"probs": [0.125, 0.125, 0.25, 0.5]},
    "uniform": {"probs": [0.25, 0.25, 0.25, 0.25]},
    "family": {"measures": [[0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125]]},
    "joint": {
        "nx": 2,
        "ny": 2,
        "table": [[0.25, 0.125], [0.125, 0.5]],
        "measures": [[[0.5, 0.25], [0.125, 0.125]]],
    },
}

_EVOLVE = ["evolve", "--chain", "{lazy4}", "--steps", "8", "--functional"]
CASES = {
    "evolve-entropy": [*_EVOLVE, "entropy", "--init", "{law}"],
    "evolve-kl_to_stationary": [*_EVOLVE, "kl_to_stationary", "--init", "{law}"],
    "evolve-kl_from_stationary": [*_EVOLVE, "kl_from_stationary", "--init", "{law}"],
    "evolve-kl_pair": [*_EVOLVE, "kl_pair", "--init", "{law}", "--init2", "{law2}"],
    "evolve-u_functional": [*_EVOLVE, "u_functional", "--q", "neg_sqrt", "--init", "{law}"],
    "evolve-j_functional": [*_EVOLVE, "j_functional", "--q", "neg_log", "--init", "{law}"],
    "evolve-v_functional": [*_EVOLVE, "v_functional", "--q", "neg_sqrt", "--family", "{family}"],
    "evolve-circuit_energy": [*_EVOLVE, "circuit_energy", "--init", "{law}"],
    "evolve-bhattacharyya": [*_EVOLVE, "bhattacharyya", "--init", "delta0"],
    "evolve-rk4-entropy": [
        "evolve", "--chain", "{rates4}", "--dt", "0.125", "--horizon", "2",
        "--functional", "entropy", "--init", "delta0",
    ],
    "evolve-rk4-kl_to_stationary": [
        "evolve", "--chain", "{rates4}", "--dt", "0.125", "--horizon", "2",
        "--functional", "kl_to_stationary", "--init", "{law}",
    ],
    "evolve-json": ["--format", "json", *_EVOLVE, "entropy", "--init", "uniform"],
    "check": ["check", "--chain", "{lazy4}"],
    "check-pi": ["check", "--chain", "{lazy4}", "--pi", "{uniform}"],
    "measure-fdiv": ["measure", "--op", "fdiv", "--q", "neg_log", "--p1", "{law}", "--p2", "{law2}"],
    "measure-mi": ["measure", "--op", "mi", "--q", "neg_sqrt", "--joint", "{joint}"],
    "measure-lautum": ["measure", "--op", "lautum", "--q", "u_log_u", "--joint", "{joint}"],
    "measure-zz": ["measure", "--op", "zz", "--q", "neg_log", "--joint", "{joint}"],
    "measure-v": ["measure", "--op", "v", "--q", "square", "--family", "{family}"],
    "bounds-json": ["bounds", "--K", "3", "--L", "2"],
    "bounds-csv": [
        "--format", "csv", "bounds", "--K", "5", "--L", "4",
        "--grid-start", "0", "--grid-stop", "10", "--grid-points", "6", "--linear",
    ],
}


def _argv(argv: list, folder: Path) -> list:
    """`argv` with each fixture written to `folder` and named by its path."""
    paths = {}
    for name, doc in FIXTURES.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return [arg.format(**paths) for arg in argv]


def _stdout(argv: list, folder: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(argv, folder))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_the_recorded_bytes(case, tmp_path):
    assert _stdout(CASES[case], tmp_path) == json.loads(GOLDEN.read_text())[case]


def test_python_dash_m_runs_the_command_line(tmp_path):
    """The module entry point, in its own process: the golden bytes, --out, and exits 1 and 2."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "infodyn.cli", *argv], capture_output=True, env=env)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    check = _argv(CASES["check"], tmp_path)
    golden = json.loads(GOLDEN.read_text())["check"]
    assert run(*check) == (0, golden, "")
    out = tmp_path / "out.json"
    assert run("--out", str(out), *check) == (0, "", "") and out.read_text() == golden
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    for code, argv in ((1, ["check", "--chain", str(malformed)]), (2, ["--tol", "-1", *check])):
        exit_code, stdout, stderr = run(*argv)
        assert (exit_code, stdout) == (code, "") and stderr.startswith("error: ") and stderr.count("\n") == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        record = {case: _stdout(argv, Path(folder)) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
