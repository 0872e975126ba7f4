"""The command line's contract on generated inputs.

Every invocation exits 0, 1 (I/O or parse error) or 2 (domain error),
no exception escapes `main`, no RuntimeWarning is raised, and on exit 0
stdout is JSON without NaN or Infinity, or CSV of finite numbers.  The
generators keep subnormal, huge and non-numeric entries, and sizes that
numpy cannot hold: a grid of 10^12 points and more, a step count or an
alphabet size past the float range.  Finite sizes stay small or far out
of reach, so no case allocates much or runs long.

`--hypothesis-profile=ci` (see conftest.py) runs more examples.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodyn.cli import MEASURE_OPS, main
from infodyn.monotonicity import TRACE_KINDS

ODD = [0.0, 5e-324, 1e-310, 1e-300, 1e300, 1e308, -0.5, math.nan, math.inf, "0.5", None, True]
SUBNORMAL = [5e-324, 1e-320, 1e-310]
# Each option: the values a valid run takes, then the odd ones.  Step counts
# horizon / dt are either at most 200 or far past any memory.
Q_SPECS = (
    ["neg_log", "u_log_u", "neg_sqrt", "square", "half_square", "neg_pow:0.3", "piecewise:0,1;1,0;4,3"],
    ["neg_pow:2", "neg_pow:abc", "piecewise:0,a;1,1", "piecewise:0,0;inf,1", "hexagon"],
)
INIT = (["uniform", "delta0", "FILE"], ["delta3", "delta9", "deltaX", "delta\u00b2", "delta" + "5" * 5000])
STEPS = (["0", "1", "7", "30"], ["-1", "nan", "abc", str(10**14), "1" + "0" * 400])
DT_HORIZON = (
    [("0.1", "1"), ("0.005", "0.01"), ("0.005", "1")],
    [(dt, h) for dt in ("0", "-0.1", "nan", "inf", "1e-300", "5e-324", "0.5", "3") for h in ("1", "1e300")]
    + [("0.1", h) for h in ("0", "-1", "nan", "inf", "1e300", "0.01")],
)
TOL = (["1e-9", "1e-6"], ["0", "-1", "nan", "inf", "1e300", "5e-324", "abc"])
GRID_POINTS = (["1", "2", "17"], ["0", "-3", "2.5", str(10**12), str(10**30), str(10**400)])
GRID_START = (["1e-3", "1"], ["0", "-1", "1e308", "inf", "nan"])
GRID_STOP = (["10", "1e6", "1e308"], ["0", "-1", "inf", "nan"])


def odd(draw) -> bool:
    return draw(st.integers(0, 7)) == 7  # hypothesis favours the low end, so 0 is the ordinary case


def pick(draw, options):
    """A valid value seven times in eight, else an odd one."""
    valid, odd_values = options
    return draw(st.sampled_from(odd_values if odd(draw) else valid))


@st.composite
def table(draw, rows, cols, high=1.0, normalize=True):
    """Ordinary weights, rows divided by their sums, and one case in eight an odd entry."""
    out = []
    for _ in range(rows):
        row = draw(st.lists(st.floats(0.0, high), min_size=cols, max_size=cols))
        total = sum(row)
        out.append([x / total for x in row] if normalize and total > 0.0 else row)
    if odd(draw):
        out[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(st.sampled_from(ODD))
    return out


@st.composite
def chain_doc(draw, n):
    if draw(st.booleans()):
        matrix = draw(table(n, n, normalize=False))
        for i in range(n):
            matrix[i][i] = 0.0
        return {"kind": "continuous", "n": n, "matrix": matrix}
    matrix = draw(table(n, n))
    if n > 1 and draw(st.integers(0, 3)) == 3:  # a row of 1.0 and a subnormal: pi below the float range
        i = draw(st.integers(0, n - 1))
        matrix[i] = [0.0] * n
        matrix[i][i] = 1.0
        matrix[i][(i + 1) % n] = draw(st.sampled_from(SUBNORMAL))
    doc = {"kind": "discrete", "n": n, "matrix": matrix}
    if odd(draw):
        doc.update(draw(st.sampled_from([{"kind": "sideways"}, {"n": n + 1}, {"n": "2"}, {"n": None}])))
    return doc


@st.composite
def distribution_doc(draw, n):
    return {"probs": draw(table(1, pick(draw, ([n], [n + 1]))))[0]}


@st.composite
def family_doc(draw, n):
    measures = draw(table(draw(st.integers(2, 3)), n, high=2.0, normalize=False))
    return {"measures": measures, "require_positive": pick(draw, ([True, False], ["yes"]))}


@st.composite
def joint_doc(draw):
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(table(1, nx * ny))[0]
    doc = {"nx": nx, "ny": ny, "table": [cells[i * ny : (i + 1) * ny] for i in range(nx)]}
    if not odd(draw):
        doc["measures"] = [draw(table(nx, ny, high=2.0, normalize=False)) for _ in range(draw(st.integers(1, 2)))]
    return doc


@st.composite
def invocation(draw):
    """An argv for one of the four subcommands, and the JSON files it names."""
    n = draw(st.integers(1, 4))
    files = {}
    head = ["--tol", pick(draw, TOL)] if draw(st.booleans()) else []
    if draw(st.booleans()):
        head += ["--format", draw(st.sampled_from(["csv", "json"]))]
    kind = draw(st.sampled_from(["evolve", "check", "measure", "bounds"]))
    if kind == "evolve":
        files["CHAIN"] = draw(chain_doc(n))
        functional = draw(st.sampled_from(TRACE_KINDS))
        argv = ["evolve", "--chain", "CHAIN", "--functional", functional]
        for flag in ("--init", "--init2"):
            if flag == "--init" or functional == "kl_pair" or draw(st.integers(0, 3)) == 3:
                token = pick(draw, INIT)
                if token == "FILE":
                    token = flag.strip("-").upper()
                    files[token] = draw(distribution_doc(n))
                argv += [flag, token]
        if functional == "v_functional" or draw(st.integers(0, 3)) == 3:
            files["FAMILY"] = draw(family_doc(n))
            argv += ["--family", "FAMILY"]
        if functional in ("u_functional", "j_functional", "v_functional") or draw(st.integers(0, 3)) == 3:
            argv += ["--q", pick(draw, Q_SPECS)]
        dt, horizon = pick(draw, DT_HORIZON)
        argv += ["--steps", pick(draw, STEPS), "--dt", dt, "--horizon", horizon]
    elif kind == "check":
        files["CHAIN"] = draw(chain_doc(n))
        argv = ["check", "--chain", "CHAIN"]
        if draw(st.booleans()):
            files["PI"] = draw(distribution_doc(n))
            argv += ["--pi", "PI"]
    elif kind == "measure":
        op = draw(st.sampled_from(sorted(MEASURE_OPS)))
        argv = ["measure", "--op", op, "--q", pick(draw, Q_SPECS)]
        if op == "fdiv":
            files["P1"], files["P2"] = draw(distribution_doc(n)), draw(distribution_doc(n))
            argv += ["--p1", "P1", "--p2", "P2"]
        elif op == "v":
            files["FAMILY"] = draw(family_doc(n))
            argv += ["--family", "FAMILY"]
        else:
            files["JOINT"] = draw(joint_doc())
            argv += ["--joint", "JOINT"]
    else:
        ell = draw(st.integers(2, 5))
        k = draw(st.integers(ell + 1, 2 * ell))
        odd_sizes = [(1, ell), (ell, ell), (2 * ell + 1, ell), (k, 1), (10**308, 6 * 10**307), (10**400, 10**400 - 1)]
        k, ell = draw(st.sampled_from(odd_sizes)) if odd(draw) else (k, ell)
        argv = ["bounds", "--K", str(k), "--L", str(ell), "--grid-points", pick(draw, GRID_POINTS)]
        argv += ["--grid-start", pick(draw, GRID_START), "--grid-stop", pick(draw, GRID_STOP)]
        argv += ["--linear"] if draw(st.booleans()) else []
    return head + argv, files


def _refuse_constant(token):
    raise ValueError(f"stdout holds {token}")


def _check_stdout(text: str) -> None:
    if text.startswith("{"):
        json.loads(text, parse_constant=_refuse_constant)
        return
    header, *rows = text.splitlines()
    assert header in ("t,value", "s,psi,d") and rows, text[:200]
    for row in rows:
        assert all(math.isfinite(float(x)) for x in row.split(",")), row


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


SUBNORMAL_CHAIN = {"kind": "discrete", "n": 2, "matrix": [[0.22434580177714386, 0.7756541982228561], [5e-324, 1.0]]}


@settings(derandomize=True, deadline=None)
@given(invocation())
@example((["bounds", "--K", "3", "--L", "2", "--grid-points", str(10**12)], {}))
@example((["bounds", "--K", str(10**400), "--L", str(10**400 - 1)], {}))
@example((["check", "--chain", "CHAIN"], {"CHAIN": SUBNORMAL_CHAIN}))
@example((["evolve", "--chain", "CHAIN", "--functional", "entropy", "--init", "uniform", "--steps", "1" + "0" * 400],
          {"CHAIN": SUBNORMAL_CHAIN}))
@example((["evolve", "--chain", "CHAIN", "--functional", "entropy", "--init", "delta\u00b2"], {"CHAIN": SUBNORMAL_CHAIN}))
@example((["evolve", "--chain", "CHAIN", "--functional", "entropy", "--init", "delta" + "5" * 5000],
          {"CHAIN": SUBNORMAL_CHAIN}))
def test_every_invocation_exits_0_1_or_2_with_well_formed_output(folder, case):
    argv, files = case
    for name, doc in files.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(folder / f"{arg}.json") if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        _check_stdout(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
