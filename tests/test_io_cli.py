"""File formats and the command line driver, exercised in process."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from infodyn import (
    Distribution,
    DomainError,
    JointDistribution,
    MeasureFamily,
    ParseError,
    RateMatrix,
    StochasticMatrix,
    TimeSeries,
    build_example_chain,
    generalized_mutual_information,
    builtin,
    measure_family_functional,
    optimize_s,
    ExampleConfig,
    GridSpec,
    BadParamsError,
    NonErgodicError,
    f_divergence,
    check_balance,
    stationary_distribution,
)
from infodyn import markov
from infodyn.cli import build_parser, main, run_scenario
from infodyn.io import (
    load_chain,
    load_distribution,
    load_family,
    load_joint,
    load_pair_measures,
    report_csv_text,
    save_chain,
    save_distribution,
    series_to_dict,
    trace_csv_text,
    verdict_to_dict,
    write_json,
)
from infodyn.monotonicity import verdict


# ---------------------------------------------------------------- file I/O


def test_chain_round_trip_discrete(tmp_path):
    path = tmp_path / "chain.json"
    chain = StochasticMatrix([[1 / 3, 2 / 3], [0.25, 0.75]])
    save_chain(chain, path)
    back = load_chain(path)
    assert isinstance(back, StochasticMatrix)
    assert np.array_equal(back.matrix, chain.matrix)


def test_chain_round_trip_continuous(tmp_path):
    path = tmp_path / "rates.json"
    rates = RateMatrix([[0.0, 1.7], [0.3, 0.0]])
    save_chain(rates, path)
    back = load_chain(path)
    assert isinstance(back, RateMatrix)
    assert np.array_equal(back.matrix, rates.matrix)


def test_load_chain_parse_failures(tmp_path):
    cases = {
        "garbage.json": "not json {",
        "list.json": "[1, 2, 3]",
        "missing.json": '{"kind": "discrete", "n": 2}',
        "kind.json": '{"kind": "markov", "n": 1, "matrix": [[1.0]]}',
        "text.json": '{"kind": "discrete", "n": 1, "matrix": [["wide"]]}',
        "shape.json": '{"kind": "discrete", "n": 3, "matrix": [[1.0]]}',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError):
            load_chain(path)
    with pytest.raises(OSError):
        load_chain(tmp_path / "absent.json")


def test_load_chain_surfaces_domain_errors(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text('{"kind": "discrete", "n": 2, "matrix": [[0.9, 0.0], [0.5, 0.5]]}')
    with pytest.raises(DomainError):
        load_chain(path)


def test_distribution_round_trip(tmp_path):
    path = tmp_path / "law.json"
    save_distribution(Distribution([0.125, 0.875]), path)
    assert np.array_equal(load_distribution(path).probs, [0.125, 0.875])
    bad = tmp_path / "bad.json"
    bad.write_text('{"mass": [1.0]}')
    with pytest.raises(ParseError):
        load_distribution(bad)


def test_load_joint_and_measures(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text(
        json.dumps(
            {
                "nx": 2,
                "ny": 2,
                "table": [[0.4, 0.1], [0.1, 0.4]],
                "measures": [[[0.25, 0.25], [0.25, 0.25]]],
            }
        )
    )
    joint = load_joint(path)
    assert joint.nx == 2 and joint.ny == 2
    measures = load_pair_measures(path)
    assert len(measures) == 1 and measures[0].shape == (2, 2)

    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"nx": 2, "ny": 3, "table": [[0.5, 0.5], [0.0, 0.0]]}')
    with pytest.raises(ParseError):
        load_joint(wrong)
    flat = tmp_path / "flat.json"
    flat.write_text('{"measures": [[0.5, 0.5]]}')
    with pytest.raises(ParseError):
        load_pair_measures(flat)


def test_load_family_respects_positivity_flag(tmp_path):
    strict = tmp_path / "strict.json"
    strict.write_text('{"measures": [[0.5, 0.0], [0.25, 0.25]]}')
    with pytest.raises(DomainError):
        load_family(strict)
    relaxed = tmp_path / "relaxed.json"
    relaxed.write_text('{"measures": [[0.5, 0.0], [0.25, 0.25]], "require_positive": false}')
    fam = load_family(relaxed)
    assert fam.k == 1 and fam.n == 2
    shaped = tmp_path / "shaped.json"
    shaped.write_text('{"measures": [0.5, 0.5]}')
    with pytest.raises(ParseError):
        load_family(shaped)


def test_write_json_normalizes_floats():
    text = write_json({"pi": math.pi, "n": np.int64(3), "x": np.float64(1.0 / 3.0)})
    doc = json.loads(text)
    assert doc["pi"] == 3.14159265359
    assert doc["n"] == 3
    assert doc["x"] == 0.333333333333
    assert text.endswith("\n")
    assert write_json({"pi": math.pi}) == write_json({"pi": math.pi})


def test_trace_csv_formats_integer_times():
    series = TimeSeries([0.0, 1.0, 2.5], [1.0, 0.5, 1.0 / 3.0])
    text = trace_csv_text(series)
    assert text == "t,value\n0,1\n1,0.5\n2.5,0.333333333333\n"
    assert trace_csv_text(TimeSeries([], [])) == "t,value\n"
    assert trace_csv_text(TimeSeries([0.0], [-0.0])) == "t,value\n0,0\n"


def test_report_csv_layout():
    report = optimize_s(ExampleConfig(3, 2), GridSpec(0.5, 2.0, 3))
    text = report_csv_text(report)
    lines = text.strip().split("\n")
    assert lines[0] == "s,psi,d"
    assert len(lines) == 1 + len(report.s_grid)
    assert lines[1].startswith("0,")


def test_dict_views():
    series = TimeSeries([0.0, 1.0], [2.0, 1.0])
    assert series_to_dict(series) == {"t": [0.0, 1.0], "value": [2.0, 1.0]}
    v = verdict(series, "non_increasing")
    assert verdict_to_dict(v) == {
        "direction": "non_increasing",
        "holds": True,
        "max_violation": 0.0,
        "argmax_step": 0,
    }


# -------------------------------------------------------------------- CLI


@pytest.fixture
def mod3_file(tmp_path):
    path = tmp_path / "mod3.json"
    save_chain(build_example_chain("mod_k_walk", K=3), path)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_evolve_entropy_trace(capsys, mod3_file):
    code, out = _run(
        capsys, "evolve", "--chain", mod3_file, "--functional", "entropy",
        "--init", "delta0", "--steps", "10",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 12
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 0.0
    assert abs(values[-1] - math.log(3.0)) < 1e-6
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_cli_evolve_writes_file_and_json(capsys, tmp_path, mod3_file):
    out_path = tmp_path / "trace.json"
    code, out = _run(
        capsys, "--out", str(out_path), "--format", "json",
        "evolve", "--chain", mod3_file, "--functional", "entropy",
        "--init", "uniform", "--steps", "3",
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["t"] == [0.0, 1.0, 2.0, 3.0]
    assert doc["value"] == pytest.approx([math.log(3.0)] * 4, abs=1e-9)


def test_cli_evolve_kl_pair(capsys, tmp_path, mod3_file):
    second = tmp_path / "p2.json"
    save_distribution(Distribution([0.7, 0.2, 0.1]), second)
    code, out = _run(
        capsys, "evolve", "--chain", mod3_file, "--functional", "kl_pair",
        "--init", "uniform", "--init2", str(second), "--steps", "8",
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_cli_evolve_v_functional(capsys, tmp_path, mod3_file):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"measures": [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]]}))
    code, out = _run(
        capsys, "evolve", "--chain", mod3_file, "--functional", "v_functional",
        "--family", str(fam_path), "--q", "u_log_u", "--steps", "5",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_cli_evolve_rate_matrix(capsys, tmp_path):
    path = tmp_path / "rates.json"
    save_chain(RateMatrix([[0.0, 1.0], [1.0, 0.0]]), path)
    code, out = _run(
        capsys, "evolve", "--chain", str(path), "--functional", "entropy",
        "--init", "delta0", "--dt", "0.1", "--horizon", "1.0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 12
    assert lines[1].split(",")[1] == "0"

    code, out = _run(
        capsys, "evolve", "--chain", str(path), "--functional", "j_functional",
        "--init", "delta0", "--q", "neg_log",
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert len(values) == 101
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    # dt * max exit rate must stay below 1
    code, _ = _run(
        capsys, "evolve", "--chain", str(path), "--functional", "entropy",
        "--init", "delta0", "--dt", "1.5", "--horizon", "3.0",
    )
    assert code == 2


def test_cli_evolve_rejects_zero_step_and_horizon(capsys, tmp_path):
    path = tmp_path / "rates.json"
    save_chain(RateMatrix([[0.0, 1.0], [1.0, 0.0]]), path)
    for flag in ("--dt", "--horizon"):
        code, out = _run(
            capsys, "evolve", "--chain", str(path), "--functional", "entropy",
            "--init", "delta0", flag, "0",
        )
        assert code == 2 and out == ""


def test_cli_evolve_survives_row_sum_drift(capsys, tmp_path):
    """Rows summing to 1 + 5e-13 are valid input and stay valid for 2000 steps."""
    chain = tmp_path / "drift.json"
    m = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]) * (1.0 + 5e-13)
    save_chain(StochasticMatrix(m), chain)
    other = tmp_path / "p2.json"
    save_distribution(Distribution([0.7, 0.2, 0.1]), other)
    for kind in ("entropy", "kl_pair"):
        code, out = _run(
            capsys, "evolve", "--chain", str(chain), "--functional", kind,
            "--init", "delta0", "--init2", str(other), "--steps", "2000",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2002


def test_cli_drifting_kernel_traces_like_its_normalized_rows(capsys, tmp_path):
    """kl_to_stationary on rows 5e-13 over 1 matches the rows divided by their sums."""
    rng = np.random.default_rng(29)
    raw = rng.random((6, 6)) + 0.05
    raw /= raw.sum(axis=1, keepdims=True) / (1.0 + 5e-13)
    traces = []
    for name, m in (("raw", raw), ("divided", raw / raw.sum(axis=1, keepdims=True))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "discrete", "n": 6, "matrix": m.tolist()}))
        code, out = _run(
            capsys, "evolve", "--chain", str(path), "--functional", "kl_to_stationary",
            "--init", "delta0", "--steps", "2000",
        )
        assert code == 0
        traces.append(np.array([float(line.split(",")[1]) for line in out.split()[1:]]))
    assert traces[0].size == 2001
    assert np.abs(traces[0] - traces[1]).max() <= 1e-14


@pytest.mark.parametrize(
    "chain, flag, value, functional",
    [
        (RateMatrix([[0.0, 1.0], [1.0, 0.0]]), "--horizon", "inf", ["entropy"]),
        (RateMatrix([[0.0, 1.0], [1.0, 0.0]]), "--horizon", "1e300", ["entropy"]),
        (StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), "--steps", "100000000000000", ["entropy"]),
        (
            StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]),
            "--steps",
            "100000000000000",
            ["j_functional", "--q", "neg_log"],
        ),
        (StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), "--steps", "1" + "0" * 400, ["entropy"]),
    ],
    ids=["inf-horizon", "huge-horizon", "huge-steps", "huge-steps-joint", "steps-beyond-float"],
)
def test_cli_trajectory_that_cannot_be_held_exits_2(
    capsys, tmp_path, chain, flag, value, functional
):
    """Sizes beyond the address space, which numpy refuses without allocating."""
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    argv = ["evolve", "--chain", str(path), "--functional", *functional, "--init", "delta0"]
    code = main([*argv, flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_reports_a_missing_q_before_the_trajectory_size(capsys, mod3_file):
    code = main([
        "evolve", "--chain", mod3_file, "--functional", "u_functional",
        "--init", "delta0", "--steps", "100000000000000",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: trace kind 'u_functional' needs a convex function\n"


INFINITE_NEG_LOG = (
    "error: value is infinite: the second law vanishes where the weighting law has mass"
    " (neg_log is infinite at 0)\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--functional", "kl_from_stationary", "--init", "delta0"],
        ["evolve", "--functional", "kl_pair", "--init", "uniform", "--init2", "delta1"],
        ["evolve", "--functional", "u_functional", "--q", "neg_log", "--init", "delta0"],
        ["measure", "--op", "fdiv", "--q", "neg_log", "--p1", "{law}", "--p2", "{zero}"],
    ],
    ids=["kl_from_stationary", "kl_pair", "u_functional", "fdiv"],
)
def test_cli_says_when_a_divergence_is_infinite(capsys, tmp_path, mod3_file, argv):
    """Q = -log at a zero companion cell under a positive weight: D = +inf, exit 2."""
    paths = {"law": tmp_path / "law.json", "zero": tmp_path / "zero.json"}
    save_distribution(Distribution([0.25, 0.25, 0.5]), paths["law"])
    save_distribution(Distribution([0.5, 0.5, 0.0]), paths["zero"])
    if argv[0] == "evolve":
        argv = [*argv, "--chain", mod3_file]
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == INFINITE_NEG_LOG


@pytest.mark.parametrize("q", ["u_log_u", "square", "half_square"])
def test_cli_j_functional_on_an_unreachable_pair_says_the_value_is_infinite(capsys, tmp_path, q):
    """On a 3-cycle the law of (X_0, X_t) vanishes off a permutation, the marginals' product does not.

    A Q growing faster than linearly is then +inf there (exit 2, one line);
    neg_sqrt, with recession slope 0, still traces.
    """
    cycle = tmp_path / "cycle.json"
    save_chain(StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), cycle)
    argv = ["evolve", "--chain", str(cycle), "--functional", "j_functional",
            "--init", "uniform", "--steps", "3"]
    code = main([*argv, "--q", q])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: value is infinite: the second law has mass where the weighting law vanishes"
        f" ({q} grows faster than linearly)\n"
    )
    code, out = _run(capsys, *argv, "--q", "neg_sqrt")
    assert code == 0
    # three cells of weight 1/3 at ratio 1/3, and the tail adds 0: -sqrt(1/3)
    assert out == "t,value\n" + "".join(f"{t},-0.57735026919\n" for t in range(4))


_WELL_FORMED = {
    "chain": {"kind": "discrete", "n": 2, "matrix": [[0.5, 0.5], [0.25, 0.75]]},
    "law": {"probs": [0.5, 0.5]},
    "joint": {"nx": 2, "ny": 2, "table": [[0.25, 0.25], [0.25, 0.25]]},
}


@pytest.mark.parametrize(
    "loader, doc, argv",
    [
        (
            load_distribution,
            {"probs": ["x", 1]},
            ["measure", "--op", "fdiv", "--q", "neg_log", "--p1", "{law}", "--p2", "{bad}"],
        ),
        (load_distribution, {"probs": ["x", 1]}, ["check", "--chain", "{chain}", "--pi", "{bad}"]),
        (
            load_distribution,
            {"probs": [10**400, 1]},
            ["evolve", "--chain", "{chain}", "--functional", "entropy", "--init", "{bad}"],
        ),
        (
            load_chain,
            {"kind": "discrete", "n": 2, "matrix": [[1.0], [0.5, 0.5]]},
            ["check", "--chain", "{bad}"],
        ),
        (
            load_joint,
            {"nx": 2, "ny": 2, "table": [[0.5, 0.5], [0.0]]},
            ["measure", "--op", "mi", "--q", "neg_log", "--joint", "{bad}"],
        ),
        (
            load_pair_measures,
            {"measures": [[[0.25, "a"], [0.25, 0.25]]]},
            ["measure", "--op", "zz", "--q", "neg_log", "--joint", "{joint}", "--measures", "{bad}"],
        ),
        (
            load_family,
            {"measures": [[0.5, 0.5], ["b", 0.5]]},
            ["measure", "--op", "v", "--q", "u_log_u", "--family", "{bad}"],
        ),
        (
            load_family,
            {"measures": [[0.5, 0.5], [0.5, 0.5]], "require_positive": "no"},
            [
                "evolve", "--chain", "{chain}", "--functional", "v_functional",
                "--q", "u_log_u", "--family", "{bad}",
            ],
        ),
        (
            load_distribution,
            {"probs": ["0.25", "0.75"]},
            ["measure", "--op", "fdiv", "--q", "neg_log", "--p1", "{law}", "--p2", "{bad}"],
        ),
        (load_distribution, {"probs": [None, 1.0]}, ["check", "--chain", "{chain}", "--pi", "{bad}"]),
        (
            load_distribution,
            {"probs": [True, 0.0]},
            ["evolve", "--chain", "{chain}", "--functional", "entropy", "--init", "{bad}"],
        ),
        (
            load_chain,
            {"kind": "discrete", "n": 2, "matrix": [[1.0, False], [0.5, 0.5]]},
            ["check", "--chain", "{bad}"],
        ),
        (load_chain, {"kind": "discrete", "n": True, "matrix": [[1.0]]}, ["check", "--chain", "{bad}"]),
        (
            load_joint,
            {"nx": 2, "ny": 2, "table": [[0.5, None], [0.25, 0.25]]},
            ["measure", "--op", "mi", "--q", "neg_log", "--joint", "{bad}"],
        ),
        (
            load_family,
            {"measures": [[0.5, 0.5], [True, 0.0]], "require_positive": False},
            ["measure", "--op", "v", "--q", "neg_sqrt", "--family", "{bad}"],
        ),
    ],
    ids=[
        "probs-text-fdiv", "probs-text-check", "probs-huge-int-evolve", "matrix-ragged",
        "table-ragged", "measures-text", "family-text", "require-positive-text",
        "probs-number-text-fdiv", "probs-null-check", "probs-true-evolve", "matrix-false",
        "n-true", "table-null", "family-true",
    ],
)
def test_a_malformed_numeric_field_is_a_parse_error(capsys, tmp_path, loader, doc, argv):
    """Library: ParseError.  CLI: exit 1, one error line, no output, no traceback."""
    paths = {}
    for key, content in {"bad": doc, **_WELL_FORMED}.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(content))
    with pytest.raises(ParseError):
        loader(paths["bad"])
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_a_scalar_probs_field_stays_a_domain_error(capsys, tmp_path):
    """It parses as a number; the Distribution constructor refuses it (exit 2)."""
    good, scalar = tmp_path / "good.json", tmp_path / "scalar.json"
    save_distribution(Distribution([0.5, 0.5]), good)
    scalar.write_text('{"probs": 0.5}')
    with pytest.raises(BadParamsError):
        load_distribution(scalar)
    code, out = _run(
        capsys, "measure", "--op", "fdiv", "--q", "neg_log", "--p1", str(good), "--p2", str(scalar),
    )
    assert code == 2 and out == ""


def test_cli_check_detailed_balance(capsys, tmp_path):
    path = tmp_path / "mm1.json"
    save_chain(build_example_chain("mm1_truncated", n_states=4, lam=1.0, mu=2.0), path)
    code, out = _run(capsys, "check", "--chain", str(path))
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "is_doubly_stochastic",
        "satisfies_global_balance",
        "satisfies_detailed_balance",
        "max_residual",
    ]
    assert doc["satisfies_detailed_balance"] is True
    assert doc["max_residual"] <= 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
def test_cli_check_refuses_a_tolerance_that_is_not_finite_and_nonnegative(capsys, tmp_path, tol):
    """A doubly stochastic, non-reversible chain: NaN read every flag false, inf every one true."""
    path = tmp_path / "cycle.json"
    save_chain(StochasticMatrix([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]), path)
    code, out = _run(capsys, f"--tol={tol}", "check", "--chain", str(path))
    assert code == 2 and out == ""


def test_run_scenario_takes_the_parsed_arguments(tmp_path):
    """The solved law's residual is one ulp, so --tol 0 flips the balance flags."""
    path = tmp_path / "mm1.json"
    save_chain(build_example_chain("mm1_truncated", n_states=5, lam=1.0, mu=3.0), path)
    chain = load_chain(path)
    pi = stationary_distribution(chain)
    reports = []
    for tol, flags in ((1e-9, []), (0.0, ["--tol", "0"])):
        args = build_parser().parse_args([*flags, "check", "--chain", str(path)])
        reports.append(dataclasses.asdict(check_balance(chain, pi, tol=tol)))
        assert run_scenario(args) == write_json(reports[-1])
    assert reports[0] != reports[1]


def test_cli_check_with_wrong_candidate_law(capsys, tmp_path, mod3_file):
    skew = tmp_path / "skew.json"
    save_distribution(Distribution([0.6, 0.3, 0.1]), skew)
    code, out = _run(capsys, "check", "--chain", mod3_file, "--pi", str(skew))
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfies_global_balance"] is False
    assert doc["satisfies_detailed_balance"] is False


def test_non_finite_json_tokens_are_parse_errors(capsys, tmp_path):
    good = tmp_path / "good.json"
    save_distribution(Distribution([0.5, 0.5]), good)
    for token in ("NaN", "Infinity", "-Infinity"):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"probs": [{token}, 1.0]}}')
        with pytest.raises(ParseError):
            load_distribution(bad)
        code, out = _run(
            capsys, "measure", "--op", "fdiv", "--q", "neg_log",
            "--p1", str(good), "--p2", str(bad),
        )
        assert code == 1 and out == ""


def test_cli_measure_fdiv(capsys, tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    save_distribution(Distribution([0.5, 0.5]), p1)
    save_distribution(Distribution([0.25, 0.75]), p2)
    code, out = _run(
        capsys, "measure", "--op", "fdiv", "--q", "neg_log",
        "--p1", str(p1), "--p2", str(p2),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["op"] == "fdiv" and doc["q"] == "neg_log"
    assert doc["value"] == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-9)


@pytest.fixture
def joint_file(tmp_path):
    table = [[0.4, 0.1], [0.1, 0.4]]
    product = (np.array(table).sum(axis=1)[:, None] * np.array(table).sum(axis=0)).tolist()
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"nx": 2, "ny": 2, "table": table, "measures": [product]}))
    return str(path)


def test_cli_measure_mi_and_zz_agree(capsys, joint_file):
    code, out = _run(capsys, "measure", "--op", "mi", "--q", "neg_sqrt", "--joint", joint_file)
    assert code == 0
    mi_value = json.loads(out)["value"]
    expected = generalized_mutual_information(
        builtin("neg_sqrt"), JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    )
    assert mi_value == pytest.approx(expected, abs=1e-9)

    # The measures array in the same file holds the product law, so the
    # grid functional lands on the same number.
    code, out = _run(capsys, "measure", "--op", "zz", "--q", "neg_sqrt", "--joint", joint_file)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-9)


def test_cli_measure_lautum(capsys, joint_file):
    code, out = _run(capsys, "measure", "--op", "lautum", "--q", "u_log_u", "--joint", joint_file)
    assert code == 0
    joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    px, py = joint.marginal_x(), joint.marginal_y()
    classical = sum(
        joint.table[x, y] * math.log(joint.table[x, y] / (px[x] * py[y]))
        for x in range(2)
        for y in range(2)
    )
    assert json.loads(out)["value"] == pytest.approx(classical, abs=1e-9)


def test_cli_measure_v(capsys, tmp_path):
    fam_path = tmp_path / "family.json"
    rows = [[0.25, 0.75], [0.5, 0.5]]
    fam_path.write_text(json.dumps({"measures": rows}))
    code, out = _run(capsys, "measure", "--op", "v", "--q", "square", "--family", str(fam_path))
    assert code == 0
    expected = measure_family_functional(builtin("square"), MeasureFamily(rows))
    # stdout floats are quantized to 12 significant digits
    assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-9)


def test_cli_measure_v_rejects_an_overflowing_entry(capsys, tmp_path):
    """1e400 parses to inf; the family constructor must refuse it (exit 2)."""
    fam_path = tmp_path / "family.json"
    fam_path.write_text('{"measures": [[0.25, 0.75], [1e400, 0.5]]}')
    code = main(["measure", "--op", "v", "--q", "square", "--family", str(fam_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "op, docs",
    [
        ("fdiv", {"p1": {"probs": [0.5, 0.4]}, "p2": {"probs": [0.5, 0.5]}}),
        ("mi", {"joint": {"nx": 1, "ny": 2, "table": [[0.5, 0.4]]}}),
    ],
    ids=["fdiv", "mi"],
)
def test_cli_sum_error_prints_a_plain_float(capsys, tmp_path, op, docs):
    """The reported sum reads as a number, not as a numpy scalar repr."""
    args = ["measure", "--op", op, "--q", "neg_log"]
    for key, doc in docs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
        args += [f"--{key}", str(tmp_path / f"{key}.json")]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert "sums to 0.9" in err and "np.float64" not in err


@pytest.mark.parametrize(
    "op, docs",
    [
        ("v", {"family": {"measures": [[1e-300, 1.0], [1e300, 1.0]]}}),
        ("fdiv", {"p1": {"probs": [1e-320, 1.0]}, "p2": {"probs": [0.5, 0.5]}}),
    ],
    ids=["v", "fdiv"],
)
def test_measure_rejects_a_ratio_that_overflows(capsys, tmp_path, op, docs):
    """Finite entries, infinite value: BadParamsError, exit 2, one error line, no warning."""
    args = ["measure", "--op", op, "--q", "square"]
    for key, doc in docs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
        args += [f"--{key}", str(tmp_path / f"{key}.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParamsError, match="not finite"):
            if op == "v":
                measure_family_functional(builtin("square"), load_family(tmp_path / "family.json"))
            else:
                p1, p2 = (load_distribution(tmp_path / f"{key}.json") for key in ("p1", "p2"))
                f_divergence(builtin("square"), p1, p2)
        code = main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cli_measure_missing_inputs(capsys, tmp_path):
    p1 = tmp_path / "p1.json"
    save_distribution(Distribution([0.5, 0.5]), p1)
    code, _ = _run(capsys, "measure", "--op", "fdiv", "--q", "neg_log", "--p1", str(p1))
    assert code == 2
    code, _ = _run(capsys, "measure", "--op", "mi", "--q", "neg_log")
    assert code == 2


def test_cli_measure_bad_q_spec(capsys, joint_file):
    code, _ = _run(capsys, "measure", "--op", "mi", "--q", "soft_plus", "--joint", joint_file)
    assert code == 1


def test_cli_bounds_json_report(capsys):
    code, out = _run(capsys, "bounds", "--K", "3", "--L", "2")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "K", "L", "theta", "grid", "psi", "d",
        "d_at_zero", "d_at_limit", "d_classical", "best_s", "best_d",
    ]
    assert doc["K"] == 3 and doc["L"] == 2 and doc["theta"] == 1.5
    assert len(doc["grid"]) == 65 and doc["grid"][0] == 0.0
    assert doc["d_at_zero"] == pytest.approx(0.0669872981078, abs=1e-9)
    assert doc["d_at_limit"] == pytest.approx(0.211324865405, abs=1e-9)
    assert doc["d_classical"] == pytest.approx(0.140276506997, abs=1e-9)
    assert doc["best_s"] == "limit"
    assert doc["best_d"] == doc["d_at_limit"]


def test_cli_bounds_csv_and_linear_grid(capsys):
    code, out = _run(
        capsys, "--format", "csv",
        "bounds", "--K", "5", "--L", "4",
        "--grid-start", "0", "--grid-stop", "10", "--grid-points", "6", "--linear",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,psi,d"
    assert len(lines) == 7  # zero start means nothing is prepended
    assert lines[1].startswith("0,0.0625,")


def test_cli_bounds_rejects_bad_ratio(capsys):
    code, _ = _run(capsys, "bounds", "--K", "5", "--L", "2")
    assert code == 2


def test_cli_bounds_refuses_alphabet_sizes_past_the_float_range(capsys):
    code = main(["bounds", "--K", str(10**400), "--L", str(10**400 - 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: alphabet size 1e+400 is past the float range\n"


@pytest.mark.parametrize("stop", ["5e307", "1.7e308"])
def test_cli_bounds_grid_up_to_the_float_range(capsys, stop):
    """4s overflows there; psi still reaches its limit 2/3 (pytest fails on a RuntimeWarning)."""
    code, out = _run(capsys, "--format", "csv", "bounds", "--K", "3", "--L", "2", "--grid-stop", stop)
    assert code == 0
    assert out.strip().split("\n")[-1] == f"{float(stop):.12g},0.666666666667,0.211324865405"


def test_cli_refuses_a_grid_past_the_sweep_cap_at_once(capsys):
    """10^9 points would take about 15 minutes one by one; the cap refuses them before any."""
    code = main(["bounds", "--K", "3", "--L", "2", "--grid-points", "1000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: 1e+09 grid points cannot be held: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bounds", "--K", "3", "--L", "2", "--grid-points", str(10**12)], "error: 1e+12 grid points cannot be held: "),
        (["bounds", "--K", "3", "--L", "2", "--grid-points", str(10**30)], "error: 1e+30 grid points cannot be held: "),
        (["bounds", "--K", "3", "--L", "2", "--grid-points", str(10**400)], "error: 1e+400 grid points cannot be held: "),
        (["check", "--chain", "SUBNORMAL"], "error: stationary law is not strictly positive\n"),
        (["evolve", "--chain", "SUBNORMAL", "--functional", "u_functional", "--q", "neg_sqrt", "--init", "uniform"],
         "error: stationary law is not strictly positive\n"),
        (["check", "--chain", "WIDE"], "error: exit rates of rows [0] sum past the float range\n"),
        (["evolve", "--chain", "WIDE", "--functional", "entropy", "--init", "uniform", "--dt", "1e-320"],
         "error: exit rates of rows [0] sum past the float range\n"),
    ],
    ids=["grid-memory", "grid-dimension", "grid-beyond-float", "check-subnormal", "evolve-subnormal",
         "check-exit-past-float", "evolve-exit-past-float"],
)
def test_cli_refuses_a_grid_or_law_numpy_cannot_hold(capsys, tmp_path, argv, error):
    """One typed error line and exit 2, with no RuntimeWarning (pytest fails on one)."""
    chains = {
        "SUBNORMAL": {"kind": "discrete", "n": 2, "matrix": [[0.22434580177714386, 0.7756541982228561], [5e-324, 1.0]]},
        "WIDE": {"kind": "continuous", "n": 3, "matrix": [[0.0, 1e308, 1e308], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
    }
    for name, doc in chains.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code = main([str(tmp_path / f"{arg}.json") if arg in chains else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(error) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "matrix, residual",
    [([[0.0, 5e-324], [5e-324, 0.0]], 0.0), ([[0.0, 1.75e308], [1.0, 0.0]], 4.4408920985e-16)],
    ids=["all-subnormal", "exit-near-the-float-range"],
)
def test_cli_checks_rates_at_the_float_edges_quietly(capsys, tmp_path, matrix, residual):
    """Elimination finds these laws after the sweep's NaN or inf; exit 0, no RuntimeWarning (pytest fails on one)."""
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"kind": "continuous", "n": 2, "matrix": matrix}))
    code, out = _run(capsys, "check", "--chain", str(path))
    assert code == 0
    assert json.loads(out) == {"is_doubly_stochastic": False, "satisfies_global_balance": True,
                               "satisfies_detailed_balance": True, "max_residual": residual}


def test_cli_exit_codes(capsys, tmp_path, mod3_file):
    assert main(["--help"]) == 0
    capsys.readouterr()

    code, _ = _run(capsys, "evolve", "--chain", str(tmp_path / "nope.json"),
                   "--functional", "entropy", "--init", "uniform")
    assert code == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    code, _ = _run(capsys, "evolve", "--chain", str(broken),
                   "--functional", "entropy", "--init", "uniform")
    assert code == 1

    assert main(["transmogrify"]) == 1
    capsys.readouterr()
    assert main(["evolve", "--chain", mod3_file, "--functional", "free_energy"]) == 1
    capsys.readouterr()

    # reducible chain: stationary law is not unique
    stuck = tmp_path / "stuck.json"
    save_chain(StochasticMatrix([[1.0, 0.0], [0.0, 1.0]]), stuck)
    code, _ = _run(capsys, "evolve", "--chain", str(stuck),
                   "--functional", "kl_to_stationary", "--init", "uniform")
    assert code == 2

    code, _ = _run(capsys, "evolve", "--chain", mod3_file,
                   "--functional", "entropy", "--init", "delta7")
    assert code == 2

    code, _ = _run(capsys, "evolve", "--chain", mod3_file,
                   "--functional", "entropy", "--init", "deltaX")
    assert code == 1


@pytest.mark.parametrize(
    "token, index",
    [("delta01", 1), ("delta\u0661", 1), ("delta" + "0" * 5000 + "2", 2)],
    ids=["leading-zero", "arabic-indic-digit", "5001-digits"],
)
def test_cli_delta_index_is_the_integer_its_digits_name(capsys, mod3_file, token, index):
    """Leading zeros and other scripts' decimal digits, at any length."""
    argv = ["evolve", "--chain", mod3_file, "--functional", "entropy", "--steps", "3", "--init"]
    assert _run(capsys, *argv, token) == _run(capsys, *argv, f"delta{index}")


@pytest.mark.parametrize(
    "token, code, err",
    [
        ("delta0007", 2, "error: delta7 out of range for 3 states\n"),
        ("delta" + "5" * 5000, 2, f"error: delta{'5' * 5000} out of range for 3 states\n"),
        ("delta\u00b2", 1, "error: [Errno 2] No such file or directory: 'delta\u00b2'\n"),
    ],
    ids=["leading-zeros", "5000-digits", "superscript"],
)
def test_cli_delta_index_out_of_range_or_not_decimal(capsys, mod3_file, token, code, err):
    """Past int()'s 4300-digit limit the index is refused by its length; a superscript is a file name."""
    assert main(["evolve", "--chain", mod3_file, "--functional", "entropy", "--init", token]) == code
    assert capsys.readouterr() == ("", err)


def test_a_stationary_residual_past_tolerance_is_refused(capsys, monkeypatch, tmp_path):
    """The lazy 4-cycle is solved by elimination; a wrong law from it is caught by its residual."""
    lazy4 = StochasticMatrix([[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0.5, 0.5], [0.5, 0, 0, 0.5]])
    path = tmp_path / "lazy4.json"
    save_chain(lazy4, path)
    monkeypatch.setattr(markov, "_gth", lambda chain: np.array([0.4, 0.2, 0.2, 0.2]))
    with pytest.raises(NonErgodicError, match=r"^stationary residual 1\.000e-01 exceeds tolerance$"):
        stationary_distribution(lazy4)
    assert main(["check", "--chain", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: stationary residual 1.000e-01 exceeds tolerance\n")


def test_cli_zero_steps_yields_single_row(capsys, mod3_file):
    code, out = _run(
        capsys, "evolve", "--chain", mod3_file, "--functional", "entropy",
        "--init", "uniform", "--steps", "0",
    )
    assert code == 0
    assert out.strip().split("\n") == ["t,value", f"0,{math.log(3.0):.12g}"]


def test_cli_output_is_byte_stable(capsys):
    _, first = _run(capsys, "bounds", "--K", "7", "--L", "4")
    _, second = _run(capsys, "bounds", "--K", "7", "--L", "4")
    assert first == second
