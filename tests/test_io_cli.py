"""File formats and the command line driver, exercised in process."""

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
    f_divergence,
)
from infodyn.cli import main
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


def test_write_json_normalizes_floats(tmp_path):
    text = write_json({"pi": math.pi, "n": np.int64(3), "x": np.float64(1.0 / 3.0)})
    doc = json.loads(text)
    assert doc["pi"] == 3.14159265359
    assert doc["n"] == 3
    assert doc["x"] == 0.333333333333
    assert text.endswith("\n")
    path = tmp_path / "out.json"
    again = write_json({"pi": math.pi}, path)
    assert path.read_text() == again
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
    "chain, flag, value",
    [
        (RateMatrix([[0.0, 1.0], [1.0, 0.0]]), "--horizon", "inf"),
        (RateMatrix([[0.0, 1.0], [1.0, 0.0]]), "--horizon", "1e300"),
        (StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]), "--steps", "100000000000000"),
    ],
    ids=["inf-horizon", "huge-horizon", "huge-steps"],
)
def test_cli_trajectory_that_cannot_be_held_exits_2(capsys, tmp_path, chain, flag, value):
    """Sizes beyond the address space, which numpy refuses without allocating."""
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    code = main(
        ["evolve", "--chain", str(path), "--functional", "entropy", "--init", "delta0", flag, value]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
