"""Command line front end.

Four scenarios: ``evolve`` traces a functional along a trajectory,
``check`` runs balance diagnostics, ``measure`` evaluates one functional
on supplied inputs, ``bounds`` sweeps the distortion bound.  Exit status
is 0 on success, 1 on I/O or parse problems, 2 on domain errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import io as diskio
from .bounds import ExampleConfig, GridSpec, optimize_s, report_to_dict
from .convexity import parse_q_spec
from .errors import BadParamsError, DomainError, MissingInitError, ParseError
from .markov import (
    Distribution,
    RateMatrix,
    check_balance,
    horizon_steps,
    stationary_distribution,
)
from .measures import (
    f_divergence,
    generalized_lautum_information,
    generalized_mutual_information,
    measure_family_functional,
    zakai_ziv_functional,
)
from .monotonicity import TRACE_KINDS, trace_functional

__all__ = ["ScenarioConfig", "run_scenario", "emit_report", "main"]

MEASURE_OPS = ("fdiv", "mi", "lautum", "zz", "v")


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One parsed invocation: scenario kind plus its options."""

    kind: str
    options: dict
    tol: float = 1e-9
    out: str | None = None
    fmt: str | None = None


def _parse_init(token: str, n: int) -> Distribution:
    """Accept 'uniform', 'delta<i>', or a distribution file path."""
    if token == "uniform":
        return Distribution(np.full(n, 1.0 / n))
    if token.startswith("delta") and token.removeprefix("delta").isdigit():
        i = int(token.removeprefix("delta"))
        if i >= n:
            raise BadParamsError(f"delta{i} out of range for {n} states")
        probs = np.zeros(n)
        probs[i] = 1.0
        return Distribution(probs)
    return diskio.load_distribution(token)


def _run_evolve(cfg: ScenarioConfig):
    opts = cfg.options
    chain = diskio.load_chain(opts["chain"])
    inits = {}
    if opts.get("init") is not None:
        inits["init"] = _parse_init(opts["init"], chain.n)
    if opts.get("init2") is not None:
        inits["init2"] = _parse_init(opts["init2"], chain.n)
    if opts.get("family") is not None:
        inits["family"] = diskio.load_family(opts["family"])
    q = parse_q_spec(opts["q"]) if opts.get("q") else None
    dt = opts["dt"] if isinstance(chain, RateMatrix) else None
    steps = opts["steps"] if dt is None else horizon_steps(dt, opts["horizon"])
    series = trace_functional(
        opts["functional"], chain, q=q, inits=inits, steps=steps, dt=dt
    )
    return "trace", series


def _run_check(cfg: ScenarioConfig):
    opts = cfg.options
    chain = diskio.load_chain(opts["chain"])
    if opts.get("pi") is not None:
        pi = diskio.load_distribution(opts["pi"])
    else:
        pi = stationary_distribution(chain)
    report = check_balance(chain, pi, tol=cfg.tol)
    return "json", {
        "is_doubly_stochastic": report.is_doubly_stochastic,
        "satisfies_global_balance": report.satisfies_global_balance,
        "satisfies_detailed_balance": report.satisfies_detailed_balance,
        "max_residual": report.max_residual,
    }


def _run_measure(cfg: ScenarioConfig):
    opts = cfg.options
    op = opts["op"]
    q = parse_q_spec(opts["q"])
    if op == "fdiv":
        for key in ("p1", "p2"):
            if opts.get(key) is None:
                raise MissingInitError(f"measure fdiv needs --{key}")
        value = f_divergence(
            q, diskio.load_distribution(opts["p1"]), diskio.load_distribution(opts["p2"])
        )
    elif op in ("mi", "lautum", "zz"):
        if opts.get("joint") is None:
            raise MissingInitError(f"measure {op} needs --joint")
        joint = diskio.load_joint(opts["joint"])
        if op == "mi":
            value = generalized_mutual_information(q, joint)
        elif op == "lautum":
            value = generalized_lautum_information(q, joint)
        else:
            source = opts.get("measures") or opts["joint"]
            value = zakai_ziv_functional(q, joint, diskio.load_pair_measures(source))
    elif op == "v":
        if opts.get("family") is None:
            raise MissingInitError("measure v needs --family")
        value = measure_family_functional(q, diskio.load_family(opts["family"]))
    else:
        raise BadParamsError(f"unknown measure op {op!r}")
    return "json", {"op": op, "q": opts["q"], "value": float(value)}


def _run_bounds(cfg: ScenarioConfig):
    opts = cfg.options
    config = ExampleConfig(K=opts["K"], L=opts["L"])
    grid = GridSpec(
        start=opts["grid_start"],
        stop=opts["grid_stop"],
        points=opts["grid_points"],
        log_spaced=not opts["linear"],
    )
    return "report", optimize_s(config, grid)


def run_scenario(cfg: ScenarioConfig):
    """Execute one scenario; returns (payload kind, payload)."""
    runner = {
        "evolve": _run_evolve,
        "check": _run_check,
        "measure": _run_measure,
        "bounds": _run_bounds,
    }.get(cfg.kind)
    if runner is None:
        raise BadParamsError(f"unknown scenario {cfg.kind!r}")
    return runner(cfg)


def emit_report(tag: str, payload, out: str | None, fmt: str | None) -> str:
    """Render a scenario result and write it to `out` (or stdout)."""
    if tag == "trace":
        fmt = fmt or "csv"
        if fmt == "csv":
            text = diskio.trace_csv_text(payload)
        else:
            text = diskio.write_json(diskio.series_to_dict(payload))
    elif tag == "report":
        fmt = fmt or "json"
        if fmt == "csv":
            text = diskio.report_csv_text(payload)
        else:
            text = diskio.write_json(report_to_dict(payload))
    else:
        text = diskio.write_json(payload)
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description="Information functionals over finite Markov dynamics.",
    )
    parser.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    sub = parser.add_subparsers(dest="kind", required=True)

    evolve = sub.add_parser("evolve", help="trace a functional along a trajectory")
    evolve.add_argument("--chain", required=True)
    evolve.add_argument("--functional", required=True, choices=TRACE_KINDS)
    evolve.add_argument("--init", help="'uniform', 'delta<i>', or a distribution file")
    evolve.add_argument("--init2", help="second law for kl_pair")
    evolve.add_argument("--family", help="measure family file for v_functional")
    evolve.add_argument("--q", help="convex function spec, e.g. neg_pow:0.5")
    evolve.add_argument("--steps", type=int, default=50)
    evolve.add_argument("--dt", type=float, default=0.01, help="step size for rate matrices")
    evolve.add_argument("--horizon", type=float, default=1.0, help="end time for rate matrices")

    check = sub.add_parser("check", help="balance diagnostics for a chain")
    check.add_argument("--chain", required=True)
    check.add_argument("--pi", help="candidate stationary law (default: solve)")

    measure = sub.add_parser("measure", help="evaluate one functional on files")
    measure.add_argument("--op", required=True, choices=MEASURE_OPS)
    measure.add_argument("--q", required=True)
    measure.add_argument("--joint")
    measure.add_argument("--p1")
    measure.add_argument("--p2")
    measure.add_argument("--family")
    measure.add_argument("--measures")

    bounds = sub.add_parser("bounds", help="sweep the distortion lower bound")
    bounds.add_argument("--K", type=int, required=True)
    bounds.add_argument("--L", type=int, required=True)
    bounds.add_argument("--grid-start", type=float, default=GridSpec.start, dest="grid_start")
    bounds.add_argument("--grid-stop", type=float, default=GridSpec.stop, dest="grid_stop")
    bounds.add_argument("--grid-points", type=int, default=GridSpec.points, dest="grid_points")
    bounds.add_argument("--linear", action="store_true", help="linear instead of log grid")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    options = {
        k: v
        for k, v in vars(args).items()
        if k not in ("kind", "tol", "out", "fmt")
    }
    cfg = ScenarioConfig(
        kind=args.kind,
        options=options,
        tol=args.tol,
        out=args.out,
        fmt=args.fmt,
    )
    try:
        tag, payload = run_scenario(cfg)
        emit_report(tag, payload, cfg.out, cfg.fmt)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
