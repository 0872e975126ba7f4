"""File formats: chain and joint JSON, trace CSV, report emission.

Outputs are byte-stable: fixed key order, floats normalized to 12
significant digits in reports and traces, full 17-digit round-trip floats
in chain files, and a final newline everywhere.  Malformed input raises
ParseError; mathematically invalid values surface as the constructors'
domain errors.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .errors import ParseError
from .markov import Distribution, MeasureFamily, RateMatrix, StochasticMatrix, _integral
from .measures import JointDistribution, PairMeasure
from .monotonicity import MonotonicityVerdict, TimeSeries

__all__ = [
    "load_chain",
    "save_chain",
    "load_distribution",
    "save_distribution",
    "load_joint",
    "load_pair_measures",
    "load_family",
    "write_json",
    "trace_csv_text",
    "report_csv_text",
    "verdict_to_dict",
    "series_to_dict",
]

SIGNIFICANT_DIGITS = 12


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _read_json(path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError too
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return doc


def _field(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


def _numbers_only(value) -> bool:
    """A JSON number or lists of them; not a string, null or bool (type(True) is bool)."""
    return all(map(_numbers_only, value)) if isinstance(value, list) else type(value) in (int, float)


def _number_field(doc: dict, key: str, path):
    if not _numbers_only(value := _field(doc, key, path)):
        raise ParseError(f"{path}: {key} is not numeric")
    return value


def _numeric(doc: dict, key: str, path) -> np.ndarray:
    """The one numeric reader: field `key` as a float array, else ParseError."""
    try:
        return np.asarray(_number_field(doc, key, path), dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows, huge ints
        raise ParseError(f"{path}: {key} is not numeric") from exc


def load_chain(path) -> StochasticMatrix | RateMatrix:
    """Read a chain file: {"kind", "n", "matrix", optional "labels"}."""
    doc = _read_json(path)
    kind = _field(doc, "kind", path)
    n = _number_field(doc, "n", path)
    arr = _numeric(doc, "matrix", path)
    if kind not in ("discrete", "continuous"):
        raise ParseError(f"{path}: kind must be 'discrete' or 'continuous', got {kind!r}")
    if arr.shape != (n, n):
        raise ParseError(f"{path}: matrix shape {arr.shape} does not match n={n}")
    return RateMatrix(arr) if kind == "continuous" else StochasticMatrix(arr)


def save_chain(chain: StochasticMatrix | RateMatrix, path) -> None:
    doc = {
        "kind": "continuous" if isinstance(chain, RateMatrix) else "discrete",
        "n": chain.n,
        "matrix": [[float(x) for x in row] for row in chain.matrix],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_distribution(path) -> Distribution:
    doc = _read_json(path)
    return Distribution(_numeric(doc, "probs", path))


def save_distribution(dist: Distribution, path) -> None:
    doc = {"probs": [float(x) for x in dist.probs]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_joint(path) -> JointDistribution:
    """Read a joint law file: {"nx", "ny", "table", optional "measures"}."""
    doc = _read_json(path)
    nx = _number_field(doc, "nx", path)
    ny = _number_field(doc, "ny", path)
    table = _numeric(doc, "table", path)
    if table.shape != (nx, ny):
        raise ParseError(f"{path}: table shape {table.shape} does not match ({nx}, {ny})")
    return JointDistribution(table)


def load_pair_measures(path) -> list[PairMeasure]:
    """Read the "measures" array of a joint file as grid measures."""
    doc = _read_json(path)
    arr = _numeric(doc, "measures", path)
    if arr.ndim != 3:
        raise ParseError(f"{path}: measures must be a list of 2-d tables")
    return [PairMeasure(m) for m in arr]


def load_family(path) -> MeasureFamily:
    """Read a measure family file: {"measures": (k+1) x n rows, optional "require_positive"}."""
    doc = _read_json(path)
    arr = _numeric(doc, "measures", path)
    if arr.ndim != 2:
        raise ParseError(f"{path}: family measures must be a 2-d array")
    positive = doc.get("require_positive", True)
    if not isinstance(positive, bool):
        raise ParseError(f"{path}: require_positive must be true or false")
    return MeasureFamily(arr, require_positive=positive)


def _round_floats(obj):
    if isinstance(obj, float):
        # + 0.0 turns IEEE negative zero into plain zero
        return float(f"{obj + 0.0:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(float(obj))
    return obj


def write_json(obj: dict) -> str:
    """Render a report object as JSON text with normalized floats."""
    return json.dumps(_round_floats(obj), indent=2) + "\n"


def _fmt(x: float) -> str:
    return f"{x + 0.0:.{SIGNIFICANT_DIGITS}g}"


def trace_csv_text(series: TimeSeries) -> str:
    lines = ["t,value"]
    for t, v in zip(series.times, series.values):
        t_text = str(int(t)) if _integral(t) else _fmt(t)
        lines.append(f"{t_text},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def report_csv_text(report: BoundReport) -> str:
    lines = ["s,psi,d"]
    for s, p, d in zip(report.s_grid, report.psi_values, report.d_values):
        lines.append(f"{_fmt(s)},{_fmt(p)},{_fmt(d)}")
    return "\n".join(lines) + "\n"


def verdict_to_dict(v: MonotonicityVerdict) -> dict:
    return dataclasses.asdict(v)


def series_to_dict(series: TimeSeries) -> dict:
    return {
        "t": [float(t) for t in series.times],
        "value": [float(v) for v in series.values],
    }
