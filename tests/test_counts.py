"""One rule for every count argument: `markov._integral`.

A whole float such as 2.0 is the count 2; 2.5, NaN and +-inf raise the
argument's own typed error, never a TypeError from deeper down.
"""

import math

import numpy as np
import pytest

from infodyn import (
    BadGridError,
    BadParamsError,
    Distribution,
    ExampleConfig,
    GridSpec,
    JointDistribution,
    TooManyLettersError,
    build_example_chain,
    builtin,
    capacity_value,
    expected_mixed_measure_information,
    rate_distortion_value,
    trace_functional,
    verify_convexity,
)
from infodyn.markov import propagate

CYCLE = build_example_chain("cyclic", K=3)
JOINT = JointDistribution([[0.3, 0.1], [0.2, 0.4]])

# Each count argument: a call that takes the count, and the errors it may refuse it with.
COUNTS = {
    "K": (lambda n: ExampleConfig(n + 1, 2), BadParamsError),  # K = n + 1 over L = 2
    "L": (lambda n: ExampleConfig(3, n), BadParamsError),
    "rate_K": (lambda n: rate_distortion_value(0.5, 0.0, n), BadParamsError),
    "capacity_L": (lambda n: capacity_value(0.0, n), BadParamsError),
    "points": (lambda n: GridSpec(1.0, 4.0, n).values(), BadGridError),
    "num_letters": (
        lambda n: expected_mixed_measure_information(builtin("neg_log"), JOINT, [1.0, 0, 0], [0.0, 1, 1], n),
        (BadParamsError, TooManyLettersError),  # +inf is more letters than the enumeration takes
    ),
    "trials": (lambda n: verify_convexity(builtin("square"), (0.1, 5.0), trials=n), BadParamsError),
    "propagate_steps": (lambda n: propagate(CYCLE, np.eye(3)[0], n), BadParamsError),
    "trace_steps": (
        lambda n: trace_functional("entropy", CYCLE, inits={"init": Distribution([0.5, 0.5, 0.0])}, steps=n),
        BadParamsError,
    ),
    "chain_K": (lambda n: build_example_chain("mod_k_walk", K=n), BadParamsError),
    "n_states": (lambda n: build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=n), BadParamsError),
}


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf], ids=["2.5", "nan", "inf", "-inf"])
@pytest.mark.parametrize("name", COUNTS)
def test_a_count_that_is_not_a_whole_number_raises_its_typed_error(name, bad):
    call, error = COUNTS[name]
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("name", COUNTS)
def test_a_whole_float_count_behaves_like_the_int(name):
    """The repr shows the count's type where a result keeps it, so 2.0 must become 2."""
    call, _ = COUNTS[name]
    assert repr(call(2.0)) == repr(call(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda n: ExampleConfig(n, n - 1),
        lambda n: rate_distortion_value(0.5, 0.0, n),
        lambda n: capacity_value(0.0, n),
    ],
    ids=["config", "rate_K", "capacity_L"],
)
def test_an_alphabet_size_past_the_float_range_raises(call):
    """The bound's formulas take K and L as floats: a whole number past that range is refused."""
    with pytest.raises(BadParamsError, match=r"^alphabet size 1e\+400 is past the float range$"):
        call(10**400)
