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
    expected_mixed_measure_information,
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
