"""Each range rule is checked once, by the library function that uses the
parameter, and the refusal names that parameter."""
import pickle

import numpy as np
import pytest

from empint import InvalidArgument
from empint.bounds import chaining_schedule
from empint.cli import ConfigError
from empint.experiments import (counterexample_experiment,
                                decoupling_experiment, mc_sup_tail,
                                symmetrization_experiment)
from empint.kernels import KernelFunction, interval_family, singleton_family
from empint.spaces import draw_sample, uniform_space
from empint.statistics import (DegenerateSample, derive_expansion_coefficients,
                               distinct_weights, validate_expansion)

SP = uniform_space(4)
K1 = interval_family(0.5, 4)
K2 = singleton_family(KernelFunction(np.eye(4) * 0.5))

REFUSALS = {
    "distinct_weights-n": ("n", lambda: distinct_weights([np.zeros(1, int)] * 2, 4)),
    "expansion-n": ("n", lambda: derive_expansion_coefficients(2, 3, SP, 20, 0)),
    "expansion-trials": ("trials", lambda: derive_expansion_coefficients(5, 2, SP, 8, 0)),
    "holdout-pairs": ("holdout_pairs", lambda: validate_expansion(
        derive_expansion_coefficients(5, 1, SP, 6, 0)["coefficients"], SP, 5, 0, 0)),
    "holdout-coefficients": ("coefficients", lambda: validate_expansion(
        [1.0], SP, 5, 10, 0)),
    "symmetrization-family": ("family", lambda: symmetrization_experiment(
        K2, SP, 16, 0.5, 10, 0)),
    "symmetrization-x": ("x", lambda: symmetrization_experiment(
        K1, SP, 16, -0.3, 10, 0)),
    "decoupling-k": ("k", lambda: decoupling_experiment(K1, SP, 16, 1, [0.5], 10, 0)),
    "decoupling-family": ("family", lambda: decoupling_experiment(
        K1, SP, 16, 2, [0.5], 10, 0)),
    "mc_sup_tail-family": ("family", lambda: mc_sup_tail(K1, SP, 16, 2, "J", [0.5], 10, 0)),
    "counterexample-epsilon": ("epsilon", lambda: counterexample_experiment(
        0.3, 500, 1.0, 10, 0)),
    "counterexample-sigma": ("sigma", lambda: counterexample_experiment(
        1.0, 500, 0.5, 10, 0)),
    "counterexample-n": ("n", lambda: counterexample_experiment(0.5, 20, 0.5, 10, 0)),
    "counterexample-grid": ("grid", lambda: counterexample_experiment(
        0.3, 500, 0.5, 10, 0, grid=2)),
    "interval-sigma": ("sigma", lambda: interval_family(1.5, 4)),
    "singleton-sigma": ("sigma", lambda: singleton_family(
        KernelFunction(np.eye(4) * 0.5), sigma=2.0)),
    "schedule-sigma": ("sigma", lambda: chaining_schedule(
        4096, 1, 1.5, 2.0, 2.0, 4.0, 2.0)),
    "schedule-x": ("x", lambda: chaining_schedule(4096, 1, 0.5, 0.0, 2.0, 4.0, 2.0)),
    "schedule-D": ("D", lambda: chaining_schedule(4096, 2, 0.5, 3.0, 4.0, -4.0, 2.0)),
    "schedule-L": ("L", lambda: chaining_schedule(4096, 2, 0.5, 3.0, 4.0, 4.0, -2.0)),
    "schedule-A_bar": ("A_bar", lambda: chaining_schedule(
        4096, 2, 0.5, 3.0, float("inf"), 4.0, 2.0)),
    "interval-grid": ("grid", lambda: interval_family(0.3, 8)),
    "interval-grid-tiny-sigma": ("grid", lambda: interval_family(1e-300, 8)),
    "mc_sup_tail-reps": ("reps", lambda: mc_sup_tail(K1, SP, 16, 1, "J", [0.5], 0, 0)),
    "symmetrization-reps": ("reps", lambda: symmetrization_experiment(
        K1, SP, 16, 0.5, 0, 0)),
    "decoupling-reps": ("reps", lambda: decoupling_experiment(
        K2, SP, 16, 2, [0.5], 0, 0)),
    "counterexample-reps": ("reps", lambda: counterexample_experiment(
        0.3, 500, 0.5, 0, 0)),
    # arrays past 2^27 entries are refused before anything is allocated
    "draw_sample-n": ("n", lambda: draw_sample(SP, 2 ** 27 + 1, 0)),
    "mc_sup_tail-reps-huge": ("reps", lambda: mc_sup_tail(
        K1, SP, 16, 1, "J", [0.5], 10 ** 30, 0)),
    "expansion-trials-huge": ("trials", lambda: derive_expansion_coefficients(
        5, 2, SP, 10 ** 30, 0)),
    "holdout-pairs-huge": ("holdout_pairs", lambda: validate_expansion(
        [0.0, 1.0], SP, 5, 10 ** 30, 0)),
    # 1000^4 kernel cells, 7.3 TiB of float64 per table
    "expansion-k-huge": ("k", lambda: derive_expansion_coefficients(
        10, 4, uniform_space(1000), 15, 0)),
}


@pytest.mark.parametrize("name, call", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refusal_names_its_argument(name, call):
    with pytest.raises(InvalidArgument) as e:
        call()
    assert e.value.name == name
    assert str(e.value).startswith(f"{name}: ")


@pytest.mark.parametrize("exc", [
    InvalidArgument("reps", "must be >= 1"),
    ConfigError("space.weights", "weights must be finite"),
    DegenerateSample("n", "must be >= k")], ids=lambda e: type(e).__name__)
def test_refusal_survives_pickle(exc):
    # a refusal raised in a worker process reaches the parent by pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert (back.name, back.problem, str(back)) == (exc.name, exc.problem, str(exc))
    assert isinstance(back, ValueError)
