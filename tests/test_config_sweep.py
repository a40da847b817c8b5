"""Mutation sweep over `empint run` configs: each small valid config has one
field, nested ones included, replaced by a bad value or deleted.  No case
may end in a traceback; a refusal must exit 2 naming a dotted config field,
or exit 3, and no message may print a Python type repr."""
import copy
import json

import pytest

from empint.cli import run

CONFIGS = {
    "sup_tail-interval": {
        "experiment": "sup_tail", "seed": 11, "n": 16, "k": 1, "reps": 2,
        "statistic": "J", "space": {"points": 4, "weights": "uniform"},
        "family": {"kind": "interval", "sigma": 0.5, "grid": 4},
        "x_grid": {"start": 0.0, "stop": 1.0, "points": 3},
        "constants": {"C": 2.0, "alpha": 0.5, "M": 10.0}},
    "sup_tail-box": {
        "experiment": "sup_tail", "seed": 3, "n": 8, "k": 2, "reps": 2,
        "statistic": "I", "space": {"points": 3, "weights": "uniform"},
        "family": {"kind": "box", "table": [[0.5, -0.5, 0.0], [-0.5, 0.25, 0.5],
                                            [0.0, 0.5, -1.0]]},
        "x_grid": [0.0, 0.5, 1.0]},
    "sup_tail-singleton": {
        "experiment": "sup_tail", "seed": 4, "n": 16, "k": 1, "reps": 2,
        "space": {"weights": [0.5, 0.25, 0.25]},
        "family": {"kind": "singleton", "table": [0.5, -0.5, 0.25], "sigma": 0.5},
        "x_grid": [0.0, 0.5]},
    "sup_tail-random-canonical": {
        "experiment": "sup_tail", "seed": 5, "n": 8, "k": 2, "reps": 2,
        "statistic": "decoupled-I", "space": {"points": 3, "weights": "uniform"},
        "family": {"kind": "random-canonical", "count": 2, "kernel_seed": 4},
        "x_grid": [0.0, 1.0]},
    "symmetrization": {
        "experiment": "symmetrization", "seed": 6, "n": 16, "k": 1, "reps": 2,
        "x": 0.4, "space": {"points": 4, "weights": "uniform"},
        "family": {"kind": "interval", "sigma": 0.5, "grid": 4}},
    "decoupling": {
        "experiment": "decoupling", "seed": 7, "n": 8, "k": 2, "reps": 2,
        "space": {"points": 3, "weights": "uniform"},
        "family": {"kind": "singleton", "table": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0],
                                                  [0.0, 0.0, 0.5]]},
        "x_grid": [0.0, 1.0]},
    "counterexample": {
        "experiment": "counterexample", "seed": 8, "sigma": 0.3, "n": 200,
        "epsilon": 0.5, "reps": 2, "grid": 12},
    "chaos_audit": {
        "experiment": "chaos_audit", "seed": 0, "n": 4, "k": 2,
        "coefficients": {"index_tuples": [[0, 1], [2, 3]], "values": [1.0, -1.0]},
        "x_grid": [0.0, 1.0]},
    "expansion_audit": {
        "experiment": "expansion_audit", "seed": 9, "n": 4, "k": 2,
        "space": {"points": 4, "weights": "uniform"}, "trials": 12,
        "holdout_pairs": 2},
    "schedule_audit": {
        "experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 1,
        "sigma": 0.5, "x": 2.0, "A_bar": 2.0, "D": 4.0, "L": 2.0},
}

BAD_VALUES = ["abc", None, True, [], [1, "a"], [[1, 2], [3]], [[1, 2], [3, 4]],
              {}, -1, 0, 1.5, -0.5, float("nan"), float("inf"), 1e-300, 1e300,
              10 ** 30, 10 ** 400]
DELETE = object()
SEED_FIELDS = {"seed", "family.kernel_seed"}


def _fields(node, name=""):
    """(dotted name, key path) of every field; a list contributes only its
    first element, under the list's own name."""
    items = node.items() if isinstance(node, dict) else list(enumerate(node))[:1]
    for key, value in items:
        field = name if isinstance(node, list) else f"{name}.{key}".lstrip(".")
        yield field, (key,)
        if isinstance(value, (dict, list)):
            for sub, path in _fields(value, field):
                yield sub, (key,) + path


def _mutated(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


NAMES = {field for cfg in CONFIGS.values() for field, _ in _fields(cfg)}


@pytest.mark.parametrize("base", sorted(CONFIGS))
def test_no_config_ends_in_a_traceback(tmp_path, capsys, base):
    cfg_path, failures = tmp_path / "cfg.json", []
    cfg_path.write_text(json.dumps(CONFIGS[base]))
    assert run(str(cfg_path), str(tmp_path / "out")) == 0
    for field, path in _fields(CONFIGS[base]):
        values = BAD_VALUES + [DELETE] + [2 ** 64] * (field in SEED_FIELDS)
        for value in values:
            label = f"{'.'.join(map(str, path))}={'<deleted>' if value is DELETE else value!r}"
            cfg_path.write_text(json.dumps(_mutated(CONFIGS[base], path, value)))
            try:
                code = run(str(cfg_path), str(tmp_path / "out"))
            except Exception as e:  # any exception that escapes is a failure
                failures.append(f"{label}: raised {type(e).__name__}: {e}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 2, 3):
                failures.append(f"{label}: exit {code}")
            if "<class" in err:
                failures.append(f"{label}: type repr in {err!r}")
            if code == 2:
                name = err.removeprefix("config error: ").split(": ", 1)[0]
                if name not in NAMES:
                    failures.append(f"{label}: refusal names {name!r}: {err!r}")
    assert not failures, "\n".join(failures)
