import json
import os

import numpy as np
import pytest

from empint import chaos, cli
from empint.bounds import BoundConstants
from empint.cli import (CURVE_HEADER, ConfigError, _build_family, execute,
                        load_config, main, overlay_bounds, run)
from empint.experiments import TailCurve
from empint.kernels import l2_norm
from empint.spaces import finite_space, uniform_space


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(**over):
    cfg = {
        "experiment": "sup_tail",
        "seed": 11,
        "n": 64, "k": 1, "reps": 100,
        "space": {"points": 8, "weights": "uniform"},
        "family": {"kind": "interval", "sigma": 0.5, "grid": 8},
        "x_grid": {"start": 0.0, "stop": 1.5, "points": 7},
        "statistic": "J",
    }
    cfg.update(over)
    return cfg


def test_zero_reps_names_field(tmp_path, capsys):
    path = _write(tmp_path, _base_cfg(reps=0))
    code = run(path, str(tmp_path / "out"))
    assert code == 2
    assert "reps" in capsys.readouterr().err


def test_unknown_experiment_rejected(tmp_path):
    path = _write(tmp_path, _base_cfg(experiment="frobnicate"))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert "experiment" in str(e.value)


def test_unreadable_config(tmp_path, capsys):
    code = run(str(tmp_path / "missing.json"), str(tmp_path / "out"))
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(str(path), str(tmp_path / "out")) == 2


def test_successful_run_writes_both_files(tmp_path):
    path = _write(tmp_path, _base_cfg())
    out = tmp_path / "out"
    assert run(path, str(out)) == 0
    curve = (out / "curve.csv").read_text()
    assert curve.splitlines()[0] == CURVE_HEADER
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["experiment"] == "sup_tail"
    assert report["seed"] == 11
    assert "version" in report and "wall_clock_seconds" in report


def test_identical_config_twice_is_byte_identical(tmp_path):
    path = _write(tmp_path, _base_cfg())
    run(path, str(tmp_path / "a"))
    run(path, str(tmp_path / "b"))
    assert (tmp_path / "a" / "curve.csv").read_bytes() == \
        (tmp_path / "b" / "curve.csv").read_bytes()


def test_worker_count_does_not_change_curve(tmp_path):
    path = _write(tmp_path, _base_cfg())
    assert main(["run", path, "--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "w8"), "--workers", "8"]) == 0
    assert (tmp_path / "w1" / "curve.csv").read_bytes() == \
        (tmp_path / "w8" / "curve.csv").read_bytes()


def test_seed_override_embedded(tmp_path):
    path = _write(tmp_path, _base_cfg())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seed", "99"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99


def test_format_table_only(tmp_path):
    path = _write(tmp_path, _base_cfg())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--format", "table"]) == 0
    assert (out / "curve.csv").exists()
    assert not (out / "report.json").exists()


def test_format_report_only(tmp_path):
    path = _write(tmp_path, _base_cfg())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--format", "report"]) == 0
    assert not (out / "curve.csv").exists()
    assert (out / "report.json").exists()


def test_chaos_audit_matches_hand_enumeration(tmp_path):
    cfg = {
        "experiment": "chaos_audit", "seed": 0, "n": 4, "k": 1,
        "coefficients": {"index_tuples": [[0], [1], [2], [3]],
                         "values": [1, 1, 1, 1]},
        "x_grid": [0.0, 1.0, 2.0, 3.0, 4.0],
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    probs = [float(r.split(",")[1]) for r in rows]
    # |e1+e2+e3+e4| over 16 sign vectors: P(>0)=10/16, P(>2)=2/16, P(>4)=0
    assert probs == pytest.approx([0.625, 0.625, 0.125, 0.125, 0.0])


def _never_called(*args, **kwargs):
    raise AssertionError("called after the enumeration cutoff was exceeded")


@pytest.mark.parametrize("x_grid", [[], [0.5, 1.0]])
def test_chaos_audit_refuses_n_above_limit_before_building(tmp_path, capsys,
                                                           monkeypatch, x_grid):
    monkeypatch.setattr(cli, "ChaosCoefficients", _never_called)
    monkeypatch.setattr(chaos, "chaos_values_all_signs", _never_called)
    cfg = {"experiment": "chaos_audit", "seed": 0, "n": 25, "k": 1,
           "coefficients": {"index_tuples": [[0]], "values": [1.0]},
           "x_grid": x_grid}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical check failed: n=25 exceeds the 2^24 enumeration cutoff"]
    assert not (tmp_path / "out").exists()


def test_schedule_audit_not_applicable_exits_3(tmp_path, capsys):
    cfg = {"experiment": "schedule_audit", "seed": 0, "n": 10, "k": 1,
           "sigma": 0.1, "x": 50.0, "A_bar": 2.0, "D": 1.0, "L": 1.0}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 3
    assert "numerical check failed" in capsys.readouterr().err


def test_schedule_audit_success(tmp_path):
    cfg = {"experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 1,
           "sigma": 0.5, "x": 2.0, "A_bar": 2.0, "D": 4.0, "L": 2.0}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["invariants_hold"] is True


def test_expansion_audit(tmp_path):
    cfg = {"experiment": "expansion_audit", "seed": 7, "n": 5, "k": 2,
           "space": {"points": 16, "weights": "uniform"},
           "trials": 30, "holdout_pairs": 10}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["residual"] < 1e-8
    assert payload["holdout_max_relative_error"] < 1e-8
    assert len(payload["coefficients"]) == 3


@pytest.mark.parametrize("cfg", [
    _base_cfg(n=1, k=2, statistic="I"),
    _base_cfg(n=1, k=2, statistic="decoupled-I"),
    _base_cfg(experiment="decoupling", n=2, k=3),
])
def test_fewer_points_than_k_exits_2(tmp_path, capsys, cfg):
    cfg.update(space={"points": 3, "weights": "uniform"},
               family={"kind": "singleton", "table": np.ones((3,) * cfg["k"]).tolist()})
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "config error: n: must be >= k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_k4_accepted(tmp_path):
    cfg = _base_cfg(n=6, k=4, statistic="I", reps=5, x_grid=[0.0, 1.0],
                    space={"points": 3, "weights": "uniform"},
                    family={"kind": "random-canonical", "count": 2,
                            "kernel_seed": 4})
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0
    cfg = {"experiment": "expansion_audit", "seed": 7, "n": 5, "k": 4,
           "space": {"points": 8, "weights": "uniform"},
           "trials": 30, "holdout_pairs": 5}
    out = tmp_path / "exp"
    assert run(_write(tmp_path, cfg, "exp.json"), str(out)) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["residual"] < 1e-8
    assert len(payload["coefficients"]) == 5


# curve.csv of these configs as written before every Monte Carlo experiment
# shared one replication loop (the first two when the CLI still recovered hit
# counts as round(p * reps)); the shared loop must give the same bytes
PINNED_CURVES = [
    ({"experiment": "counterexample", "seed": 5, "sigma": 0.3, "n": 500,
      "epsilon": 0.5, "reps": 40},
     "0.232763348048,1,0.912378398803,1,1,1,0\n"
     "0.698290044145,0.175,0.0874541374604,0.319499903318,1,1,0\n"),
    ({"experiment": "symmetrization", "seed": 3, "n": 128, "k": 1,
      "reps": 200, "x": 0.4, "space": {"points": 16, "weights": "uniform"},
      "family": {"kind": "interval", "sigma": 0.5, "grid": 16}},
     "0.4,0.995,0.972226295602,0.999116831284,1,1,0\n"),
    ({"experiment": "decoupling", "seed": 4, "n": 24, "k": 2, "reps": 200,
      "space": {"points": 4, "weights": "uniform"},
      "family": {"kind": "box", "table": [[1.0, -0.5, 0.0, 0.5],
                                          [-0.5, 0.25, 0.5, 0.0],
                                          [0.0, 0.5, -1.0, 0.25],
                                          [0.5, 0.0, 0.25, -0.5]]},
      "x_grid": {"start": 15.0, "stop": 65.0, "points": 11}},
     "15,1,0.981154673623,1,1,1,0\n"
     "20,0.925,0.879956389764,0.954025082816,1,0.548098384103,0\n"
     "25,0.665,0.59702191208,0.726759130216,1,0.286039434759,0\n"
     "30,0.385,0.320333097269,0.454001327798,1,0.149277138212,0\n"
     "35,0.245,0.19056868089,0.309042435562,1,0.0779041673451,0\n"
     "40,0.115,0.0778637323256,0.166647168985,1,0.0406563212721,0\n"
     "45,0.1,0.0656704486691,0.149405812433,1,0.0212175614696,0\n"
     "50,0.045,0.0238525430015,0.0832967040018,0.708668016197,0.0110729377531,0\n"
     "55,0.035,0.0170555420086,0.0704706115223,0.369836884517,0.00577870132058,0\n"
     "60,0.02,0.00780442641635,0.0502870869058,0.193009022593,0.00301576597801,0\n"
     "65,0.01,0.00274665813354,0.0357217617162,0.100726791626,0.00157385611915,0\n"),
]


@pytest.mark.parametrize("cfg, rows", PINNED_CURVES)
def test_hit_count_rows_match_pinned_curve(tmp_path, cfg, rows):
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    assert (out / "curve.csv").read_text() == CURVE_HEADER + "\n" + rows


@pytest.mark.parametrize("cfg, workers, members, unique", [
    # k=1 box family on 4 cells, f supported on [1, 3): 15 boxes clip to
    # [1, 2), [1, 3), [2, 3) or nothing
    (_base_cfg(k=1, space={"points": 4, "weights": "uniform"},
               family={"kind": "box", "table": [0.0, 0.5, -1.0, 0.0]}),
     2, 15, 4),
    # full-support 4x4 kernel: 10 x 10 non-empty boxes plus the zero table
    (PINNED_CURVES[2][0], 1, 225, 101),
    # 16 + 15 + 14 + 13 distinct intervals of 1 to 4 cells
    (PINNED_CURVES[1][0], 2, 58, 58),
])
def test_report_records_workers_and_family_size(tmp_path, cfg, workers,
                                                members, unique):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out),
                 "--workers", str(workers)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["workers"] == workers
    assert report["payload"]["family"] == {"members": members,
                                           "unique_tables": unique}


def test_counterexample_via_cli(tmp_path):
    cfg = {"experiment": "counterexample", "seed": 5, "sigma": 0.3, "n": 500,
           "epsilon": 0.5, "reps": 40}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert 0.0 <= payload["p_high"] <= payload["p_low"] <= 1.0
    rows = (out / "curve.csv").read_text().splitlines()
    assert len(rows) == 3  # header + the two probed thresholds


def test_symmetrization_via_cli(tmp_path):
    cfg = {"experiment": "symmetrization", "seed": 3, "n": 128, "k": 1,
           "reps": 200, "x": 0.4,
           "space": {"points": 16, "weights": "uniform"},
           "family": {"kind": "interval", "sigma": 0.5, "grid": 16}}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert 0 <= payload["lhs"] <= 1
    assert 0 <= payload["rhs"] <= 1


def test_singleton_table_round_trip(tmp_path):
    table = [[0.5, -0.5], [-0.5, 0.5]]
    cfg = _base_cfg(k=2, space={"points": 2, "weights": "uniform"},
                    family={"kind": "singleton", "table": table},
                    x_grid=[0.0, 0.5, 1.0])
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["family"]["table"] == table


def test_family_arity_mismatch_names_field(tmp_path, capsys):
    cfg = _base_cfg(k=2)  # interval family is k = 1
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "family" in capsys.readouterr().err


def test_random_canonical_family(tmp_path):
    cfg = _base_cfg(k=2, space={"points": 4, "weights": "uniform"},
                    family={"kind": "random-canonical", "count": 3,
                            "kernel_seed": 4},
                    x_grid=[0.0, 1.0, 2.0], statistic="I", n=32)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0


@pytest.mark.parametrize("space, k, count", [
    (uniform_space(4), 2, 3), (uniform_space(16), 2, 5), (uniform_space(3), 4, 2),
    (uniform_space(5), 1, 4), (uniform_space(8), 3, 3),
    (finite_space(np.array([0.5, 0.2, 0.2, 0.1])), 2, 4),
])
def test_random_canonical_members_meet_sigma(space, k, count):
    for kernel_seed in range(8):
        family = _build_family({"kind": "random-canonical", "count": count,
                                "kernel_seed": kernel_seed}, "family", space, k)
        norms = [l2_norm(f, space) for f in family.members]
        assert max(norms) <= family.sigma <= 1.0


def test_explicit_weights_space(tmp_path):
    cfg = _base_cfg(space={"weights": [0.25, 0.25, 0.25, 0.25]},
                    family={"kind": "singleton", "table": [1.0, -1.0, 0.5, -0.5]},
                    x_grid=[0.0, 1.0])
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0


def test_decreasing_grid_rejected(tmp_path, capsys):
    cfg = _base_cfg(x_grid=[1.0, 0.5])
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "x_grid" in capsys.readouterr().err


_X_GRID_CONFIGS = {
    "sup_tail": _base_cfg(),
    "decoupling": _base_cfg(experiment="decoupling", k=2, n=8,
                            space={"points": 3, "weights": "uniform"},
                            family={"kind": "singleton",
                                    "table": np.eye(3).tolist()}),
    "chaos_audit": {"experiment": "chaos_audit", "seed": 0, "n": 4, "k": 1,
                    "coefficients": {"index_tuples": [[0], [1]],
                                     "values": [1.0, 1.0]}},
}


@pytest.mark.parametrize("experiment", sorted(_X_GRID_CONFIGS))
@pytest.mark.parametrize("x_grid", [
    [0.0, float("nan"), 1.0], [0.0, float("inf")], [-1.0, 0.5],
    {"start": -1.0, "stop": 1.0, "points": 3}],
    ids=["nan", "inf", "negative", "negative-start"])
def test_non_finite_or_negative_x_rejected(tmp_path, capsys, experiment, x_grid):
    cfg = dict(_X_GRID_CONFIGS[experiment], x_grid=x_grid)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: x_grid: ")
    assert not (tmp_path / "out").exists()


# --- overlay_bounds --------------------------------------------------------

def test_overlay_empty_grid():
    curve = TailCurve(x_grid=np.array([]), probs=np.array([]),
                      ci_lo=np.array([]), ci_hi=np.array([]), replications=1)
    rows = overlay_bounds(curve, 1, 0.5, 4.0, 2.0, 0.0, 100, BoundConstants(k=1))
    assert rows == []


def test_overlay_bound_capped_at_one():
    p = np.array([0.9, 0.5])
    curve = TailCurve(x_grid=np.array([0.0, 0.1]), probs=p, ci_lo=p, ci_hi=p,
                      replications=100)
    rows = overlay_bounds(curve, 1, 0.5, 4.0, 2.0, 0.0, 100, BoundConstants(k=1))
    for r in rows:
        assert 0 < r["theorem_bound"] <= 1
        assert 0 < r["corollary_bound"] <= 1


# --- invalid constants and singleton sigma exit 2 before any work ----------

_COUNTEREXAMPLE = {"experiment": "counterexample", "seed": 5, "sigma": 0.3,
                   "n": 500, "epsilon": 0.5, "reps": 40}


@pytest.mark.parametrize("constants", [
    {"C": -1}, {"foo": 1}, "abc", {"C": float("nan"), "alpha": float("inf")},
    {"alpha": 0}, {"A0": 1.0}, {"k": 2}, [1.0]],
    ids=["negative", "unknown", "string", "non-finite", "zero-alpha",
         "A0-one", "k", "list"])
@pytest.mark.parametrize("base", [_COUNTEREXAMPLE, _base_cfg()],
                         ids=["counterexample", "sup_tail"])
def test_invalid_constants_exit_2(tmp_path, capsys, monkeypatch, constants,
                                  base):
    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran before constants were checked")

    monkeypatch.setattr(cli, "counterexample_experiment", no_run)
    monkeypatch.setattr(cli, "mc_sup_tail", no_run)
    cfg = dict(base, constants=constants)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: constants: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", [2.0, 0, -0.5, float("nan"), "abc"])
def test_singleton_sigma_out_of_range_exits_2(tmp_path, capsys, sigma):
    cfg = _base_cfg(family={"kind": "singleton", "table": [0.1] * 8,
                            "sigma": sigma})
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: sigma: ")
    assert not (tmp_path / "out").exists()


def test_singleton_sigma_default_and_in_range():
    family = {"kind": "singleton", "table": [0.1] * 8}
    assert _build_family(family, "family", uniform_space(8), 1).sigma == 1.0
    family["sigma"] = 0.25
    assert _build_family(family, "family", uniform_space(8), 1).sigma == 0.25
