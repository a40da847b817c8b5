import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from empint import chaos, cli, kernels, spaces, statistics
from empint.bounds import BoundConstants, chaining_schedule, theorem_bound
from empint.cli import (CURVE_HEADER, ConfigError, _build_family,
                        load_config, main, overlay_bounds, run)
from empint.experiments import (counterexample_experiment,
                                decoupling_experiment, mc_sup_tail,
                                symmetrization_experiment)
from empint.kernels import (KernelFunction, interval_family, l2_norm,
                            singleton_family)
from empint.spaces import finite_space, uniform_space
from empint.statistics import derive_expansion_coefficients, validate_expansion


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


def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys,
                                                  monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr(cli, "execute", no_run)
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    assert main(["run", _write(tmp_path, _base_cfg()), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: out: {out} exists and is not a directory\n"
    assert out.read_bytes() == b"kept\n"


def test_out_below_a_file_exits_2_without_a_traceback(tmp_path, capsys):
    # the path does not exist, so the run goes ahead and makedirs refuses it
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    assert run(_write(tmp_path, _base_cfg()), str(blocker / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: out: ")
    assert blocker.read_bytes() == b""


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


ROOT = Path(__file__).resolve().parent.parent


def test_readme_example_runs_as_a_module(tmp_path):
    # the README's json example, found as the CI console-script step finds it,
    # runs in a fresh interpreter from the source tree; a bad seed exits 2
    readme = (ROOT / "README.md").read_text()
    cfg = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def empint_run(cfg, out):
        path = _write(tmp_path, cfg, f"{out}.json")
        return subprocess.run([sys.executable, "-m", "empint.cli", "run", path,
                               "--out", str(tmp_path / out)],
                              env=env, capture_output=True, text=True)

    done = empint_run(cfg, "out")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "curve.csv").stat().st_size > 0
    assert (tmp_path / "out" / "report.json").stat().st_size > 0
    bad = empint_run(dict(cfg, seed=-1), "bad")
    assert bad.returncode == 2
    assert bad.stderr == "config error: seed: must lie in [0, 2^64)\n"
    assert not (tmp_path / "bad").exists()


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


@pytest.mark.parametrize("x, message", [
    (1e-300, "net size D 4^(RL) sigma^-L = inf at R = 333 is not finite"),
    (1e300, "(x/sigma)^(2/k) = inf")], ids=["x-tiny", "x-huge"])
def test_schedule_audit_at_edge_magnitudes_exits_3(tmp_path, capsys, x, message):
    cfg = {"experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 1,
           "sigma": 0.5, "x": x, "A_bar": 2.0, "D": 4.0, "L": 2.0}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 3
    assert message in capsys.readouterr().err


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


def test_expansion_audit_too_few_trials_exits_2(tmp_path, capsys):
    cfg = {"experiment": "expansion_audit", "seed": 0, "n": 6, "k": 3,
           "space": {"points": 16, "weights": "uniform"},
           "trials": 5, "holdout_pairs": 10}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: trials: ")
    assert not (tmp_path / "out").exists()


def test_expansion_audit_refuses_holdout_pairs_before_any_draw(tmp_path, capsys,
                                                             monkeypatch):
    opened = []
    real = statistics.stream_rng

    def counting(seed, stream_id):
        opened.append(stream_id)
        return real(seed, stream_id)
    monkeypatch.setattr(statistics, "stream_rng", counting)
    monkeypatch.setattr(spaces, "stream_rng", counting)
    cfg = {"experiment": "expansion_audit", "seed": 0, "n": 6, "k": 3,
           "space": {"points": 16, "weights": "uniform"},
           "trials": 4000, "holdout_pairs": 0}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(
        "config error: holdout_pairs: must be in 1..2^27")
    assert opened == []
    assert not (tmp_path / "out").exists()


def test_expansion_audit_rank_deficient_fit_exits_3(tmp_path, capsys):
    # two points and k=3: every row of the fit is zero, so it determines no
    # coefficient and its residual is 0
    cfg = {"experiment": "expansion_audit", "seed": 0, "n": 6, "k": 3,
           "space": {"points": 2, "weights": "uniform"},
           "trials": 40, "holdout_pairs": 10}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical check failed: expansion fit rank 0 < k+1 = 4")
    assert not (tmp_path / "out").exists()


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
    # sup_tail J on a box, I on a singleton over non-uniform weights and
    # decoupled-I on a random-canonical family, then chaos_audit at k=2 and
    # k=3 with x far enough out for the bound columns to fall below 1
    ({"experiment": "sup_tail", "seed": 12, "n": 24, "k": 2, "reps": 200,
      "statistic": "J", "space": {"points": 4, "weights": "uniform"},
      "family": {"kind": "box", "table": [[1.0, -0.5, 0.0, 0.5],
                                          [-0.5, 0.25, 0.5, 0.0],
                                          [0.0, 0.5, -1.0, 0.25],
                                          [0.5, 0.0, 0.25, -0.5]]},
      "x_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 20.0]},
     "0,1,0.981154673623,1,1,1,0\n"
     "0.1,0.565,0.495707362598,0.631842744973,1,1,0\n"
     "0.2,0.26,0.204138300636,0.324907456025,1,1,0\n"
     "0.3,0.115,0.0778637323256,0.166647168985,1,1,0\n"
     "0.4,0.05,0.0273826456008,0.0895781481388,1,1,0\n"
     "0.6,0.02,0.00780442641635,0.0502870869058,1,1,0\n"
     "20,0,1.73472347598e-18,0.0188453263773,1,0.548098384103,0\n"),
    ({"experiment": "sup_tail", "seed": 13, "n": 30, "k": 2, "reps": 200,
      "statistic": "I", "space": {"weights": [0.4, 0.3, 0.2, 0.1]},
      "family": {"kind": "singleton", "sigma": 0.5,
                 "table": [[1.0, -0.5, 0.0, 0.5], [-0.5, 0.25, 0.5, 0.0],
                           [0.0, 0.5, -1.0, 0.25], [0.5, 0.0, 0.25, -0.5]]},
      "x_grid": [8.0, 16.0, 32.0, 48.0, 64.0, 96.0]},
     "8,0.99,0.964278238284,0.997253341866,0.922156453931,1,0\n"
     "16,0.98,0.949712913094,0.992195573584,0.115085406599,0.922156453931,0\n"
     "32,0.89,0.839073090027,0.926227555399,0.00179246856901,0.115085406599,0\n"
     "48,0.59,0.520764590337,0.655843250915,2.79179060651e-05,0.0143626938309,0\n"
     "64,0.36,0.296691973046,0.42858471834,4.3482462819e-07,0.00179246856901,0\n"
     "96,0.1,0.0656704486691,0.149405812433,1.05481602606e-10,2.79179060651e-05,0\n"),
    ({"experiment": "sup_tail", "seed": 14, "n": 20, "k": 2, "reps": 200,
      "statistic": "decoupled-I", "space": {"points": 4, "weights": "uniform"},
      "family": {"kind": "random-canonical", "count": 3, "kernel_seed": 4},
      "x_grid": [2.0, 4.0, 6.0, 8.0, 12.0, 16.0]},
     "2,0.945,0.904213001228,0.969014658297,1,1,0\n"
     "4,0.71,0.643625218992,0.768459743929,1,1,0\n"
     "6,0.52,0.451037850728,0.588208336217,1,1,0\n"
     "8,0.35,0.287288241274,0.41836535664,1,1,0\n"
     "12,0.195,0.146055205344,0.255440443746,1,1,0\n"
     "16,0.085,0.0537457501775,0.131895870716,1,0.922156453931,0\n"),
    ({"experiment": "chaos_audit", "seed": 0, "n": 6, "k": 2,
      "coefficients": {"index_tuples": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5],
                                        [0, 5]],
                       "values": [1.0, -0.5, 0.75, 1.0, -1.0, 0.5]},
      "x_grid": [0.0, 1.0, 2.0, 3.0, 16.0, 24.0]},
     "0,1,1,1,1,1,0\n"
     "1,0.8125,0.8125,0.8125,1,1,0\n"
     "2,0.25,0.25,0.25,1,1,0\n"
     "3,0.0625,0.0625,0.0625,1,1,0\n"
     "16,0,0,0,0.937095266851,0.126822053359,1\n"
     "24,0,0,0,0.333719154481,0.0451639762932,1\n"),
    ({"experiment": "chaos_audit", "seed": 0, "n": 6, "k": 3,
      "coefficients": {"index_tuples": [[0, 1, 2], [1, 3, 5], [2, 4, 5], [0, 3, 4]],
                       "values": [1.0, -0.5, 0.75, 2.0]},
      "x_grid": [0.0, 1.0, 3.0, 4.0, 80.0]},
     "0,1,1,1,1,1,0\n"
     "1,0.75,0.75,0.75,1,1,0\n"
     "3,0.25,0.25,0.25,1,1,0\n"
     "4,0,0,0,1,1,0\n"
     "80,0,0,0,0.872994059712,0.0434638149356,1\n"),
    # symmetrization over random-canonical members on a space with a
    # zero-weight atom, as written while symmetrization still built a
    # centred copy of the family
    ({"experiment": "symmetrization", "seed": 2, "n": 200, "k": 1,
      "reps": 300, "x": 0.8, "space": {"weights": [0.1, 0.2, 0.3, 0.4, 0.0]},
      "family": {"kind": "random-canonical", "count": 4, "kernel_seed": 3}},
     "0.8,0.463333333333,0.407725883129,0.519867934761,1,1,0\n"),
]


@pytest.mark.parametrize("cfg, rows", PINNED_CURVES)
def test_hit_count_rows_match_pinned_curve(tmp_path, cfg, rows):
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    assert (out / "curve.csv").read_text() == CURVE_HEADER + "\n" + rows


_MONTE_CARLO_PINS = [(cfg, rows) for cfg, rows in PINNED_CURVES
                     if cfg["experiment"] != "chaos_audit"]


@pytest.mark.parametrize("cfg, rows", _MONTE_CARLO_PINS, ids=[
    cfg["experiment"] + "-" + cfg.get("family", {}).get("kind", "interval")
    for cfg, _ in _MONTE_CARLO_PINS])
def test_pinned_monte_carlo_curve_at_two_workers(tmp_path, cfg, rows):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--workers", "2"]) == 0
    assert (out / "curve.csv").read_text() == CURVE_HEADER + "\n" + rows


# payloads of the audits without a curve; least-squares bits may differ
# across BLAS builds, so values are pinned to 12 significant digits (the
# roundoff-sized residuals to 1e-12) rather than as bytes
PINNED_PAYLOADS = [
    ({"experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 2,
      "sigma": 0.5, "x": 3.0, "A_bar": 4.0, "D": 4.0, "L": 2.0},
     {"R": 1, "invariants_hold": True, "net_sizes": [16, 256], "sigma_bar": 0.125}),
    ({"experiment": "expansion_audit", "seed": 7, "n": 5, "k": 2,
      "space": {"points": 16, "weights": "uniform"}, "trials": 30,
      "holdout_pairs": 10},
     {"coefficients": [-0.5, -0.22360679775, 1.0],
      "holdout_max_relative_error": 4.99014295310e-13,
      "residual": 5.59253387242e-16}),
]


@pytest.mark.parametrize("cfg, payload", PINNED_PAYLOADS,
                         ids=["schedule_audit", "expansion_audit"])
def test_audit_payload_matches_pinned_values(tmp_path, cfg, payload):
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    got = json.loads((out / "report.json").read_text())["payload"]
    assert sorted(got) == sorted(payload)
    for key, want in payload.items():
        assert got[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key


def test_audit_payload_is_the_library_record(tmp_path):
    schedule, expansion = (cfg for cfg, _ in PINNED_PAYLOADS)
    sp = uniform_space(16)
    record = derive_expansion_coefficients(5, 2, sp, 30, 7)
    record["holdout_max_relative_error"] = validate_expansion(
        record["coefficients"], sp, 5, 10, 7)
    for cfg, want in ((schedule, chaining_schedule(4096, 2, 0.5, 3.0, 4.0, 4.0, 2.0)),
                      (expansion, record)):
        out = tmp_path / cfg["experiment"]
        assert run(_write(tmp_path, cfg), str(out)) == 0
        assert json.loads((out / "report.json").read_text())["payload"] == want


def test_chaos_bounds_saturate_where_the_power_overflows(tmp_path):
    """At k=1 and S ~ 1.4e-160, (x/S)^2 overflows at x = 1: both bounds
    read 0 and the moment regime q >= 2 holds."""
    cfg = {"experiment": "chaos_audit", "seed": 0, "n": 2, "k": 1,
           "coefficients": {"index_tuples": [[0], [1]], "values": [1e-160, -1e-160]},
           "x_grid": [1.0]}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    assert (out / "curve.csv").read_text() == CURVE_HEADER + "\n1,0,0,0,0,0,1\n"


@pytest.mark.parametrize("cfg, workers, members, unique", [
    # k=1 box family on 4 cells, f supported on [1, 3): 15 boxes clip to
    # [1, 2), [1, 3), [2, 3) or nothing
    (_base_cfg(k=1, space={"points": 4, "weights": "uniform"},
               family={"kind": "box", "table": [0.0, 0.5, -1.0, 0.0]}),
     2, 15, 4),
    # 4x4 kernel with four zero entries, one in each row and column: the
    # 10 x 10 boxes of its full support hull and the zero table hold only
    # 73 distinct tables, as boxes whose extra cells are zero repeat others
    (PINNED_CURVES[2][0], 1, 225, 73),
    # 16 + 15 + 14 + 13 distinct intervals of 1 to 4 cells, and 17 empty
    # ones, which share the zero table
    (PINNED_CURVES[1][0], 2, 75, 59),
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


@pytest.mark.parametrize("cfg, workers, ran", [
    # two replications run in two processes, however many are allowed
    (_base_cfg(reps=2), 64, 2),
    # the audits run no replication and open no pool
    (PINNED_PAYLOADS[0][0], 4, 1),
    (PINNED_PAYLOADS[1][0], 4, 1),
    (PINNED_CURVES[6][0], 2, 1),
], ids=["sup_tail-reps2", "schedule_audit", "expansion_audit", "chaos_audit"])
def test_report_records_the_processes_that_ran(tmp_path, cfg, workers, ran):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out),
                 "--workers", str(workers)]) == 0
    assert json.loads((out / "report.json").read_text())["workers"] == ran


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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("space", [finite_space(np.arange(1, 5) / 10.0),
                                   uniform_space(6)], ids=["weighted4", "uniform6"])
def test_random_canonical_sigma_is_the_overlay_norm(space, k):
    """The sigma a family declares is, to the bit, the largest norm that
    overlay_bounds checks it against."""
    for count in (1, 3):
        for kernel_seed in range(9):
            family = _build_family({"kind": "random-canonical", "count": count,
                                    "kernel_seed": kernel_seed}, "family", space, k)
            norms = kernels.l2_norms(family.unique_tables()[0], space, k)
            assert norms.max() == family.sigma


def test_sup_tail_fits_its_slope_without_lstsq(tmp_path, monkeypatch):
    def no_lstsq(*args, **kwargs):
        raise AssertionError("exponent_fit called np.linalg.lstsq")
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    cfg = _base_cfg(n=400, reps=200, x_grid={"start": 0.1, "stop": 1.2, "points": 12})
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert np.isfinite(report["payload"]["exponent_fit"]["slope"])


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
    curve = {"x_grid": [], "probs": [], "ci_lo": [], "ci_hi": [],
             "replications": 1}
    rows, failed = overlay_bounds(curve, "J", interval_family(0.5, 8),
                                  uniform_space(8), 100, BoundConstants(k=1))
    assert rows == [] and failed == {}


def test_overlay_bound_capped_at_one():
    p = [0.9, 0.5]
    curve = {"x_grid": [0.0, 0.1], "probs": p, "ci_lo": p, "ci_hi": p,
             "replications": 100}
    rows, _ = overlay_bounds(curve, "J", interval_family(0.5, 8),
                             uniform_space(8), 100, BoundConstants(k=1))
    for r in rows:
        assert 0 < r["theorem_bound"] <= 1
        assert 0 < r["corollary_bound"] <= 1


# --- a row is applicable only where the Theorem's hypotheses hold ----------

_HYPOTHESIS_RUN = {"experiment": "sup_tail", "n": 400, "k": 2, "reps": 100,
                   "space": {"points": 4, "weights": "uniform"}}


def _applicable_flags(tmp_path, cfg):
    """(applicable column, the report's failed hypotheses or None)."""
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    report = json.loads((out / "report.json").read_text())
    return [r.rsplit(",", 1)[1] for r in rows], report.get("failed_hypotheses")


def test_statistic_other_than_j_is_never_applicable(tmp_path):
    # the region test passes at x >= 200, beside bounds of 1e-10 to 4e-19
    # far below the coupled I tail (p = 0.23 to 0.08): the Theorem bounds J
    cfg = dict(_HYPOTHESIS_RUN, seed=1, statistic="I",
               family={"kind": "random-canonical", "count": 3, "kernel_seed": 2},
               x_grid=[50, 100, 200, 250, 300, 350])
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["0"] * 6
    assert failed["statistic"] == "I"


def test_members_above_sup_norm_one_are_never_applicable(tmp_path):
    # sigma-rescaled canonical members reach |f| = 1.80, above the
    # Theorem's |f| <= 1; the region test passes on every row
    cfg = dict(_HYPOTHESIS_RUN, seed=3, statistic="J", constants={"M": 0.01},
               family={"kind": "random-canonical", "count": 2, "kernel_seed": 4},
               x_grid=[0.1, 0.2, 0.4, 0.8, 1.6])
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["0"] * 5
    assert failed == {"sup_norm": pytest.approx(1.8011727787644, rel=1e-12)}


def test_box_family_above_sup_norm_one_is_never_applicable(tmp_path):
    # the box family runs on any finite base kernel, and the overlay reports
    # |f| = 1.5; scaled to |f| = 1, every row is applicable
    cfg = dict(_HYPOTHESIS_RUN, seed=3, statistic="J", constants={"M": 0.01},
               space={"points": 3, "weights": "uniform"},
               family={"kind": "box", "table": [[1.5, 0, 0.5], [0, -1, 0],
                                                [0.25, 0, 1]]},
               x_grid=[0.1, 0.2, 0.4, 0.8, 1.6])
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["0"] * 5
    assert failed == {"sup_norm": 1.5}


@pytest.mark.parametrize("space, family, l2", [
    # ||f||_2 = 0.707 under uniform mu, against sigma = 0.1: unflagged, the
    # row at x = 0.5 printed p = 0.475 beside a theorem bound of 0.273
    ({"points": 4, "weights": "uniform"},
     {"kind": "singleton", "sigma": 0.1, "table": [1, -1, 0, 0]}, 0.5 ** 0.5),
    # windows of at most sigma^2 = 1/4 of the grid, on a skewed space: the
    # first cell alone carries mass 0.4
    ({"weights": [0.4, 0.3, 0.2, 0.1]},
     {"kind": "interval", "sigma": 0.5, "grid": 4}, 0.4 ** 0.5),
], ids=["singleton", "interval-skewed"])
def test_members_above_the_l2_hypothesis_are_never_applicable(tmp_path, space,
                                                              family, l2):
    cfg = dict(_HYPOTHESIS_RUN, seed=1, k=1, n=2500, reps=400, statistic="J",
               constants={"M": 0.01}, space=space, family=family,
               x_grid=[0.25, 0.5, 0.75, 1])
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["0"] * 4
    assert failed == {"l2_norm": pytest.approx(l2, rel=1e-12)}


def test_j_on_windows_keeps_its_applicable_rows(tmp_path):
    cfg = dict(_HYPOTHESIS_RUN, seed=3, k=1, statistic="J", constants={"M": 0.01},
               space={"points": 16, "weights": "uniform"},
               family={"kind": "interval", "sigma": 0.5, "grid": 16},
               x_grid=[0.1, 0.2, 0.4, 0.8, 1.6])
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["0", "1", "1", "1", "1"]
    assert failed is None


def test_counterexample_keeps_its_applicable_rows(tmp_path):
    # its windows have |f| <= 1 and ||f||_2 <= sigma, and its one-sided
    # increment counts as J; both x lie in the region at M = 0.001
    cfg = dict(_COUNTEREXAMPLE, seed=3, constants={"M": 0.001})
    flags, failed = _applicable_flags(tmp_path, cfg)
    assert flags == ["1", "1"]
    assert failed is None


def test_counterexample_overlay_reads_d_from_its_family(monkeypatch):
    # the interval family declares D = 64 here; C keeps the bound below 1,
    # where D shows
    monkeypatch.setattr(kernels, "box_budget", lambda k: (64.0, 2.0))
    _, rows, _ = cli.execute(dict(_COUNTEREXAMPLE, constants={"C": 1e-3}))
    consts = BoundConstants(k=1, C=1e-3)
    want = [theorem_bound(r["x"], 500, 1, 0.3, 64.0, 2.0, consts)[0] for r in rows]
    assert [r["theorem_bound"] for r in rows] == want
    assert len(want) == 2 and max(want) < 1


# --- invalid constants and singleton sigma exit 2 before any work ----------

_COUNTEREXAMPLE = {"experiment": "counterexample", "seed": 5, "sigma": 0.3,
                   "n": 500, "epsilon": 0.5, "reps": 40}


@pytest.mark.parametrize("constants", [
    {"C": -1}, {"foo": 1}, "abc", {"C": float("nan"), "alpha": float("inf")},
    {"alpha": 0}, {"A0": 1.0}, {"k": 2}, [1.0], {"C": None}],
    ids=["negative", "unknown", "string", "non-finite", "zero-alpha",
         "A0-one", "k", "list", "null"])
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
    assert capsys.readouterr().err.startswith("config error: family.sigma: ")
    assert not (tmp_path / "out").exists()


def test_singleton_sigma_default_and_in_range():
    family = {"kind": "singleton", "table": [0.1] * 8}
    assert _build_family(family, "family", uniform_space(8), 1).sigma == 1.0
    family["sigma"] = 0.25
    assert _build_family(family, "family", uniform_space(8), 1).sigma == 0.25


# --- family tables and scalar fields must be finite numbers ----------------

@pytest.mark.parametrize("kind", ["box", "singleton"])
@pytest.mark.parametrize("table", [
    [[float("nan"), 0.5], [0.1, 0.2]], [["a", 0.5], [0.1, 0.2]],
    [[0.1, 0.2], [0.3]], [[0.1, float("inf")], [0.1, 0.2]]],
    ids=["nan", "string", "ragged", "inf"])
def test_invalid_family_table_exits_2(tmp_path, capsys, kind, table):
    cfg = _base_cfg(k=2, statistic="I", space={"points": 2, "weights": "uniform"},
                    family={"kind": kind, "table": table}, x_grid=[0.0, 0.5])
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: family.table: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("A_bar", float("nan")), ("D", float("inf"))])
def test_non_finite_scalar_field_exits_2(tmp_path, capsys, field, value):
    cfg = {"experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 1,
           "sigma": 0.5, "x": 2.0, "A_bar": 2.0, "D": 4.0, "L": 2.0}
    cfg[field] = value
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


# --- range rules are the library's; the CLI names the refused field --------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_space_weights_exit_2(tmp_path, capsys, bad):
    cfg = _base_cfg(space={"weights": [bad, 1, 1, 1]},
                    family={"kind": "singleton", "table": [1.0, -1.0, 0.5, -0.5]},
                    x_grid=[0.0, 100.0])
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: space.weights: ")
    assert not (tmp_path / "out").exists()


def test_box_table_of_wrong_shape_exits_2(tmp_path, capsys):
    cfg = _base_cfg(k=2, statistic="I", space={"points": 4, "weights": "uniform"},
                    family={"kind": "box", "table": np.full((4, 3), 0.5).tolist()},
                    x_grid=[0.0, 0.5])
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: family.table: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("over, field", [
    ({"grid": 2}, "grid"), ({"n": 20, "sigma": 0.5}, "n"),
    ({"sigma": 1.0}, "sigma"), ({"epsilon": 1.5}, "epsilon"), ({"reps": 0}, "reps")],
    ids=["grid", "n", "sigma", "epsilon", "reps"])
def test_counterexample_refusal_names_its_field(tmp_path, capsys, over, field):
    cfg = dict(_COUNTEREXAMPLE, **over)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family, field", [
    ({"kind": "interval", "sigma": 1.5, "grid": 8}, "family.sigma"),
    ({"kind": "interval", "sigma": 0.3, "grid": 8}, "family.grid")])
def test_interval_family_refusal_names_its_field(tmp_path, capsys, family, field):
    assert run(_write(tmp_path, _base_cfg(family=family)), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_fewer_points_than_k_in_a_worker_exits_2(tmp_path, capsys):
    cfg = _base_cfg(n=1, k=2, statistic="I", space={"points": 3, "weights": "uniform"},
                    family={"kind": "singleton", "table": np.ones((3, 3)).tolist()})
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out), "--workers", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: n: must be >= k"]
    assert not out.exists()


def test_symmetrization_k2_with_k1_family_exits_2(tmp_path, capsys):
    # symmetrization_experiment takes no k, so the CLI's arity check is what
    # keeps a k=1 run from being overlaid with k=2 bounds
    cfg = _base_cfg(experiment="symmetrization", k=2, x=0.5)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: family: ")
    assert not (tmp_path / "out").exists()


# --- every field is named by its dotted path, and no config escapes --------

@pytest.mark.parametrize("family, message", [
    ({"kind": "interval", "sigma": "abc", "grid": 8},
     "family.sigma: expected int or float"),
    ({"kind": "interval", "sigma": 0.5}, "family.grid: missing required field"),
    ({"kind": ["interval"]}, "family.kind: expected str"),
    ({"kind": "random-canonical", "count": 2, "kernel_seed": "4"},
     "family.kernel_seed: expected int"),
    ("interval", "family: expected object")])
def test_nested_field_refusal_names_its_path(tmp_path, capsys, family, message):
    assert run(_write(tmp_path, _base_cfg(family=family)), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("experiment", sorted(_X_GRID_CONFIGS))
@pytest.mark.parametrize("x_grid", [[[1.0, 2.0], [3.0, 4.0]], ["a"], [[1.0, 2.0], [3.0]],
                                    {"start": 0.0, "stop": 1.0, "points": -1}],
                         ids=["nested", "string", "ragged", "negative-points"])
def test_x_grid_must_be_a_flat_list_of_numbers(tmp_path, capsys, experiment, x_grid):
    cfg = dict(_X_GRID_CONFIGS[experiment], x_grid=x_grid)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: x_grid: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", sorted(_X_GRID_CONFIGS))
def test_x_grid_of_zero_points_is_the_empty_grid(tmp_path, experiment):
    cfg = dict(_X_GRID_CONFIGS[experiment],
               x_grid={"start": 1.0, "stop": 0.0, "points": 0})
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), str(out)) == 0
    assert (out / "curve.csv").read_text() == CURVE_HEADER + "\n"


@pytest.mark.parametrize("over, field", [
    ({"seed": 2 ** 64}, "seed"), ({"seed": -1}, "seed"),
    ({"family": {"kind": "random-canonical", "count": 2, "kernel_seed": -1}},
     "family.kernel_seed"),
    ({"family": {"kind": "random-canonical", "count": 2, "kernel_seed": 2 ** 64}},
     "family.kernel_seed")])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, over, field):
    assert run(_write(tmp_path, _base_cfg(**over)), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: {field}: must lie in [0, 2^64)\n"


def test_seed_rule_covers_every_experiment_and_the_override(tmp_path, capsys):
    cfg = {"experiment": "schedule_audit", "seed": 2 ** 64, "n": 4096, "k": 1,
           "sigma": 0.5, "x": 2.0, "A_bar": 2.0, "D": 4.0, "L": 2.0}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert run(_write(tmp_path, dict(cfg, seed=2 ** 64 - 1)), str(tmp_path / "out")) == 0
    assert main(["run", _write(tmp_path, _base_cfg()), "--out", str(tmp_path / "o2"),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")


@pytest.mark.parametrize("over, field", [({"sigma": 1.5}, "sigma"), ({"x": 0}, "x")])
def test_schedule_audit_sigma_and_x_are_the_library_rules(tmp_path, capsys, over,
                                                          field):
    cfg = {"experiment": "schedule_audit", "seed": 0, "n": 4096, "k": 1,
           "sigma": 0.5, "x": 2.0, "A_bar": 2.0, "D": 4.0, "L": 2.0}
    assert run(_write(tmp_path, dict(cfg, **over)), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_chaos_audit_fractional_index_exits_2(tmp_path, capsys):
    cfg = {"experiment": "chaos_audit", "seed": 0, "n": 4, "k": 2,
           "coefficients": {"index_tuples": [[-0.5, 1], [2, 3]], "values": [1, 2]},
           "x_grid": [0.0, 1.0]}
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        "config error: coefficients: index tuples must hold integers\n"
    assert not (tmp_path / "out").exists()


_CHAOS = {"experiment": "chaos_audit", "seed": 0, "n": 4, "k": 2,
          "coefficients": {"index_tuples": [[0, 1], [2, 3]], "values": [1.0, 2.0]},
          "x_grid": [0.0, 1.0]}


_LIST_FIELDS = {
    "space.weights": lambda v: _base_cfg(
        space={"weights": [v, 1, 1, 1]}, x_grid=[0.0, 1.0],
        family={"kind": "singleton", "table": [1.0, -1.0, 0.5, -0.5]}),
    "family.table": lambda v: _base_cfg(
        space={"points": 4, "weights": "uniform"}, x_grid=[0.0, 1.0],
        family={"kind": "singleton", "table": [v, 0.2, 0.3, 0.4]}),
    "x_grid": lambda v: _base_cfg(x_grid=[v, 2.0]),
    "coefficients.values": lambda v: dict(
        _CHAOS, coefficients={"index_tuples": [[0, 1], [2, 3]], "values": [v, 2e3]}),
    "coefficients.index_tuples": lambda v: dict(
        _CHAOS, coefficients={"index_tuples": [[v, 0], [2, 3]], "values": [1.0, 2.0]}),
}


@pytest.mark.parametrize("entry", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("field", sorted(_LIST_FIELDS))
def test_list_entries_must_be_numbers(tmp_path, capsys, field, entry):
    # a bool or a numeric string inside a list is refused like a scalar one
    assert run(_write(tmp_path, _LIST_FIELDS[field](entry)), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        f"config error: {field}: every entry must be a number\n"
    assert not (tmp_path / "out").exists()


def test_counterexample_too_big_to_tabulate_writes_nothing(tmp_path, capsys):
    # sigma=0.01 needs n >= 80,000 and a 20,000-cell grid: 39,999 interval
    # tables of 20,000 cells, refused before any is built
    cfg = dict(_COUNTEREXAMPLE, sigma=0.01, n=80000, reps=2)
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        "config error: grid: 39999 intervals x 20000 cells exceed 2^27 entries\n"
    assert not (tmp_path / "out").exists()


def test_random_canonical_family_too_big_to_tabulate_writes_nothing(tmp_path, capsys):
    # 2,049 kernels of 16^4 cells are refused before the first is drawn
    cfg = _base_cfg(k=4, space={"points": 16, "weights": "uniform"},
                    family={"kind": "random-canonical", "count": 2049,
                            "kernel_seed": 3})
    assert run(_write(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == \
        "config error: family.count: 2049 kernels x 65536 cells exceed 2^27 entries\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("depth, message", [
    (900, "coefficients.values: every entry must be a number"),
    (100_000, "config: not valid JSON: maximum recursion depth exceeded")],
    ids=["parsed", "too-deep-to-parse"])
def test_deeply_nested_list_exits_2(tmp_path, capsys, depth, message):
    # 900 levels parse, and the list check stops at its depth cap instead of
    # exhausting the stack; 100,000 levels exceed the JSON decoder's limit
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "chaos_audit", "seed": 0, "n": 4, "k": 1, '
                    '"coefficients": {"index_tuples": [[0]], "values": '
                    + "[" * depth + "1" + "]" * depth + "}}")
    assert run(str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


# --- report.json prints the record the library returns ----------------------

_GRID = np.linspace(0.0, 1.5, 7)  # _base_cfg's x_grid
_LIBRARY_RUNS = {
    "symmetrization": (
        _base_cfg(experiment="symmetrization", x=0.4), interval_family(0.5, 8),
        lambda fam, workers: symmetrization_experiment(
            fam, uniform_space(8), 64, 0.4, 100, 11, workers=workers)),
    "decoupling": (
        _X_GRID_CONFIGS["decoupling"], singleton_family(KernelFunction(np.eye(3))),
        lambda fam, workers: decoupling_experiment(
            fam, uniform_space(3), 8, 2, _GRID, 100, 11, workers=workers)),
    "counterexample": (
        _COUNTEREXAMPLE, None,
        lambda fam, workers: counterexample_experiment(0.3, 500, 0.5, 40, 5,
                                                       workers=workers)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", sorted(_LIBRARY_RUNS))
def test_report_payload_is_the_library_record(tmp_path, experiment, workers):
    cfg, family, call = _LIBRARY_RUNS[experiment]
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, cfg), "--out", str(out),
                 "--workers", str(workers)]) == 0
    record, _ = call(family, workers)
    if family is not None:
        record["family"] = {"members": len(family),
                            "unique_tables": int(family.unique_tables()[0].shape[0])}
    assert json.loads((out / "report.json").read_text())["payload"] == record


@pytest.mark.parametrize("workers", [1, 2])
def test_sup_tail_payload_curve_is_the_curve_payload(tmp_path, workers):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, _base_cfg()), "--out", str(out),
                 "--workers", str(workers)]) == 0
    curve = mc_sup_tail(interval_family(0.5, 8), uniform_space(8), 64, 1, "J",
                        _GRID, 100, 11, workers=workers)
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["curve"] == curve
