import dataclasses
from math import exp, factorial

import numpy as np
import pytest

from empint.bounds import (BoundConstants, NotApplicable, chaining_schedule,
                           corollary2_bound, h_integral_level, induction_levels,
                           proposition_level, theorem_bound)
from empint.spaces import stream_rng


def test_default_constants():
    c = BoundConstants(k=2)
    assert c.C == pytest.approx(exp(2))
    assert c.alpha == pytest.approx(2 / (4 * np.e * factorial(2) ** 0.5))
    assert c.M == 100.0
    # C, alpha and M are the only constants any bound reads
    assert [f.name for f in dataclasses.fields(c)] == ["k", "C", "alpha", "M"]


def test_constants_positivity_enforced():
    with pytest.raises(ValueError):
        BoundConstants(k=1, C=-1.0)
    with pytest.raises(ValueError):
        BoundConstants(k=1, M=0.0)


def test_constants_from_dict_overrides():
    c = BoundConstants.from_dict(1, {"M": 5.0, "alpha": 0.3})
    assert c.M == 5.0 and c.alpha == 0.3 and c.C == pytest.approx(np.e)


def test_theorem_bound_region_independent_of_value():
    c = BoundConstants(k=1)
    bound, applicable = theorem_bound(1e-6, 100, 1, 0.5, 2.0, 1.0, c)
    assert not applicable
    assert 0 < bound <= 1


def test_theorem_bound_at_zero():
    c = BoundConstants(k=1, C=0.3)
    bound, _ = theorem_bound(0.0, 100, 1, 0.5, 2.0, 1.0, c)
    assert bound == pytest.approx(min(1.0, 0.3 * 2.0))


def test_theorem_bound_monotone_in_x():
    c = BoundConstants(k=2, C=1e-3)
    xs = np.linspace(0.1, 5.0, 30)
    vals = [theorem_bound(float(x), 1000, 2, 0.5, 1.0, 1.0, c)[0] for x in xs]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x, sigma", [(1e300, 0.5), (0.5, 1e-300)])
def test_bounds_saturate_where_the_power_overflows(x, sigma):
    # (x/sigma)^2 overflows at k = 1: both bounds are 0, outside the region
    c = BoundConstants(k=1)
    assert theorem_bound(x, 100, 1, sigma, 2.0, 1.0, c) == (0.0, False)
    assert corollary2_bound(x / sigma, 1, c) == 0.0


def test_theorem_bound_rejects_bad_sigma():
    with pytest.raises(ValueError):
        theorem_bound(1.0, 10, 1, 1.5, 1.0, 1.0, BoundConstants(k=1))


def test_theorem_applicability_region_monotone():
    c = BoundConstants(k=1, M=1.0)
    n, k, sigma = 10 ** 6, 1, 0.25
    xs = np.linspace(0.01, sigma * (n * sigma ** 2) ** (k / 2), 200)
    flags = [theorem_bound(float(x), n, k, sigma, 1.0, 1.0, c)[1] for x in xs]
    if True in flags:
        first = flags.index(True)
        assert all(flags[first:])


def test_corollary2_examples():
    c = BoundConstants(k=1, C=0.7)
    assert corollary2_bound(0.0, 1, c) == pytest.approx(0.7)
    vals = [corollary2_bound(float(x), 1, c) for x in np.linspace(0, 10, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_corollary2_k_comparison():
    c1 = BoundConstants(k=1, C=1.0, alpha=0.5)
    c2 = BoundConstants(k=2, C=1.0, alpha=0.5)
    for x in (1.0, 2.0, 5.0):
        assert corollary2_bound(x, 1, c1) <= corollary2_bound(x, 2, c2) + 1e-15


def test_bounds_in_unit_interval():
    c = BoundConstants(k=2)
    rng = stream_rng(1, 0)
    for _ in range(100):
        x = float(rng.uniform(0, 50))
        b, _ = theorem_bound(x, 100, 2, 0.5, 4.0, 2.0, c)
        assert 0 < b <= 1
        assert 0 < corollary2_bound(x, 2, c) <= 1


def test_proposition_level_unit_plug_in():
    threshold, tail = proposition_level(1, 1, 1.0, 1.0)
    assert threshold == pytest.approx(1.0)
    assert tail == pytest.approx(exp(-1.0))


def test_proposition_level_monotone():
    t1 = proposition_level(100, 2, 0.3, 2.0)[1]
    t2 = proposition_level(100, 2, 0.3, 8.0)[1]
    assert t2 <= t1
    t3 = proposition_level(400, 2, 0.3, 2.0)[1]
    assert t3 <= t1


def test_h_integral_level_formula():
    threshold, tail = h_integral_level(10, 2, 0.5, 3.0)
    assert threshold == pytest.approx(9.0 * 10 ** 2 * 0.5 ** 6)
    assert tail == pytest.approx(exp(-(3.0 ** 0.2) * 10 * 0.25))


def test_ladder_consistency():
    # tail at level T^{4/3} is at most tail at level T
    for T in (2.0, 5.0, 20.0):
        a = proposition_level(50, 2, 0.4, T)[1]
        b = proposition_level(50, 2, 0.4, T ** (4.0 / 3.0))[1]
        assert b <= a + 1e-15


# --- chaining schedule -----------------------------------------------------

def test_schedule_identity_at_r0():
    # parameters chosen so that the sandwich holds at R = 0
    sched = chaining_schedule(n=100, k=1, sigma=0.5, x=2.0, A_bar=2.0,
                              D=2.0, L=1.0)
    assert sched["R"] == 0
    assert sched["sigma_bar"] == pytest.approx(0.5)
    assert sched["invariants_hold"]


def test_schedule_r_monotone_in_n():
    prev = -1
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        sched = chaining_schedule(n=n, k=1, sigma=0.5, x=2.0, A_bar=2.0,
                                  D=2.0, L=1.0)
        assert sched["R"] >= prev
        prev = sched["R"]


def test_schedule_requires_hypothesis():
    with pytest.raises(NotApplicable):
        chaining_schedule(n=10, k=1, sigma=0.1, x=100.0, A_bar=2.0, D=1.0, L=1.0)
    with pytest.raises(NotApplicable):
        chaining_schedule(n=100, k=2, sigma=0.5, x=1.0, A_bar=1.0, D=1.0, L=1.0)


@pytest.mark.parametrize("args, numbers", [
    ((100, 2, 0.5, 1.0, 1.0, 1.0, 1.0), ["A_bar = 1", "2^k = 4"]),
    ((10, 1, 0.1, 100.0, 2.0, 1.0, 1.0),
     ["n sigma^2 = 0.1", "(x/sigma)^(2/k) = 1e+06"]),
    ((4096, 1, 0.5, 2.0, float("nan"), 4.0, 2.0), ["A_bar = nan", "2^k = 2"]),
    ((4096, 10 ** 30, 0.5, 2.0, 2.0, 4.0, 2.0), ["A_bar = 2", "2^k = inf"]),
    ((4096, 1, 1e-300, 2.0, 2.0, 4.0, 2.0), ["n sigma^2 = 0", "(x/sigma)^(2/k) = inf"]),
    ((4096, 1, 0.5, 1e-300, 2.0, 4.0, 2.0), ["= inf", "R = 333"]),
    ((4096, 1, 0.5, 2.0, 1e300, 4.0, 2.0), ["= inf", "R = 333"]),
    ((4096, 1, 0.5, 2.0, 2.0, 4.0, 1e300), ["= inf", "R = 1"]),
    ((1, 1, 1.0, 1e-300, 1e300, 1e-300, 1e-3), ["underflows to 0", "R = 664"]),
    # x/(A_bar sigma_bar) underflows, so the sandwich check would read false
    ((1, 5, 1.0, 1e-176, 1e270, 1e-43, 1.0), ["cannot be checked", "R = 134"])],
    ids=["A_bar", "hypothesis", "A_bar-nan", "k-huge", "sigma-tiny", "x-tiny", "A_bar-huge",
         "L-huge", "sigma_bar-zero", "sandwich-unchecked"])
def test_schedule_refusal_names_value_and_threshold(args, numbers):
    with pytest.raises(NotApplicable) as e:
        chaining_schedule(*args)
    for number in numbers:
        assert number in str(e.value)


def test_schedule_r_where_the_base_underflows():
    # (x/(A_bar sigma))^2 underflows to 0 at x = 1e-200; R comes from logs
    sched = chaining_schedule(4096, 1, 0.5, 1e-200, 2.0, 4.0, 2.0)
    assert sched["R"] == 223 and sched["invariants_hold"]


def test_schedule_r_is_exact_on_powers_of_two():
    # log2 target/base = 13/3 = 4 + 2/k exactly, so R = 1
    assert chaining_schedule(64, 6, 2.0 ** -5, 2.0 ** -27, 256.0, 1.0, 1.0)["R"] == 1


def test_schedule_random_sweep():
    rng = stream_rng(17, 0)
    made = 0
    while made < 300:
        k = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(10, 10 ** 6))
        xmax = sigma * (n * sigma ** 2) ** (k / 2.0)
        if xmax <= 1e-9:
            continue
        x = float(rng.uniform(0, xmax)) or xmax
        A_bar = float(2 ** k * rng.uniform(1.0, 4.0))
        D = float(rng.uniform(0.5, 16.0))
        L = float(rng.uniform(0.5, 6.0))
        try:
            sched = chaining_schedule(n, k, sigma, x, A_bar, D, L)
        except NotApplicable:
            continue
        assert sched["invariants_hold"]
        assert len(sched["net_sizes"]) == sched["R"] + 1
        made += 1


# --- induction ladder ------------------------------------------------------

def test_induction_empty_when_start_too_small():
    assert induction_levels(2, 1, A0=8.0) == []


def test_induction_consecutive_power_relation():
    levels = induction_levels(10 ** 4, 2, A0=2.0)
    for a, b in zip(levels, levels[1:]):
        assert b ** (4.0 / 3.0) == pytest.approx(a, rel=1e-12)


def test_induction_strictly_decreasing_and_truncated():
    levels = induction_levels(10 ** 4, 2, A0=2.0)
    assert all(a > b for a, b in zip(levels, levels[1:]))
    stop = 2.0 ** (4.0 / 3.0)
    assert levels[-1] <= stop
    assert all(l > stop for l in levels[:-1])


def test_induction_fixture_length():
    # direct-iteration fixture: n = 10^4, k = 2, A0 = 2 gives a 9-level ladder
    assert len(induction_levels(10 ** 4, 2, A0=2.0)) == 9


def test_induction_rejects_bad_a0():
    with pytest.raises(ValueError):
        induction_levels(100, 2, A0=1.0)


@pytest.mark.parametrize("overrides", [
    {"C": float("nan")}, {"alpha": float("inf")}, {"M": -float("inf")},
    {"M": float("nan")}, {"C": "abc"}, {"alpha": True}])
def test_constants_must_be_finite_numbers(overrides):
    with pytest.raises(ValueError):
        BoundConstants.from_dict(1, overrides)


@pytest.mark.parametrize("overrides", [
    "abc", [1.0], {"foo": 1.0}, {"k": 2},
    {"gamma": 0.01}, {"K": 100.0}, {"A0": 8.0}])
def test_constants_from_dict_rejects_non_objects_and_unknown_names(overrides):
    with pytest.raises(ValueError):
        BoundConstants.from_dict(1, overrides)
