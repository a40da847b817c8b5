"""Bound calculators for the tail inequalities and the chaining schedule.

The headline inequalities only assert the existence of constants depending
on the order k; no numeric values are published.  BoundConstants therefore
carries user-supplied values with exploratory (non-authoritative) defaults,
and nothing downstream treats them as ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, floor, isfinite, log, log2
from numbers import Real
from sys import float_info

import numpy as np

from .spaces import InvalidArgument


class NotApplicable(Exception):
    """Hypothesis of the schedule construction violated."""


def default_alpha(k: int) -> float:
    return k / (4 * np.e * factorial(k) ** (1.0 / k))


# every constant must be a finite number above its floor
CONSTANT_FLOORS = {"C": 0, "alpha": 0, "M": 0}


@dataclass(frozen=True)
class BoundConstants:
    """Exploratory constants for the existence-only bounds; all positive."""

    k: int = 1
    C: float = None
    alpha: float = None
    M: float = 100.0

    def __post_init__(self):
        if self.C is None:
            object.__setattr__(self, "C", exp(self.k))
        if self.alpha is None:
            object.__setattr__(self, "alpha", default_alpha(self.k))
        for name, low in CONSTANT_FLOORS.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not isfinite(v):
                raise ValueError(f"{name} must be a finite number")
            if v <= low:
                raise ValueError(f"{name} must be > {low}")

    @classmethod
    def from_dict(cls, k: int, overrides: dict | None = None) -> "BoundConstants":
        overrides = {} if overrides is None else overrides
        if not isinstance(overrides, dict) or not set(overrides) <= set(CONSTANT_FLOORS):
            raise ValueError(f"expected an object with keys among {list(CONSTANT_FLOORS)}")
        if None in overrides.values():  # the dataclass would read it as "default"
            raise ValueError("a constant must be a finite number, not null")
        return cls(k=k, **overrides)


def saturating_pow(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, or inf where the float power
    overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return float("inf")


def theorem_bound(x: float, n: int, k: int, sigma: float, D: float, L: float,
                  consts: BoundConstants):
    """Supremum tail bound min(1, C*D*exp(-alpha (x/sigma)^{2/k})) together
    with the two-sided applicability region flag."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if x < 0:
        raise ValueError("x must be >= 0")
    arg = saturating_pow(x / sigma, 2.0 / k)
    bound = min(1.0, consts.C * D * exp(-consts.alpha * arg))
    applicable = (n * sigma ** 2 >= arg
                  >= consts.M * (L + 1) ** 1.5 * log(2.0 / sigma))
    return float(bound), bool(applicable)


def corollary2_bound(x: float, k: int, consts: BoundConstants) -> float:
    """min(1, C * exp(-alpha x^{2/k})), valid in form for all x >= 0."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return float(min(1.0, consts.C * exp(-consts.alpha * saturating_pow(x, 2.0 / k))))


def proposition_level(n: int, k: int, sigma: float, A: float):
    """Level and bare exponential tail of the degenerate U-statistic bound:
    threshold A n^{k/2} sigma^{k+1}, tail exp(-A^{1/2k} n sigma^2)."""
    if A <= 0:
        raise ValueError("A must be > 0")
    threshold = A * n ** (k / 2) * sigma ** (k + 1)
    tail = exp(-A ** (1.0 / (2 * k)) * n * sigma ** 2)
    return float(threshold), float(tail)


def h_integral_level(n: int, k: int, sigma: float, A: float):
    """Good-tail level for integrals of squared decoupled U-statistics:
    threshold A^2 n^k sigma^{2k+2}, tail exp(-A^{1/(2k+1)} n sigma^2)."""
    if A <= 0:
        raise ValueError("A must be > 0")
    threshold = A ** 2 * n ** k * sigma ** (2 * k + 2)
    tail = exp(-A ** (1.0 / (2 * k + 1)) * n * sigma ** 2)
    return float(threshold), float(tail)


def chaining_schedule(n: int, k: int, sigma: float, x: float, A_bar: float,
                      D: float, L: float) -> dict:
    """Pick the number of refinement levels R from the sandwich

        2^{(4+2/k)(R+1)} (x/(A_bar sigma))^{2/k}
            >= n sigma^2 / 2^{2-2/k}
            >= 2^{(4+2/k)R} (x/(A_bar sigma))^{2/k}

    and emit sigma_bar^2 = 16^{-R} sigma^2 with the per-level net sizes
    m_p = floor(D 4^{pL} sigma^{-L}), and whether the sandwich, sigma_bar
    and the sizes check out to a relative 1e-9."""
    if not 0 < sigma <= 1:
        raise InvalidArgument("sigma", "must lie in (0, 1]")
    if not x > 0:
        raise InvalidArgument("x", "must be > 0")
    if not D > 0:
        raise InvalidArgument("D", "must be > 0")
    if not L > 0:
        raise InvalidArgument("L", "must be > 0")
    two_k = saturating_pow(2.0, k)  # exact below 2^1024, else inf
    if not A_bar >= two_k:
        raise NotApplicable(f"A_bar = {A_bar:g} is below 2^k = {two_k:.17g}")
    if not isfinite(A_bar):
        raise InvalidArgument("A_bar", "must be finite")
    n_var, least = n * sigma ** 2, saturating_pow(x / sigma, 2.0 / k)
    if n_var < least:
        raise NotApplicable(f"hypothesis violated: n sigma^2 = {n_var:g} is below "
                            f"(x/sigma)^(2/k) = {least:g}")
    # R = floor(log2(middle / lower end at R = 0) / (4 + 2/k)) from logs, as
    # (x/(A_bar sigma))^{2/k} may underflow; times k the log is exact on
    # powers of two, ties included.  R >= 0: A_bar >= 2^k and the hypothesis
    # put the middle at least 2^(2/k) times the lower end
    k_log_ratio = (k * (log2(n) + 2 * log2(sigma) - 2.0) + 2.0
                   - 2.0 * (log2(x) - log2(A_bar) - log2(sigma)))
    R = floor(k_log_ratio / (4 * k + 2))
    sizes = [D * saturating_pow(4.0, p * L) * saturating_pow(sigma, -L)
             for p in range(R + 1)]
    if not isfinite(sizes[-1]):
        raise NotApplicable(f"net size D 4^(RL) sigma^-L = {sizes[-1]:g} at "
                            f"R = {R} is not finite")
    sigma_bar = 4.0 ** (-R) * sigma
    if not sigma_bar > 0:
        raise NotApplicable(f"sigma_bar = 4^-R sigma underflows to 0 at R = {R}")
    net_sizes = [int(floor(size)) for size in sizes]
    tol = 1e-9  # relative slack for rounding in sigma_bar and x
    lhs = 64.0 * (x / (A_bar * sigma_bar)) ** (2.0 / k)
    mid = n * sigma_bar ** 2
    rhs = (x / (A_bar * sigma)) ** (2.0 / k)
    ok = (abs(sigma_bar ** 2 - 16.0 ** (-R) * sigma ** 2) <= tol * sigma ** 2
          and all(m_p <= size + tol for m_p, size in zip(net_sizes, sizes))
          and lhs >= mid * (1 - tol) and mid >= rhs * (1 - tol))
    if not ok and min(sigma_bar ** 2, x / (A_bar * sigma_bar)) < float_info.min:
        raise NotApplicable(f"the invariants at R = {R} cannot be checked: sigma_bar^2 "
                            "or x/(A_bar sigma_bar) is below the normal float range")
    return {"R": R, "sigma_bar": sigma_bar, "net_sizes": net_sizes,
            "invariants_hold": ok}


def induction_levels(n: int, k: int, A0: float) -> list:
    """Descending ladder from n^{k/2} where each level is the 3/4 power of
    the previous one, truncated after the first level <= A0^{4/3}.

    Empty when the start level is already at or below the stopping point."""
    if A0 <= 1:
        raise ValueError("A0 must be > 1")
    start = float(n) ** (k / 2.0)
    stop = A0 ** (4.0 / 3.0)
    if start <= stop:
        return []
    levels = [start]
    while levels[-1] > stop:
        levels.append(levels[-1] ** 0.75)
    return levels
