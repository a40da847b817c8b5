"""Bound calculators for the tail inequalities and the chaining schedule.

The headline inequalities only assert the existence of constants depending
on the order k; no numeric values are published.  BoundConstants therefore
carries user-supplied values with exploratory (non-authoritative) defaults,
and nothing downstream treats them as ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, floor, isfinite, log
from numbers import Real

import numpy as np


class NotApplicable(Exception):
    """Hypothesis of the schedule construction violated."""


def default_alpha(k: int) -> float:
    return k / (4 * np.e * factorial(k) ** (1.0 / k))


# every constant must be a finite number above its floor
CONSTANT_FLOORS = {"C": 0, "alpha": 0, "M": 0, "gamma": 0, "K": 0, "A0": 1}


@dataclass(frozen=True)
class BoundConstants:
    """Exploratory constants for the existence-only bounds; all positive."""

    k: int = 1
    C: float = None
    alpha: float = None
    M: float = 100.0
    gamma: float = 0.01
    K: float = 100.0
    A0: float = 8.0

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
        return cls(k=k, **overrides)


def theorem_bound(x: float, n: int, k: int, sigma: float, D: float, L: float,
                  beta: float, consts: BoundConstants):
    """Supremum tail bound min(1, C*D*exp(-alpha (x/sigma)^{2/k})) together
    with the two-sided applicability region flag."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    if x < 0:
        raise ValueError("x must be >= 0")
    arg = (x / sigma) ** (2.0 / k)
    bound = min(1.0, consts.C * D * exp(-consts.alpha * arg))
    applicable = (n * sigma ** 2 >= arg
                  >= consts.M * (L + beta + 1) ** 1.5 * log(2.0 / sigma))
    return float(bound), bool(applicable)


def corollary2_bound(x: float, k: int, consts: BoundConstants) -> float:
    """min(1, C * exp(-alpha x^{2/k})), valid in form for all x >= 0."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return float(min(1.0, consts.C * exp(-consts.alpha * x ** (2.0 / k))))


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


@dataclass(frozen=True)
class ChainingSchedule:
    """Multiscale net schedule: resolution drops by 16x in variance per level."""

    R: int
    sigma: float
    sigma_bar: float
    net_sizes: list
    A_bar: float
    x: float
    n: int
    k: int
    D: float
    L: float

    def invariants_hold(self, tol: float = 1e-9) -> bool:
        ok = abs(self.sigma_bar ** 2 - 16.0 ** (-self.R) * self.sigma ** 2) \
            <= tol * self.sigma ** 2
        for p, m_p in enumerate(self.net_sizes):
            ok &= m_p <= self.D * 4.0 ** (p * self.L) * self.sigma ** (-self.L) + tol
        lhs = 64.0 * (self.x / (self.A_bar * self.sigma_bar)) ** (2.0 / self.k)
        mid = self.n * self.sigma_bar ** 2
        rhs = (self.x / (self.A_bar * self.sigma)) ** (2.0 / self.k)
        ok &= lhs >= mid * (1 - tol) and mid >= rhs * (1 - tol)
        return bool(ok)


def chaining_schedule(n: int, k: int, sigma: float, x: float, A_bar: float,
                      D: float, L: float) -> ChainingSchedule:
    """Pick the number of refinement levels R from the sandwich

        2^{(4+2/k)(R+1)} (x/(A_bar sigma))^{2/k}
            >= n sigma^2 / 2^{2-2/k}
            >= 2^{(4+2/k)R} (x/(A_bar sigma))^{2/k}

    and emit sigma_bar^2 = 16^{-R} sigma^2 with the per-level net sizes
    m_p = floor(D 4^{pL} sigma^{-L})."""
    if A_bar < 2 ** k:
        raise NotApplicable("A_bar must be >= 2^k")
    if not 0 < sigma <= 1 or x <= 0:
        raise NotApplicable("need 0 < sigma <= 1 and x > 0")
    base = (x / (A_bar * sigma)) ** (2.0 / k)
    target = n * sigma ** 2 / 2 ** (2.0 - 2.0 / k)
    if n * sigma ** 2 < (x / sigma) ** (2.0 / k):
        raise NotApplicable("hypothesis n sigma^2 >= (x/sigma)^{2/k} violated")
    R = floor(log(target / base) / ((4 + 2.0 / k) * log(2.0)))
    if R < 0:
        raise NotApplicable("no nonnegative R satisfies the sandwich")
    sigma_bar = 4.0 ** (-R) * sigma
    net_sizes = [int(floor(D * 4.0 ** (p * L) * sigma ** (-L))) for p in range(R + 1)]
    return ChainingSchedule(R=R, sigma=sigma, sigma_bar=sigma_bar,
                            net_sizes=net_sizes, A_bar=A_bar, x=x, n=n, k=k,
                            D=D, L=L)


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
