"""Coordinate projection operators and the Hoeffding decomposition.

P integrates one coordinate out against mu, its broadcast version keeps the
coordinate as a fictive argument, and Q = I - broadcast(P).  Applying Q on
the coordinates of a subset V and P on the rest yields the component f_V of
the Hoeffding decomposition; the components are canonical and sum back to f.
"""
from __future__ import annotations

import itertools

import numpy as np

from .kernels import KernelFunction, _check_shape
from .spaces import ProbabilitySpace

CANONICAL_TOL = 1e-10


def _split(f: KernelFunction, coord: int, mu: ProbabilitySpace):
    """(P, Q) of f on coordinate `coord` (1-based): hoeffding_parts run on
    that coordinate, the others a batch; Q keeps the coordinate's axis last."""
    _check_shape(f, mu)
    if not 1 <= coord <= f.k:
        raise ValueError(f"coord {coord} out of range for arity {f.k}")
    parts = hoeffding_parts(np.moveaxis(f.table, coord - 1, -1), mu.weights, 1)
    return parts[frozenset()], parts[frozenset({1})]


def project_p(f: KernelFunction, coord: int, mu: ProbabilitySpace) -> KernelFunction | float:
    """Integrate coordinate `coord` (1-based) out against mu; arity drops by 1,
    and for k = 1 the result is the scalar expectation."""
    p = _split(f, coord, mu)[0]
    return float(p) if f.k == 1 else KernelFunction(p)


def project_q(f: KernelFunction, coord: int, mu: ProbabilitySpace) -> KernelFunction:
    """f minus its coord-projection re-broadcast over coord; arity unchanged."""
    return KernelFunction(np.moveaxis(_split(f, coord, mu)[1], -1, coord - 1))


def is_canonical(f: KernelFunction, mu: ProbabilitySpace, tol: float = CANONICAL_TOL) -> bool:
    """True iff integrating any single coordinate against mu vanishes identically."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return all(np.max(np.abs(_split(f, coord, mu)[0])) <= tol
               for coord in range(1, f.k + 1))


def all_subsets(k: int):
    for r in range(k + 1):
        for V in itertools.combinations(range(1, k + 1), r):
            yield frozenset(V)


def canonicalize(f: KernelFunction, mu: ProbabilitySpace) -> KernelFunction:
    """Apply Q on every coordinate: the fully canonical part of f."""
    _check_shape(f, mu)
    parts = hoeffding_parts(f.table, mu.weights, f.k)
    return KernelFunction(parts[frozenset(range(1, f.k + 1))])


def hoeffding_parts(table: np.ndarray, weights: np.ndarray, k: int) -> dict:
    """Hoeffding components of the kernels on the last k axes of `table`,
    each leading axis a batch: V -> array of shape batch + (m,)*|V|.

    The product of (P_j + Q_j) is expanded one coordinate j at a time.  A
    partial table holds the batch axes, the axes of the coordinates V given
    Q so far, then those not yet expanded.  Coordinate j splits it into
    p = P_j t (one contraction) and, for V + {j}, t - p broadcast back:
    2^k - 1 contractions for the whole batch."""
    lead = table.ndim - k
    parts = {frozenset(): table}
    for coord in range(1, k + 1):
        split = {}
        for V, t in parts.items():
            axis = lead + len(V)
            p = np.tensordot(t, weights, axes=([axis], [0]))
            split[V] = p
            split[V | {coord}] = t - np.expand_dims(p, axis)
        parts = split
    return parts


def hoeffding_decompose(f: KernelFunction, mu: ProbabilitySpace) -> dict:
    """The Hoeffding decomposition of one kernel (hoeffding_parts, no batch):
    each nonempty V -> f_V, a KernelFunction of arity |V| with coordinates in
    the sorted order of V, and the empty set -> the constant f_emptyset."""
    _check_shape(f, mu)
    parts = hoeffding_parts(f.table, mu.weights, f.k)
    return {V: KernelFunction(t) if V else float(t) for V, t in parts.items()}
