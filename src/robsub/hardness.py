"""Clique-gadget instances for rank-k subspace fitting, with exact oracles.

The construction turns an r-regular graph on d vertices into a point set
whose best coordinate k-subspace encodes whether the graph has a k-clique:
many copies of the standard simplex pin the optimum to coordinate
subspaces, and a normalized adjacency block makes subspaces through more
tightly connected vertex sets slightly cheaper.  Costs over coordinate
subspaces have closed forms, so small instances double as rich correctness
fixtures: closed form vs naive distance sums, exhaustive minima, and a
lower bound for perturbed (non-coordinate) subspaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import Subspace

_BRUTE_CAP = 10**6
_EXPLICIT_ROWS = 100_000


def regular_degree(adjacency: np.ndarray) -> int:
    """Degree of an r-regular 0/1 symmetric adjacency matrix; raises otherwise."""
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0/1")
    if np.any(np.diag(adj) != 0):
        raise ValueError("adjacency must have an empty diagonal")
    degrees = adj.sum(axis=1)
    if degrees.size == 0 or not np.all(degrees == degrees[0]):
        raise ValueError("graph is not regular")
    r = int(degrees[0])
    if r < 1:
        raise ValueError("graph must have degree >= 1")
    return r


@dataclass(frozen=True)
class GadgetInstance:
    """Point set: b2 implicit copies of the simplex plus unit adjacency rows."""

    adjacency: np.ndarray
    a: np.ndarray          # d x d normalized adjacency block, unit rows
    d: int
    r: int
    k: int
    b1: float
    b2: int
    c: float

    def explicit_points(self) -> np.ndarray:
        """Materialize the full point set, of at most ``_EXPLICIT_ROWS`` rows (tiny b2)."""
        total = self.b2 * self.d + self.d
        if total > _EXPLICIT_ROWS:
            raise ValueError(f"point set has {total} rows; refusing to materialize")
        simplex = np.tile(np.eye(self.d), (self.b2, 1))
        return np.vstack([simplex, self.a])


def gen_gadget(adjacency: np.ndarray, k: int, b1: float = 1e4, b2: int = 10**6) -> GadgetInstance:
    """Build the gadget for an r-regular graph; requires 1 <= k <= r.

    Diagonal entries of the adjacency block are 1 - 1/b1; edge entries are
    c / sqrt(b1 r) with c chosen so every row has unit Euclidean norm:
    (1 - 1/b1)^2 + c^2 / b1 = 1.
    """
    adj = np.asarray(adjacency, dtype=float)
    r = regular_degree(adj)
    d = adj.shape[0]
    if not (1 <= k <= r):
        raise ValueError(f"k={k} outside [1, r={r}]")
    if b1 <= 1.0:
        raise ValueError("b1 must exceed 1")
    if b2 < 1:
        raise ValueError("b2 must be >= 1")
    c = math.sqrt(2.0 - 1.0 / b1)
    a = adj * (c / math.sqrt(b1 * r))
    np.fill_diagonal(a, 1.0 - 1.0 / b1)
    return GadgetInstance(adj.astype(int), a, d, r, int(k), float(b1), int(b2), c)


def _edges_into(inst: GadgetInstance, s: np.ndarray) -> np.ndarray:
    """e(i, S): number of neighbors of each vertex i inside S (excluding i)."""
    return inst.adjacency[:, s].sum(axis=1)


def coordinate_subspace_cost(inst: GadgetInstance, s: Sequence[int], p: float) -> float:
    """Exact cost of the coordinate subspace span{e_j : j in S} via closed forms.

    The simplex copies contribute b2 * (d - k).  An adjacency row with
    i in S keeps (1-1/b1)^2 + e(i,S) c^2/(b1 r) of its squared norm; a row
    with i outside S keeps e(i,S) c^2/(b1 r).
    """
    s_arr = np.asarray(sorted(s), dtype=int)
    if s_arr.size != inst.k or np.unique(s_arr).size != inst.k:
        raise ValueError(f"index set must have exactly k={inst.k} distinct members")
    if s_arr.min() < 0 or s_arr.max() >= inst.d:
        raise ValueError("index out of range")
    e = _edges_into(inst, s_arr)
    captured = e * inst.c**2 / (inst.b1 * inst.r)
    in_s = np.zeros(inst.d, dtype=bool)
    in_s[s_arr] = True
    captured[in_s] += (1.0 - 1.0 / inst.b1) ** 2
    resid = np.clip(1.0 - captured, 0.0, None) ** (p / 2.0)
    return float(inst.b2 * (inst.d - inst.k) + resid.sum())


def brute_force_best_coordinate(inst: GadgetInstance, p: float) -> Tuple[tuple, float]:
    """Exhaustive minimum over all coordinate k-subsets (lexicographic ties)."""
    if math.comb(inst.d, inst.k) > _BRUTE_CAP:
        raise ValueError(f"C({inst.d},{inst.k}) exceeds the enumeration cap")
    best_set, best_cost = None, math.inf
    for s in itertools.combinations(range(inst.d), inst.k):
        cost = coordinate_subspace_cost(inst, s, p)
        if cost < best_cost - 1e-15:
            best_set, best_cost = s, cost
    return best_set, best_cost


def clique_margin_bound(inst: GadgetInstance, p: float) -> float:
    """Additive cost margin separating clique from no-clique instances."""
    k, r = inst.k, inst.r
    return (2.0 / inst.b1) ** (p / 2.0) * (
        (1.0 - (k - 2) / r) ** (p / 2.0) - (1.0 - (k - 1) / r) ** (p / 2.0)
    )


def adjacency_excess(inst: GadgetInstance, cost: float) -> float:
    """Cost with the structural baseline b2 (d-k) + (d-k) removed.

    Comparable across instances of different sizes: it isolates the
    clique-sensitive part contributed by the adjacency rows.
    """
    return cost - inst.b2 * (inst.d - inst.k) - (inst.d - inst.k)


def perturbed_simplex_cost(d: int, k: int, v_k_plus_1: float, p: float) -> float:
    """Lower bound on the simplex cost of a subspace whose (k+1)-st largest
    squared row norm is v: (d - k) + ((1-v)^(p/2) + v^(p/2) - 1)."""
    if not (0.0 <= v_k_plus_1 <= 1.0 - 1.0 / (k + 1) + 1e-12):
        raise ValueError(f"v={v_k_plus_1} outside [0, 1 - 1/(k+1)]")
    v = v_k_plus_1
    return (d - k) + ((1.0 - v) ** (p / 2.0) + v ** (p / 2.0) - 1.0)


# ---------------------------------------------------------------------------
# naive oracles and reference subspace costs


def simplex_cost(v: Subspace | np.ndarray, p: float) -> float:
    """Direct cost of fitting the d simplex vertices with a subspace."""
    u = v.u if isinstance(v, Subspace) else np.asarray(v)
    lev = np.sum(u * u, axis=1)  # ||V_{i,*}||^2, the captured mass per vertex
    return float(np.sum(np.clip(1.0 - lev, 0.0, None) ** (p / 2.0)))


def point_set_cost(points: np.ndarray, v: Subspace | np.ndarray, p: float) -> float:
    """Naive sum of p-th-power distances of the rows of ``points`` to the subspace."""
    u = v.u if isinstance(v, Subspace) else np.asarray(v)
    pts = np.asarray(points, dtype=float)
    sq = np.sum(pts * pts, axis=1) - np.sum((pts @ u) ** 2, axis=1)
    return float(np.sum(np.clip(sq, 0.0, None) ** (p / 2.0)))


def naive_instance_cost(inst: GadgetInstance, v: Subspace | np.ndarray, p: float) -> float:
    """Instance cost via direct projector evaluation (simplex counted b2 times)."""
    return inst.b2 * simplex_cost(v, p) + point_set_cost(inst.a, v, p)


# ---------------------------------------------------------------------------
# fixture graphs and edge-list input


def complete_graph(d: int) -> np.ndarray:
    adj = np.ones((d, d), dtype=int)
    np.fill_diagonal(adj, 0)
    return adj


def cycle_graph(d: int) -> np.ndarray:
    adj = np.zeros((d, d), dtype=int)
    idx = np.arange(d)
    adj[idx, (idx + 1) % d] = 1
    adj[(idx + 1) % d, idx] = 1
    return adj


def petersen_graph() -> np.ndarray:
    """The 3-regular triangle-free graph on 10 vertices."""
    adj = np.zeros((10, 10), dtype=int)
    for i in range(5):
        pairs = [(i, (i + 1) % 5), (i, i + 5), (i + 5, 5 + (i + 2) % 5)]
        for u, v in pairs:
            adj[u, v] = adj[v, u] = 1
    return adj


def read_edge_list(path) -> np.ndarray:
    """Parse a whitespace edge list (one 'u v' pair per line, # comments).

    Vertices may be 0- or 1-based; 1-based inputs (no vertex 0) are shifted.
    """
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    flat = [x for e in edges for x in e]
    lo, hi = min(flat), max(flat)
    shift = 1 if lo == 1 else 0
    if lo < 0:
        raise ValueError("negative vertex label")
    d = hi + 1 - shift
    adj = np.zeros((d, d), dtype=int)
    for u, v in edges:
        adj[u - shift, v - shift] = 1
        adj[v - shift, u - shift] = 1
    return adj
