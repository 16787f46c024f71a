"""Randomized graph families used as null models.

Three families: Erdos-Renyi G(n, m), degree-preserving switch
randomization, and random geometric graphs in the unit square with the
radius solved in closed form to hit a target edge count in expectation. ER
and GRG draws are pure functions of (parameters, seeded generator), so
their replicates are independent and reproducible. A DEGSEQ ensemble is one
`SwapChain` on one seeded generator: a burn-in of ceil(swap_multiplier * m)
proposals, then one sample every ceil(SAMPLE_GAP * m) proposals. The
module works on dense adjacency arrays only: a spec is matched to the
empirical graph's symmetric 0/1 adjacency, which DEGSEQ also keeps as its
source, and each replicate is an n x n bool adjacency in the same row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

# Swap proposals per edge between two successive samples of a DEGSEQ chain.
# At 2 the lag-1 autocorrelation of both ensemble statistics measured at
# most 0.08, and lags 5 and 20 within noise (README, step 5).
SAMPLE_GAP = 2.0


@dataclass(frozen=True)
class SeedStream:
    """Hierarchical deterministic RNG streams.

    Identical (base seed, path) always yields an identical generator,
    independent of how many other streams were drawn.
    """

    path: tuple

    @classmethod
    def from_seed(cls, base_seed: int) -> "SeedStream":
        if base_seed < 0:
            raise InvalidArgumentError("base seed must be non-negative")
        return cls((int(base_seed),))

    def child(self, *indices: int) -> "SeedStream":
        return SeedStream(self.path + tuple(int(i) for i in indices))

    def generator(self, *indices: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.path + tuple(int(i) for i in indices))
        )


@dataclass(frozen=True)
class NullModelSpec:
    """Parameters of one randomized-graph family.

    kind: "ER" (n, m), "DEGSEQ" (source adjacency, burn-in swap proposals
    per edge) or "GRG" (n, radius).
    """

    kind: str
    n: int = 0
    m: int = 0
    source: np.ndarray | None = field(default=None, compare=False)
    swap_multiplier: float = 10.0
    radius: float = 0.0


def max_edges(n: int) -> int:
    return n * (n - 1) // 2


def er_gnm(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simple graph with exactly n nodes and m edges, as an n x n bool adjacency."""
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    a = np.zeros((n, n), dtype=bool)
    if m == 0:
        return a
    upper = np.zeros(limit, dtype=bool)
    upper[rng.choice(limit, size=m, replace=False)] = True
    a[~np.tri(n, dtype=bool)] = upper  # the strict upper triangle, filled in row-major order
    return a | a.T


class SwapChain:
    """One degree-preserving double-edge-swap chain on a symmetric 0/1 adjacency.

    A proposal picks two edges (a, b) and (c, d), each with a uniform
    orientation, and rewires them to (a, d) and (c, b) iff the four endpoints
    are distinct and neither replacement edge exists; a rejected proposal is
    a step that keeps the graph, so the chain's stationary law is uniform
    over the simple graphs with the source's degree sequence. Edges are
    numbered (i, j), i < j, in row-major order of the source.

    The first `sample` runs ceil(swap_multiplier * m) proposals of burn-in
    from the source; each later one runs ceil(SAMPLE_GAP * m) more from the
    previous sample. Successive samples are correlated, not independent.
    """

    def __init__(self, a: np.ndarray, swap_multiplier: float):
        if a is None:
            raise InvalidArgumentError("DEGSEQ spec requires a source adjacency")
        if not 0 < swap_multiplier < math.inf:
            raise InvalidArgumentError("swap multiplier must be positive and finite")
        # what the chain was built from, for `generate_null` to check
        self.source, self.swap_multiplier = a, swap_multiplier
        a = np.asarray(a, dtype=bool)
        # edge k is (ends[2k], ends[2k + 1]); slot 2k + flip is the endpoint a
        # flip selects as "first"
        self._ends = np.column_stack(np.nonzero(np.triu(a, 1))).ravel().tolist()
        self._rows = [bytearray(row.tobytes()) for row in a]
        m = len(self._ends) // 2
        self._next = math.ceil(swap_multiplier * m)
        self._gap = math.ceil(SAMPLE_GAP * m)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Run the chain to its next sample and return it as a new n x n bool adjacency."""
        if len(self._ends) >= 4:  # a swap needs two edges
            _swap(self._ends, self._rows, self._next, rng)
        self._next = self._gap
        n = len(self._rows)
        return np.frombuffer(bytearray().join(self._rows), dtype=bool).reshape(n, n)


def _swap(ends: list, rows: list, proposals: int, rng: np.random.Generator) -> None:
    """Run the swap chain in place on the edge endpoints and adjacency rows."""
    m = len(ends) // 2
    block = 4096
    for start in range(0, proposals, block):
        size = min(block, proposals - start)
        slots = 2 * rng.integers(0, m, size=(size, 2)) + rng.integers(0, 2, size=(size, 2))
        # slot s ^ 1 is the other end of the edge whose end slot s holds
        first, second = slots.T
        columns = first.tolist(), (first ^ 1).tolist(), second.tolist(), (second ^ 1).tolist()
        for p, pp, q, qq in zip(*columns):
            a = ends[p]
            b = ends[pp]
            c = ends[q]
            d = ends[qq]
            # the four ends must be distinct; a == c makes (a, d) the edge
            # (c, d) and b == d makes (c, b) that edge, so the adjacency test
            # rejects those two, and a repeated edge meets one of the four
            if a == d or b == c:
                continue
            row_a = rows[a]
            row_c = rows[c]
            if row_a[d] or row_c[b]:
                continue
            row_b = rows[b]
            row_d = rows[d]
            row_a[b] = row_b[a] = row_c[d] = row_d[c] = 0
            row_a[d] = row_d[a] = row_c[b] = row_b[c] = 1
            ends[pp] = d
            ends[qq] = b


def random_geometric(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit square joined when within the radius.

    Euclidean, non-toroidal. Returns the n x n bool adjacency.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    if radius < 0:
        raise InvalidArgumentError("radius must be non-negative")
    x, y = rng.random((n, 2)).T
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    a = np.sqrt(dx * dx + dy * dy) <= radius
    np.fill_diagonal(a, False)
    return a


def _pair_distance_cdf(r: float) -> float:
    """P(|X - Y| <= r) for X, Y independent and uniform in the unit square.

    Closed form (Philip 2007; Penrose 2003, Random Geometric Graphs).
    """
    r2 = r * r
    if r <= 1.0:
        return math.pi * r2 - 8.0 * r2 * r / 3.0 + r2 * r2 / 2.0
    return (
        1.0 / 3.0
        - 2.0 * r2
        - r2 * r2 / 2.0
        + 4.0 / 3.0 * (2.0 * r2 + 1.0) * math.sqrt(r2 - 1.0)
        + 2.0 * r2 * (math.asin(1.0 / r) - math.acos(1.0 / r))
    )


def calibrate_radius(n: int, target_m: int) -> float:
    """Smallest radius in [0, sqrt(2)] whose expected GRG edge count reaches target_m.

    A GRG on n points has C(n, 2) * F(r) edges in expectation, F being the
    pair-distance CDF. Bisection runs until its bounds are adjacent floats.
    """
    limit = max_edges(n)
    if not (0 <= target_m <= limit):
        raise InvalidArgumentError(f"target edge count {target_m} outside [0, {limit}]")
    if target_m == 0:
        return 0.0
    if target_m == limit:
        return math.sqrt(2.0)
    lo, hi = 0.0, math.sqrt(2.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if limit * _pair_distance_cdf(mid) >= target_m:
            hi = mid
        else:
            lo = mid


def spec_for(model: str, a: np.ndarray, swap_multiplier: float = 10.0) -> NullModelSpec:
    """Build the null-model spec matched to an empirical graph's symmetric 0/1 adjacency."""
    n = len(a)
    m = int(np.count_nonzero(a)) // 2
    kind = model.upper()
    if kind == "ER":
        return NullModelSpec(kind="ER", n=n, m=m)
    if kind == "DEGSEQ":
        return NullModelSpec(kind="DEGSEQ", n=n, m=m, source=a, swap_multiplier=swap_multiplier)
    if kind == "GRG":
        return NullModelSpec(kind="GRG", n=n, m=m, radius=calibrate_radius(n, m))
    raise InvalidArgumentError(f"unknown null model {model!r}")


def generate_null(
    spec: NullModelSpec, rng: np.random.Generator, chain: SwapChain | None = None
) -> np.ndarray:
    """Draw one replicate from a null-model family as an n x n bool adjacency.

    A DEGSEQ draw is the next sample of `chain`, which must be a `SwapChain`
    built from spec.source and spec.swap_multiplier. ER and GRG ignore
    `chain`.
    """
    if spec.kind == "ER":
        return er_gnm(spec.n, spec.m, rng)
    if spec.kind == "DEGSEQ":
        if (
            chain is None
            or chain.source is not spec.source
            or chain.swap_multiplier != spec.swap_multiplier
        ):
            raise InvalidArgumentError("swap chain was not built from this DEGSEQ spec")
        return chain.sample(rng)
    if spec.kind == "GRG":
        return random_geometric(spec.n, spec.radius, rng)
    raise InvalidArgumentError(f"unknown null model {spec.kind!r}")
