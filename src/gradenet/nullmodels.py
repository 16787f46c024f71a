"""Randomized graph families used as null models.

Three families: Erdos-Renyi G(n, m), degree-preserving switch
randomization, and random geometric graphs in the unit square with a
radius calibrated to hit a target edge count in expectation. All
generators are pure functions of (parameters, seeded generator), so
ensemble replicates can be produced independently and reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from .errors import InvalidArgumentError
from .graph import Graph

# stream index reserved for radius calibration, outside replicate indices
CALIBRATION_STREAM = 0xCA11B


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

    kind: "ER" (n, m), "DEGSEQ" (source graph, swap multiplier) or
    "GRG" (n, radius).
    """

    kind: str
    n: int = 0
    m: int = 0
    source: Graph | None = field(default=None, compare=False)
    swap_multiplier: float = 10.0
    radius: float = 0.0


def max_edges(n: int) -> int:
    return n * (n - 1) // 2


def er_gnm(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform simple graph with exactly n nodes and m edges."""
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    g = Graph(nodes=range(n))
    if m == 0:
        return g
    rows, cols = np.triu_indices(n, k=1)
    chosen = rng.choice(limit, size=m, replace=False)
    for k in chosen:
        g.add_edge(int(rows[k]), int(cols[k]))
    return g


def switch_randomize(
    graph: Graph, swap_multiplier: float = 10.0, rng: np.random.Generator | None = None
) -> Graph:
    """Degree-preserving double-edge-swap randomization.

    Performs ceil(swap_multiplier * m) successful swaps: two edges with four
    distinct endpoints are rewired iff neither replacement edge exists.
    Graphs with no swappable edge pair come back as a plain copy.
    """
    if swap_multiplier <= 0:
        raise InvalidArgumentError("swap multiplier must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    result = graph.copy()
    edges = result.edges()
    m = len(edges)
    if m < 2:
        return result
    target = math.ceil(swap_multiplier * m)
    edge_set = set(edges)
    successes = 0
    attempts = 0
    max_attempts = max(10_000, 200 * target)
    block = 4096
    while successes < target and attempts < max_attempts:
        idx = rng.integers(0, m, size=(block, 2))
        flips = rng.integers(0, 2, size=(block, 2))
        for (i, j), (fi, fj) in zip(idx.tolist(), flips.tolist()):
            attempts += 1
            if successes >= target or attempts > max_attempts:
                break
            if i == j:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if fi:
                a, b = b, a
            if fj:
                c, d = d, c
            if a == c or a == d or b == c or b == d:
                continue
            new1 = (a, d) if a <= d else (d, a)
            new2 = (c, b) if c <= b else (b, c)
            if new1 in edge_set or new2 in edge_set:
                continue
            edge_set.discard(edges[i])
            edge_set.discard(edges[j])
            edge_set.add(new1)
            edge_set.add(new2)
            result.remove_edge(*edges[i])
            result.remove_edge(*edges[j])
            result.add_edge(*new1)
            result.add_edge(*new2)
            edges[i] = new1
            edges[j] = new2
            successes += 1
    return result


def random_geometric(n: int, radius: float, rng: np.random.Generator) -> Graph:
    """Uniform points in the unit square joined when within the radius.

    Euclidean, non-toroidal.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    if radius < 0:
        raise InvalidArgumentError("radius must be non-negative")
    positions = rng.random((n, 2))
    g = Graph(nodes=range(n))
    if n >= 2:
        rows, cols = np.triu_indices(n, k=1)
        close = pdist(positions) <= radius
        for k in np.flatnonzero(close):
            g.add_edge(int(rows[k]), int(cols[k]))
    return g


def calibrate_radius(
    n: int,
    target_m: int,
    rng: np.random.Generator,
    samples: int = 200,
    max_steps: int = 40,
    rel_tol: float = 0.01,
) -> float:
    """Bisect the radius until the Monte Carlo mean edge count hits target_m.

    The probe mean is taken over `samples` fresh point sets (drawn once and
    reused across probes, which keeps the bisection monotone). Stops when
    the mean is within rel_tol of the target or after max_steps bisections.
    """
    limit = max_edges(n)
    if not (0 <= target_m <= limit):
        raise InvalidArgumentError(f"target edge count {target_m} outside [0, {limit}]")
    if target_m == 0:
        return 0.0
    if target_m == limit:
        return math.sqrt(2.0)
    if samples < 50:
        raise InvalidArgumentError("at least 50 samples per probe required")
    distances = [np.sort(pdist(rng.random((n, 2)))) for _ in range(samples)]

    def mean_edges(radius: float) -> float:
        return float(np.mean([np.searchsorted(d, radius, side="right") for d in distances]))

    lo, hi = 0.0, math.sqrt(2.0)
    mid = 0.5 * (lo + hi)
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        mean = mean_edges(mid)
        if abs(mean - target_m) <= rel_tol * target_m:
            return mid
        if mean < target_m:
            lo = mid
        else:
            hi = mid
    return mid


def spec_for(
    model: str, graph: Graph, stream: SeedStream, swap_multiplier: float = 10.0
) -> NullModelSpec:
    """Build the null-model spec matched to an empirical graph."""
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    kind = model.upper()
    if kind == "ER":
        return NullModelSpec(kind="ER", n=n, m=m)
    if kind == "DEGSEQ":
        return NullModelSpec(
            kind="DEGSEQ", n=n, m=m, source=graph, swap_multiplier=swap_multiplier
        )
    if kind == "GRG":
        radius = calibrate_radius(n, m, stream.generator(CALIBRATION_STREAM))
        return NullModelSpec(kind="GRG", n=n, m=m, radius=radius)
    raise InvalidArgumentError(f"unknown null model {model!r}")


def generate_null(spec: NullModelSpec, rng: np.random.Generator) -> Graph:
    """Draw one replicate from a null-model family."""
    if spec.kind == "ER":
        return er_gnm(spec.n, spec.m, rng)
    if spec.kind == "DEGSEQ":
        if spec.source is None:
            raise InvalidArgumentError("DEGSEQ spec requires a source graph")
        return switch_randomize(spec.source, spec.swap_multiplier, rng)
    if spec.kind == "GRG":
        return random_geometric(spec.n, spec.radius, rng)
    raise InvalidArgumentError(f"unknown null model {spec.kind!r}")
