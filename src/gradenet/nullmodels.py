"""Randomized graph families used as null models.

Three families: Erdos-Renyi G(n, m), degree-preserving switch
randomization, and random geometric graphs that join the m closest pairs
of n uniform points in the unit square. ER and GRG are one draw with
different pair keys, so both have exactly m edges in every replicate.
`MODELS` names them. Every family draws a (size, n, n) stack of replicates
from one seeded generator; a stack of k holds the k replicates that k
successive stacks of one would give, so an ensemble drawn a stack at a time
does not depend on the stack sizes. ER and GRG replicates are independent.
A DEGSEQ ensemble is one `SwapChain`: a burn-in of ceil(swap_multiplier * m)
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

MODELS = ("er", "degseq", "grg")

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

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.path))


@dataclass(frozen=True)
class NullModelSpec:
    """Parameters of one randomized-graph family.

    kind: the model name, "er" or "grg" (n, m), or "degseq" (source
    adjacency, burn-in swap proposals per edge).
    """

    kind: str
    n: int = 0
    m: int = 0
    source: np.ndarray | None = field(default=None, compare=False)
    swap_multiplier: float = 10.0


def max_edges(n: int) -> int:
    return n * (n - 1) // 2


def _smallest_pairs(n: int, m: int, size: int, draw_keys) -> np.ndarray:
    """A (size, n, n) bool stack; each graph joins the pairs of its m smallest keys.

    `draw_keys()` returns a (size, C(n, 2)) array, one key per pair i < j in
    row-major order of the strict upper triangle; it is not called when
    m == 0. The selection is an `argpartition`, so each graph has exactly m
    edges even where keys tie.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    a = np.zeros((size, n, n), dtype=bool)
    if m == 0:
        return a
    keys = draw_keys()
    upper = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(upper, np.argpartition(keys, m - 1, axis=-1)[..., :m], True, axis=-1)
    a[..., ~np.tri(n, dtype=bool)] = upper  # the strict upper triangle, filled in row-major order
    return a | a.swapaxes(-1, -2)


def er_gnm(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform simple graphs with exactly n nodes and m edges, as bool adjacencies.

    A (size, n, n) stack of independent graphs. A graph draws one uniform
    key per pair, so every m-subset of pairs is equally likely.
    """
    return _smallest_pairs(n, m, size, lambda: rng.random((size, max_edges(n))))


def random_geometric(n: int, m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """n uniform points in the unit square, the m closest pairs joined.

    Euclidean, non-toroidal: the random geometric graph whose radius is the
    distance of its m-th closest pair. A (size, n, n) stack of independent
    bool adjacencies; a graph's pair keys are its squared pair distances.
    """

    def squared_distances():
        x, y = np.moveaxis(rng.random((size, n, 2)), -1, 0)
        dx = x[..., :, None] - x[..., None, :]
        dy = y[..., :, None] - y[..., None, :]
        return (dx * dx + dy * dy)[..., ~np.tri(n, dtype=bool)]

    return _smallest_pairs(n, m, size, squared_distances)


# the families whose spec is (kind, n, m) and whose draw is `_smallest_pairs`
_PAIR_KEYS = {"er": er_gnm, "grg": random_geometric}


class SwapChain:
    """One degree-preserving double-edge-swap chain on a symmetric 0/1 adjacency.

    A proposal picks two edges (a, b) and (c, d), each with a uniform
    orientation, and rewires them to (a, d) and (c, b) iff the four endpoints
    are distinct and neither replacement edge exists; a rejected proposal is
    a step that keeps the graph, so the chain's stationary law is uniform
    over the simple graphs with the source's degree sequence. Edges are
    numbered (i, j), i < j, in row-major order of the source.

    The first sample runs ceil(swap_multiplier * m) proposals of burn-in
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Run the chain to its next `size` samples, as a new (size, n, n) bool stack."""
        n = len(self._rows)
        out = np.empty((size, n * n), dtype=bool)
        for replicate in out:
            if len(self._ends) >= 4:  # a swap needs two edges
                _swap(self._ends, self._rows, self._next, rng)
            self._next = self._gap
            replicate[:] = np.frombuffer(b"".join(self._rows), dtype=bool)
        return out.reshape(size, n, n)


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


def spec_for(model: str, a: np.ndarray, swap_multiplier: float = 10.0) -> NullModelSpec:
    """Build the null-model spec matched to an empirical graph's symmetric 0/1 adjacency."""
    n = len(a)
    m = int(np.count_nonzero(a)) // 2
    if model in _PAIR_KEYS:
        return NullModelSpec(model, n=n, m=m)
    if model == "degseq":
        return NullModelSpec(model, n=n, m=m, source=a, swap_multiplier=swap_multiplier)
    raise InvalidArgumentError(f"unknown null model {model!r}")


def generate_null(
    spec: NullModelSpec, rng: np.random.Generator, size: int, chain: SwapChain | None = None
) -> np.ndarray:
    """Draw a (size, n, n) bool stack of replicates from a null-model family.

    A DEGSEQ draw takes the next samples of `chain`, which must be a
    `SwapChain` built from spec.source and spec.swap_multiplier. ER and GRG
    ignore `chain`.
    """
    if spec.kind in _PAIR_KEYS:
        return _PAIR_KEYS[spec.kind](spec.n, spec.m, rng, size)
    if spec.kind == "degseq":
        if (
            chain is None
            or chain.source is not spec.source
            or chain.swap_multiplier != spec.swap_multiplier
        ):
            raise InvalidArgumentError("swap chain was not built from this DEGSEQ spec")
        return chain.sample(rng, size)
    raise InvalidArgumentError(f"unknown null model {spec.kind!r}")
