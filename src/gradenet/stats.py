"""Correlations, node-metric extraction, and ensemble z-scores.

Pearson, Spearman (midranks) and Kendall tau-b, each with the usual
approximate two-sided p-value; the degree-vs-betweenness and
clustering-vs-betweenness correlations that serve as randomness probes;
and z = (X - mu) / sigma against null-model ensembles. Both probes come
back as the report's {statistic: cell} dicts, so the pipeline writes them
as they are. An ensemble's replicates are drawn and measured first; the
replicates of each vector length are then ranked (for Spearman) and
correlated together. Pearson, on one vector pair or on a stack of them,
is `_row_pearson`, whose sums are numpy's own row dot products: no BLAS
kernel enters them, so a value does not depend on which kernel runs.
Kendall, likewise, is `_row_kendall` on one pair or on a stack, whose
sums are exact integer counts.

The p-values come from the special functions imported below: twice the
Student t tail `stdtr(n - 2, -|t|)` for Pearson and Spearman, twice the
normal tail `ndtr(-|z|)` for Kendall. The `sf` of the t and normal
distributions evaluates these same functions, so the p-values equal
theirs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import InsufficientDataError, InvalidArgumentError, UndefinedCorrelationError
from .graph import _dense_betweenness, _dense_clustering
from .nullmodels import NullModelSpec, SeedStream, SwapChain, generate_null

STATISTICS = ("COR_D_BC", "COR_CC_BC")

# Index pairs i < j per chunk of `_row_kendall`, over all the chunk's rows:
# this bounds its sign arrays to 512 KiB each, whatever the stack's height.
_KENDALL_PAIRS = 1 << 16


@dataclass(frozen=True)
class CorrelationResult:
    value: float
    p_value: float
    sample_size: int


def midranks(values) -> np.ndarray:
    """Ranks starting at 1, ties receiving the average of their positions."""
    return _row_midranks(np.asarray(values, dtype=float)[None])[0]


def _row_midranks(v: np.ndarray) -> np.ndarray:
    """`midranks` of each row of a 2-D array, in a fixed number of numpy calls.

    A row's tie group spans sorted positions first..last, found by running
    max and min over the group bounds; each member gets (first + last) / 2 + 1.
    """
    k = v.shape[1]
    order = np.argsort(v, axis=1, kind="stable")
    ordered = np.take_along_axis(v, order, axis=1)
    starts = np.ones(v.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    stops = np.ones(v.shape, dtype=bool)
    stops[:, :-1] = starts[:, 1:]
    position = np.arange(k)
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(stops, position, k - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(v.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=1)
    return ranks


def _check_samples(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InvalidArgumentError("sequences must have equal length")
    if len(x) < 3:
        raise InvalidArgumentError("at least 3 observations required")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgumentError("correlation arguments must be finite")
    return x, y


def _t_p_value(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def pearson(x, y) -> CorrelationResult:
    x, y = _check_samples(x, y)
    r = float(_row_pearson(x[None], y[None])[0])
    if math.isnan(r):
        raise UndefinedCorrelationError("zero variance in a correlation argument")
    return CorrelationResult(r, _t_p_value(r, len(x)), len(x))


def spearman(x, y) -> CorrelationResult:
    x, y = _check_samples(x, y)
    return pearson(midranks(x), midranks(y))


def kendall(x, y) -> CorrelationResult:
    """Tau-b with tie correction; p-value from the normal approximation."""
    x, y = _check_samples(x, y)
    n = len(x)
    tau, num = (float(v[0]) for v in _row_kendall(x[None], y[None]))
    if math.isnan(tau):
        raise UndefinedCorrelationError("all-tied sequence in kendall tau")

    def tie_sizes(values):
        _, counts = np.unique(values, return_counts=True)
        return counts.astype(float)

    t_sizes = tie_sizes(x)
    u_sizes = tie_sizes(y)
    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((t_sizes * (t_sizes - 1) * (2 * t_sizes + 5)).sum())
    vu = float((u_sizes * (u_sizes - 1) * (2 * u_sizes + 5)).sum())
    v1 = (
        float((t_sizes * (t_sizes - 1)).sum())
        * float((u_sizes * (u_sizes - 1)).sum())
        / (2.0 * n * (n - 1))
    )
    v2 = (
        float((t_sizes * (t_sizes - 1) * (t_sizes - 2)).sum())
        * float((u_sizes * (u_sizes - 1) * (u_sizes - 2)).sum())
        / (9.0 * n * (n - 1) * (n - 2))
    )
    # null variance of num: positive, as both samples are finite and not all tied
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    p = float(2.0 * ndtr(-abs(num) / math.sqrt(var)))
    return CorrelationResult(tau, min(1.0, p), n)


_CORRELATIONS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}


def correlation(x, y, kind: str) -> CorrelationResult:
    try:
        fn = _CORRELATIONS[kind]
    except KeyError:
        raise InvalidArgumentError(f"unknown correlation kind {kind!r}") from None
    return fn(x, y)


def metric_vectors(a: np.ndarray):
    """(degree, clustering, betweenness) arrays over the non-isolated rows.

    `a` is a symmetric 0/1 adjacency matrix. The metrics are computed on the
    whole matrix and then restricted, so isolated rows change no value.
    """
    a = np.asarray(a, dtype=float)
    deg = a.sum(axis=1)
    keep = deg > 0
    count = int(keep.sum())
    if count < 3:
        raise InsufficientDataError(f"need at least 3 non-isolated nodes, got {count}")
    bc = _dense_betweenness(a, edges=False)[0]
    return deg[keep], _dense_clustering(a)[keep], bc[keep]


def node_metric_correlations(a: np.ndarray, kind: str = "spearman") -> dict:
    """{statistic: cell} of COR_D_BC and COR_CC_BC over the non-isolated rows.

    `a` is a graph's symmetric 0/1 adjacency matrix. A cell is {"value",
    "p_value", "n"}, or {"undefined": "constant metric vector"} for a
    statistic whose metric vector is constant. Raises InsufficientDataError
    below 3 non-isolated nodes.
    """
    deg, cvec, bvec = metric_vectors(a)
    cells = {}
    for name, x in zip(STATISTICS, (deg, cvec)):
        try:
            result = correlation(x, bvec, kind)
        except UndefinedCorrelationError:
            cells[name] = {"undefined": "constant metric vector"}
        else:
            n = result.sample_size
            cells[name] = {"value": result.value, "p_value": result.p_value, "n": n}
    return cells


def _row_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson's r of each row pair of two 2-D arrays; NaN where a row is constant.

    The sums are `einsum` row dot products, which numpy evaluates in its
    own fixed order, never in BLAS. On midranks, whose deviations from the
    mean (k + 1) / 2 are half-integers, every sum is exact.
    """
    xc, vx = _centred(x)
    yc, vy = _centred(y)
    with np.errstate(over="ignore"):
        product = vx * vy
    # where the product is subnormal, 0 or inf, as with spreads near 1e-80 or 1e80
    normal = (product >= np.finfo(float).tiny) & (product < np.inf)
    scale = np.where(normal, np.sqrt(product), np.sqrt(vx) * np.sqrt(vy))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.einsum("ij,ij->i", xc, yc) / scale
    defined = (vx != 0.0) & (vy != 0.0)
    return np.where(defined, np.minimum(1.0, np.maximum(-1.0, r)), np.nan)


def _centred(v: np.ndarray) -> tuple:
    """Each row of a 2-D array less its mean, and the row's sum of squares of those.

    A row whose sum of squares overflows, as with spreads near 1e155, or is
    subnormal or 0 though the row is not constant, as with spreads near
    1e-155, is first scaled by a power of two that brings its largest value
    into [0.5, 1). The scaling is exact, and r does not depend on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vc = v - v.mean(axis=1, keepdims=True)
        squares = np.einsum("ij,ij->i", vc, vc)
    small = (squares < np.finfo(float).tiny) & (v.min(axis=1) != v.max(axis=1))
    odd = small | ~np.isfinite(squares)
    if odd.any():
        scaled = np.ldexp(v[odd], -np.frexp(np.abs(v[odd]).max(axis=1, keepdims=True))[1])
        vc[odd] = scaled - scaled.mean(axis=1, keepdims=True)
        squares[odd] = np.einsum("ij,ij->i", vc[odd], vc[odd])
    return vc, squares


def _row_kendall(x: np.ndarray, y: np.ndarray) -> tuple:
    """(tau-b, concordant minus discordant pairs) of each row pair of two 2-D arrays.

    Tau-b is NaN where a row is all tied. The signs of the pairs i < j are
    taken a chunk of rows at a time, at most `_KENDALL_PAIRS` pairs but at
    least one row. Every sum is an integer count, exact in a float.
    """
    i, j = np.triu_indices(x.shape[1], k=1)
    num, tx, ty = np.empty((3, len(x)))
    pairs = len(i)  # n (n - 1) / 2
    step = max(1, _KENDALL_PAIRS // pairs)
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        dx = np.sign(x[rows, i] - x[rows, j])
        dy = np.sign(y[rows, i] - y[rows, j])
        num[rows] = np.einsum("ij,ij->i", dx, dy)
        tx[rows], ty[rows] = np.count_nonzero(dx == 0, axis=1), np.count_nonzero(dy == 0, axis=1)
    denom = np.sqrt((pairs - tx) * (pairs - ty))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.minimum(1.0, np.maximum(-1.0, num / denom))
    return np.where(denom == 0.0, np.nan, tau), num


def _replicate_values(vectors: list, kind: str, names) -> dict:
    """{statistic: one value per replicate, NaN where undefined} for the statistics in `names`.

    `vectors` holds each replicate's `metric_vectors`, or None for a
    replicate with fewer than 3 non-isolated nodes. The replicates of each
    vector length are stacked, midranked for Spearman, and correlated in
    one kernel call per statistic.
    """
    values = {name: np.full(len(vectors), np.nan) for name in names}
    if not names:
        return values
    rank = _row_midranks if kind == "spearman" else np.asarray
    kernel = (lambda x, y: _row_kendall(x, y)[0]) if kind == "kendall" else _row_pearson
    by_length: dict = {}
    for i, triple in enumerate(vectors):
        if triple is not None:
            by_length.setdefault(len(triple[0]), []).append(i)
    for indices in by_length.values():
        # betweenness is ranked once for both statistics
        bvec = rank(np.array([vectors[i][2] for i in indices]))
        for name in names:
            column = STATISTICS.index(name)
            x = rank(np.array([vectors[i][column] for i in indices]))
            values[name][indices] = kernel(x, bvec)
    return values


def _lag1_autocorrelation(values: np.ndarray, mean: float) -> float:
    """Lag-1 sample autocorrelation of a sequence about its mean, summed with `math.fsum`."""
    d = values - mean
    return math.fsum((d[:-1] * d[1:]).tolist()) / math.fsum((d * d).tolist())


def ensemble_zscores(
    empirical: dict,
    spec: NullModelSpec,
    replicates: int,
    kind: str = "spearman",
    *,
    stream: SeedStream,
) -> dict:
    """{statistic: cell} z-scores of the empirical cells against a null ensemble.

    `empirical` is `node_metric_correlations` of the adjacency that `spec`
    describes. ER and GRG draw replicate i from `stream.generator(i)`.
    DEGSEQ draws the whole ensemble from one `SwapChain` on
    `stream.generator()`: a burn-in of ceil(spec.swap_multiplier * m)
    proposals, then one replicate every ceil(SAMPLE_GAP * m) proposals.
    Every replicate's metric vectors are collected first, then each
    statistic whose empirical cell is defined is evaluated on all of them
    by `_replicate_values`, with the same formula as the empirical cell;
    undefined replicate values are dropped and counted. A defined cell is
    {"empirical", "mean", "std", "z", "dropped", "replicates"}; a DEGSEQ
    cell adds "lag1_autocorrelation", of its defined values in chain
    order. A statistic whose empirical cell is undefined, that loses more
    than half its replicates or whose ensemble has zero spread gets
    {"undefined": reason}.
    """
    if replicates < 2:
        raise InvalidArgumentError("at least 2 replicates required")
    chain = rng = None
    if spec.kind == "DEGSEQ":
        chain, rng = SwapChain(spec.source, spec.swap_multiplier), stream.generator()
    vectors = []
    for i in range(replicates):
        replica = generate_null(spec, stream.generator(i) if chain is None else rng, chain)
        try:
            vectors.append(metric_vectors(replica))
        except InsufficientDataError:
            vectors.append(None)
    # a statistic whose empirical cell is undefined has no z, so no replicate values
    names = [name for name in STATISTICS if "undefined" not in empirical[name]]
    values = _replicate_values(vectors, kind, names)

    cells = {}
    for name in STATISTICS:
        if name not in values:
            cells[name] = {"undefined": "empirical correlation undefined"}
            continue
        vals = values[name][~np.isnan(values[name])]
        dropped = replicates - len(vals)
        if dropped * 2 > replicates:
            reason = f"degenerate: {dropped} of {replicates} replicates undefined"
            cells[name] = {"undefined": reason}
        elif vals.min() == vals.max():
            # np.std of equal values can come out as 1e-16, not 0
            cells[name] = {"undefined": "zero ensemble standard deviation"}
        else:
            value, mean, std = empirical[name]["value"], float(vals.mean()), float(vals.std())
            cells[name] = {
                "empirical": value,
                "mean": mean,
                "std": std,
                "z": (value - mean) / std,
                "dropped": dropped,
                "replicates": replicates,
            }
            if chain is not None:
                cells[name]["lag1_autocorrelation"] = _lag1_autocorrelation(vals, mean)
    return cells
