"""Node-metric extraction, the correlations between them, and ensemble z-scores.

The degree-vs-betweenness and clustering-vs-betweenness correlations
(Pearson, Spearman on midranks, or Kendall tau-b) serve as randomness
probes, scored as z = (X - mu) / sigma against null-model ensembles. Both
probes come back as the report's {statistic: cell} dicts, so the pipeline
writes them as they are. An ensemble is drawn and measured a stack of
replicates at a time (`_STACK_ENTRIES`); its metric rows are then ranked
(for Spearman) together, and the replicates with equal numbers of
non-isolated nodes are correlated together by `_replicate_values`. An
empirical cell is the same computation on a stack of one. Pearson is
`_row_pearson`, whose sums are numpy's own row dot products: no BLAS
kernel enters them, so a value does not depend on which kernel runs.
Kendall is `_row_kendall`, whose sums are exact integer counts.

Both kernels take only the kept metric rows of a graph with k non-isolated
nodes, or their midranks: degrees, integers in [1, k - 1]; clustering, 0
or a value in [2 / ((k - 1)(k - 2)), 1]; betweenness, 0 or a value in
[1 / (k - 2), (k - 1)(k - 2) / 2]; midranks, half-integers in [1, k]. So
no difference of two values overflows, and for any k below about 1e30 a
non-constant row's sum of squared deviations, and the product of two such
sums, is a normal float; the kernels need no rescaling.

The empirical p-values come from the special functions imported below:
twice the Student t tail `stdtr(n - 2, -|t|)` for Pearson and Spearman,
twice the normal tail `ndtr(-|z|)` for Kendall. The `sf` of the t and
normal distributions evaluates these same functions, so the p-values
equal theirs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import InsufficientDataError, InvalidArgumentError
from .graph import _dense_betweenness, _dense_clustering
from .nullmodels import NullModelSpec, SeedStream, SwapChain, generate_null

STATISTICS = ("COR_D_BC", "COR_CC_BC")
# the correlation kinds, by name: `--corr` and `AnalysisConfig` accept these
CORRELATIONS = ("pearson", "spearman", "kendall")

# Index pairs i < j per chunk of `_row_kendall`, over all the chunk's rows:
# this bounds its sign arrays to 512 KiB each, whatever the stack's height.
_KENDALL_PAIRS = 1 << 16
# Adjacency entries per stack of replicates that `ensemble_zscores` draws and
# measures at once: k n^2 <= 2^13, but at least one replicate. A stack's
# float arrays are then at most 64 KiB each, and each numpy call of the
# Brandes sweep serves k replicates. Per ER replicate (drawn, measured and
# scored) this took 51-52 us at (n, m) = (28, 150), k = 10, against 135-209
# us one at a time, and 210-295 us at (60, 600), k = 2, against 243-362 us;
# stacks of 2^14 or 2^15 entries were slower at both sizes.
_STACK_ENTRIES = 1 << 13


def _row_midranks(v: np.ndarray) -> np.ndarray:
    """Midranks of each row of a 2-D array: ranks from 1, ties averaging their positions.

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


def _t_p_value(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def _kendall_p_value(num: float, x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided p-value of Kendall's concordant minus discordant pairs `num` of x and y.

    The null variance of `num` is tie-corrected, and positive, as neither
    sample is all tied.
    """
    n = len(x)
    t_sizes, u_sizes = (np.unique(v, return_counts=True)[1].astype(float) for v in (x, y))
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
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    return float(2.0 * ndtr(-abs(num) / math.sqrt(var)))


def metric_vectors(a: np.ndarray) -> tuple:
    """(degree, clustering, betweenness, keep) of a symmetric 0/1 adjacency matrix.

    `a` is one matrix (n, n) or a stack (..., n, n). Each metric holds one
    value per row (..., n), and `keep` marks the non-isolated rows, which
    the correlations read: isolated rows change no kept value.
    """
    a = np.asarray(a, dtype=float)
    deg = a.sum(axis=-1)
    return deg, _dense_clustering(a), _dense_betweenness(a, edges=False)[0], deg > 0


def node_metric_correlations(a: np.ndarray, kind: str = "spearman") -> dict:
    """{statistic: cell} of COR_D_BC and COR_CC_BC over the non-isolated rows.

    `a` is a graph's symmetric 0/1 adjacency matrix, scored as a stack of
    one replicate by `_replicate_values`, so with the ensemble's formula.
    A cell is {"value", "p_value", "n"}, or {"undefined": "constant metric
    vector"} for a statistic whose metric vector is constant. Raises
    InsufficientDataError below 3 non-isolated nodes.
    """
    if kind not in CORRELATIONS:
        raise InvalidArgumentError(f"unknown correlation kind {kind!r}")
    metrics = metric_vectors(np.asarray(a)[None])
    keep = metrics[3][0]
    n = int(keep.sum())
    if n < 3:
        raise InsufficientDataError(f"need at least 3 non-isolated nodes, got {n}")
    values, nums = _replicate_values(metrics, kind, STATISTICS)
    bvec = metrics[2][0][keep]
    cells = {}
    for name, rows in zip(STATISTICS, metrics):
        r = float(values[name][0])
        if math.isnan(r):
            cells[name] = {"undefined": "constant metric vector"}
            continue
        if kind == "kendall":
            p = _kendall_p_value(float(nums[name][0]), rows[0][keep], bvec)
        else:
            p = _t_p_value(r, n)
        cells[name] = {"value": r, "p_value": p, "n": n}
    return cells


def _row_pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson's r of each row pair of two 2-D arrays; NaN where a row is constant.

    r = sum(xy) / sqrt(sum(xx) sum(yy)) of the rows less their means, from
    `einsum` row dot products, which numpy evaluates in its own fixed order,
    never in BLAS. The rows are node metrics of a graph or their midranks
    (module docstring), so every non-constant row's sum of squares and the
    product of two of them are normal floats. On midranks, whose deviations
    from the mean (k + 1) / 2 are half-integers, every sum is exact.
    """
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    vx, vy = np.einsum("ij,ij->i", xc, xc), np.einsum("ij,ij->i", yc, yc)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.einsum("ij,ij->i", xc, yc) / np.sqrt(vx * vy)
    # a constant row whose mean rounds, as [0.1] * 3, has residues and vx > 0
    defined = (x.min(axis=1) != x.max(axis=1)) & (y.min(axis=1) != y.max(axis=1))
    return np.where(defined, np.minimum(1.0, np.maximum(-1.0, r)), np.nan)


def _row_kendall(x: np.ndarray, y: np.ndarray) -> tuple:
    """(tau-b, concordant minus discordant pairs) of each row pair of two 2-D arrays.

    Tau-b is NaN where a row is all tied. The signs of x_i - x_j over the
    pairs i < j are taken a chunk of rows at a time, at most `_KENDALL_PAIRS`
    pairs but at least one row. The rows are node metrics of a graph (module
    docstring), so no difference overflows. Every sum is an integer count,
    exact in a float.
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


def _replicate_values(metrics: tuple, kind: str, names) -> tuple:
    """({statistic: r per replicate}, {statistic: num per replicate}) for the statistics in `names`.

    `metrics` holds the (R, n) degree, clustering and betweenness rows and
    the keep mask of R replicates, as `metric_vectors` gives them for a
    stack. r is NaN where a replicate's kept metric vector is constant or
    it keeps fewer than 3 nodes. num, Kendall's concordant minus discordant
    pairs, is NaN for the other kinds. For Spearman the rows are midranked
    once, with +inf on the isolated nodes: those rank last, so each kept
    node gets its midrank among the kept ones. The replicates with equal
    kept counts are then gathered and correlated in one kernel call per
    statistic.
    """
    *rows, keep = metrics
    counts = np.count_nonzero(keep, axis=1)
    values = {name: np.full(len(keep), np.nan) for name in names}
    nums = {name: np.full(len(keep), np.nan) for name in names}
    if kind == "spearman":
        rows = [_row_midranks(np.where(keep, v, np.inf)) for v in rows]
    for count in np.unique(counts[counts >= 3]).tolist():
        group = counts == count
        kept = keep[group]
        bvec = rows[2][group][kept].reshape(-1, count)
        for name in names:
            x = rows[STATISTICS.index(name)][group][kept].reshape(-1, count)
            if kind == "kendall":
                values[name][group], nums[name][group] = _row_kendall(x, bvec)
            else:
                values[name][group] = _row_pearson(x, bvec)
    return values, nums


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
    describes. Every model draws the whole ensemble from
    `stream.generator()`; DEGSEQ draws it from one `SwapChain`: a burn-in
    of ceil(spec.swap_multiplier * m) proposals, then one replicate every
    ceil(SAMPLE_GAP * m) proposals. The replicates are drawn and measured
    by `metric_vectors` a stack at a time, at most `_STACK_ENTRIES`
    adjacency entries but at least one replicate, so memory for the n x n
    arrays is bounded by the stack; no value depends on the stack size.
    Each statistic whose empirical cell is defined is then evaluated on
    every replicate's rows by `_replicate_values`, with the same formula as
    the empirical cell; undefined replicate values are dropped and counted.
    Where no empirical cell is defined, no replicate is drawn.
    A defined cell is
    {"empirical", "mean", "std", "z", "dropped", "replicates"}; a DEGSEQ
    cell adds "lag1_autocorrelation", of its defined values in chain
    order. A statistic whose empirical cell is undefined, that loses more
    than half its replicates or whose ensemble has zero spread gets
    {"undefined": reason}.
    """
    if replicates < 2:
        raise InvalidArgumentError("at least 2 replicates required")
    # a statistic whose empirical cell is undefined has no z, so no replicate values
    undefined = {"undefined": "empirical correlation undefined"}
    cells = {name: undefined for name in STATISTICS if "undefined" in empirical[name]}
    names = [name for name in STATISTICS if name not in cells]
    if not names:
        return cells
    rng = stream.generator()
    chain = SwapChain(spec.source, spec.swap_multiplier) if spec.kind == "degseq" else None
    step = max(1, _STACK_ENTRIES // max(1, spec.n) ** 2)
    stacks = [
        metric_vectors(generate_null(spec, rng, min(step, replicates - start), chain))
        for start in range(0, replicates, step)
    ]
    metrics = tuple(np.concatenate(rows) for rows in zip(*stacks))
    values, _ = _replicate_values(metrics, kind, names)

    for name, vals in values.items():
        vals = vals[~np.isnan(vals)]
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
