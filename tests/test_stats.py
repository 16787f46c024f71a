"""Metric extraction, the correlation kernels, empirical cells and ensemble z-scores."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradenet
from gradenet import nullmodels, stats
from gradenet.errors import InsufficientDataError, InvalidArgumentError
from gradenet.graph import Graph, _adjacency_matrix
from gradenet.nullmodels import (
    NullModelSpec,
    SeedStream,
    SwapChain,
    er_gnm,
    generate_null,
    spec_for,
)
from gradenet.stats import (
    STATISTICS,
    _replicate_values,
    _row_kendall,
    _row_midranks,
    _row_pearson,
    _t_p_value,
    ensemble_zscores,
    metric_vectors,
    node_metric_correlations,
)
from conftest import (
    UndefinedCorrelationError,
    UndefinedZScoreError,
    _kendall_tau,
    _pearson_value,
    betweenness_all,
    einsum_pearson_value,
    clustering_all,
    graph_from_adjacency,
    kendall_exhaustive,
    kendall_z_oracle,
    kept_metric_vectors,
    loop_ensemble_zscores,
    loop_midranks,
    loop_replicate_values,
    normal_p_value_oracle,
    random_graph,
    scalar_node_metric_correlations,
    t_p_value_oracle,
    zscore,
)

KINDS = ("spearman", "pearson", "kendall")
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def sequences(min_size=3, max_size=12):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
        )
    )


def row(values) -> np.ndarray:
    """A sequence as the one row of a 2-D float array, as the row kernels take it."""
    return np.asarray(values, dtype=float)[None]


def pearson_r(x, y) -> float:
    """`_row_pearson` of one row pair: r, or NaN where x or y is constant."""
    return float(_row_pearson(row(x), row(y))[0])


def kendall_tau(x, y) -> float:
    """`_row_kendall`'s tau-b of one row pair, NaN where x or y is all tied."""
    return float(_row_kendall(row(x), row(y))[0][0])


def replicate_r(x, y, kind) -> float:
    """COR_D_BC by `_replicate_values` of one replicate whose every node is kept.

    Its degree row is x and its betweenness row y, so this is the
    correlation of x and y that the pipeline's path computes.
    """
    metrics = row(x), row(x), row(y), np.ones((1, len(x)), dtype=bool)
    return float(_replicate_values(metrics, kind, STATISTICS[:1])[0][STATISTICS[0]][0])


def normal_floats(*values) -> bool:
    """Whether every value is a normal float: neither subnormal, 0, inf nor NaN."""
    return all(np.finfo(float).tiny <= abs(v) < math.inf for v in values)


def adjacency(n, edges) -> np.ndarray:
    """The symmetric 0/1 adjacency of `edges` over the nodes 0..n-1, self-loops dropped."""
    a = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            a[u, v] = a[v, u] = 1.0
    return a


# graphs of up to 14 nodes, those in no edge isolated; most have tied
# metric values, and some a constant metric vector
graphs = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
    ).map(lambda edges: adjacency(n, edges))
)
PATH_3 = adjacency(3, [(0, 1), (1, 2)])  # n = 3: the t tail with df = 1; r = 1
STAR_AND_ISOLATED = adjacency(6, [(0, 1), (0, 2), (0, 3)])  # tied all but once; constant clustering
TRIANGLE = adjacency(3, [(0, 1), (1, 2), (2, 0)])  # every metric vector constant
# two components and an isolated node; constant clustering
CYCLE_AND_EDGE = adjacency(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])


def test_midranks():
    assert _row_midranks(row([10.0, 20.0, 30.0])).tolist() == [[1.0, 2.0, 3.0]]
    assert _row_midranks(row([5.0, 1.0, 5.0, 2.0])).tolist() == [[3.5, 1.0, 3.5, 2.0]]


# small integers give long tie runs; signed zeros are equal and tie
tie_heavy_value = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float), st.sampled_from([0.0, -0.0])
)
tie_heavy_values = st.lists(tie_heavy_value, max_size=40)


@given(st.one_of(tie_heavy_values, st.lists(finite_floats, max_size=40)))
@example([])
@example([7.0])
@example([2.0, 2.0])
@example([1.0, -1.0])
@example([0.0, -0.0, 0.0, -0.0, 1.0])
@settings(max_examples=300)
def test_midranks_matches_loop_oracle(values):
    assert np.array_equal(_row_midranks(row(values))[0], loop_midranks(values))


def test_pearson_fixture():
    assert pearson_r([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    # a path's degrees and betweenness are affine in each other: r = 1, p = 0
    cell = node_metric_correlations(adjacency(4, [(0, 1), (1, 2), (2, 3)]), "pearson")["COR_D_BC"]
    assert cell["value"] == pytest.approx(1.0)
    assert cell["p_value"] == pytest.approx(0.0, abs=1e-12)


def test_correlation_input_validation():
    with pytest.raises(InvalidArgumentError, match="unknown correlation kind 'tau'"):
        node_metric_correlations(PATH_3, "tau")
    assert math.isnan(pearson_r([1, 1, 1], [1, 2, 3]))
    assert math.isnan(kendall_tau([1, 1, 1], [1, 2, 3]))
    for kind in KINDS:
        with pytest.raises(InsufficientDataError, match="got 2"):
            node_metric_correlations(adjacency(4, [(0, 1)]), kind)
        undefined = {"undefined": "constant metric vector"}
        assert node_metric_correlations(TRIANGLE, kind) == dict.fromkeys(STATISTICS, undefined)
        assert node_metric_correlations(PATH_3, kind)["COR_CC_BC"] == undefined


def test_kendall_fixture():
    assert kendall_tau([1, 2, 3, 4, 5], [1, 2, 3, 5, 4]) == pytest.approx(0.8)
    tied = kendall_tau([1, 1, 2, 3], [1, 2, 2, 3])
    assert tied == pytest.approx(kendall_exhaustive([1, 1, 2, 3], [1, 2, 2, 3]))


@given(sequences())
@settings(max_examples=200)
def test_spearman_is_pearson_on_midranks(xy):
    x, y = xy
    expected = pearson_r(_row_midranks(row(x))[0], _row_midranks(row(y))[0])
    result = replicate_r(x, y, "spearman")
    assert np.array_equal(result, expected, equal_nan=True)
    if not math.isnan(result):
        assert -1.0 <= result <= 1.0
        assert 0.0 <= _t_p_value(result, len(x)) <= 1.0


@given(sequences())
@example(([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))  # constant rows
@example(([1.0, 2.0, 3.0, 4.0], [-5.0, -5.0, -5.0, -5.0]))
# constant rows whose mean rounds, which leaves residues and vx > 0
@example(([1 / 3] * 10, [float(v) for v in range(10)]))
@example(([0.1] * 3, [0.0, 1.0, 2.0]))
@example(([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.7] * 7))
@example(([123.456] * 5, [0.0, 1.0, 2.0, 3.0, 4.0]))
# a subnormal variance sum, and a variance product that overflows
@example(([0.0, 1e-160, 2e-160], [0.0, 1.0, 2.0]))
@example(([0.0, 1e80, 2e80], [0.0, 1e80, 3e80]))
@settings(max_examples=300)
def test_pearson_matches_blas_summed_oracle(xy):
    x, y = (np.array(v) for v in xy)
    try:
        expected = _pearson_value(x, y)
    except UndefinedCorrelationError:
        assert math.isnan(pearson_r(x, y))
        return
    except FloatingPointError:  # sums that no metric row has: the oracle gives no r
        return
    _, vx, vy = einsum_pearson_value(x, y)
    if normal_floats(vx, vy, vx * vy):
        assert pearson_r(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@given(sequences())
@settings(max_examples=300)
def test_pearson_keeps_its_bits_where_the_variance_product_is_finite(xy):
    x, y = (np.array(v) for v in xy)
    if x.min() == x.max() or y.min() == y.max():
        return  # a constant argument has no r, though rounding can leave vx > 0
    expected, vx, vy = einsum_pearson_value(x, y)
    if normal_floats(vx, vy, vx * vy):
        assert pearson_r(x, y) == expected


# `_row_pearson` of one row pair at a time and the BLAS product x @ x on
# fixed random vectors, as two digests
PEARSON_BITS = """
import hashlib
import numpy as np
from gradenet.stats import _row_pearson
pairs = np.random.default_rng(0).random((200, 2, 28))
values = np.array([_row_pearson(x[None], y[None])[0] for x, y in pairs])
products = np.array([x @ x for x, _ in pairs])
print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in (values, products)))
"""


def test_pearson_bits_do_not_depend_on_the_blas_kernel():
    src = str(Path(gradenet.__file__).resolve().parents[1])
    digests = []
    for core in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", PEARSON_BITS],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(run.stdout.split())
    if len({products for _, products in digests}) == 1:
        pytest.skip("x @ x has the same bits under every OPENBLAS_CORETYPE: no kernel to switch")
    assert len({values for values, _ in digests}) == 1


@given(sequences(max_size=8))
@settings(max_examples=200)
def test_kendall_matches_exhaustive_counting(xy):
    x, y = xy
    expected = kendall_exhaustive(x, y)
    if expected is None:
        assert math.isnan(kendall_tau(x, y))
        return
    result = kendall_tau(x, y)
    assert result == pytest.approx(expected, abs=1e-12)
    assert -1.0 <= result <= 1.0


@given(graphs)
@example(PATH_3)
@example(STAR_AND_ISOLATED)
@example(CYCLE_AND_EDGE)
@settings(max_examples=300, deadline=None)
def test_p_values_match_scipy_stats_oracles(a):
    # exact equality: the special-function tails are what scipy.stats evaluates
    vectors = kept_metric_vectors(a)
    if vectors is None:
        return
    for kind in KINDS:
        for name, x in zip(STATISTICS, vectors):
            cell = node_metric_correlations(a, kind)[name]
            if "undefined" in cell:
                continue
            assert 0.0 <= cell["p_value"] <= 1.0
            if kind == "kendall":
                z = kendall_z_oracle(x.tolist(), vectors[2].tolist())
                assert cell["p_value"] == normal_p_value_oracle(z)
            else:
                assert cell["p_value"] == t_p_value_oracle(cell["value"], cell["n"])
                if abs(cell["value"]) >= 1.0:
                    assert cell["p_value"] == 0.0


def integer_sequences(min_size=3, max_size=8):
    # integer-valued floats keep strictly-monotone maps tie-free; cubing a
    # subnormal float would underflow to 0 and silently merge ranks
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.integers(min_value=-1000, max_value=1000).map(float),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.integers(min_value=-1000, max_value=1000).map(float),
                min_size=n,
                max_size=n,
            ),
        )
    )


@given(
    integer_sequences(),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=100)
def test_monotone_invariance(xy, scale, shift):
    x, y = xy
    base = pearson_r(x, y)
    if math.isnan(base):
        return
    assert pearson_r([scale * v + shift for v in x], y) == pytest.approx(base, abs=1e-9)
    cubed = [v**3 + shift for v in x]  # strictly increasing, non-affine
    for kind in ("spearman", "kendall"):
        assert replicate_r(cubed, y, kind) == pytest.approx(replicate_r(x, y, kind), abs=1e-12)


def test_zscore():
    assert zscore(3.0, [1.0, 2.0, 3.0]) == pytest.approx(
        (3.0 - 2.0) / np.std([1.0, 2.0, 3.0])
    )
    with pytest.raises(UndefinedZScoreError):
        zscore(1.0, [2.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        zscore(1.0, [2.0])
    # non-finite replicates are ignored
    assert zscore(1.0, [0.0, 2.0, math.nan, math.inf]) == pytest.approx(0.0)


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=50)
def test_zscore_affine_invariance(scale, shift):
    replicates = [0.5, 1.5, 2.0, 4.0]
    base = zscore(3.0, replicates)
    moved = zscore(scale * 3.0 + shift, [scale * v + shift for v in replicates])
    assert moved == pytest.approx(base, abs=1e-9)


def test_metric_vectors_ignores_isolated_nodes():
    g = Graph(nodes=["iso"], edges=[("a", "b"), ("b", "c"), ("c", "d")])
    labels, a = _adjacency_matrix(g)
    assert labels == ["a", "b", "c", "d", "iso"]
    deg, cc, bc, keep = metric_vectors(a)
    assert keep.tolist() == [True] * 4 + [False]
    assert deg.tolist() == [1.0, 2.0, 2.0, 1.0, 0.0]
    path = metric_vectors(_adjacency_matrix(Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")]))[1])
    assert all(np.array_equal(v[keep], w) for v, w in zip((deg, cc, bc), path[:3]))
    with pytest.raises(InsufficientDataError):
        node_metric_correlations(_adjacency_matrix(Graph(edges=[(1, 2)]))[1])


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_metric_vectors_match_graph_metrics(seed, isolated):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=12)
    for v in range(isolated):
        g.add_node(100 + v)
    labels, a = _adjacency_matrix(g)
    active = [v for v in labels if g.neighbors(v)]
    if len(active) < 3:
        with pytest.raises(InsufficientDataError):
            node_metric_correlations(a > 0)
        return
    *metrics, keep = metric_vectors(a > 0)
    assert keep.tolist() == [v in active for v in labels]
    deg, cc, bc = (v[keep] for v in metrics)
    clustering = clustering_all(g)
    betweenness = betweenness_all(g)
    assert np.array_equal(deg, [float(len(g.neighbors(v))) for v in active])
    assert np.array_equal(cc, [clustering[v] for v in active])
    assert np.array_equal(bc, [betweenness[v] for v in active])


def test_node_metric_correlations_star():
    star = Graph(edges=[("h", f"l{i}") for i in range(3)])
    cells = node_metric_correlations(_adjacency_matrix(star)[1])  # clustering is constant at 0
    assert cells["COR_CC_BC"] == {"undefined": "constant metric vector"}
    assert cells["COR_D_BC"]["value"] == pytest.approx(1.0)
    assert cells["COR_D_BC"]["n"] == 4
    with pytest.raises(InsufficientDataError, match="got 2"):
        node_metric_correlations(_adjacency_matrix(Graph(edges=[("a", "b")]))[1])


@pytest.mark.parametrize("kind", KINDS)
@given(graphs)
@example(PATH_3)
@example(STAR_AND_ISOLATED)
@example(TRIANGLE)
@example(CYCLE_AND_EDGE)
@settings(max_examples=300, deadline=None)
def test_node_metric_correlations_match_scalar_oracle(kind, a):
    # the one-replicate path against the scalar one it replaced: value,
    # p-value, n and the reason of an undefined cell, bit for bit
    try:
        expected = scalar_node_metric_correlations(a, kind)
    except InsufficientDataError as exc:
        with pytest.raises(InsufficientDataError, match=str(exc)):
            node_metric_correlations(a, kind)
        return
    assert repr(node_metric_correlations(a, kind)) == repr(expected)


def test_ensemble_zscores_deterministic():
    stream = SeedStream.from_seed(3)
    g = graph_from_adjacency(range(20), er_gnm(20, 50, stream.child(99).generator(), 1)[0])
    spec = spec_for("er", _adjacency_matrix(g)[1])
    empirical = node_metric_correlations(_adjacency_matrix(g)[1])
    first = ensemble_zscores(empirical, spec, 50, stream=stream)
    second = ensemble_zscores(empirical, spec, 50, stream=stream)
    assert first == second
    assert list(first) == list(STATISTICS)
    # the replicate values, regenerated one at a time from the same generator
    # and scored as empirical cells
    values = {name: [] for name in STATISTICS}
    rng = stream.generator()
    for _ in range(50):
        try:
            cells = node_metric_correlations(generate_null(spec, rng, 1)[0])
        except InsufficientDataError:
            continue
        for name, cell in cells.items():
            if "value" in cell:
                values[name].append(cell["value"])
    for name, cell in first.items():
        assert cell["empirical"] == empirical[name]["value"]
        assert cell["z"] == pytest.approx(zscore(cell["empirical"], values[name]))
        assert cell["dropped"] + len(values[name]) == 50
        assert cell["replicates"] == 50


def test_ensemble_zscores_degenerate():
    # 4-cycles have constant clustering 0, so COR_CC_BC drops all replicates
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    spec = NullModelSpec(kind="degseq", n=4, m=4, source=_adjacency_matrix(g)[1])
    stream = SeedStream.from_seed(0)
    cells = ensemble_zscores(
        node_metric_correlations(_adjacency_matrix(g)[1]), spec, 20, stream=stream
    )
    assert cells["COR_CC_BC"] == {"undefined": "empirical correlation undefined"}
    # a defined empirical value still meets a degenerate ensemble
    defined = dict.fromkeys(STATISTICS, {"value": 0.5, "p_value": 0.5, "n": 4})
    cells = ensemble_zscores(defined, spec, 20, stream=stream)
    assert cells["COR_CC_BC"] == {"undefined": "degenerate: 20 of 20 replicates undefined"}


def test_ensemble_zscores_constant_ensemble_is_undefined():
    # a threshold graph (node v joins every earlier node on "d") is the only
    # graph with its degree sequence, so every DEGSEQ replicate equals it
    a = np.zeros((10, 10))
    for v, step in enumerate("idddddddid"):
        if step == "d":
            a[v, :v] = a[:v, v] = 1.0
    spec = spec_for("degseq", a)
    stream = SeedStream.from_seed(1)
    for i in range(3):
        chain = SwapChain(spec.source, spec.swap_multiplier)
        assert np.array_equal(generate_null(spec, stream.child(i).generator(), 1, chain)[0], a > 0)
    empirical = node_metric_correlations(a)
    assert all("value" in cell for cell in empirical.values())
    # np.std of the 25 equal COR_D_BC values is 1.1e-16, which read z = -1.0
    cells = ensemble_zscores(empirical, spec, 25, stream=stream)
    assert cells == dict.fromkeys(STATISTICS, {"undefined": "zero ensemble standard deviation"})


def test_ensemble_zscores_validates_replicates():
    g = graph_from_adjacency(range(10), er_gnm(10, 20, np.random.default_rng(0), 1)[0])
    spec = NullModelSpec(kind="er", n=10, m=20)
    with pytest.raises(InvalidArgumentError):
        ensemble_zscores(
            node_metric_correlations(_adjacency_matrix(g)[1]),
            spec,
            1,
            stream=SeedStream.from_seed(0),
        )


# metric values with long tie runs and signed zeros, or any finite float
metric_values = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.sampled_from([0.0, -0.0, 0.5]),
    finite_floats,
)


@st.composite
def replicate_stacks(draw):
    """`metric_vectors` of a stack of a few replicates, and each one's kept vectors.

    Kept counts are mixed, as ER and GRG replicates with isolated nodes
    give, and the kept rows lie anywhere in a replicate's 8 rows. Some
    replicates keep fewer than 3 (None in the list) and some vectors are
    constant, so that their values are dropped.
    """
    width = 8
    vectors, rows, keep = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kept = np.zeros(width, dtype=bool)
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            k = draw(st.integers(min_value=0, max_value=2))
        else:
            k = draw(st.sampled_from([3, 4, 7]))
        kept[draw(st.permutations(range(width)))[:k]] = True
        triple = [draw(st.lists(metric_values, min_size=width, max_size=width)) for _ in range(3)]
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            triple[draw(st.integers(min_value=0, max_value=2))] = [draw(metric_values)] * width
        triple = [np.array(v) for v in triple]
        vectors.append(tuple(v[kept] for v in triple) if k >= 3 else None)
        rows.append(triple)
        keep.append(kept)
    return vectors, (*np.array(rows).transpose(1, 0, 2), np.array(keep))


@given(
    st.integers(min_value=0, max_value=9).flatmap(
        lambda k: st.lists(
            st.lists(st.one_of(tie_heavy_value, finite_floats), min_size=k, max_size=k),
            min_size=1,
            max_size=8,
        )
    )
)
@settings(max_examples=200)
def test_row_midranks_match_loop_oracle(rows):
    assert _row_midranks(np.array(rows)).tolist() == [loop_midranks(v).tolist() for v in rows]


@given(
    replicate_stacks(),
    st.sampled_from(KINDS),
    st.sampled_from([STATISTICS, STATISTICS[:1], STATISTICS[1:]]),
)
@settings(max_examples=300, deadline=None)
def test_replicate_values_match_loop_oracle(stack, kind, names):
    vectors, metrics = stack
    values, nums = _replicate_values(metrics, kind, names)
    expected, dropped = loop_replicate_values(vectors, kind)
    assert list(values) == list(nums) == list(names)
    for name in names:
        defined = ~np.isnan(values[name])
        assert values[name][defined].tolist() == expected[name]
        assert len(vectors) - int(defined.sum()) == dropped[name]
        # Kendall's pair counts, which its p-value reads, where tau is defined
        if kind == "kendall":
            kept = [triple for triple, ok in zip(vectors, defined) if ok]
            expected_nums = [_kendall_tau(t[STATISTICS.index(name)], t[2])[1] for t in kept]
            assert nums[name][defined].tolist() == expected_nums
        else:
            assert np.isnan(nums[name]).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model", ["er", "grg"])
def test_er_and_grg_ensembles_match_loop_oracle(model, kind):
    # (16, 14) leaves replicate nodes isolated, so the vector lengths vary
    # and some replicates fall below 3 nodes; (12, 30) has defined cells
    defined = 0
    for n, m in ((16, 14), (12, 30)):
        a = er_gnm(n, m, np.random.default_rng(n), 1)[0]
        spec = spec_for(model, a)
        empirical = node_metric_correlations(a, kind)
        stream = SeedStream.from_seed(m)
        cells = ensemble_zscores(empirical, spec, 40, kind, stream=stream)
        assert cells == loop_ensemble_zscores(empirical, spec, 40, kind, stream=stream)
        defined += sum("z" in cell for cell in cells.values())
    assert defined >= 2


ENSEMBLE_GRAPH = er_gnm(12, 16, np.random.default_rng(3), 1)[0]


@given(
    st.sampled_from(["er", "degseq", "grg"]),
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=1500),
)
@settings(max_examples=60, deadline=None)
def test_ensemble_does_not_depend_on_the_stack_size(model, kind, replicates, entries):
    # stacks of 1 to 10 replicates of (12, 16), whose nodes are isolated in
    # some replicates, against one stack of them all; most ensembles here
    # span a stack boundary
    spec = spec_for(model, ENSEMBLE_GRAPH)
    empirical = node_metric_correlations(ENSEMBLE_GRAPH, kind)
    stream = SeedStream.from_seed(replicates)
    with mock.patch.object(stats, "_STACK_ENTRIES", entries):
        cells = ensemble_zscores(empirical, spec, replicates, kind, stream=stream)
    with mock.patch.object(stats, "_STACK_ENTRIES", 144 * replicates):
        assert cells == ensemble_zscores(empirical, spec, replicates, kind, stream=stream)


@pytest.mark.parametrize("kind", KINDS)
def test_degseq_ensemble_scores_one_thinned_chain(kind):
    a = er_gnm(14, 30, np.random.default_rng(5), 1)[0]
    spec = spec_for("degseq", a, swap_multiplier=2.5)
    empirical = node_metric_correlations(a, kind)
    stream = SeedStream.from_seed(6)
    cells = ensemble_zscores(empirical, spec, 30, kind, stream=stream)
    chain, rng = SwapChain(a, 2.5), stream.generator()
    values, dropped = loop_replicate_values(
        [kept_metric_vectors(chain.sample(rng, 1)[0]) for _ in range(30)], kind
    )
    for name, cell in cells.items():
        vals = np.array(values[name])
        mean, std = float(vals.mean()), float(vals.std())
        lag1 = cell.pop("lag1_autocorrelation")
        assert cell == {
            "empirical": empirical[name]["value"],
            "mean": mean,
            "std": std,
            "z": (empirical[name]["value"] - mean) / std,
            "dropped": dropped[name],
            "replicates": 30,
        }
        d = vals - mean
        assert lag1 == pytest.approx(float(d[:-1] @ d[1:]) / float(d @ d), rel=1e-12, abs=1e-15)
        assert -1.0 <= lag1 <= 1.0


def test_degseq_ensemble_proposal_count(monkeypatch):
    # one burn-in of ceil(multiplier * m), then ceil(SAMPLE_GAP * m) per further replicate
    proposals = []
    swap = nullmodels._swap

    def counting(ends, rows, count, rng):
        proposals.append(count)
        swap(ends, rows, count, rng)

    monkeypatch.setattr(nullmodels, "_swap", counting)
    a = er_gnm(14, 29, np.random.default_rng(5), 1)[0]
    spec = spec_for("degseq", a, swap_multiplier=2.5)
    empirical = node_metric_correlations(a)
    ensemble_zscores(empirical, spec, 9, stream=SeedStream.from_seed(0))
    assert proposals == [math.ceil(2.5 * 29)] + [math.ceil(nullmodels.SAMPLE_GAP * 29)] * 8
    assert sum(proposals) == 73 + 8 * 58


def tied_rows(n):
    # values from {0, 1, 2}, or a row tied all through
    row = st.lists(st.integers(min_value=0, max_value=2).map(float), min_size=n, max_size=n)
    return st.one_of(row, row, st.floats(-2.0, 2.0).map(lambda v: [v] * n))


def assert_rows_match_kendall_tau(x, y):
    tau, num = _row_kendall(x, y)
    for i in range(len(x)):
        try:
            expected, expected_num = _kendall_tau(x[i], y[i])
        except UndefinedCorrelationError:
            assert math.isnan(tau[i])
            continue
        assert (tau[i], num[i]) == (expected, expected_num)


@given(
    st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.lists(st.tuples(tied_rows(n), tied_rows(n)), min_size=1, max_size=12)
    ),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=300, deadline=None)
def test_row_kendall_matches_kendall_tau(rows, pairs):
    # `pairs` index pairs per chunk: a chunk holds at least one row, and
    # pairs // (n (n - 1) / 2) rows, so most stacks here span several chunks
    x, y = (np.array(side) for side in zip(*rows))
    with mock.patch.object(stats, "_KENDALL_PAIRS", pairs):
        assert_rows_match_kendall_tau(x, y)


def test_row_kendall_spans_chunks():
    # a stack three chunks long and a bit, at the module's own chunk size
    rng = np.random.default_rng(8)
    n = 40
    k = 3 * (stats._KENDALL_PAIRS // (n * (n - 1) // 2)) + 5
    x, y = rng.integers(0, 3, (2, k, n)).astype(float)
    x[4] = 1.0  # one row all tied
    assert_rows_match_kendall_tau(x, y)


@st.composite
def shaped_stacks(draw):
    """A stack of 1 to 6 graphs on 3 to 16 nodes, each the union of one or two shapes.

    A shape is a path, a star, a complete graph or a random graph of any
    density on 2 or more of the nodes; the nodes in no shape are isolated.
    """
    n = draw(st.integers(min_value=3, max_value=16))
    stack = np.zeros((draw(st.integers(min_value=1, max_value=6)), n, n))
    for a in stack:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            nodes = draw(st.permutations(range(n)))[: draw(st.integers(min_value=2, max_value=n))]
            shape = draw(st.sampled_from(["path", "star", "complete", "random"]))
            if shape == "path":
                edges = zip(nodes, nodes[1:])
            elif shape == "star":
                edges = ((nodes[0], v) for v in nodes[1:])
            elif shape == "complete":
                edges = combinations(nodes, 2)
            else:
                density = draw(st.floats(min_value=0.0, max_value=1.0))
                rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
                edges = [pair for pair in combinations(nodes, 2) if rng.random() < density]
            for u, v in edges:
                a[u, v] = a[v, u] = 1.0
    return stack


def assert_in_metric_bounds(deg, cc, bc, ranks, k):
    """The kept rows of a replicate with k kept nodes lie in the row kernels' domain.

    Degrees are integers in [1, k - 1]; clustering is 0 or in
    [2 / ((k - 1)(k - 2)), 1]; betweenness is 0 or in
    [1 / (k - 2), (k - 1)(k - 2) / 2]; midranks are half-integers in
    [1, k]. The lower bounds allow the last bits of a sum of fractions.
    """
    slack = 1.0 - 1e-12
    assert np.array_equal(deg, np.round(deg)) and 1 <= deg.min() and deg.max() <= k - 1
    assert ((cc == 0) | ((cc >= slack * 2 / ((k - 1) * (k - 2))) & (cc <= 1))).all()
    assert ((bc == 0) | ((bc >= slack / (k - 2)) & (bc <= (k - 1) * (k - 2) / 2))).all()
    for r in ranks:
        assert np.array_equal(2 * r, np.round(2 * r)) and 1 <= r.min() and r.max() <= k


@given(shaped_stacks())
@settings(max_examples=300, deadline=None)
def test_pearson_and_kendall_kernels_on_their_domain(stack):
    # the kept metric rows of paths, stars, complete graphs and random
    # graphs, and their midranks as `_replicate_values` ranks them, lie in
    # the bounds of the `stats` docstring; there every non-constant row has
    # a normal sum of squares, and the kernels need no rescaling
    *metrics, keep = metric_vectors(stack)
    midranks = [_row_midranks(np.where(keep, v, np.inf)) for v in metrics]
    for i, kept in enumerate(keep):
        k = int(kept.sum())
        if k < 3:
            continue
        raw = [v[i][kept] for v in metrics]
        ranks = [v[i][kept] for v in midranks]
        assert_in_metric_bounds(*raw, ranks, k)
        for rows in (raw, ranks):
            varies = [v.min() != v.max() for v in rows]
            sums = [einsum_pearson_value(v, v)[1] for v in rows]
            assert all(normal_floats(s) for s, ok in zip(sums, varies) if ok)
            for x, x_varies, vx in zip(rows[:2], varies, sums):
                if not (x_varies and varies[2]):
                    assert math.isnan(pearson_r(x, rows[2]))
                    continue
                assert normal_floats(vx * sums[2])
                expected = _pearson_value(x, rows[2])
                assert pearson_r(x, rows[2]).hex() == einsum_pearson_value(x, rows[2])[0].hex()
                assert pearson_r(x, rows[2]) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        for x in raw[:2]:
            assert_rows_match_kendall_tau(x[None], raw[2][None])
