"""Correlation coefficients, metric extraction and ensemble z-scores."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradenet
from gradenet import nullmodels, stats
from gradenet.errors import InsufficientDataError, InvalidArgumentError, UndefinedCorrelationError
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
    correlation,
    ensemble_zscores,
    kendall,
    metric_vectors,
    midranks,
    node_metric_correlations,
    pearson,
    spearman,
)
from conftest import (
    UndefinedZScoreError,
    _kendall_tau,
    _pearson_value,
    betweenness_all,
    einsum_pearson_value,
    clustering_all,
    graph_from_adjacency,
    kendall_exhaustive,
    kendall_z_oracle,
    loop_ensemble_zscores,
    loop_midranks,
    loop_replicate_values,
    normal_p_value_oracle,
    random_graph,
    t_p_value_oracle,
    zscore,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def sequences(min_size=3, max_size=12):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
        )
    )


def test_midranks():
    assert midranks([10.0, 20.0, 30.0]).tolist() == [1.0, 2.0, 3.0]
    assert midranks([5.0, 1.0, 5.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]


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
    assert np.array_equal(midranks(values), loop_midranks(values))


def test_pearson_fixture():
    result = pearson([1, 2, 3, 4], [2, 4, 6, 8])
    assert result.value == pytest.approx(1.0)
    assert result.p_value == pytest.approx(0.0, abs=1e-12)
    anti = pearson([1, 2, 3], [3, 2, 1])
    assert anti.value == pytest.approx(-1.0)


def test_correlation_input_validation():
    with pytest.raises(InvalidArgumentError):
        pearson([1, 2], [1, 2])
    with pytest.raises(InvalidArgumentError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        kendall([1, 1, 1], [1, 2, 3])
    with pytest.raises(InvalidArgumentError):
        correlation([1, 2, 3], [1, 2, 3], "tau")
    for kind in ("pearson", "spearman", "kendall"):
        with pytest.raises(InvalidArgumentError):
            correlation([1.0, math.nan, 3.0], [1, 2, 3], kind)
        with pytest.raises(InvalidArgumentError):
            correlation([1, 2, 3], [math.inf, 2.0, 3.0], kind)


def test_kendall_fixture():
    result = kendall([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])
    assert result.value == pytest.approx(0.8)
    tied = kendall([1, 1, 2, 3], [1, 2, 2, 3])
    assert tied.value == pytest.approx(kendall_exhaustive([1, 1, 2, 3], [1, 2, 2, 3]))


@given(sequences())
@settings(max_examples=200)
def test_spearman_is_pearson_on_midranks(xy):
    x, y = xy
    try:
        expected = pearson(midranks(x), midranks(y))
    except UndefinedCorrelationError:
        with pytest.raises(UndefinedCorrelationError):
            spearman(x, y)
        return
    result = spearman(x, y)
    assert result.value == expected.value
    assert result.p_value == expected.p_value
    assert -1.0 <= result.value <= 1.0
    assert 0.0 <= result.p_value <= 1.0


@given(sequences())
@example(([0.0, 0.0, 3.4e-82], [0.0, 0.0, 3.4e-82]))  # the variance product underflows
@example(([0.0, 1e-82, 3e-82], [0.0, 2e-82, 1e-82]))  # underflows, with r = 0.327
@example(([0.0, 0.0, 0.0, 9.925168188014967e-81],) * 2)  # the product is subnormal
@example(([0.0, 0.0, 1e-200], [0.0, 1e-200, 0.0]))  # each variance sum underflows to 0
@example(([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))  # constant rows
@example(([1.0, 2.0, 3.0, 4.0], [-5.0, -5.0, -5.0, -5.0]))
@settings(max_examples=300)
def test_pearson_matches_blas_summed_oracle(xy):
    x, y = (np.array(v) for v in xy)
    try:
        expected = _pearson_value(x, y)
    except UndefinedCorrelationError:
        with pytest.raises(UndefinedCorrelationError):
            pearson(x, y)
        return
    assert pearson(x, y).value == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("big", [1e80, 1e160, 1e300])
def test_pearson_of_spreads_whose_sums_overflow(big):
    # near 1e80 the variance product overflows; near 1e155 each variance does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson([0.0, 0.0, big], [0.0, 0.0, big]).value == 1.0
        assert pearson([0.0, 0.0, big], [0.0, 0.0, -big]).value == -1.0
        assert pearson([0.0, 1.0, big], [big, 1.0, 0.0]).value == pytest.approx(-0.5, rel=1e-12)
        assert pearson([-big, 0.0, big], [0.0, 0.0, 1.0]).value == pytest.approx(
            math.sqrt(0.75), rel=1e-12
        )


@given(sequences(), st.integers(min_value=0, max_value=1100))
@example(([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]), 266)  # the variance product overflows
@example(([0.0, 1.0, 3.0], [2.0, 0.0, 1.0]), 520)  # a variance overflows
@example(([0.0, 0.0, 0.0, 9.925168188014967e-81],) * 2, 300)  # the product is subnormal
@example(([0.0, 0.0, 1e-200],) * 2, 600)  # each variance sum underflows to 0
@settings(max_examples=300)
def test_pearson_is_scale_free_where_its_sums_overflow(xy, k):
    x, y = (np.array(v) for v in xy)
    if x.min() == x.max() or y.min() == y.max():
        return  # a constant argument has no r
    expected = pearson(x, y).value
    # x times 2**k, as far as it stays finite: r does not change
    k = min(k, 1023 - math.frexp(np.abs(x).max())[1])
    assert pearson(np.ldexp(x, k), y).value == pytest.approx(expected, rel=1e-12, abs=1e-15)


@given(sequences())
@settings(max_examples=300)
def test_pearson_keeps_its_bits_where_the_variance_product_is_finite(xy):
    x, y = (np.array(v) for v in xy)
    expected, vx, vy = einsum_pearson_value(x, y)
    if np.finfo(float).tiny <= min(vx, vy, vx * vy) and vx * vy < math.inf:
        assert pearson(x, y).value == expected


# pearson() and the BLAS product x @ x on fixed random vectors, as two digests
PEARSON_BITS = """
import hashlib
import numpy as np
from gradenet.stats import pearson
pairs = np.random.default_rng(0).random((200, 2, 28))
values = np.array([pearson(x, y).value for x, y in pairs])
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
        with pytest.raises(UndefinedCorrelationError):
            kendall(x, y)
        return
    result = kendall(x, y)
    assert result.value == pytest.approx(expected, abs=1e-12)
    assert -1.0 <= result.value <= 1.0
    assert 0.0 <= result.p_value <= 1.0


def tied_sequences(min_size=3, max_size=12):
    # values from {0, 1, 2}: many ties, including samples tied all but once
    values = st.integers(min_value=0, max_value=2).map(float)
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(values, min_size=n, max_size=n),
            st.lists(values, min_size=n, max_size=n),
        )
    )


@given(st.one_of(sequences(), tied_sequences()))
@example(([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]))  # n = 3: the t tail with df = 1
@example(([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))  # r = 1: p = 0 without a t statistic
@example(([1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0]))  # r = -1
@example(([0.0] * 11 + [1.0], [0.0] * 11 + [1.0]))  # both samples tied all but once
@example(([0.0, 0.0, 3.4e-82], [0.0, 0.0, 3.4e-82]))  # the variance product underflows
@settings(max_examples=300)
def test_p_values_match_scipy_stats_oracles(xy):
    # exact equality: the special-function tails are what scipy.stats evaluates
    x, y = xy
    for fn in (pearson, spearman):
        try:
            result = fn(x, y)
        except UndefinedCorrelationError:
            continue
        assert result.p_value == t_p_value_oracle(result.value, len(x))
        if abs(result.value) >= 1.0:
            assert result.p_value == 0.0
    try:
        result = kendall(x, y)
    except UndefinedCorrelationError:
        return
    assert result.p_value == normal_p_value_oracle(kendall_z_oracle(x, y))


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
    try:
        base_p = pearson(x, y)
    except UndefinedCorrelationError:
        return
    assert pearson([scale * v + shift for v in x], y).value == pytest.approx(
        base_p.value, abs=1e-9
    )
    cubed = [v**3 + shift for v in x]  # strictly increasing, non-affine
    assert spearman(cubed, y).value == pytest.approx(spearman(x, y).value, abs=1e-12)
    assert kendall(cubed, y).value == pytest.approx(kendall(x, y).value, abs=1e-12)


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
    deg, cc, bc = metric_vectors(a)
    assert deg.tolist() == [1.0, 2.0, 2.0, 1.0]
    assert len(cc) == len(bc) == 4
    with pytest.raises(InsufficientDataError):
        metric_vectors(_adjacency_matrix(Graph(edges=[(1, 2)]))[1])


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
            metric_vectors(a > 0)
        return
    deg, cc, bc = metric_vectors(a > 0)
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


def test_ensemble_zscores_deterministic():
    stream = SeedStream.from_seed(3)
    g = graph_from_adjacency(range(20), er_gnm(20, 50, stream.generator(99)))
    spec = spec_for("er", _adjacency_matrix(g)[1])
    empirical = node_metric_correlations(_adjacency_matrix(g)[1])
    first = ensemble_zscores(empirical, spec, 50, stream=stream)
    second = ensemble_zscores(empirical, spec, 50, stream=stream)
    assert first == second
    assert list(first) == list(STATISTICS)
    # the replicate values, regenerated from the same stream
    values = {name: [] for name in STATISTICS}
    for i in range(50):
        deg, cc, bc = metric_vectors(generate_null(spec, stream.generator(i)))
        for name, x in zip(STATISTICS, (deg, cc)):
            try:
                values[name].append(correlation(x, bc, "spearman").value)
            except UndefinedCorrelationError:
                pass
    for name, cell in first.items():
        assert cell["empirical"] == empirical[name]["value"]
        assert cell["z"] == pytest.approx(zscore(cell["empirical"], values[name]))
        assert cell["dropped"] + len(values[name]) == 50
        assert cell["replicates"] == 50


def test_ensemble_zscores_degenerate():
    # 4-cycles have constant clustering 0, so COR_CC_BC drops all replicates
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    spec = NullModelSpec(kind="DEGSEQ", n=4, m=4, source=_adjacency_matrix(g)[1])
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
        assert np.array_equal(generate_null(spec, stream.generator(i), chain), a > 0)
    empirical = node_metric_correlations(a)
    assert all("value" in cell for cell in empirical.values())
    # np.std of the 25 equal COR_D_BC values is 1.1e-16, which read z = -1.0
    cells = ensemble_zscores(empirical, spec, 25, stream=stream)
    assert cells == dict.fromkeys(STATISTICS, {"undefined": "zero ensemble standard deviation"})


def test_ensemble_zscores_validates_replicates():
    g = graph_from_adjacency(range(10), er_gnm(10, 20, np.random.default_rng(0)))
    spec = NullModelSpec(kind="ER", n=10, m=20)
    with pytest.raises(InvalidArgumentError):
        ensemble_zscores(
            node_metric_correlations(_adjacency_matrix(g)[1]),
            spec,
            1,
            stream=SeedStream.from_seed(0),
        )


KINDS = ("spearman", "pearson", "kendall")
# metric values with long tie runs and signed zeros, or any finite float
metric_values = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.sampled_from([0.0, -0.0, 0.5]),
    finite_floats,
)


@st.composite
def replicate_vectors(draw):
    """Metric vectors of a few replicates.

    Lengths are mixed, as ER and GRG replicates with isolated nodes give.
    Some replicates are missing (fewer than 3 non-isolated nodes) and some
    vectors constant, so that their values are dropped.
    """
    lengths = st.sampled_from([3, 4, 7])
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            vectors.append(None)
            continue
        k = draw(lengths)
        triple = [draw(st.lists(metric_values, min_size=k, max_size=k)) for _ in range(3)]
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            triple[draw(st.integers(min_value=0, max_value=2))] = [draw(metric_values)] * k
        vectors.append(tuple(np.array(v) for v in triple))
    return vectors


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
    assert _row_midranks(np.array(rows)).tolist() == [loop_midranks(row).tolist() for row in rows]


@given(
    replicate_vectors(),
    st.sampled_from(KINDS),
    st.sampled_from([STATISTICS, STATISTICS[:1], STATISTICS[1:]]),
)
@settings(max_examples=300, deadline=None)
def test_replicate_values_match_loop_oracle(vectors, kind, names):
    values = _replicate_values(vectors, kind, names)
    expected, dropped = loop_replicate_values(vectors, kind)
    assert list(values) == list(names)
    for name in names:
        defined = ~np.isnan(values[name])
        assert values[name][defined].tolist() == expected[name]
        assert len(vectors) - int(defined.sum()) == dropped[name]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model", ["er", "grg"])
def test_er_and_grg_ensembles_match_loop_oracle(model, kind):
    # (16, 14) leaves replicate nodes isolated, so the vector lengths vary
    # and some replicates fall below 3 nodes; (12, 30) has defined cells
    defined = 0
    for n, m in ((16, 14), (12, 30)):
        a = er_gnm(n, m, np.random.default_rng(n))
        spec = spec_for(model, a)
        empirical = node_metric_correlations(a, kind)
        stream = SeedStream.from_seed(m)
        cells = ensemble_zscores(empirical, spec, 40, kind, stream=stream)
        assert cells == loop_ensemble_zscores(empirical, spec, 40, kind, stream=stream)
        defined += sum("z" in cell for cell in cells.values())
    assert defined >= 2


@pytest.mark.parametrize("kind", KINDS)
def test_degseq_ensemble_scores_one_thinned_chain(kind):
    a = er_gnm(14, 30, np.random.default_rng(5))
    spec = spec_for("degseq", a, swap_multiplier=2.5)
    empirical = node_metric_correlations(a, kind)
    stream = SeedStream.from_seed(6)
    cells = ensemble_zscores(empirical, spec, 30, kind, stream=stream)
    chain, rng = SwapChain(a, 2.5), stream.generator()
    values, dropped = loop_replicate_values(
        [metric_vectors(chain.sample(rng)) for _ in range(30)], kind
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
    a = er_gnm(14, 29, np.random.default_rng(5))
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
