"""Performance benchmarks for the library's hot paths.

These are real pytest-benchmark measurements (multiple rounds), unlike the
experiment benches which regenerate a table once.
"""

import numpy as np
import pytest

from repro.core.contention import ContentionComputer, IntervalOverlapIndex
from repro.core.features import build_feature_matrix
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.sim.allocation import FlowSpec, Resource, allocate_maxmin
from tests.core.conftest import make_random_store


@pytest.fixture(scope="module")
def big_store():
    return make_random_store(n=5000, n_endpoints=12, seed=0, horizon=500_000.0)


def test_perf_feature_matrix_build(benchmark, big_store):
    """Full Table 2 feature engineering over a 5k-transfer log."""
    fm = benchmark(build_feature_matrix, big_store)
    assert len(fm) == 5000


def test_perf_overlap_index_queries(benchmark):
    rng = np.random.default_rng(0)
    n = 20_000
    ts = rng.uniform(0, 1e6, n)
    te = ts + rng.uniform(1, 1000, n)
    w = rng.uniform(0, 1e9, n)
    idx = IntervalOverlapIndex(ts, te, w)
    a = rng.uniform(0, 1e6, 5000)
    b = a + rng.uniform(1, 1000, 5000)
    out = benchmark(idx.overlap_sum_fast, a, b)
    assert out.shape == (5000,)


def test_perf_gbt_training(benchmark):
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(3000, 15))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 3000)
    model = benchmark(
        lambda: GradientBoostingRegressor(
            n_estimators=100, max_depth=4, random_state=0
        ).fit(X, y)
    )
    assert len(model.trees_) == 100


def test_perf_gbt_prediction(benchmark):
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(3000, 15))
    y = X @ rng.uniform(size=15)
    model = GradientBoostingRegressor(n_estimators=100, max_depth=4).fit(X, y)
    X_test = rng.uniform(size=(10_000, 15))
    pred = benchmark(model.predict, X_test)
    assert pred.shape == (10_000,)


def test_perf_linear_regression(benchmark):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10_000, 15))
    y = X @ rng.uniform(size=15) + rng.normal(size=10_000)
    model = benchmark(lambda: LinearRegression().fit(X, y))
    assert model.coef_.shape == (15,)


def test_perf_maxmin_allocation(benchmark):
    rng = np.random.default_rng(4)
    resources = [Resource(f"r{i}", float(rng.uniform(1e8, 1e10))) for i in range(60)]
    flows = []
    for j in range(40):
        picks = rng.choice(60, size=5, replace=False)
        flows.append(
            FlowSpec(
                f"f{j}",
                tuple(f"r{i}" for i in picks),
                weight=float(rng.uniform(1, 32)),
                rate_cap=float(rng.uniform(1e7, 1e9)),
            )
        )
    rates = benchmark(allocate_maxmin, resources, flows)
    assert len(rates) == 40


def test_perf_simulation_throughput(benchmark):
    """Events/second of the fluid simulator on a contended edge."""
    from repro.sim import TransferRequest, TransferService, build_esnet_testbed
    from repro.sim.units import GB

    def run_sim():
        svc = TransferService(build_esnet_testbed(), seed=0)
        for i in range(100):
            svc.submit(
                TransferRequest(
                    src="ANL-DTN", dst="BNL-DTN", total_bytes=20 * GB,
                    n_files=10, submit_time=i * 20.0,
                )
            )
        return svc.run()

    log = benchmark(run_sim)
    assert len(log) == 100
