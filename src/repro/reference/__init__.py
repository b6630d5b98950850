"""Parity oracles: the original implementations the fast paths replaced.

Each production kernel has one implementation; the code it was derived
from lives here, so tests and the parity sections of ``repro-tools bench``
(:mod:`repro.exec.bench`, the only production-side importer) can check the
fast path against it.  ``tests/test_reference_isolation.py`` enforces that.
"""

from repro.reference.contention import (
    ReferenceContentionComputer,
    ReferenceIntervalIndex,
)
from repro.reference.online import (
    EndpointColumns,
    ReferenceFeatureEstimator,
    TunableAdvisor,
    TunableRecommendation,
    endpoint_columns,
)
from repro.reference.trees import (
    LoopGradientBoostingRegressor,
    LoopRegressionTree,
    predict_tree_loop,
)

__all__ = [
    "ReferenceContentionComputer", "ReferenceIntervalIndex",
    "EndpointColumns", "ReferenceFeatureEstimator", "TunableAdvisor",
    "TunableRecommendation", "endpoint_columns",
    "LoopGradientBoostingRegressor", "LoopRegressionTree", "predict_tree_loop",
]
