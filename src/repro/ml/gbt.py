"""XGBoost-style gradient-boosted regression trees (§5.2).

The paper's nonlinear model is eXtreme Gradient Boosting [9]: "an iterative
approach in which at each iteration a new decision tree is added to correct
errors made by previous trees", combined with gain-based feature importance
scores ("the more an independent variable is used to make the main splits
within the tree, the higher its relative importance" — Figure 12).

This implementation boosts :class:`repro.ml.tree.RegressionTree` weak
learners with second-order statistics under squared-error loss, supporting
the regularisation knobs that matter for the reproduction: shrinkage
(``learning_rate``), L2 leaf penalty (``reg_lambda``), complexity penalty
(``gamma``), ``min_child_weight``, row subsampling and per-tree column
subsampling, plus early stopping on a validation split.
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import QuantileBinner
from repro.ml.forest import FlattenedForest
from repro.ml.tree import RegressionTree, TreeGrowthParams

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Gradient boosting for regression with squared-error loss.

    Parameters
    ----------
    n_estimators:
        Maximum number of trees.
    learning_rate:
        Shrinkage applied to every tree's leaf weights.
    max_depth, min_child_weight, reg_lambda, gamma:
        Passed to :class:`~repro.ml.tree.TreeGrowthParams`.
    subsample:
        Fraction of rows sampled (without replacement) per tree.
    colsample_bytree:
        Fraction of features eligible per tree.
    max_bins:
        Histogram resolution for split finding.
    early_stopping_rounds:
        If set, :meth:`fit` with ``eval_set`` stops when the validation RMSE
        fails to improve for this many consecutive rounds.
    random_state:
        Seed for row/column subsampling.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(size=(500, 3))
    >>> y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    >>> m = GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X, y)
    >>> float(np.abs(m.predict(X) - y).mean()) < 0.1
    True
    """

    # The weak learner; repro.reference overrides it with its per-feature
    # training kernel.
    _tree_type = RegressionTree

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        max_bins: int = 256,
        early_stopping_rounds: int | None = None,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.tree_params = TreeGrowthParams(
            max_depth=max_depth,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
        )
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = random_state

        self.trees_: list[RegressionTree] = []
        self.base_score_: float = 0.0
        self.binner_: QuantileBinner | None = None
        self.n_features_: int | None = None
        self.train_scores_: list[float] = []
        self.eval_scores_: list[float] = []
        self.best_iteration_: int | None = None
        self._forest: FlattenedForest | None = None

    # -- fitting ----------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        """Fit on (X, y); optionally monitor (X_val, y_val) for early stop."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        n, self.n_features_ = X.shape
        rng = np.random.default_rng(self.random_state)

        self.binner_ = QuantileBinner(self.max_bins).fit(X)
        codes = self.binner_.transform(X)
        n_bins = self.binner_.n_bins_

        self.base_score_ = float(y.mean())
        pred = np.full(n, self.base_score_)

        val_codes = None
        val_pred = None
        y_val = None
        if eval_set is not None:
            X_val, y_val = eval_set
            y_val = np.asarray(y_val, dtype=np.float64).ravel()
            val_codes = self.binner_.transform(np.asarray(X_val, dtype=np.float64))
            val_pred = np.full(y_val.shape[0], self.base_score_)

        self.trees_ = []
        self._forest = None  # flattened snapshot is invalid once refit starts
        self.train_scores_ = []
        self.eval_scores_ = []
        best_val = np.inf
        rounds_since_best = 0
        self.best_iteration_ = None

        n_sub = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * self.n_features_)))

        hess = np.ones(n, dtype=np.float64)
        for it in range(self.n_estimators):
            grad = pred - y  # d/dpred of 1/2 (pred - y)^2

            if n_sub < n:
                rows = rng.choice(n, size=n_sub, replace=False)
            else:
                rows = None
            if n_cols < self.n_features_:
                cols = np.sort(
                    rng.choice(self.n_features_, size=n_cols, replace=False)
                )
            else:
                cols = None

            tree = self._tree_type(self.tree_params, self.max_bins)
            if rows is None:
                tree.fit_binned(codes, grad, hess, n_bins, feature_subset=cols)
            else:
                tree.fit_binned(
                    codes[rows], grad[rows], hess[rows], n_bins, feature_subset=cols
                )
            self.trees_.append(tree)

            pred += self.learning_rate * tree.predict_binned(codes)
            self.train_scores_.append(float(np.sqrt(np.mean((pred - y) ** 2))))

            if val_codes is not None:
                val_pred += self.learning_rate * tree.predict_binned(val_codes)
                val_rmse = float(np.sqrt(np.mean((val_pred - y_val) ** 2)))
                self.eval_scores_.append(val_rmse)
                if val_rmse < best_val - 1e-12:
                    best_val = val_rmse
                    rounds_since_best = 0
                    self.best_iteration_ = it
                else:
                    rounds_since_best += 1
                    if (
                        self.early_stopping_rounds is not None
                        and rounds_since_best >= self.early_stopping_rounds
                    ):
                        # Keep only the trees up to the best iteration.
                        self.trees_ = self.trees_[: self.best_iteration_ + 1]
                        break
        return self

    # -- inference --------------------------------------------------------

    def _ensure_forest(self) -> FlattenedForest:
        """Flattened all-trees kernel, built lazily on first predict."""
        if self._forest is None:
            self._forest = FlattenedForest.from_trees(
                self.trees_, self.learning_rate, self.base_score_, self.max_bins
            )
        return self._forest

    def _check_predict_input(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X shape {X.shape} incompatible with {self.n_features_} features"
            )
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        codes = self.binner_.transform(X)
        return self._ensure_forest().predict_binned(codes)

    def staged_predict(self, X: np.ndarray):
        """Yield predictions after each boosting round (for learning curves).

        Each yielded array is an independent snapshot; accumulation happens
        in place on one buffer instead of reallocating the full vector per
        round.
        """
        X = self._check_predict_input(X)
        codes = self.binner_.transform(X)
        vals = self._ensure_forest().leaf_value_matrix(codes)
        out = np.full(codes.shape[0], self.base_score_)
        for t in range(vals.shape[0]):
            out += vals[t]
            yield out.copy()

    # -- explanation ------------------------------------------------------

    def feature_importances(self, kind: str = "gain") -> np.ndarray:
        """Aggregate per-feature importance across all trees.

        ``kind='gain'`` sums split gains (XGBoost's default explanation and
        the quantity behind Figure 12); ``kind='count'`` counts splits.
        Scores are normalised to sum to 1 (all-zeros if no splits were made).
        """
        if not self.trees_:
            raise RuntimeError("model used before fit()")
        if kind not in ("gain", "count"):
            raise ValueError(f"kind must be 'gain' or 'count', got {kind!r}")
        total = np.zeros(self.n_features_, dtype=np.float64)
        for tree in self.trees_:
            src = tree.feature_gain_ if kind == "gain" else tree.feature_count_
            if src is not None:
                total += src
        s = total.sum()
        return total / s if s > 0 else total
