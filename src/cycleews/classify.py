"""Supervised benchmark: scaling, linear SVM, stratified CV, importances, PCA.

Everything here is deterministic given (data, seeds): the scaler uses
population statistics, the SVM is trained by full-batch subgradient
descent with a fixed 1/t step schedule, folds come from seeded
per-class shuffles, and both importance analyses reuse one fixed fold
assignment so their deltas are not confounded by resplitting.  Fold
fits may run in worker processes (``workers``); each fit is a pure
function of its inputs, so results do not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .base import ParamsMixin, as_float_2d, check_finite, fork_map, require
from .features import FEATURE_NAMES
from .rng import derive_seed, generator


class StratificationError(ValueError):
    pass


class DegenerateFeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (rows = valid runs), boolean labels, and run ids."""

    X: np.ndarray
    y: np.ndarray
    run_ids: np.ndarray
    feature_names: tuple = FEATURE_NAMES

    def __post_init__(self):
        X = as_float_2d(self.X, "X")
        check_finite(X, "X")
        require(len(self.y) == len(X) == len(self.run_ids), "row count mismatch")
        require(X.shape[1] == len(self.feature_names), "feature name count mismatch")

    @property
    def n_samples(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, rows) -> "Dataset":
        return replace(self, X=self.X[rows], y=self.y[rows], run_ids=self.run_ids[rows])

    def drop_feature(self, index: int) -> "Dataset":
        keep = [j for j in range(self.n_features) if j != index]
        names = tuple(self.feature_names[j] for j in keep)
        return replace(self, X=self.X[:, keep], feature_names=names)


class FeatureScaler(ParamsMixin):
    """Column-wise standardization with population (1/m) standard deviation."""

    def __init__(self):
        pass

    def fit(self, X, y=None):
        X = as_float_2d(X, "X")
        self.mean_ = X.mean(axis=0)
        self.scale_ = X.std(axis=0)  # population normalization
        bad = np.flatnonzero(self.scale_ == 0.0)
        if len(bad):
            raise DegenerateFeatureError(f"zero-variance columns: {bad.tolist()}")
        return self

    def transform(self, X) -> np.ndarray:
        X = as_float_2d(X, "X")
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass(frozen=True)
class SvmHyperParams:
    lambda_reg: Optional[float] = None  # None -> 1 / (2 m)
    n_iter: int = 10_000
    eta0: float = 2.0
    tol: float = 1.0e-6
    seed: int = 0
    checkpoint_every: int = 100
    class_weight: Optional[str] = "balanced"


class LinearHingeSVM(ParamsMixin):
    """L2-regularized hinge loss minimized by full-batch subgradient descent.

    With class_weight="balanced" each sample's hinge term is scaled by
    m / (2 m_class), so neither class dominates the loss under
    imbalance.  Steps decay as eta0 / t; the model reported is the
    best-loss running average of the iterates (the usual f_best
    convention for subgradient methods), so the recorded loss history is
    non-increasing by construction.  Training is bit-reproducible given
    (data, params); the seed is part of the interface but the optimizer
    draws nothing.
    """

    def __init__(self, lambda_reg: Optional[float] = None, n_iter: int = 10_000,
                 eta0: float = 2.0, tol: float = 1.0e-6, seed: int = 0,
                 checkpoint_every: int = 100, class_weight: Optional[str] = "balanced"):
        self.lambda_reg = lambda_reg
        self.n_iter = n_iter
        self.eta0 = eta0
        self.tol = tol
        self.seed = seed
        self.checkpoint_every = checkpoint_every
        self.class_weight = class_weight

    @staticmethod
    def _signed_labels(y) -> np.ndarray:
        y = np.asarray(y)
        if y.dtype == bool:
            return np.where(y, 1.0, -1.0)
        vals = np.unique(y)
        require(set(vals.tolist()) <= {-1, 1, -1.0, 1.0},
                "labels must be boolean or +/-1")
        return y.astype(float)

    def _sample_weights(self, ys) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(len(ys))
        require(self.class_weight == "balanced", "class_weight must be None or 'balanced'")
        m = len(ys)
        pos = ys > 0
        weights = np.empty(m)
        weights[pos] = m / (2.0 * pos.sum())
        weights[~pos] = m / (2.0 * (~pos).sum())
        return weights

    def _loss(self, X, ys, alpha, w, b, lam) -> float:
        margins = ys * (X @ w + b)
        hinge = (alpha * np.maximum(0.0, 1.0 - margins)).mean()
        return float(hinge + lam * (w @ w))

    def fit(self, X, y):
        X = as_float_2d(X, "X")
        ys = self._signed_labels(y)
        require(len(np.unique(ys)) == 2, "training data must contain both classes")
        m, d = X.shape
        lam = self.lambda_reg if self.lambda_reg is not None else 1.0 / (2.0 * m)
        alpha = self._sample_weights(ys)
        ays = alpha * ys

        w = np.zeros(d)
        b = 0.0
        w_sum = np.zeros(d)
        b_sum = 0.0
        best_loss = math.inf
        best = (w.copy(), 0.0)
        prev_avg = None
        history = []
        t_ran = 0
        for t in range(1, self.n_iter + 1):
            margins = ys * (X @ w + b)
            active = margins < 1.0
            if active.any():
                ya = ays[active]
                gw = -(ya[:, None] * X[active]).sum(axis=0) / m + 2.0 * lam * w
                gb = -ya.sum() / m
            else:
                gw = 2.0 * lam * w
                gb = 0.0
            step = self.eta0 / t
            w = w - step * gw
            b = b - step * gb
            w_sum += w
            b_sum += b
            t_ran = t
            if t % self.checkpoint_every == 0 or t == self.n_iter:
                w_avg = w_sum / t
                b_avg = b_sum / t
                loss = self._loss(X, ys, alpha, w_avg, b_avg, lam)
                if loss < best_loss:
                    best_loss = loss
                    best = (w_avg.copy(), b_avg)
                history.append(best_loss)
                if prev_avg is not None and np.max(np.abs(w_avg - prev_avg)) < self.tol:
                    break
                prev_avg = w_avg
        self.coef_ = best[0]
        self.intercept_ = best[1]
        self.loss_history_ = history
        self.n_iter_run_ = t_ran
        return self

    def decision_function(self, X) -> np.ndarray:
        return as_float_2d(X, "X") @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        """Boolean predictions; the zero decision value maps to True."""
        return self.decision_function(X) >= 0.0


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean of per-class recalls; y_true must contain both classes."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    require(len(y_true) == len(y_pred), "length mismatch")
    if not (y_true.any() and (~y_true).any()):
        raise ValueError("balanced accuracy undefined: y_true has a single class")
    recall_pos = float((y_pred & y_true).sum() / y_true.sum())
    recall_neg = float((~y_pred & ~y_true).sum() / (~y_true).sum())
    return 0.5 * (recall_pos + recall_neg)


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold ids in {0..k-1}, one per sample.

    Within each class, indices are shuffled by a seeded stream and dealt
    round-robin, so per-fold class counts differ from the proportional
    allocation by at most one.
    """
    labels = np.asarray(labels)
    require(k >= 2, "k must be >= 2")
    folds = np.empty(len(labels), dtype=np.int64)
    rng = generator(seed, stream=17)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise StratificationError(
                f"class {cls!r} has {len(idx)} members, fewer than k={k}")
        perm = idx[rng.permutation(len(idx))]
        folds[perm] = np.arange(len(perm)) % k
    return folds


@dataclass
class FoldModel:
    fold: int
    scaler: FeatureScaler
    model: LinearHingeSVM
    val_rows: np.ndarray
    score: float


@dataclass
class CVResult:
    scores: np.ndarray
    folds: np.ndarray
    fold_models: List[FoldModel] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(self.scores.mean())


def _svm_from(hp: Optional[SvmHyperParams]) -> LinearHingeSVM:
    hp = hp or SvmHyperParams()
    return LinearHingeSVM(lambda_reg=hp.lambda_reg, n_iter=hp.n_iter, eta0=hp.eta0,
                          tol=hp.tol, seed=hp.seed, checkpoint_every=hp.checkpoint_every,
                          class_weight=hp.class_weight)


def _fit_fold(data: Dataset, folds: np.ndarray, f: int,
              hp: Optional[SvmHyperParams]) -> FoldModel:
    """Scale on the training rows of fold f only, train, score its validation rows."""
    val = folds == f
    train = ~val
    try:
        scaler = FeatureScaler().fit(data.X[train])
        model = _svm_from(hp).fit(scaler.transform(data.X[train]), data.y[train])
        pred = model.predict(scaler.transform(data.X[val]))
        score = balanced_accuracy(data.y[val], pred)
    except ValueError as exc:
        raise type(exc)(f"fold {f}: {exc}") from exc
    return FoldModel(f, scaler, model, np.flatnonzero(val), score)


def cross_validate(data: Dataset, k: int, seed: int,
                   hp: Optional[SvmHyperParams] = None,
                   folds: Optional[np.ndarray] = None,
                   keep_models: bool = False, workers: int = 1) -> CVResult:
    """Per-fold: scale on the training rows only, train, score validation.

    The k fold fits are spread over up to `workers` processes.
    """
    if folds is None:
        folds = stratified_kfold(data.y, k, seed)
    fold_models = list(fork_map(lambda f: _fit_fold(data, folds, f, hp), k, workers))
    scores = np.array([fm.score for fm in fold_models])
    return CVResult(scores=scores, folds=folds,
                    fold_models=fold_models if keep_models else [])


def drop_column_importance(data: Dataset, k: int, seed: int,
                           hp: Optional[SvmHyperParams] = None,
                           folds: Optional[np.ndarray] = None,
                           cv: Optional[CVResult] = None,
                           workers: int = 1) -> Dict[str, float]:
    """Full-set CV mean minus CV mean without each feature, same folds throughout.

    cv, when given, is the full-set result on these folds and is not
    refitted.  The (feature, fold) fits are spread over up to `workers`
    processes.
    """
    require(data.n_features >= 2, "need at least 2 features to drop one")
    if folds is None:
        folds = stratified_kfold(data.y, k, seed)
    if cv is None:
        cv = cross_validate(data, k, seed, hp, folds=folds, workers=workers)
    reduced = [data.drop_feature(j) for j in range(data.n_features)]
    scores = list(fork_map(lambda t: _fit_fold(reduced[t // k], folds, t % k, hp).score,
                           data.n_features * k, workers))
    return {name: cv.mean - float(np.mean(scores[j * k:(j + 1) * k]))
            for j, name in enumerate(data.feature_names)}


def permutation_importance(data: Dataset, k: int, seed: int,
                           hp: Optional[SvmHyperParams] = None,
                           repeats: int = 20,
                           folds: Optional[np.ndarray] = None,
                           cv: Optional[CVResult] = None
                           ) -> Dict[str, Dict[str, float]]:
    """Validation-column permutation drops, pooled over folds and repeats.

    Fold models are trained once on intact features (or taken from cv,
    a keep_models result on these folds); each repeat shuffles one
    standardized validation column with its own derived stream and
    records the decrease in balanced accuracy.
    """
    if folds is None:
        folds = stratified_kfold(data.y, k, seed)
    if cv is None:
        cv = cross_validate(data, k, seed, hp, folds=folds, keep_models=True)
    out = {}
    for j, name in enumerate(data.feature_names):
        drops = []
        for fm in cv.fold_models:
            x_val = fm.scaler.transform(data.X[fm.val_rows])
            y_val = data.y[fm.val_rows]
            for r in range(repeats):
                rng = generator(derive_seed(seed, "perm", j, r, fm.fold))
                shuffled = x_val.copy()
                shuffled[:, j] = shuffled[rng.permutation(len(shuffled)), j]
                score = balanced_accuracy(y_val, fm.model.predict(shuffled))
                drops.append(fm.score - score)
        drops = np.asarray(drops)
        out[name] = {"mean": float(drops.mean()), "std": float(drops.std(ddof=1))}
    return out


# --------------------------------------------------------------------------
# principal components
# --------------------------------------------------------------------------

class PrincipalComponents(ParamsMixin):
    """Eigendecomposition of the sample covariance with a fixed sign rule.

    Each kept component has its largest-magnitude loading made positive,
    so projections are reproducible and invariant to sample order.
    """

    def __init__(self, n_components: int = 2):
        self.n_components = n_components

    def fit(self, X, y=None):
        X = as_float_2d(X, "X")
        require(len(X) >= 2, "need at least 2 samples")
        self.mean_ = X.mean(axis=0)
        xc = X - self.mean_
        cov = xc.T @ xc / (len(X) - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.maximum(eigvals[order], 0.0)
        eigvecs = eigvecs[:, order]
        total = float(eigvals.sum())
        if total == 0.0:
            raise DegenerateFeatureError("covariance has rank 0")
        comps = eigvecs[:, :self.n_components].T.copy()
        for row in comps:
            lead = np.argmax(np.abs(row))
            if row[lead] < 0.0:
                row *= -1.0
        self.components_ = comps
        self.explained_variance_ratio_ = eigvals[:self.n_components] / total
        return self

    def transform(self, X) -> np.ndarray:
        X = as_float_2d(X, "X")
        return (X - self.mean_) @ self.components_.T

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X).transform(X)


def pca_2d(X_standardized) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coordinates, explained-variance fractions, components) for the top 2 axes."""
    pca = PrincipalComponents(n_components=2).fit(X_standardized)
    return (pca.transform(X_standardized), pca.explained_variance_ratio_.copy(),
            pca.components_.copy())
