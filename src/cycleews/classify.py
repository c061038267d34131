"""Supervised benchmark: scaling, linear SVM, stratified CV, importances, PCA.

Everything here is deterministic given (data, seeds): the scaler uses
population statistics, the SVM is the exact optimum of its objective,
found by SMO and certified by a duality-gap stop, folds come from seeded
per-class shuffles, and both importance analyses reuse one fixed fold
assignment so their deltas are not confounded by resplitting.  Fold
fits may run in worker processes (``workers``); each fit is a pure
function of its inputs, so results do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .base import ConvergenceError, as_float_2d, check_finite, fork_map, require
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

    def drop_feature(self, index: int) -> "Dataset":
        keep = [j for j in range(self.n_features) if j != index]
        names = tuple(self.feature_names[j] for j in keep)
        return replace(self, X=self.X[:, keep], feature_names=names)


class FeatureScaler:
    """Column-wise standardization with population (1/m) standard deviation."""

    def fit(self, X):
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


@dataclass(frozen=True)
class SvmHyperParams:
    lambda_reg: Optional[float] = None  # None -> 1 / (2 m)
    n_iter: int = 100_000  # cap on SMO pair updates
    tol: float = 1.0e-10  # duality-gap stop
    class_weight: Optional[str] = "balanced"


_TAU = 1.0e-12  # curvature floor for a pair of coinciding samples (Fan et al. 2005)
_RANK_RTOL = 1.0e-10  # squared singular values below this share of the largest count as 0


class LinearHingeSVM:
    """Exact minimizer of lambda |w|^2 + (1/m) sum_i alpha_i max(0, 1 - y_i (w.x_i + b)).

    With class_weight="balanced" each sample's hinge term is scaled by
    alpha_i = m / (2 m_class), so neither class dominates the loss under
    imbalance; the bias b is not regularized.  The fit solves the dual

        max_a  sum_i a_i - lambda |w(a)|^2,   w(a) = sum_i a_i y_i x_i / (2 lambda),
        s.t.   0 <= a_i <= alpha_i / m,   sum_i a_i y_i = 0,

    by SMO (Platt 1998) with second-order working-set selection (Fan,
    Chen & Lin 2005).  The dual gradient Z w - 1 (Z_i = y_i x_i) is
    updated through Z @ dw, so memory stays O(m d) and no Gram matrix is
    formed.  The dual Hessian has rank at most d, and pair moves can
    zigzag for ever on a free set (0 < a_i < alpha_i / m) where it is
    ill-conditioned, so the first pair move that leaves a new free set
    unchanged is followed by an exact solve over that set
    (_solve_free_set).  The fit stops once the duality gap
    P(w, b) - D(a) is at most tol, with w recomputed from a and b the
    minimizer of P for that w, and raises ConvergenceError if n_iter
    pair updates do not get there.
    Labels are oriented so that the first sample is positive, so
    flipping every label negates (coef_, intercept_) exactly.  Training
    is bit-reproducible given (data, params).

    Fitted attributes: coef_ and intercept_ (w, b), dual_coef_ (a),
    gap_ (the certified gap) and n_iter_run_ (pair updates made).
    """

    def __init__(self, lambda_reg: Optional[float] = None, n_iter: int = 100_000,
                 tol: float = 1.0e-10, class_weight: Optional[str] = "balanced"):
        self.lambda_reg = lambda_reg
        self.n_iter = n_iter
        self.tol = tol
        self.class_weight = class_weight

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

    def fit(self, X, y):
        X = as_float_2d(X, "X")
        y = np.asarray(y)
        require(y.dtype == bool, "labels must be boolean")
        ys = np.where(y, 1.0, -1.0)
        require(len(np.unique(ys)) == 2, "training data must contain both classes")
        orient = ys[0]
        ys = ys * orient
        m = len(ys)
        lam = self.lambda_reg if self.lambda_reg is not None else 1.0 / (2.0 * m)
        scale = 1.0 / (2.0 * lam)
        C = self._sample_weights(ys) / m
        pos = ys > 0
        X2 = (2.0 * scale) * X
        sq = scale * (X * X).sum(axis=1)
        a = np.zeros(m)
        # t_i = y_i - w.x_i = -y_i g_i, with g = Z w - 1 the dual gradient
        # at w = w(a) (Z_i = y_i x_i); kept up to date through
        # X @ dw = y * (Z @ dw)
        t = ys.copy()
        # 0 where a_i can still move so that y_i a_i grows (I_up) or
        # shrinks (I_low), -inf / +inf where it cannot
        up = np.where(pos, 0.0, -np.inf)
        low = np.where(pos, np.inf, 0.0)
        updates = 0
        solve_free = True  # the free set changed since it was last solved
        while True:
            i = int(np.argmax(t + up))
            t_low = t + low
            t_min = t_low.min()
            bias = 0.5 * (t[i] + t_min)
            if t_min >= t[i] or _gap(t, ys, a, C, bias) <= self.tol:
                w = scale * (X.T @ (ys * a))
                t = ys - X @ w
                bias = _best_bias(t, ys, C)
                gap = _gap(t, ys, a, C, bias)
                if gap <= self.tol:
                    break
                # the recomputed t_i is rounded to about eps (1 + |x_i|.|w|),
                # and a_k holds the pair steps only to eps a_k, which puts up
                # to eps scale |x_i|.|x_k| a_k into t_i for each k; the second
                # bound covers the first, as |w| <= scale |X|^T a
                absX = np.abs(X)
                noise = 8.0 * np.finfo(float).eps * (1.0 + scale * absX @ (absX.T @ a)).max()
                if (t + up).max() - (t + low).min() <= noise:
                    raise ConvergenceError(
                        f"SVM duality gap {gap:.3g} above tol {self.tol:.3g}, but the "
                        "dual is optimal to rounding; raise tol (svm_tolerance)")
                continue
            if updates == self.n_iter:
                raise ConvergenceError(
                    f"SVM duality gap above tol {self.tol:.3g} after {updates} pair "
                    "updates; raise n_iter (svm_iterations)")
            # second-order choice of j: the largest guaranteed dual decrease
            # drop^2 / curv along a_i += y_i s, a_j -= y_j s
            curv = np.maximum(sq + sq[i] - X2 @ X[i], _TAU)
            drop = np.maximum(t[i] - t_low, 0.0)
            j = int(np.argmax(drop * drop / curv))
            room_i = C[i] - a[i] if pos[i] else a[i]
            room_j = a[j] if pos[j] else C[j] - a[j]
            step = min(drop[j] / curv[j], room_i, room_j)
            settled = 0.0 < a[i] < C[i] and 0.0 < a[j] < C[j] and step < min(room_i, room_j)
            a[i] = (C[i] if pos[i] else 0.0) if step == room_i else a[i] + ys[i] * step
            a[j] = (0.0 if pos[j] else C[j]) if step == room_j else a[j] - ys[j] * step
            t -= X @ (scale * step * (X[i] - X[j]))
            updates += 1
            changed = [i, j]
            if not settled:
                solve_free = True
            elif solve_free:
                # pair moves on an unchanged free set can zigzag for ever
                # when the Hessian (rank <= d) is ill-conditioned there
                changed = _solve_free_set(X, ys, a, C, t, scale, 1e-3 * self.tol)
                solve_free = False
            for k in changed:
                below, above = a[k] < C[k], a[k] > 0.0
                up[k] = 0.0 if (below if pos[k] else above) else -np.inf
                low[k] = 0.0 if (above if pos[k] else below) else np.inf
        self.coef_ = orient * w
        self.intercept_ = orient * bias
        self.dual_coef_ = a
        self.gap_ = gap
        self.n_iter_run_ = updates
        return self

    def decision_function(self, X) -> np.ndarray:
        return as_float_2d(X, "X") @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        """Boolean predictions; the zero decision value maps to True."""
        return self.decision_function(X) >= 0.0


def _solve_free_set(X, ys, a, C, t, scale, min_drop) -> np.ndarray:
    """Minimize the dual over the free variables (0 < a_i < C_i), the rest fixed.

    Over the free set F = {f_0, ..., f_n}, a move z in R^n adds z_k y_k
    to a_{f_k} and takes -y_0 sum_k z_k from a_{f_0}, which keeps
    sum_i a_i y_i = 0.  It changes w by scale B z, with columns
    B_k = x_{f_k} - x_{f_0}, and the dual by G.z + (scale / 2) |B z|^2,
    with G_k = t_{f_0} - t_{f_k}.  Split G = B^T c + r with B r = 0
    (B^T c = V V^T G, V spanning the rows of B, taken from the d x d
    eigenproblem of B B^T, which PCA already uses).  The Newton move
    solves B z = -c / scale, the minimizer; z = -r
    leaves w unchanged and lowers the dual linearly.  Each goes as far
    as the box 0 <= a <= C allows (the Newton move at most all the way),
    the variable that stops it set exactly on its bound, and the one
    that lowers the dual more is taken; the second only when it lowers
    it by over min_drop, so that rounding in r cannot push a variable
    onto its bound.  A move that reaches a bound goes on over the
    smaller free set; the search ends when no move helps or after two
    Newton moves in a row land inside.
    Updates a and t in place and returns the indices of a it changed.
    """
    moved = free = np.flatnonzero((a > 0.0) & (a < C))
    inside = False
    while len(free) > 1:
        yF = ys[free]
        B = (X[free[1:]] - X[free[0]]).T
        G = t[free[0]] - t[free[1:]]
        sq_sing, U = np.linalg.eigh(B @ B.T)
        keep = sq_sing > sq_sing[-1] * _RANK_RTOL
        V = (B.T @ U[:, keep]) / np.sqrt(sq_sing[keep])
        p = V.T @ G
        best = None
        for z, most, least in ((-(V @ (p / sq_sing[keep])) / scale, 1.0, 0.0),
                               (V @ p - G, np.inf, min_drop)):
            delta = np.append(-yF[0] * z.sum(), yF[1:] * z)
            room = np.full(len(free), np.inf)
            grow, shrink = delta > 0.0, delta < 0.0
            room[grow] = (C[free][grow] - a[free][grow]) / delta[grow]
            room[shrink] = a[free][shrink] / -delta[shrink]
            stop = int(np.argmin(room))
            theta = min(most, room[stop])
            if not np.isfinite(theta):
                continue
            dw = theta * scale * (B @ z)
            change = theta * (G @ z) + 0.5 * (dw @ dw) / scale
            if change < -least and (best is None or change < best[0]):
                best = (change, theta * delta, theta == room[stop], stop, dw)
        if best is None:
            break
        _, delta, hit, stop, dw = best
        aF = a[free] + delta
        if hit:
            aF[stop] = C[free][stop] if delta[stop] > 0.0 else 0.0
        a[free] = aF
        t -= X @ dw
        if not hit and inside:
            break
        inside = not hit
        free = free[(aF > 0.0) & (aF < C[free])]
    return moved


def _gap(t, ys, a, C, bias) -> float:
    """P(w, bias) - D(a) as a sum of nonnegative terms, given t_i = y_i - w.x_i.

    With u_i = 1 - y_i (w.x_i + bias) = y_i (t_i - bias) the gap is
    sum_i C_i max(0, u_i) - a_i u_i when w = w(a) and sum_i a_i y_i = 0.
    """
    u = ys * (t - bias)
    return float(C @ np.maximum(u, 0.0) - a @ u)


def _best_bias(t, ys, C) -> float:
    """Minimizer over b of sum_i C_i max(0, y_i (t_i - b)), the hinge part of P.

    The sum is convex and piecewise linear with kinks at the t_i; its
    slope just right of a kink is the weight of negatives at or left of
    it minus that of positives right of it.  The minimizer is the first
    kink where that slope is >= 0, or the midpoint of the flat stretch
    after it when the slope is exactly 0.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    neg = np.cumsum(np.where(ys[order] < 0, C[order], 0.0))
    pos = np.cumsum(np.where(ys[order] > 0, C[order], 0.0))
    slope = neg - (pos[-1] - pos)
    group_end = np.append(ts[1:] != ts[:-1], True)
    k = int(np.flatnonzero(group_end & (slope >= 0.0))[0])
    if slope[k] > 0.0 or k == len(ts) - 1:
        return float(ts[k])
    return float(0.5 * (ts[k] + ts[k + 1]))


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
    """Deterministic stratified fold ids in {0..k-1}, one per boolean label.

    Within each class, indices are shuffled by a seeded stream and dealt
    round-robin, so per-fold class counts differ from the proportional
    allocation by at most one.  Both classes need at least k members,
    else StratificationError (a class with 0 members included).
    """
    labels = np.asarray(labels)
    require(labels.dtype == bool, "labels must be boolean")
    require(k >= 2, "k must be >= 2")
    folds = np.empty(len(labels), dtype=np.int64)
    rng = generator(seed, stream=17)
    for cls in (False, True):
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
    fold_models: List[FoldModel]

    @property
    def mean(self) -> float:
        return float(self.scores.mean())


def _fit_fold(data: Dataset, folds: np.ndarray, f: int,
              hp: Optional[SvmHyperParams]) -> FoldModel:
    """Scale on the training rows of fold f only, train, score its validation rows."""
    val = folds == f
    train = ~val
    try:
        scaler = FeatureScaler().fit(data.X[train])
        model = LinearHingeSVM(**asdict(hp or SvmHyperParams()))
        model.fit(scaler.transform(data.X[train]), data.y[train])
        pred = model.predict(scaler.transform(data.X[val]))
        score = balanced_accuracy(data.y[val], pred)
    except ValueError as exc:
        raise type(exc)(f"fold {f}: {exc}") from exc
    return FoldModel(f, scaler, model, np.flatnonzero(val), score)


def cross_validate(data: Dataset, folds: np.ndarray,
                   hp: Optional[SvmHyperParams] = None, workers: int = 1) -> CVResult:
    """Per-fold: scale on the training rows only, train, score validation.

    folds holds a fold id in {0..k-1} per sample (see stratified_kfold);
    the k fold fits are spread over up to `workers` processes.
    """
    k = int(folds.max()) + 1
    fold_models = list(fork_map(lambda f: _fit_fold(data, folds, f, hp), k, workers))
    return CVResult(scores=np.array([fm.score for fm in fold_models]), folds=folds,
                    fold_models=fold_models)


def drop_column_importance(data: Dataset, cv: CVResult,
                           hp: Optional[SvmHyperParams] = None,
                           workers: int = 1) -> Dict[str, float]:
    """Full-set CV mean minus CV mean without each feature, on cv's folds.

    cv is the full-set result (see cross_validate) and is not refitted;
    hp should be the one it was fitted with.  The (feature, fold) fits
    are spread over up to `workers` processes.
    """
    require(data.n_features >= 2, "need at least 2 features to drop one")
    k = len(cv.fold_models)
    reduced = [data.drop_feature(j) for j in range(data.n_features)]
    scores = list(fork_map(lambda t: _fit_fold(reduced[t // k], cv.folds, t % k, hp).score,
                           data.n_features * k, workers))
    return {name: cv.mean - float(np.mean(scores[j * k:(j + 1) * k]))
            for j, name in enumerate(data.feature_names)}


def permutation_importance(data: Dataset, cv: CVResult, seed: int,
                           repeats: int = 20) -> Dict[str, Dict[str, float]]:
    """Validation-column permutation drops, pooled over folds and repeats.

    Uses cv's fold models, trained on intact features; each repeat
    shuffles one standardized validation column with its own stream
    derived from seed and records the decrease in balanced accuracy.
    """
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

def pca_2d(X_standardized) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coordinates, explained-variance fractions, components) for the top 2 axes.

    Eigendecomposition of the sample covariance with a fixed sign rule:
    each component has its largest-magnitude loading made positive, so
    projections are reproducible and invariant to sample order.
    """
    X = as_float_2d(X_standardized, "X")
    require(len(X) >= 2, "need at least 2 samples")
    xc = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(xc.T @ xc / (len(X) - 1))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    total = float(eigvals.sum())
    if total == 0.0:
        raise DegenerateFeatureError("covariance has rank 0")
    comps = eigvecs[:, order[:2]].T.copy()
    for row in comps:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0.0:
            row *= -1.0
    return xc @ comps.T, eigvals[:2] / total, comps
