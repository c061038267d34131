import itertools
import math
from functools import partial

import numpy as np
import pytest

from cycleews import (Dataset, FeatureScaler, LinearHingeSVM, balanced_accuracy,
                      cross_validate, drop_column_importance, pca_2d, permutation_importance,
                      stratified_kfold)
from cycleews.base import ConvergenceError
from cycleews.classify import DegenerateFeatureError, StratificationError
from cycleews.rng import derive_seed, generator

NAMES2 = ("a", "b")


def make_dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    names = names or tuple(f"f{j}" for j in range(X.shape[1]))
    return Dataset(X=X, y=np.asarray(y, dtype=bool),
                   run_ids=np.arange(len(X)), feature_names=names)


def gaussian_two_class(n, seed, separation=2.0, n_features=2):
    rng = generator(seed)
    X = rng.standard_normal((n, n_features))
    y = rng.random(n) < 0.5
    X[y, 0] += separation
    return X, y


# --------------------------------------------------------------------------
# scaler
# --------------------------------------------------------------------------

def test_scaler_self_fit_standardizes():
    rng = generator(derive_seed(2, "scaler"))
    X = rng.standard_normal((200, 3)) * np.array([0.2, 5.0, 1.0]) + 7.0
    scaled = FeatureScaler().fit(X).transform(X)
    assert np.abs(scaled.mean(axis=0)).max() < 1e-12
    assert np.abs(scaled.std(axis=0) - 1.0).max() < 1e-12


def test_scaler_two_point_column():
    X = np.array([[0.0], [2.0]])
    scaled = FeatureScaler().fit(X).transform(X)
    assert scaled[:, 0] == pytest.approx([-1.0, 1.0])


def test_scaler_rejects_constant_column():
    X = np.ones((10, 2))
    X[:, 0] = np.arange(10)
    with pytest.raises(DegenerateFeatureError):
        FeatureScaler().fit(X)


def test_scaler_uses_train_statistics_only():
    train = np.array([[0.0], [2.0]])
    val = np.array([[4.0], [6.0]])
    scaler = FeatureScaler().fit(train)
    projected = scaler.transform(val)
    self_fit = FeatureScaler().fit(val).transform(val)
    assert not np.allclose(projected, self_fit)
    assert projected[:, 0] == pytest.approx([3.0, 5.0])


def test_scaler_oracle_equivalence():
    rng = generator(derive_seed(2, "scaler-oracle"))
    for _ in range(100):
        n = int(rng.integers(3, 30))
        d = int(rng.integers(1, 5))
        X = np.asarray(rng.standard_normal((n, d)) * 3.0 + rng.uniform(-5, 5))
        scaled = FeatureScaler().fit(X).transform(X)
        for j in range(d):
            col = X[:, j]
            mean = sum(col) / n
            std = math.sqrt(sum((v - mean) ** 2 for v in col) / n)
            if std == 0.0:
                continue
            ref = (col - mean) / std
            assert np.abs(scaled[:, j] - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


# --------------------------------------------------------------------------
# SVM
# --------------------------------------------------------------------------

def test_svm_separable_toy():
    X = np.array([[2.0, 0.0], [3.0, 1.0], [2.5, -1.0],
                  [-2.0, 0.0], [-3.0, 1.0], [-2.5, -1.0]])
    y = np.array([True, True, True, False, False, False])
    model = LinearHingeSVM(n_iter=2000).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_svm_label_flip_antisymmetry():
    X, y = gaussian_two_class(60, derive_seed(2, "flip"))
    a = LinearHingeSVM(n_iter=1500).fit(X, y)
    b = LinearHingeSVM(n_iter=1500).fit(X, ~y)
    assert a.coef_ == pytest.approx(-b.coef_, abs=0.0)
    assert a.intercept_ == pytest.approx(-b.intercept_, abs=0.0)


def test_svm_recovers_bayes_boundary():
    X, y = gaussian_two_class(200, derive_seed(2, "bayes"))
    model = LinearHingeSVM().fit(X, y)
    w = model.coef_ / np.linalg.norm(model.coef_)
    angle = math.degrees(math.acos(min(1.0, abs(w[0]))))
    assert angle < 10.0


def svm_terms(model, X, y):
    """(w, b, a, C, lambda) of a fitted model, with C_i the box bound alpha_i / m."""
    ys = np.where(y, 1.0, -1.0)
    m = len(ys)
    lam = model.lambda_reg if model.lambda_reg is not None else 1.0 / (2.0 * m)
    if model.class_weight is None:
        alpha = np.ones(m)
    else:
        alpha = np.where(y, m / (2.0 * y.sum()), m / (2.0 * (~y).sum()))
    return ys, model.coef_, model.intercept_, model.dual_coef_, alpha / m, lam


def primal_objective(X, ys, C, lam, w, b):
    return float(C @ np.maximum(0.0, 1.0 - ys * (X @ w + b)) + lam * (w @ w))


def test_svm_optimality_kkt_and_gap():
    X, y = gaussian_two_class(120, derive_seed(2, "loss"), separation=1.0)
    model = LinearHingeSVM().fit(X, y)
    ys, w, b, a, C, lam = svm_terms(model, X, y)
    assert np.all(a >= 0.0) and np.all(a <= C)
    assert abs(a @ ys) <= 1e-15
    assert np.allclose(w, (a * ys) @ X / (2.0 * lam), rtol=1e-12, atol=1e-15)
    primal = primal_objective(X, ys, C, lam, w, b)
    dual = float(a.sum() - lam * (w @ w))
    assert model.gap_ <= model.tol
    assert primal - dual <= model.tol + 1e-14  # rounding of the two sums
    # complementary slackness: each nonnegative term of the gap is at most tol
    u = 1.0 - ys * (X @ w + b)
    terms = C * np.maximum(u, 0.0) - a * u
    assert terms.min() >= -1e-15 and terms.max() <= model.tol
    at_zero, at_bound = a == 0.0, a == C
    assert at_zero.any() and at_bound.any() and (~at_zero & ~at_bound).any()


def active_set_optimum(X, ys, C, lam) -> float:
    """Minimum of the primal by enumerating which samples sit on their margin (E)
    and which violate it (L); the optimum solves the equality-constrained QP
    of its own (E, L), whose KKT system is linear."""
    m, d = X.shape
    best = math.inf
    for labels in itertools.product((0, 1, 2), repeat=m):  # 0 rest, 1 L, 2 E
        E = [i for i in range(m) if labels[i] == 2]
        L = [i for i in range(m) if labels[i] == 1]
        if len(E) > d + 1:
            continue
        n = d + 1 + len(E)
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        A[:d, :d] = 2.0 * lam * np.eye(d)
        rhs[:d] = sum((C[i] * ys[i] * X[i] for i in L), np.zeros(d))
        rhs[d] = sum(C[i] * ys[i] for i in L)
        for k, i in enumerate(E):
            A[:d, d + 1 + k] = -ys[i] * X[i]
            A[d, d + 1 + k] = -ys[i]
            A[d + 1 + k, :d] = ys[i] * X[i]
            A[d + 1 + k, d] = ys[i]
            rhs[d + 1 + k] = 1.0
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
        if not np.allclose(A @ sol, rhs, atol=1e-9):
            continue
        best = min(best, primal_objective(X, ys, C, lam, sol[:d], sol[d]))
    return best


@pytest.mark.parametrize("case", range(6))
def test_svm_matches_active_set_oracle(case):
    rng = generator(derive_seed(2, "svm-oracle", case))
    X = rng.standard_normal((7, 2))
    y = np.array([True, False] + list(rng.random(5) < 0.5))
    X[y] += 0.8
    params = [{}, {"class_weight": None}, {"lambda_reg": 0.02}][case % 3]
    model = LinearHingeSVM(**params).fit(X, y)
    ys, w, b, _, C, lam = svm_terms(model, X, y)
    oracle = active_set_optimum(X, ys, C, lam)
    assert primal_objective(X, ys, C, lam, w, b) == pytest.approx(oracle, rel=0.0, abs=1e-9)


def test_svm_iteration_cap_raises():
    X, y = gaussian_two_class(120, derive_seed(2, "cap"), separation=1.0)
    with pytest.raises(ConvergenceError):
        LinearHingeSVM(n_iter=5).fit(X, y)


@pytest.mark.parametrize("setting,message", [
    ({"lambda_reg": -1.0}, "lambda_reg"), ({"lambda_reg": 0.0}, "lambda_reg"),
    ({"lambda_reg": math.inf}, "lambda_reg"), ({"lambda_reg": math.nan}, "lambda_reg"),
    ({"n_iter": 0}, "n_iter"), ({"tol": 0.0}, "tol"), ({"tol": -1e-9}, "tol"),
    ({"tol": math.inf}, "tol"), ({"tol": math.nan}, "tol"),
    ({"class_weight": "bogus"}, "class_weight")])
def test_svm_rejects_settings_without_a_convex_objective_or_a_stop(setting, message):
    # a negative lambda makes the objective nonconvex, 0 leaves it undefined, and an
    # infinite tol would certify any point; each is refused before any fit
    with pytest.raises(ValueError, match=message):
        LinearHingeSVM(**setting)


@pytest.mark.parametrize("seed", [3, 15, 19])
def test_svm_unscaled_input_stops_at_rounding_floor(seed):
    # on unscaled input with a small lambda the dual is optimal to rounding
    # with the gap still above tol; the fit must say so instead of using up
    # its pair-update budget
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (15, 1)) * 386.0
    y = rng.random(15) < 0.5
    try:
        model = LinearHingeSVM(lambda_reg=1e-4, n_iter=1000).fit(X, y)
    except ConvergenceError as exc:
        assert "optimal to rounding" in str(exc)
    else:
        assert model.gap_ <= model.tol


def test_svm_single_class_rejected():
    X = np.ones((5, 2))
    for y in (np.ones(5, dtype=bool), np.zeros(5, dtype=bool)):
        with pytest.raises(ValueError, match="must contain both classes"):
            LinearHingeSVM().fit(X, y)


def test_svm_deterministic():
    X, y = gaussian_two_class(80, derive_seed(2, "det"))
    a = LinearHingeSVM().fit(X, y)
    b = LinearHingeSVM().fit(X, y)
    assert np.array_equal(a.coef_, b.coef_) and a.intercept_ == b.intercept_


# --------------------------------------------------------------------------
# balanced accuracy
# --------------------------------------------------------------------------

def test_balanced_accuracy_examples():
    y = np.array([True, True, False, False])
    assert balanced_accuracy(y, y) == 1.0
    assert balanced_accuracy(y, np.ones(4, dtype=bool)) == 0.5
    # recalls 0.9 and 0.7
    y_true = np.array([True] * 10 + [False] * 10)
    y_pred = np.array([True] * 9 + [False] + [True] * 3 + [False] * 7)
    assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        balanced_accuracy(np.ones(4, dtype=bool), y)


def test_balanced_accuracy_oracle_equivalence():
    rng = generator(derive_seed(2, "ba-oracle"))
    for _ in range(100):
        n = int(rng.integers(4, 60))
        y_true = rng.random(n) < 0.5
        if y_true.all() or not y_true.any():
            continue
        y_pred = rng.random(n) < 0.5
        mine = balanced_accuracy(y_true, y_pred)
        recalls = []
        for cls in (True, False):
            members = [i for i in range(n) if y_true[i] == cls]
            hits = sum(1 for i in members if y_pred[i] == cls)
            recalls.append(hits / len(members))
        ref = 0.5 * (recalls[0] + recalls[1])
        assert abs(mine - ref) <= 1e-10 * max(1.0, ref)


# --------------------------------------------------------------------------
# stratified folds
# --------------------------------------------------------------------------

def test_stratified_balanced_case():
    y = np.array([True] * 5 + [False] * 5)
    folds = stratified_kfold(y, 5, 7)
    for f in range(5):
        sel = folds == f
        assert sel.sum() == 2
        assert y[sel].sum() == 1


def test_stratified_deterministic():
    y = np.arange(40) % 2 == 0
    assert np.array_equal(stratified_kfold(y, 4, 99), stratified_kfold(y, 4, 99))
    assert not np.array_equal(stratified_kfold(y, 4, 99), stratified_kfold(y, 4, 100))


def test_stratified_count_balance_103_97():
    y = np.array([True] * 103 + [False] * 97)
    folds = stratified_kfold(y, 5, 11)
    pos = [int((y & (folds == f)).sum()) for f in range(5)]
    neg = [int((~y & (folds == f)).sum()) for f in range(5)]
    assert set(pos) == {20, 21} and sorted(pos, reverse=True) == [21, 21, 21, 20, 20]
    assert set(neg) == {19, 20} and sorted(neg, reverse=True) == [20, 20, 19, 19, 19]


def test_stratified_counting_oracle():
    rng = generator(derive_seed(2, "fold-oracle"))
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n_pos = int(rng.integers(k, 40))
        n_neg = int(rng.integers(k, 40))
        y = np.array([True] * n_pos + [False] * n_neg)
        folds = stratified_kfold(y, k, int(rng.integers(0, 2 ** 32)))
        assert set(np.unique(folds)) <= set(range(k))
        assert np.bincount(folds, minlength=k).sum() == len(y)
        for cls, n_cls in ((True, n_pos), (False, n_neg)):
            counts = [int(((y == cls) & (folds == f)).sum()) for f in range(k)]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == n_cls


def test_stratified_small_class_rejected():
    y = np.array([True] * 2 + [False] * 20)
    with pytest.raises(StratificationError):
        stratified_kfold(y, 5, 3)


# --------------------------------------------------------------------------
# cross-validation and importances
# --------------------------------------------------------------------------

def test_cross_validate_separable():
    rng = generator(derive_seed(2, "cv-sep"))
    n = 100
    y = np.arange(n) % 2 == 0
    X = rng.standard_normal((n, 2))
    X[:, 0] = np.where(y, 10.0, -10.0) + X[:, 0]
    data = make_dataset(X, y)
    result = cross_validate(data, stratified_kfold(data.y, 5, 1),
                            partial(LinearHingeSVM, n_iter=2000))
    assert result.mean == 1.0


def test_cross_validate_label_permutation_null():
    rng = generator(derive_seed(2, "cv-null"))
    X, y = gaussian_two_class(200, derive_seed(2, "cv-null-data"), separation=2.0)
    data = make_dataset(X, rng.permutation(y))
    result = cross_validate(data, stratified_kfold(data.y, 5, 3),
                            partial(LinearHingeSVM, n_iter=2000))
    assert abs(result.mean - 0.5) < 0.1


def test_cross_validate_bit_reproducible():
    X, y = gaussian_two_class(80, derive_seed(2, "cv-bit"))
    data = make_dataset(X, y)
    a = cross_validate(data, stratified_kfold(data.y, 4, 9))
    b = cross_validate(data, stratified_kfold(data.y, 4, 9))
    assert np.array_equal(a.scores, b.scores)


def test_cross_validate_no_leakage():
    X, y = gaussian_two_class(60, derive_seed(2, "leak"))
    data = make_dataset(X, y)
    base = cross_validate(data, stratified_kfold(data.y, 3, 5))
    mutated = X.copy()
    fold0_val = base.fold_models[0].val_rows
    mutated[fold0_val[0]] += 1000.0  # validation row of fold 0
    data2 = make_dataset(mutated, y)
    after = cross_validate(data2, base.folds)
    assert np.array_equal(after.fold_models[0].scaler.mean_,
                          base.fold_models[0].scaler.mean_)
    assert np.array_equal(after.fold_models[0].scaler.scale_,
                          base.fold_models[0].scaler.scale_)


def test_duplicated_label_feature_is_perfect():
    X, y = gaussian_two_class(100, derive_seed(2, "dup-label"), separation=0.0)
    X = np.column_stack([X, np.where(y, 1.0, -1.0) + 0.001 * X[:, 0]])
    data = make_dataset(X, y)
    assert cross_validate(data, stratified_kfold(data.y, 5, 2)).mean == 1.0


def test_drop_column_redundant_copies():
    rng = generator(derive_seed(2, "drop-dup"))
    n = 200
    y = rng.random(n) < 0.5
    informative = np.where(y, 1.0, -1.0) + 0.3 * rng.standard_normal(n)
    X = np.column_stack([informative, informative + 1e-9 * rng.standard_normal(n),
                         rng.standard_normal(n)])
    data = make_dataset(X, y)
    svm = partial(LinearHingeSVM, n_iter=2000)
    cv = cross_validate(data, stratified_kfold(data.y, 5, 4), svm)
    deltas = drop_column_importance(data, cv)
    assert abs(deltas["f0"]) < 0.03  # dropping either copy changes nothing
    assert abs(deltas["f1"]) < 0.03


def test_drop_column_pure_noise_feature():
    rng = generator(derive_seed(2, "drop-noise"))
    X, y = gaussian_two_class(240, derive_seed(2, "drop-noise-data"))
    X = np.column_stack([X, rng.standard_normal(len(X))])
    data = make_dataset(X, y)
    # one 5-fold split moves the importance of a noise column by about
    # 0.009 (sd over split seeds); averaging ten splits of the same data
    # leaves the spread between data draws, which a 0.01 bound covers
    svm = partial(LinearHingeSVM, n_iter=2000)
    repeats = [drop_column_importance(
                   data, cross_validate(data, stratified_kfold(data.y, 5, seed), svm))
               for seed in range(10)]
    assert abs(np.mean([d["f2"] for d in repeats])) <= 0.01
    assert np.mean([d["f0"] for d in repeats]) > 0.2  # the informative column counts


def test_permutation_importance_informative_column_collapses():
    rng = generator(derive_seed(2, "perm-info"))
    n = 200
    y = np.arange(n) % 2 == 0
    X = np.column_stack([np.where(y, 3.0, -3.0) + 0.1 * rng.standard_normal(n),
                         rng.standard_normal(n)])
    data = make_dataset(X, y)
    cv = cross_validate(data, stratified_kfold(data.y, 5, 8), partial(LinearHingeSVM, n_iter=2000))
    imp = permutation_importance(data, cv, 8, repeats=10)
    assert 0.35 < imp["f0"]["mean"] < 0.65  # score collapses to chance
    assert abs(imp["f1"]["mean"]) < 0.05


def test_permutation_identity_on_equal_values():
    # permuting equal values is the identity, the mechanism behind a
    # constant column having exactly zero importance
    rng = generator(derive_seed(2, "perm-id"))
    col = np.full(17, 3.25)
    assert np.array_equal(col[rng.permutation(17)], col)


def test_importances_deterministic():
    X, y = gaussian_two_class(90, derive_seed(2, "imp-det"))
    data = make_dataset(X, y)
    svm = partial(LinearHingeSVM, n_iter=500)
    a = permutation_importance(data, cross_validate(data, stratified_kfold(data.y, 3, 11), svm),
                               11, repeats=5)
    b = permutation_importance(data, cross_validate(data, stratified_kfold(data.y, 3, 11), svm),
                               11, repeats=5)
    assert a == b


def test_fold_fits_independent_of_workers(pool_sizes):
    X, y = gaussian_two_class(90, derive_seed(2, "workers"), n_features=3)
    data = make_dataset(X, y)
    svm = partial(LinearHingeSVM, n_iter=300)
    folds = stratified_kfold(data.y, 3, 5)
    serial = cross_validate(data, folds, svm)
    forked = cross_validate(data, folds, svm, workers=2)
    assert serial.scores.tobytes() == forked.scores.tobytes()
    for a, b in zip(serial.fold_models, forked.fold_models):
        assert a.model.coef_.tobytes() == b.model.coef_.tobytes()
        assert a.model.intercept_ == b.model.intercept_
    assert (drop_column_importance(data, serial)
            == drop_column_importance(data, forked, workers=2))
    assert pool_sizes == [2, 2]


def test_importances_reuse_given_cv(monkeypatch):
    X, y = gaussian_two_class(90, derive_seed(2, "reuse"), n_features=3)
    data = make_dataset(X, y)
    svm = partial(LinearHingeSVM, n_iter=300)
    folds = stratified_kfold(data.y, 3, 5)
    cv = cross_validate(data, folds, svm)
    expected_drop = drop_column_importance(data, cross_validate(data, folds, svm))
    expected_perm = permutation_importance(data, cross_validate(data, folds, svm), 8,
                                           repeats=4)
    fits = []
    real_fit = LinearHingeSVM.fit
    monkeypatch.setattr(LinearHingeSVM, "fit",
                        lambda self, X, y: fits.append(1) or real_fit(self, X, y))
    assert drop_column_importance(data, cv) == expected_drop
    assert len(fits) == 3 * 3  # the dropped-feature fits only
    assert permutation_importance(data, cv, 8, repeats=4) == expected_perm
    assert len(fits) == 3 * 3


# --------------------------------------------------------------------------
# PCA
# --------------------------------------------------------------------------

def test_pca_collinear_data():
    rng = generator(derive_seed(2, "pca-line"))
    t = rng.standard_normal(500)
    X = np.column_stack([t, 2.0 * t, -t]) + 1e-6 * rng.standard_normal((500, 3))
    coords, explained, _ = pca_2d(X)
    assert explained[0] > 0.999
    assert coords.shape == (500, 2)


def test_pca_isotropic_gaussian():
    rng = generator(derive_seed(2, "pca-iso"))
    X = rng.standard_normal((10_000, 2))
    _, explained, _ = pca_2d(X)
    assert explained[0] == pytest.approx(0.5, abs=0.02)
    assert explained[1] == pytest.approx(0.5, abs=0.02)


def test_pca_sample_order_invariance():
    rng = generator(derive_seed(2, "pca-perm"))
    X = rng.standard_normal((300, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    perm = rng.permutation(300)
    coords_a, expl_a, comp_a = pca_2d(X)
    coords_b, expl_b, comp_b = pca_2d(X[perm])
    assert np.allclose(comp_a, comp_b)
    assert np.allclose(expl_a, expl_b)
    assert np.allclose(coords_a[perm], coords_b)


def test_pca_sign_convention():
    rng = generator(derive_seed(2, "pca-sign"))
    X = rng.standard_normal((200, 3)) @ np.diag([4.0, 1.0, 0.2])
    _, _, components = pca_2d(X)
    for row in components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_degenerate_rejected():
    with pytest.raises(DegenerateFeatureError):
        pca_2d(np.ones((5, 3)))
