from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest

from lahja import (
    ConvergenceWarning,
    DialectPipeline,
    LinearSvc,
    SparseVector,
    compute_class_weights,
    make_synthetic,
    preset,
)
from lahja.svm import _group_samples, _group_step, _solve_binary

from helpers import as_sparse, reference_svc_fit


def separable_instance(rng: np.random.RandomState, n_points: int, n_dims: int):
    """Random linearly separable 2-class set with margin >= 0.1."""
    w = rng.randn(n_dims)
    w /= np.linalg.norm(w)
    b = rng.uniform(-0.5, 0.5)
    X, y = [], []
    while len(X) < n_points or len(set(y)) < 2:
        x = rng.randn(n_dims)
        margin = w @ x + b
        if abs(margin) < 0.1:
            continue
        if len(X) == n_points:  # swap one point to reach 2 classes
            X.pop(), y.pop()
        X.append(as_sparse(x))
        y.append(int(margin > 0))
    return X, y


def grouped_instance(rng: np.random.RandomState, n_dims: int = 5):
    """Multi-label style 3-class set with repeated feature vectors.

    Each base vector yields one sample per label it carries, as multi-label
    documents do in ``DialectPipeline.fit``. Bases 0-3 carry two labels, base
    4 carries all three (a 3-member group) and base 5 appears twice with the
    same label, so each one-vs-rest problem has mixed- and same-sign groups.
    """
    bases = []
    for _ in range(12):
        x = rng.randn(n_dims)
        x[rng.rand(n_dims) < 0.3] = 0.0
        x[rng.randint(n_dims)] = rng.randn() + 3.0  # never all zero
        bases.append(as_sparse(x))
    carried = [{i % 3} for i in range(12)]
    for i in range(4):
        carried[i].add((i + 1) % 3)
    carried[4] = {0, 1, 2}
    X, y = [], []
    for i in list(range(12)) + [5]:
        for label in sorted(carried[i]):
            X.append(bases[i])
            y.append(label)
    return X, y, bases


def squared_hinge_minimum(X, y, label, n_features, per_sample_c):
    """Primal optimum (w, b) of one one-vs-rest problem, bias regularized as a
    constant-1 feature, by L-BFGS-B on the dense problem."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    A = np.array([np.append(x.to_dense(n_features), 1.0) for x in X])
    s = np.where(np.asarray(y) == label, 1.0, -1.0)

    def objective(theta):
        slack = np.maximum(0.0, 1.0 - s * (A @ theta))
        value = 0.5 * theta @ theta + per_sample_c @ (slack * slack)
        return value, theta - 2.0 * A.T @ (per_sample_c * slack * s)

    result = minimize(objective, np.zeros(n_features + 1), jac=True, method="L-BFGS-B",
                      options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000})
    return result.x[:-1], result.x[-1]


class TestClassWeights:
    def test_worked_example(self):
        weights = compute_class_weights([0, 0, 0, 0, 1, 1], 2)
        np.testing.assert_allclose(weights, [6 / (2 * 4), 6 / (2 * 2)])

    def test_balanced_labels_give_unit_weights(self):
        np.testing.assert_allclose(compute_class_weights([0, 0, 1, 1, 2, 2], 3), [1, 1, 1])

    def test_singletons_give_unit_weights(self):
        np.testing.assert_allclose(compute_class_weights([0, 1, 2], 3), [1, 1, 1])

    def test_absent_class_named_in_error(self):
        with pytest.raises(ValueError, match="2"):
            compute_class_weights([0, 1, 1], 3)

    def test_weighted_count_identity_exact(self):
        # The identity sum_c w(c)*count(c) = N holds exactly in rational
        # arithmetic; each float weight is the correctly rounded value.
        rng = np.random.RandomState(0)
        for _ in range(100):
            n_labels = rng.randint(2, 8)
            labels = list(rng.randint(0, n_labels, size=rng.randint(n_labels, 60)))
            labels.extend(range(n_labels))  # ensure presence
            counts = np.bincount(labels, minlength=n_labels)
            total = len(labels)
            exact = [Fraction(total, n_labels * int(c)) for c in counts]
            assert sum(w * int(c) for w, c in zip(exact, counts)) == total
            weights = compute_class_weights(labels, n_labels)
            for w_float, w_exact in zip(weights, exact):
                assert w_float == w_exact.numerator / w_exact.denominator


class TestLinearSvc:
    def test_separates_two_point_set(self):
        X = [SparseVector([0], [1.0]), SparseVector([1], [1.0])]
        model = LinearSvc(C=1.0).fit(X, [1, 0])
        assert model.predict(X[0]) == 1
        assert model.predict(X[1]) == 0
        margins0 = model.decision_function(X[0])
        margins1 = model.decision_function(X[1])
        assert margins0[1] > 0 > margins0[0]
        assert margins1[0] > 0 > margins1[1]

    def test_training_accuracy_on_separable_sets(self):
        rng = np.random.RandomState(1)
        for _ in range(10):
            X, y = separable_instance(rng, rng.randint(4, 21), rng.randint(2, 6))
            model = LinearSvc(C=1.0).fit(X, y)
            assert all(model.predict(x) == label for x, label in zip(X, y))

    def test_dual_objective_non_decreasing(self):
        rng = np.random.RandomState(2)
        X, y = separable_instance(rng, 15, 4)
        model = LinearSvc(C=1.0).fit(X, y)
        for history in model.dual_objective_history_:
            diffs = np.diff(history)
            assert (diffs >= -1e-9).all()

    def test_duplicating_samples_and_halving_c_keeps_decision_function(self):
        rng = np.random.RandomState(3)
        X, y = separable_instance(rng, 10, 3)
        tight = dict(tol=1e-10, max_epochs=50_000)
        m1 = LinearSvc(C=2.0, seed=4, **tight).fit(X, y)
        m2 = LinearSvc(C=1.0, seed=4, **tight).fit(X + X, y + y)
        for _ in range(5):
            q = as_sparse(rng.randn(3))
            np.testing.assert_allclose(
                m1.decision_function(q), m2.decision_function(q), atol=1e-4
            )

    def test_same_seed_bit_identical(self):
        rng = np.random.RandomState(5)
        X, y = separable_instance(rng, 12, 3)
        a = LinearSvc(C=1.0, seed=9).fit(X, y)
        b = LinearSvc(C=1.0, seed=9).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)

    def test_balanced_weights_applied(self):
        # Heavily imbalanced set: balanced training must still separate it.
        X = [as_sparse([1.0, 0.0])] * 8 + [as_sparse([0.0, 1.0])] * 2
        y = [0] * 8 + [1] * 2
        model = LinearSvc(C=1.0, balanced=True).fit(X, y)
        assert model.predict(as_sparse([0.0, 1.0])) == 1

    def test_single_class_rejected(self):
        X = [SparseVector([0], [1.0]), SparseVector([1], [1.0])]
        with pytest.raises(ValueError, match="distinct"):
            LinearSvc().fit(X, [0, 0])

    def test_non_finite_values_rejected(self):
        X = [SparseVector([0], [float("inf")]), SparseVector([1], [1.0])]
        with pytest.raises(ValueError, match="non-finite"):
            LinearSvc().fit(X, [0, 1])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            LinearSvc().fit([SparseVector([0], [1.0])], [0])


class TestGroupedSolver:
    """Samples sharing one feature vector are solved as one block."""

    @pytest.mark.parametrize("balanced", [False, True])
    def test_duplicate_free_fit_bit_identical_to_per_sample_solver(self, balanced):
        rng = np.random.RandomState(11)
        for trial in range(4):
            X = [as_sparse(rng.randn(6) * (rng.rand(6) < 0.6)) for _ in range(24)]
            X = list(dict.fromkeys(X))  # drop any repeats
            y = [i % 3 for i in range(len(X))]
            model = LinearSvc(C=2.0, balanced=balanced, seed=trial).fit(X, y, n_features=6)
            coef, intercept, history = reference_svc_fit(
                X, y, 3, 6, C=2.0, balanced=balanced, seed=trial
            )
            assert model.coef_.tobytes() == coef.tobytes()
            assert model.intercept_.tobytes() == intercept.tobytes()
            assert model.dual_objective_history_ == history

    def test_groups_in_first_occurrence_order(self):
        a, b = as_sparse([1.0, 0.0]), as_sparse([0.0, 2.0])
        assert _group_samples([a, b, as_sparse([1.0, 0.0]), a, b]) == [[0, 2, 3], [1, 4]]

    @pytest.mark.parametrize("balanced", [False, True])
    def test_grouped_fit_reaches_squared_hinge_minimum(self, balanced):
        rng = np.random.RandomState(12)
        X, y, bases = grouped_instance(rng)
        assert sorted(len(g) for g in _group_samples(X) if len(g) > 1) == [2, 2, 2, 2, 2, 3]
        model = LinearSvc(C=1.5, balanced=balanced, tol=1e-9, max_epochs=100_000).fit(X, y)
        per_sample_c = np.full(len(y), 1.5)
        if balanced:
            per_sample_c *= compute_class_weights(y, 3)[y]
        for label in range(3):
            w, b = squared_hinge_minimum(X, y, label, model.n_features_, per_sample_c)
            for x in bases:
                expected = x.dot_dense(w) + b
                assert model.decision_function(x)[label] == pytest.approx(expected, abs=1e-4)

    def test_grouped_dual_non_decreasing_and_converged(self):
        rng = np.random.RandomState(12)
        X, y, _ = grouped_instance(rng)
        labels = np.asarray(y)
        diag = np.full(labels.size, 1.0 / (2.0 * 1.5))
        x_sq = np.array([float(x.values @ x.values) + 1.0 for x in X])
        for label in range(3):
            _, _, history, violation = _solve_binary(
                [x.indices for x in X], [x.values for x in X], _group_samples(X),
                np.where(labels == label, 1.0, -1.0), diag, x_sq, 5, 1e-4, 1000, label,
            )
            assert (np.diff(history) >= -1e-9).all()
            assert violation < 1e-4

    def test_group_step_satisfies_block_optimality(self):
        # After the step every member meets the KKT conditions at the new
        # margin: zero gradient when alpha > 0, non-negative when alpha == 0.
        rng = np.random.RandomState(13)
        for _ in range(200):
            size = rng.randint(2, 5)
            signs = rng.choice([-1.0, 1.0], size=size)
            diag = rng.uniform(0.05, 2.0, size=size)
            alpha = np.where(rng.rand(size) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=size))
            p = rng.uniform(1.0, 4.0)
            margin = rng.uniform(-3.0, 3.0)
            t_old = float(signs @ alpha)
            _, step = _group_step(alpha, list(range(size)), signs, diag, margin, p)
            assert step == pytest.approx(float(signs @ alpha) - t_old, abs=1e-12)
            gradient = signs * (margin + step * p) - 1.0 + alpha * diag
            assert (alpha >= 0.0).all()
            np.testing.assert_allclose(gradient[alpha > 0.0], 0.0, atol=1e-10)
            assert (gradient[alpha == 0.0] >= -1e-10).all()

    def test_grouped_fit_deterministic_per_seed(self):
        X, y, _ = grouped_instance(np.random.RandomState(14))
        a = LinearSvc(seed=3).fit(X, y)
        b = LinearSvc(seed=3).fit(X, y)
        assert a.coef_.tobytes() == b.coef_.tobytes()
        assert a.intercept_.tobytes() == b.intercept_.tobytes()


class TestConvergenceWarning:
    def test_epoch_cap_on_overlap_corpus_warns(self):
        X, y, _ = grouped_instance(np.random.RandomState(15))
        with pytest.warns(ConvergenceWarning, match=r"max_epochs=1 .*label\(s\) 0 \(1 epochs"):
            LinearSvc(max_epochs=1).fit(X, y)

    def test_default_fit_on_overlap_corpus_is_silent(self):
        ds = make_synthetic(10, 30, 60, 0.15, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            pipeline = DialectPipeline(preset("exp2-2")).fit(ds)
        assert max(len(h) for h in pipeline.svc_.dual_objective_history_) < 1000


class TestMargins:
    def test_dot_product(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            coef=np.array([[1.0, -1.0]]),
            intercept=np.array([0.0]),
        )
        assert model.decision_function(SparseVector([0], [1.0]))[0] == pytest.approx(1.0)

    def test_empty_vector_scores_bias(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            coef=np.array([[1.0, -1.0], [0.5, 0.5]]),
            intercept=np.array([0.25, -0.75]),
        )
        np.testing.assert_allclose(
            model.decision_function(SparseVector.empty()), [0.25, -0.75]
        )

    def test_linearity_identity(self):
        rng = np.random.RandomState(7)
        X, y = separable_instance(rng, 10, 4)
        model = LinearSvc(C=1.0).fit(X, y)
        a = rng.randn(4)
        b = rng.randn(4)
        lhs = model.decision_function(as_sparse(a + b))
        rhs = (
            model.decision_function(as_sparse(a))
            + model.decision_function(as_sparse(b))
            - model.intercept_
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            coef=np.array([[1.0, -1.0]]),
            intercept=np.array([0.0]),
        )
        with pytest.raises(ValueError, match="dimension"):
            model.decision_function(SparseVector([5], [1.0]))
