from __future__ import annotations

import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahja import (
    ConvergenceWarning,
    DialectPipeline,
    CsrMatrix,
    LinearSvc,
    compute_class_weights,
    make_synthetic,
    preset,
)
from lahja import svm
from lahja.svm import _cholesky_solve, _final_solves, _group_samples, _group_step, _line_search, _solve_binary
from lahja.vectorizer import TfidfUnion

from helpers import csr, reference_cholesky_solve, reference_svc_fit


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
        X.append(x)
        y.append(int(margin > 0))
    return csr(X), y


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
        bases.append(x)
    carried = [{i % 3} for i in range(12)]
    for i in range(4):
        carried[i].add((i + 1) % 3)
    carried[4] = {0, 1, 2}
    rows, y = [], []
    for i in list(range(12)) + [5]:
        for label in sorted(carried[i]):
            rows.append(i)
            y.append(label)
    return csr(bases).take(rows), y, np.array(bases)


def squared_hinge_minimum(X, y, label, n_features, per_sample_c):
    """Primal optimum (w, b) of one one-vs-rest problem, bias regularized as a
    constant-1 feature, by L-BFGS-B on the dense problem."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    A = np.zeros((len(X), n_features + 1))
    A[X.row_ids(), X.indices] = X.values
    A[:, -1] = 1.0
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
        X = csr([[1.0, 0.0], [0.0, 1.0]])
        model = LinearSvc(C=1.0).fit(X, [1, 0])
        assert model.predict(X).tolist() == [1, 0]
        margins0, margins1 = model.decision_function(X)
        assert margins0[1] > 0 > margins0[0]
        assert margins1[0] > 0 > margins1[1]

    def test_training_accuracy_on_separable_sets(self):
        rng = np.random.RandomState(1)
        for _ in range(10):
            X, y = separable_instance(rng, rng.randint(4, 21), rng.randint(2, 6))
            model = LinearSvc(C=1.0).fit(X, y)
            assert model.predict(X).tolist() == y

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
        m2 = LinearSvc(C=1.0, seed=4, **tight).fit(X.take(list(range(len(X))) * 2), y + y)
        q = csr(rng.randn(5, 3))
        np.testing.assert_allclose(m1.decision_function(q), m2.decision_function(q), atol=1e-4)

    def test_same_seed_bit_identical(self):
        rng = np.random.RandomState(5)
        X, y = separable_instance(rng, 12, 3)
        a = LinearSvc(C=1.0, seed=9).fit(X, y)
        b = LinearSvc(C=1.0, seed=9).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)

    def test_balanced_weights_applied(self):
        # Heavily imbalanced set: balanced training must still separate it.
        X = csr([[1.0, 0.0]] * 8 + [[0.0, 1.0]] * 2)
        y = [0] * 8 + [1] * 2
        model = LinearSvc(C=1.0, balanced=True).fit(X, y)
        assert model.predict(csr([[0.0, 1.0]]))[0] == 1

    def test_single_class_rejected(self):
        X = csr([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="distinct"):
            LinearSvc().fit(X, [0, 0])

    def test_non_finite_values_rejected(self):
        # Feature rows cannot carry non-finite values, so no SVC sees one.
        with pytest.raises(ValueError, match="non-finite"):
            LinearSvc().fit(CsrMatrix([0, 1, 2], [0, 1], [float("inf"), 1.0], 2), [0, 1])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            LinearSvc().fit(csr([[1.0]]), [0])


class TestGroupedSolver:
    """Samples sharing one feature vector are solved as one block."""

    @pytest.mark.parametrize("balanced", [False, True])
    def test_duplicate_free_fit_bit_identical_to_per_sample_solver(self, balanced, monkeypatch):
        monkeypatch.setattr(svm, "NEWTON_MAX_SAMPLES", 0)  # the dual coordinate descent
        rng = np.random.RandomState(11)
        for trial in range(4):
            rows = rng.randn(24, 6) * (rng.rand(24, 6) < 0.6)
            _, first = np.unique(rows, axis=0, return_index=True)
            X = csr(rows[np.sort(first)])  # drop any repeats
            y = [i % 3 for i in range(len(X))]
            model = LinearSvc(C=2.0, balanced=balanced, seed=trial).fit(X, y)
            coef, intercept, history = reference_svc_fit(
                X, y, 3, 6, C=2.0, balanced=balanced, seed=trial
            )
            assert model.coef_.tobytes() == coef.tobytes()
            assert model.intercept_.tobytes() == intercept.tobytes()
            assert model.dual_objective_history_ == history

    def test_groups_in_first_occurrence_order(self):
        X = csr([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        rows = [X.row(r) for r in range(len(X))]
        groups = _group_samples([idx for idx, _ in rows], [val for _, val in rows])
        assert groups == [[0, 2, 3], [1, 4]]

    @pytest.mark.parametrize("balanced", [False, True])
    def test_grouped_fit_reaches_squared_hinge_minimum(self, balanced):
        rng = np.random.RandomState(12)
        X, y, bases = grouped_instance(rng)
        groups = _group_samples(*zip(*(X.row(r) for r in range(len(X)))))
        assert sorted(len(g) for g in groups if len(g) > 1) == [2, 2, 2, 2, 2, 3]
        model = LinearSvc(C=1.5, balanced=balanced, tol=1e-9, max_epochs=100_000).fit(X, y)
        per_sample_c = np.full(len(y), 1.5)
        if balanced:
            per_sample_c *= compute_class_weights(y, 3)[y]
        for label in range(3):
            w, b = squared_hinge_minimum(X, y, label, model.n_features_, per_sample_c)
            expected = bases @ w + b
            margins = model.decision_function(csr(bases))[:, label]
            np.testing.assert_allclose(margins, expected, atol=1e-4)

    def test_grouped_dual_non_decreasing_and_converged(self):
        rng = np.random.RandomState(12)
        X, y, _ = grouped_instance(rng)
        labels = np.asarray(y)
        diag = np.full(labels.size, 1.0 / (2.0 * 1.5))
        indices, values = zip(*(X.row(r) for r in range(len(X))))
        x_sq = np.array([float(v @ v) + 1.0 for v in values])
        for label in range(3):
            _, _, history, violation = _solve_binary(
                list(indices), list(values), _group_samples(indices, values),
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


def overlap_problem():
    """exp2-2 training samples of a small corpus with two-label documents."""
    ds = make_synthetic(4, 15, 30, 0.2, seed=7)
    config = preset("exp2-2")
    vectors = TfidfUnion(config.word, config.char, config.char_wb).fit_transform(ds.texts())
    samples = [(doc.id, label) for doc in ds.documents for label in sorted(doc.labels)]
    return vectors.take([doc_id for doc_id, _ in samples]), [label for _, label in samples]


class TestNewtonSolver:
    """Fits of at most ``NEWTON_MAX_SAMPLES`` samples: working-set Newton."""

    @pytest.mark.parametrize("balanced", [False, True])
    def test_reaches_squared_hinge_minimum_on_separable_sets(self, balanced):
        rng = np.random.RandomState(21)
        for _ in range(5):
            X, y = separable_instance(rng, rng.randint(6, 30), rng.randint(2, 6))
            model = LinearSvc(C=1.5, balanced=balanced, tol=1e-10).fit(X, y)
            per_sample_c = np.full(len(y), 1.5)
            if balanced:
                per_sample_c *= compute_class_weights(y, 2)[y]
            for label in range(2):
                w, b = squared_hinge_minimum(X, y, label, model.n_features_, per_sample_c)
                np.testing.assert_allclose(model.coef_[label], w, atol=1e-6)
                assert model.intercept_[label] == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("balanced", [False, True])
    def test_reaches_squared_hinge_minimum_with_duplicates(self, balanced):
        X, y, bases = grouped_instance(np.random.RandomState(12))
        model = LinearSvc(C=1.5, balanced=balanced, tol=1e-10).fit(X, y)
        per_sample_c = np.full(len(y), 1.5)
        if balanced:
            per_sample_c *= compute_class_weights(y, 3)[y]
        for label in range(3):
            w, b = squared_hinge_minimum(X, y, label, model.n_features_, per_sample_c)
            margins = model.decision_function(csr(bases))[:, label]
            np.testing.assert_allclose(margins, bases @ w + b, atol=1e-6)

    def test_matches_descent_at_tight_tol(self, monkeypatch):
        X, y = overlap_problem()
        tight = dict(C=4.0, balanced=True, tol=1e-10, max_epochs=100_000)
        newton = LinearSvc(**tight).fit(X, y)
        monkeypatch.setattr(svm, "NEWTON_MAX_SAMPLES", 0)
        descent = LinearSvc(**tight).fit(X, y)
        np.testing.assert_allclose(newton.coef_, descent.coef_, atol=1e-8)
        np.testing.assert_allclose(newton.intercept_, descent.intercept_, atol=1e-8)

    def test_label_without_samples_matches_descent(self, monkeypatch):
        rng = np.random.RandomState(22)
        X, y = csr(rng.randn(20, 4)), [i % 2 for i in range(20)]
        newton = LinearSvc(tol=1e-10).fit(X, y, n_labels=3)
        monkeypatch.setattr(svm, "NEWTON_MAX_SAMPLES", 0)
        descent = LinearSvc(tol=1e-10, max_epochs=100_000).fit(X, y, n_labels=3)
        np.testing.assert_allclose(newton.decision_function(X), descent.decision_function(X), atol=1e-8)

    def test_rounds_non_decreasing_and_final_gap_within_tol(self):
        X, y = overlap_problem()
        model = LinearSvc(C=4.0, balanced=True).fit(X, y)
        per_sample_c = 4.0 * compute_class_weights(y, 4)[y]
        margins = model.decision_function(X)
        assert max(len(h) for h in model.dual_objective_history_) >= 2  # the working set grew
        for label, history in enumerate(model.dual_objective_history_):
            assert (np.diff(history) >= -1e-9).all()
            s = np.where(np.asarray(y) == label, 1.0, -1.0)
            slack = np.maximum(0.0, 1.0 - s * margins[:, label])
            w, b = model.coef_[label], model.intercept_[label]
            primal = 0.5 * (w @ w + b * b) + per_sample_c @ (slack * slack)
            assert -1e-9 <= primal - history[-1] <= model.tol

    def test_step_cap_warns(self):
        X, y = overlap_problem()
        with pytest.warns(ConvergenceWarning, match=r"max_epochs=1 .*\(1 epochs"):
            model = LinearSvc(C=4.0, balanced=True, max_epochs=1).fit(X, y)
        assert all(len(h) == 1 for h in model.dual_objective_history_)

    def test_same_inputs_bit_identical(self):
        X, y = overlap_problem()
        a = LinearSvc(C=4.0, balanced=True).fit(X, y)
        b = LinearSvc(C=4.0, balanced=True).fit(X, y)
        assert a.coef_.tobytes() == b.coef_.tobytes()
        assert a.intercept_.tobytes() == b.intercept_.tobytes()
        assert a.dual_objective_history_ == b.dual_objective_history_

    def test_size_constant_picks_the_solver(self, monkeypatch):
        rng = np.random.RandomState(11)
        rows = rng.randn(24, 6) * (rng.rand(24, 6) < 0.6)
        _, first = np.unique(rows, axis=0, return_index=True)
        X = csr(rows[np.sort(first)])
        y = [i % 3 for i in range(len(X))]
        calls = []
        for name in ("_newton_binary", "_solve_binary"):
            real = getattr(svm, name)
            monkeypatch.setattr(svm, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        monkeypatch.setattr(svm, "NEWTON_MAX_SAMPLES", len(X))
        LinearSvc(C=2.0).fit(X, y)
        assert calls == ["_newton_binary"] * 3
        calls.clear()
        monkeypatch.setattr(svm, "NEWTON_MAX_SAMPLES", len(X) - 1)
        model = LinearSvc(C=2.0).fit(X, y)
        assert calls == ["_solve_binary"] * 3
        coef, intercept, _ = reference_svc_fit(X, y, 3, 6, C=2.0)
        assert model.coef_.tobytes() == coef.tobytes()
        assert model.intercept_.tobytes() == intercept.tobytes()

    def test_line_search_minimizes_the_primal_on_the_segment(self):
        rng = np.random.RandomState(32)
        for _ in range(200):
            n = rng.randint(1, 12)
            A = rng.randn(n, 3)
            gram = A @ A.T + 1.0
            signs = rng.choice([-1.0, 1.0], n)
            diag = rng.uniform(0.1, 2.0, n)
            coef = rng.randn(n) * (rng.rand(n) < 0.6)
            newton = rng.randn(n)

            def primal(steps):
                u = coef + np.multiply.outer(steps, newton - coef)
                margins = u @ gram
                slack = np.maximum(0.0, 1.0 - signs * margins)
                return 0.5 * (u * margins).sum(axis=1) + (slack * slack / (2.0 * diag)).sum(axis=1)

            t = _line_search(coef, gram @ coef, newton, gram @ newton, signs, diag)
            assert t >= 0.0
            grid = np.linspace(0.0, max(2.0, 2.0 * t), 4001)
            assert primal(np.array([t]))[0] <= primal(grid).min() + 1e-9

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_cholesky_solve_matches_lapack(self, n):
        rng = np.random.RandomState(n)
        A = rng.randn(3, n, n)
        a = A @ A.transpose(0, 2, 1) + n * np.eye(n)
        rhs = rng.randn(3, n)
        solved = _cholesky_solve(a.copy(), rhs)
        for b in range(3):
            np.testing.assert_allclose(solved[b], reference_cholesky_solve(a[b], rhs[b]), rtol=1e-10)
            np.testing.assert_allclose(solved[b], np.linalg.solve(a[b], rhs[b]), rtol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        shares=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=1, max_size=6),
        budget=st.integers(1, 4000),
    )
    def test_final_solve_bits_do_not_depend_on_the_batch(self, seed, n, shares, budget):
        """A label's re-solve has the same bits alone, padded into one chunk
        with larger systems, and in the chunks of any budget."""
        rng = np.random.RandomState(seed)
        A = rng.randn(n, rng.randint(1, 8))
        gram = A @ A.T + 1.0
        diag = rng.uniform(0.1, 2.0, n)
        signs = [rng.choice([-1.0, 1.0], n) for _ in shares]
        supports = [np.flatnonzero(rng.rand(n) < share) for share in shares]
        chunked = _final_solves(gram, signs, diag, supports, budget)
        padded = _final_solves(gram, signs, diag, supports, len(shares) * n * n)
        for label, support in enumerate(supports):
            alone = _final_solves(gram, [signs[label]], diag, [support], n * n)[0]
            assert chunked[label].tobytes() == alone.tobytes() == padded[label].tobytes()
            assert not alone[np.setdiff1d(np.arange(n), support)].any()  # all zero for an empty support
            s = signs[label][support]
            system = gram[np.ix_(support, support)] * np.multiply.outer(s, s) + np.diag(diag[support])
            np.testing.assert_allclose(system @ (s * alone[support]), np.ones(support.size), atol=1e-8)


class TestWarmStart:
    """``LinearSvc.fit(..., _start=...)``: any first working set reaches the
    support of the cold start, and so the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        n_labels=st.integers(1, 5),
        C=st.floats(0.05, 20.0),
        other_C=st.floats(0.05, 20.0),
        balanced=st.booleans(),
        tol=st.sampled_from([1e-4, 1e-2, 0.3]),
        start=st.sampled_from(["empty", "subset", "all", "other C"]),
    )
    def test_any_start_gives_the_cold_fit_bits(self, seed, n, n_labels, C, other_C, balanced, tol, start):
        rng = np.random.RandomState(seed)
        n_bases = rng.randint(1, n + 1)  # repeated rows, as multi-label documents give
        bases = rng.randn(n_bases, rng.randint(1, 8)) * (rng.rand(n_bases, 1) < 0.9)
        X = csr(bases).take(rng.randint(0, n_bases, n).tolist())
        y = rng.randint(0, n_labels, n)
        if rng.rand() < 0.8:  # mostly every label present, as balanced weights need
            y[: min(n, n_labels)] = np.arange(min(n, n_labels))
        y = y.tolist()
        params = dict(C=C, balanced=balanced, tol=tol)
        try:
            cold = LinearSvc(**params).fit(X, y, n_labels=n_labels)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                LinearSvc(**params).fit(X, y, n_labels=n_labels, _start=[np.arange(n)] * n_labels)
            return
        gram = svm.sample_gram(X)
        starts = {
            "empty": [np.arange(0)] * n_labels,
            "subset": [np.flatnonzero(rng.rand(n) < 0.5) for _ in range(n_labels)],
            "all": [np.arange(n)] * n_labels,
        }
        if start == "other C":
            starts[start] = LinearSvc(**{**params, "C": other_C}).fit(X, y, n_labels=n_labels, _gram=gram)._supports
        warm = LinearSvc(**params).fit(X, y, n_labels=n_labels, _gram=gram, _start=starts[start])
        assert warm.coef_.tobytes() == cold.coef_.tobytes()
        assert warm.intercept_.tobytes() == cold.intercept_.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(warm._supports, cold._supports))

    def test_cut_warm_start_gives_the_cold_fit_and_its_warning(self):
        X, y = overlap_problem()
        params = dict(C=4.0, balanced=True, max_epochs=2)
        with pytest.warns(ConvergenceWarning) as cold_warnings:
            cold = LinearSvc(**params).fit(X, y)
        # An empty start takes one step to W's zero optimum, then needs more.
        with pytest.warns(ConvergenceWarning) as warm_warnings:
            warm = LinearSvc(**params).fit(X, y, _gram=svm.sample_gram(X), _start=[np.arange(0)] * cold.n_labels_)
        assert [str(w.message) for w in warm_warnings] == [str(w.message) for w in cold_warnings]
        assert warm.coef_.tobytes() == cold.coef_.tobytes()
        assert warm.intercept_.tobytes() == cold.intercept_.tobytes()
        assert warm.dual_objective_history_ == cold.dual_objective_history_


def test_bundle_bytes_do_not_depend_on_the_blas_thread_count():
    script = (
        "import sys\n"
        "from lahja import DialectPipeline, dumps_model, make_synthetic, preset\n"
        "dataset = make_synthetic(10, 30, 60, 0.15, seed=1009)\n"
        "sys.stdout.buffer.write(dumps_model(DialectPipeline(preset('exp2-2')).fit(dataset)))\n"
    )
    src = str(Path(svm.__file__).resolve().parents[1])
    bundles = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
        bundles.append(run.stdout)
    assert bundles[0] == bundles[1]


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
        assert max(len(h) for h in pipeline.models_["svc"].dual_objective_history_) < 1000


class TestMargins:
    def test_dot_product(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            {"coef": [[1.0, -1.0]], "intercept": [0.0]},
            n_labels=1,
            n_features=2,
        )
        assert model.decision_function(csr([[1.0, 0.0]]))[0, 0] == pytest.approx(1.0)

    def test_empty_vector_scores_bias(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            {"coef": [[1.0, -1.0], [0.5, 0.5]], "intercept": [0.25, -0.75]},
            n_labels=2,
            n_features=2,
        )
        np.testing.assert_allclose(model.decision_function(csr([[0.0, 0.0]])), [[0.25, -0.75]])

    def test_linearity_identity(self):
        rng = np.random.RandomState(7)
        X, y = separable_instance(rng, 10, 4)
        model = LinearSvc(C=1.0).fit(X, y)
        a = rng.randn(4)
        b = rng.randn(4)
        lhs = model.decision_function(csr([a + b]))
        rhs = model.decision_function(csr([a])) + model.decision_function(csr([b])) - model.intercept_
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        model = LinearSvc.from_fitted(
            {"C": 1.0, "balanced": False, "tol": 1e-4, "max_epochs": 1000, "seed": 0},
            {"coef": [[1.0, -1.0]], "intercept": [0.0]},
            n_labels=1,
            n_features=2,
        )
        with pytest.raises(ValueError, match="dimension"):
            model.decision_function(csr([[0.0] * 5 + [1.0]]))

    def test_batch_margins_equal_one_row_margins(self):
        rng = np.random.RandomState(8)
        X, y = separable_instance(rng, 12, 4)
        model = LinearSvc(C=1.0).fit(X, y)
        queries = csr(rng.randn(9, 4) * (rng.rand(9, 4) < 0.7))
        batch = model.decision_function(queries)
        for r in range(len(queries)):
            assert batch[r].tobytes() == model.decision_function(queries.take([r]))[0].tobytes()
