"""One-vs-rest linear SVM trained by dual coordinate descent.

Primal problem per label c (squared hinge, L2 regularization, bias folded in
as a constant-1 feature):

    min_w  0.5 ||w||^2 + C * sum_i a_i * max(0, 1 - s_i * (w . x_i + b))^2

with s_i = +1 when y_i == c else -1 and a_i the class weight of y_i (1 when
unweighted). The dual is solved block-coordinate-wise: samples with equal
feature vectors (a multi-label document yields one sample per gold label)
form a group, and each epoch visits the groups in a seeded random
permutation, minimizing the dual exactly over each group's coordinates. A
group of one is a plain coordinate step. Training stops when the largest
projected-gradient violation over an epoch drops below ``tol`` or after
``max_epochs`` epochs; a label cut off at ``max_epochs`` raises a
``ConvergenceWarning``.
"""

from __future__ import annotations

import random
import warnings
from typing import Sequence

import numpy as np

from .base import BaseEstimator, check_is_fitted, check_labels, check_list, check_positive, check_reals
from .sparse import CsrMatrix

# Spreads per-label RNG streams apart so one-vs-rest problems stay
# independently reproducible.
_LABEL_SEED_STRIDE = 1_000_003


class ConvergenceWarning(RuntimeWarning):
    """A one-vs-rest label stopped at ``max_epochs`` above ``tol``."""


def compute_class_weights(y: Sequence[int], n_labels: int) -> np.ndarray:
    """Balanced class weights w(c) = N / (n_labels * count(c)).

    Every class in [0, n_labels) must occur at least once.
    """
    if n_labels < 1:
        raise ValueError(f"n_labels must be >= 1, got {n_labels}")
    labels = np.asarray(y, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot compute class weights for an empty label list")
    if labels.min() < 0 or labels.max() >= n_labels:
        raise ValueError("label index outside [0, n_labels)")
    counts = np.bincount(labels, minlength=n_labels)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ValueError(
            f"class(es) {', '.join(str(c) for c in missing)} have no samples; "
            "balanced weights are undefined"
        )
    return labels.size / (n_labels * counts.astype(np.float64))


class LinearSvc(BaseEstimator):
    """One-vs-rest linear SVM over sparse feature rows.

    Fitted attributes: ``coef_`` (n_labels x n_features), ``intercept_``
    (n_labels), ``n_features_``, ``n_labels_`` and
    ``dual_objective_history_`` — one per-epoch list of dual objective
    values per label, each non-decreasing.
    """

    def __init__(
        self,
        C: float = 1.0,
        balanced: bool = False,
        tol: float = 1e-4,
        max_epochs: int = 1000,
        seed: int = 0,
    ):
        self.C = C
        self.balanced = balanced
        self.tol = tol
        self.max_epochs = max_epochs
        self.seed = seed

    def fit(self, X: CsrMatrix, y: Sequence[int], n_labels: int | None = None) -> "LinearSvc":
        check_positive("C", self.C)
        check_positive("tol", self.tol)
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        labels, n_labels = check_labels(len(X), y, n_labels)
        if len(X) < 2:
            raise ValueError("training requires at least 2 samples")
        if np.unique(labels).size < 2:
            raise ValueError("training requires at least 2 distinct labels")

        n_features = X.n_cols
        index_arrays, value_arrays = zip(*map(X.row, range(len(X))))
        weights = compute_class_weights(labels, n_labels) if self.balanced else None
        per_sample_c = np.full(labels.size, float(self.C))
        if weights is not None:
            per_sample_c *= weights[labels]
        diag = 1.0 / (2.0 * per_sample_c)
        # +1.0 accounts for the implicit constant-1 bias feature.
        x_sq = [float(v @ v) + 1.0 for v in value_arrays]
        groups = _group_samples(index_arrays, value_arrays)

        coef = np.zeros((n_labels, n_features), dtype=np.float64)
        intercept = np.zeros(n_labels, dtype=np.float64)
        history: list[list[float]] = []
        unconverged: list[str] = []
        for label in range(n_labels):
            signs = np.where(labels == label, 1.0, -1.0).tolist()
            w, b, objective, violation = _solve_binary(
                index_arrays,
                value_arrays,
                groups,
                signs,
                diag,
                x_sq,
                n_features,
                self.tol,
                self.max_epochs,
                self.seed * _LABEL_SEED_STRIDE + label,
            )
            coef[label] = w
            intercept[label] = b
            history.append(objective)
            if violation >= self.tol:
                unconverged.append(f"{label} ({len(objective)} epochs, violation {violation:.3g})")
        if unconverged:
            warnings.warn(
                f"LinearSvc stopped at max_epochs={self.max_epochs} above tol={self.tol:g} "
                f"for label(s) {', '.join(unconverged)}",
                ConvergenceWarning,
                stacklevel=2,
            )

        self.coef_ = coef
        self.intercept_ = intercept
        self.n_features_ = n_features
        self.n_labels_ = n_labels
        self.dual_objective_history_ = history
        return self

    def payload(self) -> dict:
        """The model's bundle entry: its weights, one row per label."""
        check_is_fitted(self, "coef_")
        return {"coef": self.coef_.tolist(), "intercept": self.intercept_.tolist()}

    @classmethod
    def from_fitted(cls, params: dict, payload: dict, n_labels: int, n_features: int) -> "LinearSvc":
        """The model of a :meth:`payload` entry, which must hold ``n_labels``
        weight rows of ``n_features`` reals and ``n_labels`` intercepts."""
        coef = np.array([check_reals("svc coef row", row) for row in check_list("svc coef", payload["coef"], list)])
        intercept = check_reals("svc intercept", payload["intercept"])
        if len(coef) != n_labels:
            raise ValueError(f"svc coef has {len(coef)} rows for {n_labels} labels")
        if coef.shape != (n_labels, n_features):
            raise ValueError(f"svc model dimension {coef.shape[-1]} does not match union dimension {n_features}")
        if intercept.shape != (n_labels,):
            raise ValueError(f"svc intercept has shape {intercept.shape} for {n_labels} labels")
        model = cls(**params)
        model.coef_, model.intercept_ = coef, intercept
        model.n_labels_, model.n_features_ = n_labels, n_features
        model.dual_objective_history_ = []
        return model

    def decision_function(self, X: CsrMatrix) -> np.ndarray:
        """(rows x labels) margins w_c . x + b_c, one row at a time."""
        check_is_fitted(self, "coef_")
        X.check_cols(self.n_features_)
        margins = np.empty((len(X), self.n_labels_), dtype=np.float64)
        for r in range(len(X)):
            idx, val = X.row(r)
            margins[r] = self.coef_[:, idx] @ val
        margins += self.intercept_
        return margins

    def predict(self, X: CsrMatrix) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1)


def _group_samples(index_arrays: Sequence[np.ndarray], value_arrays: Sequence[np.ndarray]) -> list[list[int]]:
    """Sample indices grouped by equal feature vector, in first-occurrence order."""
    groups: dict[tuple[bytes, bytes], list[int]] = {}
    for i, (idx, val) in enumerate(zip(index_arrays, value_arrays)):
        groups.setdefault((idx.tobytes(), val.tobytes()), []).append(i)
    return list(groups.values())


def _solve_binary(
    index_arrays: Sequence[np.ndarray],
    value_arrays: Sequence[np.ndarray],
    groups: list[list[int]],
    signs: list[float],
    diag: np.ndarray,
    x_sq: list[float],
    n_features: int,
    tol: float,
    max_epochs: int,
    seed: int,
) -> tuple[np.ndarray, float, list[float], float]:
    """Dual coordinate descent for one binary subproblem.

    ``x_sq[i]`` is x_i . x_i + 1 (the bias feature included). The per-sample
    scalars live in Python lists, which index faster than numpy arrays; only
    ``w`` is an array. Returns (w, b, objective history, largest violation of
    the last epoch).
    """
    n = len(signs)
    diag_list = diag.tolist()
    q_diag = (np.asarray(x_sq) + diag).tolist()
    w = np.zeros(n_features, dtype=np.float64)
    b = 0.0
    alpha = [0.0] * n
    order = list(range(len(groups)))
    rng = random.Random(seed)
    objective: list[float] = []
    for _ in range(max_epochs):
        rng.shuffle(order)
        max_violation = 0.0
        for g in order:
            members = groups[g]
            i = members[0]
            idx = index_arrays[i]
            val = value_arrays[i]
            margin = (float(w[idx] @ val) + b) if idx.size else b
            if len(members) > 1:
                violation, step = _group_step(alpha, members, signs, diag_list, margin, x_sq[i])
            else:
                sign = signs[i]
                a_old = alpha[i]
                gradient = sign * margin - 1.0 + a_old * diag_list[i]
                projected = min(gradient, 0.0) if a_old == 0.0 else gradient
                violation = abs(projected)
                step = 0.0
                if violation > 1e-12:
                    a_new = a_old - gradient / q_diag[i]
                    if a_new < 0.0:
                        a_new = 0.0
                    alpha[i] = a_new
                    step = (a_new - a_old) * sign
            if violation > max_violation:
                max_violation = violation
            if step != 0.0:
                if idx.size:
                    w[idx] += step * val
                b += step
        a = np.array(alpha)
        objective.append(float(a.sum() - 0.5 * (w @ w + b * b + float(a @ (a * diag)))))
        if max_violation < tol:
            break
    return w, b, objective, max_violation


def _group_step(
    alpha: list[float],
    members: list[int],
    signs: list[float],
    diag: list[float],
    margin: float,
    p: float,
) -> tuple[float, float]:
    """Minimize the dual exactly over a group of samples sharing one vector x.

    With p = x . x + 1, D_k = diag[k] and t = sum_k s_k alpha_k, the group's
    margin is m_rest + t p, and the optimum is
    alpha_k = max(0, (1 - s_k (m_rest + t p)) / D_k) at the root of the
    increasing piecewise-linear
    phi(t) = t - sum_k s_k max(0, (1 - s_k (m_rest + t p)) / D_k).
    Its breakpoints are (s_k - m_rest) / p: one shared by the positive
    members and a lower one shared by the negative members, so the root lies
    in one of three segments. With S the members whose alpha_k > 0 in that
    segment, t = (sum_S s_k / D_k - m_rest sum_S 1 / D_k) / (1 + p sum_S 1 / D_k).
    Updates ``alpha`` in place; returns (the largest projected-gradient
    violation before the step, the change in t).
    """
    violation = 0.0
    t_old = 0.0
    inv_pos = inv_neg = 0.0
    for k in members:
        a = alpha[k]
        gradient = signs[k] * margin - 1.0 + a * diag[k]
        violation = max(violation, abs(min(gradient, 0.0) if a == 0.0 else gradient))
        t_old += signs[k] * a
        if signs[k] > 0.0:
            inv_pos += 1.0 / diag[k]
        else:
            inv_neg += 1.0 / diag[k]
    if violation <= 1e-12:
        return violation, 0.0
    m_rest = margin - t_old * p
    if (-1.0 - m_rest) / p - 2.0 * inv_pos >= 0.0:  # phi >= 0 at the lower breakpoint
        s_inv, inv = inv_pos, inv_pos
    elif (1.0 - m_rest) / p + 2.0 * inv_neg <= 0.0:  # phi <= 0 at the upper breakpoint
        s_inv, inv = -inv_neg, inv_neg
    else:
        s_inv, inv = inv_pos - inv_neg, inv_pos + inv_neg
    m_new = m_rest + p * (s_inv - m_rest * inv) / (1.0 + p * inv)
    t_new = 0.0
    for k in members:
        a = max(0.0, (1.0 - signs[k] * m_new) / diag[k])
        alpha[k] = a
        t_new += signs[k] * a
    return violation, t_new - t_old
