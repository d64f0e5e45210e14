"""One-vs-rest linear SVM with a squared-hinge loss, trained in the dual.

Primal problem per label c (squared hinge, L2 regularization, bias folded in
as a constant-1 feature):

    min_w  0.5 ||w||^2 + C * sum_i a_i * max(0, 1 - s_i * (w . x_i + b))^2

with s_i = +1 when y_i == c else -1 and a_i the class weight of y_i (1 when
unweighted). Its dual is max_α 1ᵀα - ½ αᵀ(SQS + D)α over α >= 0, with
Q = XXᵀ + 1, S = diag(s) and D = diag(1 / (2 C a_i)); then w = Xᵀ(s∘α) and
b = Σ s_i α_i. Two solvers share it:

- Fits of at most ``NEWTON_MAX_SAMPLES`` samples use working-set finite
  Newton in sample space (Keerthi & DeCoste, JMLR 2005). One Gram matrix Q,
  computed without BLAS, serves every label. Per label, the working set W
  starts as the positives plus as many negatives, those with the highest
  mean Gram entry against the positives, or as the support of the previous
  fit when :func:`fit_svcs` fits SVCs of the same samples. A Newton step
  on the active set I = {i in W : s_i m_i < 1} solves (SQS + D)_II α_I = 1,
  as (Q + D)_II c_I = s_I with c = s∘α; the Newton point is accepted when
  its own active set is I, and otherwise an exact line search on the primal
  with W's loss terms moves towards it. When W's problem is solved (one
  round), the samples outside W with positive slack join it, the worst
  first and at most max(32, |W| / 2) of them; the solve stops when none is
  left. It so ends at the exact optimum, whose support does not depend on
  where W started, and ``tol`` only judges the convergence warning. Once
  every label's final active set is known, their systems are solved once
  more, together: stacked, padded to a common order with identity rows and
  columns, and factored by one batched Cholesky in elementwise numpy, in
  chunks of at most ``_GRAM_BUDGET`` values. So the weights do not depend
  on the BLAS thread count, nor a label's bits on the labels it is solved
  with, nor on W's start. ``max_epochs`` caps the Newton steps per label,
  ``seed`` is unused, and a label's ``dual_objective_history_`` holds the
  dual value of each round: W's optimum, which rises as W grows.
- Larger fits use dual coordinate descent, block-coordinate-wise: samples
  with equal feature vectors (a multi-label document yields one sample per
  gold label) form a group, and each epoch visits the groups in a seeded
  random permutation, minimizing the dual exactly over each group's
  coordinates. A group of one is a plain coordinate step. Training stops
  when the largest projected-gradient violation over an epoch drops below
  ``tol`` or after ``max_epochs`` epochs; the history holds one dual value
  per epoch.

A label cut off at ``max_epochs`` above ``tol`` raises a
``ConvergenceWarning``.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import BaseEstimator, JsonObject, check_is_fitted, check_labels, check_list, check_reals, read_object
from .sparse import CsrMatrix

# Spreads per-label RNG streams apart so one-vs-rest problems stay
# independently reproducible.
_LABEL_SEED_STRIDE = 1_000_003

# Fits of at most this many samples are solved by working-set Newton over one
# n x n Gram matrix; larger ones by dual coordinate descent (see the README).
NEWTON_MAX_SAMPLES = 1024

# Bound on the values one slab of the Gram product holds, as knn._BUDGET; a
# budget of 1 << 22 raised the peak memory of an svc-overlap train by 12%.
# It also bounds one chunk of the stacked final re-solves (2 MB).
_GRAM_BUDGET = 1 << 18


class ConvergenceWarning(RuntimeWarning):
    """A one-vs-rest label stopped at ``max_epochs`` above ``tol``."""


@dataclass(frozen=True)
class SvcParams(JsonObject):
    """The hyperparameters of a :class:`LinearSvc`, checked once here."""

    json_name = "svc"

    C: float = 1.0
    balanced: bool = False
    tol: float = 1e-4
    max_epochs: int = 1000

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


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
    ``dual_objective_history_`` — one list of dual objective values per
    label, one per working-set round or epoch (see the module docstring),
    each non-decreasing.
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

    def fit(
        self,
        X: CsrMatrix,
        y: Sequence[int],
        n_labels: int | None = None,
        *,
        _gram: np.ndarray | None = None,
        _start: Sequence[np.ndarray] | None = None,
    ) -> "LinearSvc":
        """Fit one binary problem per label.

        ``_gram`` and ``_start`` are internal; :func:`fit_svcs` passes them.
        ``_gram`` is the :func:`sample_gram` of ``X`` that its fits share.
        ``_start``, read on the Newton path only, holds per label the sample
        indices of its first working set: the ``_supports`` that an earlier
        Newton fit of the same samples ended with. Every start reaches the
        same support, so the weights keep the bits of a fit without one
        whenever that fit converges within ``max_epochs``. A label whose
        start reaches ``max_epochs`` is solved again without it, and so
        warns as a fit without one would.
        """
        SvcParams(self.C, self.balanced, self.tol, self.max_epochs)  # validates them
        labels, n_labels = check_labels(len(X), y, n_labels, min_rows=2)
        if np.unique(labels).size < 2:
            raise ValueError("training requires at least 2 distinct labels")

        n_features = X.n_cols
        weights = compute_class_weights(labels, n_labels) if self.balanced else None
        per_sample_c = np.full(labels.size, float(self.C))
        if weights is not None:
            per_sample_c *= weights[labels]
        diag = 1.0 / (2.0 * per_sample_c)
        signs = [np.where(labels == label, 1.0, -1.0) for label in range(n_labels)]
        gram = sample_gram(X) if _gram is None else _gram
        supports = None
        if gram is not None:
            fits, supports = _newton_fits(X, gram, signs, diag, self.max_epochs, _start)
        else:
            fits = map(_descent_solver(X, diag, self.tol, self.max_epochs, self.seed), signs, range(n_labels))

        coef = np.zeros((n_labels, n_features), dtype=np.float64)
        intercept = np.zeros(n_labels, dtype=np.float64)
        history: list[list[float]] = []
        unconverged: list[str] = []
        for label, (w, b, objective, violation, epochs) in enumerate(fits):
            coef[label] = w
            intercept[label] = b
            history.append(objective)
            if violation >= self.tol:
                unconverged.append(f"{label} ({epochs} epochs, violation {violation:.3g})")
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
        self._supports = supports
        return self

    def payload(self) -> dict:
        """The model's bundle entry: its weights, one row per label."""
        check_is_fitted(self, "coef_")
        return {"coef": self.coef_, "intercept": self.intercept_}

    @classmethod
    def from_fitted(cls, params: dict, payload: dict, n_labels: int, n_features: int) -> "LinearSvc":
        """The model of a :meth:`payload` entry, which must hold ``n_labels``
        weight rows of ``n_features`` reals and ``n_labels`` intercepts."""
        coef, intercept = read_object("svc model", payload, ("coef", "intercept"))
        coef = np.array([check_reals("svc coef row", row) for row in check_list("svc coef", coef, list)])
        intercept = check_reals("svc intercept", intercept)
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


def fit_svcs(models: Sequence[LinearSvc], X: CsrMatrix, y: Sequence[int], n_labels: int) -> None:
    """Fit each of ``models`` on the same samples, in order: they share one
    :func:`sample_gram` of ``X``, and on the Newton path each fit after the
    first starts from the supports the previous one ended with, which keeps
    a cold fit's bits (see :meth:`LinearSvc.fit`). An empty list builds no
    Gram."""
    gram = sample_gram(X) if models else None
    supports = None
    for model in models:
        supports = model.fit(X, y, n_labels, _gram=gram, _start=supports)._supports


def sample_gram(X: CsrMatrix) -> np.ndarray | None:
    """The read-only Gram matrix Q = XXᵀ + 1 of the samples ``X`` that the
    Newton path solves over, computed without BLAS; None above
    ``NEWTON_MAX_SAMPLES``, where the coordinate descent fits without it."""
    if len(X) > NEWTON_MAX_SAMPLES:
        return None
    gram = X.gram(_GRAM_BUDGET)
    gram += 1.0  # the constant-1 bias feature
    gram.setflags(write=False)
    return gram


def _newton_fits(
    X: CsrMatrix,
    gram: np.ndarray,
    signs: list[np.ndarray],
    diag: np.ndarray,
    max_steps: int,
    starts: Sequence[np.ndarray] | None,
) -> tuple[list[tuple[np.ndarray, float, list[float], float, int]], list[np.ndarray]]:
    """The working-set Newton solve of every label, all labels sharing the
    Gram matrix ``gram`` and one batched final re-solve: per label, the
    weights, intercept, dual value per round, final violation and steps; and
    each label's support. A label with a start that reaches ``max_steps`` is
    solved again without it."""
    rounds = []
    for label, s in enumerate(signs):
        solved = _newton_binary(gram, s, diag, max_steps, None if starts is None else starts[label])
        if starts is not None and solved[2] >= max_steps:
            solved = _newton_binary(gram, s, diag, max_steps)
        rounds.append(solved)
    supports = [support for support, _, _ in rounds]
    coefs = _final_solves(gram, signs, diag, supports, _GRAM_BUDGET)
    rows = X.row_ids()
    fits = []
    for s, coef, (_, objective, steps) in zip(signs, coefs, rounds):
        alpha = s * coef
        gradient = s * (gram @ coef) - 1.0 + diag * alpha
        violation = float(np.where(alpha > 0.0, np.abs(gradient), np.maximum(-gradient, 0.0)).max())
        w = np.bincount(X.indices, weights=X.values * coef[rows], minlength=X.n_cols)
        fits.append((w, float(coef.sum()), objective, violation, steps))
    return fits, supports


def _descent_solver(X: CsrMatrix, diag: np.ndarray, tol: float, max_epochs: int, seed: int):
    """The dual coordinate descent of one label, as a function of its signs
    and index."""
    index_arrays, value_arrays = zip(*map(X.row, range(len(X))))
    # +1.0 accounts for the implicit constant-1 bias feature.
    x_sq = [float(v @ v) + 1.0 for v in value_arrays]
    groups = _group_samples(index_arrays, value_arrays)

    def solve(signs: np.ndarray, label: int):
        w, b, objective, violation = _solve_binary(
            index_arrays,
            value_arrays,
            groups,
            signs.tolist(),
            diag,
            x_sq,
            X.n_cols,
            tol,
            max_epochs,
            seed * _LABEL_SEED_STRIDE + label,
        )
        return w, b, objective, violation, len(objective)

    return solve


def _newton_binary(
    gram: np.ndarray, signs: np.ndarray, diag: np.ndarray, max_steps: int, start: np.ndarray | None = None
) -> tuple[np.ndarray, list[float], int]:
    """Working-set finite Newton for one binary subproblem over the Gram
    matrix Q = XXᵀ + 1.

    The working set W starts as the samples ``start`` when given, otherwise
    as the positives and as many negatives, those nearest them. Each round
    solves W's problem exactly, and W then grows by the samples outside it
    whose slack is positive, so the solve ends at the optimum of the whole
    problem: its support, the samples with α > 0, is unique, whatever W
    starts as, unless ``max_steps`` cuts it short.

    Returns the final active set, the support whose system
    :func:`_final_solves` solves once more; the dual value of each
    working-set round; and the number of Newton steps taken.
    """
    n = signs.size
    work = np.zeros(n, dtype=bool)
    if start is not None:
        work[start] = True
    else:
        positives = np.flatnonzero(signs > 0.0)
        negatives = np.flatnonzero(signs < 0.0)
        affinity = gram[np.ix_(positives, negatives)].sum(axis=0)  # ranks as the mean does
        work[positives] = True
        work[negatives[np.argsort(-affinity, kind="stable")[: positives.size]]] = True
    coef = np.zeros(n)
    margins = np.zeros(n)
    objective: list[float] = []
    steps = 0
    while True:
        while steps < max_steps:  # Newton on the primal with W's loss terms
            active = work & (signs * margins < 1.0)
            newton, newton_margins = _newton_point(gram, signs, diag, np.flatnonzero(active))
            steps += 1
            if np.array_equal(work & (signs * newton_margins < 1.0), active):
                coef, margins = newton, newton_margins
                break
            w = np.flatnonzero(work)  # both points are zero off W
            step = _line_search(coef[w], margins[w], newton[w], newton_margins[w], signs[w], diag[w])
            if step <= 0.0:
                break
            coef = coef + step * (newton - coef)
            margins = margins + step * (newton_margins - margins)
        slack = 1.0 - signs * margins
        alpha = np.where(work, np.maximum(slack, 0.0) / diag, 0.0)
        u = signs * alpha
        objective.append(float(alpha.sum() - 0.5 * (u @ (gram @ u) + alpha @ (alpha * diag))))
        outside = np.where(work, -np.inf, slack)
        violators = np.flatnonzero(outside > 0.0)
        if not violators.size or steps >= max_steps:
            break
        grow = max(32, int(work.sum()) // 2)
        work[violators[np.argsort(-outside[violators], kind="stable")[:grow]]] = True

    return np.flatnonzero(work & (signs * margins < 1.0)), objective, steps


def _newton_point(gram: np.ndarray, signs: np.ndarray, diag: np.ndarray, active: np.ndarray):
    """The signed coefficients c = s∘α and the margins Qc of the minimizer of
    the primal with the loss terms of ``active`` taken as quadratics:
    (Q + D)_II c_I = s_I, with c zero off I."""
    coef = np.zeros(signs.size)
    coef[active] = np.linalg.solve(_system(gram, diag, active), signs[active])
    return coef, gram @ coef


def _system(gram: np.ndarray, diag: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The matrix (Q + D)_II of the active set I. Since S² = I, the dual's
    (SQS + D)_II α_I = 1 is (Q + D)_II c_I = s_I with c = s∘α; pivoting and
    factoring see the same magnitudes either way, so each value of the
    solution can only differ in sign, which is exact."""
    system = gram[np.ix_(active, active)]
    system.reshape(-1)[:: active.size + 1] += diag[active]  # its diagonal, as a strided view
    return system


def _line_search(
    coef: np.ndarray,
    margins: np.ndarray,
    newton: np.ndarray,
    newton_margins: np.ndarray,
    signs: np.ndarray,
    diag: np.ndarray,
) -> float:
    """The exact minimizer t >= 0 of the primal restricted to the given
    samples' loss terms, along the segment from ``coef`` to ``newton``; both
    are signed coefficients s∘α that are zero off these samples, and the
    margins are theirs.

    With d the coefficient step, the slope is
    φ'(t) = d·Qu + t d·Qd - Σ (1/D_i) g_i max(0, r_i - t g_i), r_i being
    sample i's slack 1 - s_i m_i and g_i the rate it falls at. φ' rises and
    is linear between the breakpoints r_i / g_i > 0, where a term turns on
    or off, so its root lies on the first piece whose end it reaches.
    """
    step = newton - coef
    step_margins = newton_margins - margins
    slack = 1.0 - signs * margins
    rate = signs * step_margins
    level_terms = -rate * slack / diag
    slope_terms = rate * rate / diag
    on = (slack > 0.0) | ((slack == 0.0) & (rate < 0.0))
    level = float(step @ margins) + level_terms[on].sum()
    slope = float(step @ step_margins) + slope_terms[on].sum()
    turns = np.flatnonzero((slack != 0.0) & ((slack > 0.0) == (rate > 0.0)))
    at = slack[turns] / rate[turns]
    order = np.argsort(at, kind="stable")
    at, turns = at[order], turns[order]
    toggle = np.where(rate[turns] > 0.0, -1.0, 1.0)  # a term turns off where its slack falls
    levels = level + np.concatenate(([0.0], np.cumsum(toggle * level_terms[turns])))
    slopes = slope + np.concatenate(([0.0], np.cumsum(toggle * slope_terms[turns])))
    piece = int(np.argmax(np.append(levels[:-1] + slopes[:-1] * at >= 0.0, True)))
    start = at[piece - 1] if piece else 0.0
    if slopes[piece] <= 0.0:
        return float(start)
    return float(max(start, -levels[piece] / slopes[piece]))


def _final_solves(
    gram: np.ndarray, signs: list[np.ndarray], diag: np.ndarray, supports: list[np.ndarray], budget: int
) -> list[np.ndarray]:
    """Each label's signed coefficients c = s∘α, zero off its support I, from
    one fixed-order re-solve of (Q + D)_II c_I = s_I.

    The Newton steps go through LAPACK and BLAS, whose bits can depend on
    their thread count; these do not. The systems are stacked, largest
    first, each padded to its chunk's order with identity rows and columns,
    and solved together by :func:`_cholesky_solve`. A chunk holds at most
    ``budget`` values, or one system that alone holds more. A label's bits do
    not depend on its chunk, since the padding leaves its sums alone.
    """
    coefs = [np.zeros(gram.shape[0]) for _ in supports]
    order = sorted(range(len(supports)), key=lambda label: -supports[label].size)
    lo = 0
    while lo < len(order):
        size = supports[order[lo]].size
        chunk = order[lo : lo + max(1, budget // max(1, size * size))]
        lo += len(chunk)
        systems = np.zeros((len(chunk), size, size))
        rhs = np.zeros((len(chunk), size))
        for row, label in enumerate(chunk):
            k = supports[label].size
            systems[row, :k, :k] = _system(gram, diag, supports[label])
            systems[row, range(k, size), range(k, size)] = 1.0
            rhs[row, :k] = signs[label][supports[label]]
        solved = _cholesky_solve(systems, rhs)
        for row, label in enumerate(chunk):
            support = supports[label]
            coefs[label][support] = solved[row, : support.size]
    return coefs


def _cholesky_solve(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with ``systems[b]`` x[b] = ``rhs[b]`` for each symmetric positive
    definite matrix of the stack, by left-looking Cholesky factorizations of
    their lower triangles, which the factors overwrite.

    The loops run once per column, each step one batched np.einsum or
    elementwise operation over the stack, never BLAS, so the bits do not
    depend on the BLAS library or its thread count. Identity rows and
    columns padded after a system leave its bits alone: column j of a factor
    sums over the columns before j and the forward solve over the entries
    before row j, so neither sum reaches the padding, and the back
    substitution, one column at a time, subtracts the padding's exact zeros.
    """
    order = systems.shape[1]
    for j in range(order):
        column = systems[:, j:, j] - np.einsum("bik,bk->bi", systems[:, j:, :j], systems[:, j, :j])
        pivot = np.sqrt(column[:, 0])
        systems[:, j, j] = pivot
        systems[:, j + 1 :, j] = column[:, 1:] / pivot[:, None]
    y = np.empty_like(rhs)
    for j in range(order):
        y[:, j] = (rhs[:, j] - np.einsum("bk,bk->b", systems[:, j, :j], y[:, :j])) / systems[:, j, j]
    for j in reversed(range(order)):
        y[:, j] /= systems[:, j, j]
        y[:, :j] -= systems[:, j, :j] * y[:, j, None]
    return y


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
