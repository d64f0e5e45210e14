from __future__ import annotations

import pytest

from lahja import KnnClassifier, LinearSvc, NotFittedError, RandomForest, TfidfBlock

from helpers import csr
from lahja.grid import _worker_count


class TestEstimatorParams:
    def test_get_params_reflects_constructor(self):
        model = LinearSvc(C=2.0, balanced=True, seed=9)
        params = model.get_params()
        assert params["C"] == 2.0 and params["balanced"] is True and params["seed"] == 9

    def test_set_params_round_trip(self):
        model = KnnClassifier(k=3)
        model.set_params(k=5)
        assert model.k == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            RandomForest().set_params(depth=3)

    def test_repr_names_params(self):
        assert "analyzer='word'" in repr(TfidfBlock())

    def test_clone_by_params(self):
        original = TfidfBlock("char", (1, 3), max_features=10, weight=0.5)
        clone = TfidfBlock(**original.get_params())
        assert clone.get_params() == original.get_params()


def test_estimators_survive_sklearn_clone():
    sklearn_base = pytest.importorskip("sklearn.base")
    for estimator in (
        TfidfBlock("char", (1, 3), max_features=10, weight=0.5),
        LinearSvc(C=2.0, balanced=True, seed=3),
        RandomForest(n_trees=5, seed=1),
        KnnClassifier(k=4),
    ):
        clone = sklearn_base.clone(estimator)
        assert clone.get_params() == estimator.get_params()


class TestNotFitted:
    def test_svc_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearSvc().decision_function(csr([[1.0]]))

    def test_forest_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RandomForest().predict(csr([[1.0]]))

    def test_knn_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KnnClassifier().neighbors(csr([[1.0]]))


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("LAHJA_THREADS", raising=False)
        assert _worker_count() == 1

    def test_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setenv("LAHJA_THREADS", "4")
        assert _worker_count() == 4

    def test_non_positive_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("LAHJA_THREADS", "0")
        assert _worker_count() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("LAHJA_THREADS", "many")
        with pytest.raises(ValueError, match="LAHJA_THREADS"):
            _worker_count()
