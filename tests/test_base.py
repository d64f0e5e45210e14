from __future__ import annotations

import inspect

import pytest

from lahja import DialectPipeline, KnnClassifier, LinearSvc, NotFittedError, RandomForest, TfidfBlock, TfidfUnion
from lahja.base import read_object
from lahja.cli import _worker_count

from helpers import csr


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

    @pytest.mark.parametrize(
        "cls", [TfidfBlock, TfidfUnion, LinearSvc, RandomForest, KnnClassifier, DialectPipeline]
    )
    def test_param_names_are_the_constructor_arguments(self, cls):
        # inspect is the oracle: the names the constructor's signature lists.
        parameters = inspect.signature(cls.__init__).parameters.values()
        names = [p.name for p in parameters if p.name != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
        assert cls._param_names() == sorted(names)

    def test_clone_by_params(self):
        original = TfidfBlock("char", (1, 3), max_features=10)
        clone = TfidfBlock(**original.get_params())
        assert clone.get_params() == original.get_params()


def test_estimators_survive_sklearn_clone():
    sklearn_base = pytest.importorskip("sklearn.base")
    for estimator in (
        TfidfBlock("char", (1, 3), max_features=10),
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


class TestReadObject:
    def test_values_in_the_order_asked(self):
        assert read_object("entry", {"b": 2, "a": 1}, ("a", "b")) == [1, 2]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "entry must be an object, got list"),
            (None, "entry must be an object, got NoneType"),
            ({"a": 1, "b": 2, "zz": 0}, r"unknown entry fields: \['zz'\]"),
            ({"b": 2}, "entry is missing field 'a'"),
            # An unknown field is reported before a missing one.
            ({"a": 1, "zz": 0}, r"unknown entry fields: \['zz'\]"),
        ],
    )
    def test_rejects_what_the_reader_would_not_read_back(self, payload, message):
        with pytest.raises(ValueError, match=message):
            read_object("entry", payload, ("a", "b"))
