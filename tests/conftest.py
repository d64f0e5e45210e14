from __future__ import annotations

import pytest
from hypothesis import settings

from lahja import make_synthetic, split_dataset

# CI runs with --hypothesis-profile=ci: the same examples on every run, and no
# per-example deadline on a shared runner.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def synthetic_corpus():
    """The 6-label disjoint-vocabulary corpus used by the end-to-end checks."""
    return make_synthetic(
        n_labels=6, docs_per_label=200, vocab_per_label=50, multi_label_rate=0.0, seed=42
    )


@pytest.fixture(scope="session")
def synthetic_split(synthetic_corpus):
    return split_dataset(synthetic_corpus, train_fraction=0.8, seed=42)


@pytest.fixture(scope="session")
def tiny_corpus():
    """Small 3-label corpus for fast pipeline-level tests."""
    return make_synthetic(
        n_labels=3, docs_per_label=25, vocab_per_label=12, multi_label_rate=0.0, seed=7
    )
