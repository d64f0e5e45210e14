"""Benchmark workloads: seeded synthetic corpora and the CLI steps run on them.

Every workload is one user session: sweep a grid, train a preset, label a
one-document file a few times (the set-up probes), label the test file a
few times, and score it. Inputs come from ``lahja.make_synthetic`` with the workload seed;
the test corpus is drawn with ``seed + 1`` from the same label vocabularies
and label names. Sizes do not depend on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``corpus``, ``test_corpus`` and ``sweep_corpus`` are the
    ``make_synthetic`` arguments (n_labels, docs_per_label, vocab_per_label,
    multi_label_rate). The sweep runs ``grid`` on an 80/20 train/dev split of
    ``sweep_corpus``, or of ``corpus`` when that is ``None``; ``preset`` then
    trains on ``corpus``, or on the same 80% split of it when
    ``split_train`` is set.
    """

    name: str
    corpus: tuple[int, int, int, float]
    test_corpus: tuple[int, int, int, float]
    preset: str
    grid: dict
    sweep_corpus: tuple[int, int, int, float] | None = None
    split_train: bool = False

    def grid_size(self) -> int:
        return math.prod(len(v) for v in self.grid.values() if isinstance(v, list))

    def distinct_unions(self) -> int:
        """Distinct feature unions in the grid: the product of the vectorizer fields."""
        fields = ("n", "w1", "w2", "w3", "max_features")
        return math.prod(len(self.grid[f]) for f in fields if isinstance(self.grid.get(f), list))


# BENCHMARK.json says why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        # Label overlap makes the SVC dual slow to converge (~210 epochs per
        # label against ~40 without): solver-bound train and sweep (2 configs
        # sharing one union, on a 120-doc overlap corpus), featurization-bound
        # predict; forest and knn idle.
        Workload(
            name="svc-overlap",
            corpus=(10, 30, 60, 0.15),
            test_corpus=(10, 100, 60, 0.15),
            preset="exp2-2",
            grid={"n": [2], "C": [1, 4], "balanced": True},
            sweep_corpus=(10, 12, 60, 0.15),
        ),
        # The paper's later steps on the 6-label single-label corpus: an SVC
        # grid sweep (6 configs over 2 distinct unions, each config refitting
        # its union today, so featurization leads the sweep), then the
        # exp3-hard vote. Its 1,000-feature cap keeps the SVC light, so forest
        # growth and KNN lead train and predict, and the bundle load shows in
        # set-up.
        Workload(
            name="sweep-vote",
            corpus=(6, 50, 50, 0.0),
            test_corpus=(6, 50, 50, 0.0),
            preset="exp3-hard",
            grid={"n": [2, 4], "C": [1, 2, 4], "balanced": True},
            split_train=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files written for one workload and seed, with the counts checks need."""

    train: Path
    sweep_train: Path
    dev: Path
    test: Path
    probe: Path
    grid: Path
    train_docs: int
    sweep_docs: int
    test_docs: int
    labels: tuple[str, ...]
    samples: int


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's corpora from ``seed`` and save them as TSV files."""
    from lahja import Dataset, make_synthetic, save_tsv, split_dataset

    corpus = make_synthetic(*workload.corpus, seed=seed)
    swept = corpus if workload.sweep_corpus is None else make_synthetic(*workload.sweep_corpus, seed=seed)
    sweep_train, dev = split_dataset(swept, 0.8, seed=seed)
    train = sweep_train if workload.split_train else corpus
    test = make_synthetic(*workload.test_corpus, seed=seed + 1)
    probe = Dataset(test.documents[:1], test.label_space)

    files = {"train": train, "sweep_train": sweep_train, "dev": dev, "test": test, "probe": probe}
    paths = {name: workdir / f"{name}.tsv" for name in files}
    for name, dataset in files.items():
        save_tsv(dataset, paths[name])
    grid_path = workdir / "grid.json"
    grid_path.write_text(json.dumps(workload.grid), encoding="utf-8")
    return Inputs(
        **paths,
        grid=grid_path,
        train_docs=len(train),
        sweep_docs=len(sweep_train) + len(dev),
        test_docs=len(test),
        labels=train.label_space.names,
        samples=sum(len(doc.labels) for doc in train.documents),
    )
