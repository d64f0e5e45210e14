"""Datasets of labelled documents: TSV ingestion, label spaces, synthetic corpora.

TSV interchange format: UTF-8, one record per line, ``\\t`` between the two
fields (text, comma-separated label list), ``\\n`` line terminator, optional
single header line. The label field may be empty (unlabeled prediction
input). Label indices always refer to the lexicographically sorted label
space, independent of input order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class TsvFormatError(ValueError):
    """Malformed TSV input; the message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Document:
    """One text sample and the set of label indices it carries (possibly empty)."""

    id: int
    text: str
    labels: frozenset[int]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"document id must be >= 0, got {self.id}")
        if not self.text.strip():
            raise ValueError(f"document {self.id}: text is empty after whitespace trimming")


@dataclass(frozen=True)
class LabelSpace:
    """Canonical ordered label names; index order is lexicographic name order."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("label names must be unique")
        if list(self.names) != sorted(self.names):
            raise ValueError("label names must be lexicographically sorted")

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "LabelSpace":
        return cls(tuple(sorted(set(names))))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index_map[name]
        except AttributeError:
            object.__setattr__(self, "_index_map", {n: i for i, n in enumerate(self.names)})
            return self._index_map[name]


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of documents sharing one label space."""

    documents: tuple[Document, ...]
    label_space: LabelSpace

    def __post_init__(self) -> None:
        for position, doc in enumerate(self.documents):
            if doc.id != position:
                raise ValueError(
                    f"document ids must be contiguous from 0; found id {doc.id} at position {position}"
                )
            for label in doc.labels:
                if not 0 <= label < len(self.label_space):
                    raise ValueError(
                        f"document {doc.id}: label index {label} outside label space of size "
                        f"{len(self.label_space)}"
                    )

    def __len__(self) -> int:
        return len(self.documents)

    def texts(self) -> list[str]:
        return [doc.text for doc in self.documents]

    def label_sets(self) -> list[frozenset[int]]:
        return [doc.labels for doc in self.documents]

    def label_names_for(self, doc: Document) -> list[str]:
        return [self.label_space.names[i] for i in sorted(doc.labels)]


def tsv_rows(
    data: bytes, fields: tuple[str, str], has_header: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, its two fields) of each non-blank line, ``\\r\\n`` or ``\\n``
    terminated, skipping line 1 when ``has_header``; a non-UTF-8 line or one without
    exactly two tab-separated ``fields`` raises :class:`TsvFormatError`."""
    for line_no, raw_line in enumerate(bytes(data).split(b"\n"), start=1):
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TsvFormatError(line_no, f"invalid UTF-8: {exc}") from exc
        if line.endswith("\r"):
            line = line[:-1]
        if (has_header and line_no == 1) or not line.strip():
            continue
        row = line.split("\t")
        if len(row) != 2:
            raise TsvFormatError(
                line_no, f"expected 2 tab-separated fields ({', '.join(fields)}), found {len(row)}"
            )
        yield line_no, row


def split_labels(field: str) -> tuple[str, ...]:
    """Sorted distinct non-empty names of a comma-separated label field."""
    return tuple(sorted({part.strip() for part in field.split(",") if part.strip()}))


def parse_tsv(data: bytes, has_header: bool = False) -> Dataset:
    """Parse TSV bytes into a Dataset.

    The label space is the sorted union of all observed labels; duplicate
    labels within one line are silently de-duplicated. Blank lines are
    skipped. Raises :class:`TsvFormatError` naming the line for non-UTF-8
    content, a field count other than 2, or an empty text field.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_tsv expects bytes; encode text input as UTF-8 first")
    records: list[tuple[str, tuple[str, ...]]] = []
    for line_no, (text, label_field) in tsv_rows(data, ("text", "labels"), has_header):
        if not text.strip():
            raise TsvFormatError(line_no, "empty text field")
        records.append((text, split_labels(label_field)))
    space = LabelSpace.from_names(name for _, labels in records for name in labels)
    documents = tuple(
        Document(i, text, frozenset(space.index(name) for name in labels))
        for i, (text, labels) in enumerate(records)
    )
    return Dataset(documents, space)


def serialize_tsv(dataset: Dataset) -> bytes:
    """Serialize a Dataset to TSV bytes (no header).

    Texts must not contain tab/newline characters and label names must not
    contain tab/newline/comma, since the format cannot escape them; nor may a
    label name be empty or start or end with whitespace, which parse_tsv
    strips. parse_tsv(serialize_tsv(ds)) reproduces ds whenever every
    label-space entry is used by at least one document.
    """
    lines: list[str] = []
    for doc in dataset.documents:
        if any(c in doc.text for c in "\t\n\r"):
            raise ValueError(f"document {doc.id}: text contains characters the TSV format cannot carry")
        names = dataset.label_names_for(doc)
        for name in names:
            if any(c in name for c in ",\t\n\r"):
                raise ValueError(f"label {name!r} contains characters the TSV format cannot carry")
            if not name or name != name.strip():
                raise ValueError(f"label {name!r} is empty or has outer whitespace, which parse_tsv strips")
        lines.append(f"{doc.text}\t{','.join(names)}\n")
    return "".join(lines).encode("utf-8")


def save_tsv(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_bytes(serialize_tsv(dataset))


def make_synthetic(
    n_labels: int,
    docs_per_label: int,
    vocab_per_label: int,
    multi_label_rate: float,
    seed: int,
) -> Dataset:
    """Generate a deterministic synthetic corpus with disjoint per-label vocabularies.

    Each label owns ``vocab_per_label`` unique tokens. Every document samples
    5-15 tokens from its label's vocabulary; with probability
    ``multi_label_rate`` it instead mixes two labels' vocabularies (at least
    one token from each) and carries both labels.
    """
    if n_labels < 1 or docs_per_label < 1 or vocab_per_label < 1:
        raise ValueError("n_labels, docs_per_label and vocab_per_label must all be >= 1")
    if not 0.0 <= multi_label_rate <= 1.0:
        raise ValueError(f"multi_label_rate must be in [0, 1], got {multi_label_rate}")
    if multi_label_rate > 0.0 and n_labels < 2:
        raise ValueError("multi_label_rate > 0 requires at least 2 labels")

    label_width = max(2, len(str(n_labels - 1)))
    token_width = max(3, len(str(vocab_per_label - 1)))
    names = tuple(f"lbl{i:0{label_width}d}" for i in range(n_labels))
    vocab = [
        [f"w{i:0{label_width}d}t{j:0{token_width}d}" for j in range(vocab_per_label)]
        for i in range(n_labels)
    ]

    rng = random.Random(seed)
    documents: list[Document] = []
    for label in range(n_labels):
        for _ in range(docs_per_label):
            n_tokens = rng.randint(5, 15)
            mixed = rng.random() < multi_label_rate
            if mixed:
                partner = rng.randrange(n_labels - 1)
                if partner >= label:
                    partner += 1
                pool = vocab[label] + vocab[partner]
                tokens = [rng.choice(vocab[label]), rng.choice(vocab[partner])]
                tokens.extend(rng.choice(pool) for _ in range(n_tokens - 2))
                labels = frozenset((label, partner))
            else:
                tokens = [rng.choice(vocab[label]) for _ in range(n_tokens)]
                labels = frozenset((label,))
            documents.append(Document(len(documents), " ".join(tokens), labels))
    return Dataset(tuple(documents), LabelSpace(names))


def split_dataset(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle-split into (train, eval) datasets sharing the label space.

    Document ids are renumbered contiguously within each part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order = list(range(len(dataset)))
    random.Random(seed).shuffle(order)
    cut = int(round(len(order) * train_fraction))
    if cut == 0 or cut == len(order):
        raise ValueError("split leaves one side empty; adjust train_fraction or dataset size")

    def rebuild(positions: Sequence[int]) -> Dataset:
        docs = tuple(
            Document(i, dataset.documents[p].text, dataset.documents[p].labels)
            for i, p in enumerate(positions)
        )
        return Dataset(docs, dataset.label_space)

    return rebuild(order[:cut]), rebuild(order[cut:])


def merge_label_spaces(*datasets: Dataset) -> list[Dataset]:
    """Re-index datasets onto the sorted union of their label spaces."""
    merged = LabelSpace.from_names(
        name for ds in datasets for name in ds.label_space.names
    )
    out: list[Dataset] = []
    for ds in datasets:
        docs = tuple(
            Document(
                doc.id,
                doc.text,
                frozenset(merged.index(ds.label_space.names[i]) for i in doc.labels),
            )
            for doc in ds.documents
        )
        out.append(Dataset(docs, merged))
    return out


def check_label_spaces(train: Dataset, eval_dataset: Dataset) -> None:
    """Raise ValueError unless ``train`` and ``eval_dataset`` share one label space."""
    if train.label_space.names != eval_dataset.label_space.names:
        raise ValueError(
            "train and eval label spaces differ; align them first (see corpus.merge_label_spaces)"
        )
