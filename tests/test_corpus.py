from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahja import (
    Dataset,
    Document,
    LabelSpace,
    TsvFormatError,
    make_synthetic,
    merge_label_spaces,
    parse_tsv,
    save_tsv,
    serialize_tsv,
    split_dataset,
)


class TestParseTsv:
    def test_basic_line(self):
        ds = parse_tsv("مرحبا\tEgypt,Sudan".encode("utf-8"))
        assert len(ds) == 1
        assert ds.label_space.names == ("Egypt", "Sudan")
        assert ds.documents[0].labels == frozenset({0, 1})

    def test_empty_label_field(self):
        ds = parse_tsv("نص\t".encode("utf-8"))
        assert len(ds) == 1
        assert ds.documents[0].labels == frozenset()
        assert ds.label_space.names == ()

    def test_label_space_is_sorted_not_first_seen(self):
        ds = parse_tsv(b"first\tB\nsecond\tA\n")
        assert ds.label_space.names == ("A", "B")
        assert ds.documents[0].labels == frozenset({1})
        assert ds.documents[1].labels == frozenset({0})

    def test_duplicate_labels_deduplicated(self):
        ds = parse_tsv(b"text\tX,X, X \n")
        assert ds.documents[0].labels == frozenset({0})

    def test_label_whitespace_stripped(self):
        ds = parse_tsv(b"text\t A , B\n")
        assert ds.label_space.names == ("A", "B")

    def test_header_skipped(self):
        ds = parse_tsv(b"text\tlabels\nreal\tA\n", has_header=True)
        assert len(ds) == 1
        assert ds.documents[0].text == "real"

    def test_blank_lines_skipped(self):
        ds = parse_tsv(b"a\tX\n\n  \nb\tX\n")
        assert len(ds) == 2

    def test_wrong_field_count_names_line(self):
        with pytest.raises(TsvFormatError, match="line 2"):
            parse_tsv(b"ok\tA\nbroken line\n")
        with pytest.raises(TsvFormatError, match="line 1"):
            parse_tsv(b"a\tb\tc\n")

    def test_invalid_utf8_names_line(self):
        with pytest.raises(TsvFormatError, match="line 2"):
            parse_tsv(b"ok\tA\n\xff\xfe\tB\n")

    def test_empty_text_rejected(self):
        with pytest.raises(TsvFormatError, match="line 1"):
            parse_tsv(b"  \tA\n")

    def test_document_ids_contiguous(self):
        ds = parse_tsv(b"a\tX\nb\tY\nc\tZ\n")
        assert [d.id for d in ds.documents] == [0, 1, 2]

    def test_label_order_invariant_under_line_permutation(self):
        forward = parse_tsv(b"a\tC\nb\tA\nc\tB\n")
        backward = parse_tsv(b"c\tB\nb\tA\na\tC\n")
        assert forward.label_space == backward.label_space


label_names = st.text(alphabet="ABCDxyz", min_size=1, max_size=4)
record_lists = st.lists(
    st.tuples(
        st.text(alphabet="abc ", min_size=1, max_size=12).filter(lambda t: t.strip()),
        st.sets(label_names, max_size=3),
    ),
    min_size=1,
    max_size=10,
)


@given(record_lists)
def test_serialize_parse_round_trip(records):
    raw = "".join(f"{text}\t{','.join(sorted(labels))}\n" for text, labels in records)
    ds = parse_tsv(raw.encode("utf-8"))
    assert parse_tsv(serialize_tsv(ds)) == ds


def test_serialize_rejects_tab_in_text():
    space = LabelSpace(("A",))
    ds = Dataset((Document(0, "has\ttab", frozenset({0})),), space)
    with pytest.raises(ValueError):
        serialize_tsv(ds)


@pytest.mark.parametrize("name", ["", " x", "x ", "x\u00a0", "x,y"])
def test_serialize_rejects_label_names_parse_tsv_cannot_read_back(tmp_path, name):
    ds = Dataset((Document(0, "text", frozenset({0})),), LabelSpace((name,)))
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        serialize_tsv(ds)
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        save_tsv(ds, tmp_path / "out.tsv")
    assert not (tmp_path / "out.tsv").exists()


class TestDatasetInvariants:
    def test_non_contiguous_ids_rejected(self):
        space = LabelSpace(("A",))
        with pytest.raises(ValueError):
            Dataset((Document(1, "x", frozenset()),), space)

    def test_label_out_of_range_rejected(self):
        space = LabelSpace(("A",))
        with pytest.raises(ValueError):
            Dataset((Document(0, "x", frozenset({1})),), space)

    def test_label_space_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            LabelSpace(("B", "A"))
        with pytest.raises(ValueError):
            LabelSpace(("A", "A"))


class TestMakeSynthetic:
    def test_counts_and_single_label(self):
        ds = make_synthetic(6, 200, 50, 0.0, seed=1)
        assert len(ds) == 1200
        assert all(len(d.labels) == 1 for d in ds.documents)

    def test_deterministic(self):
        a = make_synthetic(4, 10, 8, 0.3, seed=1)
        b = make_synthetic(4, 10, 8, 0.3, seed=1)
        assert serialize_tsv(a) == serialize_tsv(b)

    def test_rate_one_gives_two_labels_everywhere(self):
        ds = make_synthetic(2, 10, 5, 1.0, seed=7)
        assert all(len(d.labels) == 2 for d in ds.documents)

    def test_disjoint_vocabularies(self):
        ds = make_synthetic(4, 10, 6, 0.0, seed=3)
        per_label: dict[int, set[str]] = {}
        for doc in ds.documents:
            (label,) = doc.labels
            per_label.setdefault(label, set()).update(doc.text.split())
        labels = sorted(per_label)
        for a in labels:
            for b in labels:
                if a != b:
                    assert not per_label[a] & per_label[b]

    def test_token_count_range(self):
        ds = make_synthetic(3, 30, 10, 0.5, seed=9)
        for doc in ds.documents:
            assert 5 <= len(doc.text.split()) <= 15

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 1, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(2, 1, 1, 1.5, seed=0)
        with pytest.raises(ValueError):
            make_synthetic(1, 1, 1, 0.5, seed=0)


class TestSplitDataset:
    def test_split_sizes_and_shared_space(self):
        ds = make_synthetic(3, 20, 6, 0.0, seed=2)
        train, out = split_dataset(ds, 0.8, seed=0)
        assert len(train) == 48 and len(out) == 12
        assert train.label_space == ds.label_space
        assert out.label_space == ds.label_space

    def test_deterministic(self):
        ds = make_synthetic(3, 20, 6, 0.0, seed=2)
        a = split_dataset(ds, 0.8, seed=5)
        b = split_dataset(ds, 0.8, seed=5)
        assert a == b

    def test_partition(self):
        ds = make_synthetic(2, 10, 6, 0.0, seed=2)
        train, out = split_dataset(ds, 0.5, seed=1)
        texts = sorted(train.texts() + out.texts())
        assert texts == sorted(ds.texts())


def test_merge_label_spaces_reindexes():
    a = parse_tsv(b"x\tB\n")
    b = parse_tsv(b"y\tA\n")
    a2, b2 = merge_label_spaces(a, b)
    assert a2.label_space.names == ("A", "B")
    assert a2.documents[0].labels == frozenset({1})
    assert b2.documents[0].labels == frozenset({0})
