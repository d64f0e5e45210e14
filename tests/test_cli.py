from __future__ import annotations

import json

import pytest

from lahja import make_synthetic, persistence, save_tsv, split_dataset
from lahja.cli import main


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = make_synthetic(3, 20, 8, 0.0, seed=21)
    train, dev = split_dataset(ds, 0.8, seed=0)
    train_path = root / "train.tsv"
    dev_path = root / "dev.tsv"
    save_tsv(train, train_path)
    save_tsv(dev, dev_path)
    return root, train_path, dev_path


def test_train_predict_eval_round_trip(data_files, capsys):
    root, train_path, dev_path = data_files
    model_path = root / "model.json"
    preds_path = root / "preds.tsv"

    assert main(["train", "--train-file", str(train_path), "--preset", "baseline",
                 "--out", str(model_path)]) == 0
    assert model_path.exists()

    assert main(["predict", "--model", str(model_path), "--in", str(dev_path),
                 "--out", str(preds_path)]) == 0
    lines = preds_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 12
    assert all(len(line.split("\t")) == 2 for line in lines)

    assert main(["eval", "--pred", str(preds_path), "--gold", str(dev_path)]) == 0
    out = capsys.readouterr().out
    assert "precision\t" in out and "f1\t" in out


def test_eval_json_output(data_files, capsys):
    root, train_path, dev_path = data_files
    model_path = root / "model2.json"
    preds_path = root / "preds2.tsv"
    main(["train", "--train-file", str(train_path), "--preset", "baseline", "--out", str(model_path)])
    main(["predict", "--model", str(model_path), "--in", str(dev_path), "--out", str(preds_path)])
    capsys.readouterr()
    assert main(["eval", "--pred", str(preds_path), "--gold", str(dev_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"precision", "recall", "f1", "macro_f1", "n_samples"}


def test_eval_skips_a_gold_header_line(data_files, tmp_path, capsys):
    root, train_path, dev_path = data_files
    model_path = tmp_path / "model.json"
    preds_path = tmp_path / "preds.tsv"
    main(["train", "--train-file", str(train_path), "--preset", "baseline", "--out", str(model_path)])
    main(["predict", "--model", str(model_path), "--in", str(dev_path), "--out", str(preds_path)])
    capsys.readouterr()
    assert main(["eval", "--pred", str(preds_path), "--gold", str(dev_path), "--json"]) == 0
    plain = capsys.readouterr().out
    headed = tmp_path / "dev_header.tsv"
    headed.write_bytes(b"text\tlabels\n" + dev_path.read_bytes())
    assert main(["eval", "--pred", str(preds_path), "--gold", str(headed), "--json", "--has-header"]) == 0
    assert capsys.readouterr().out == plain
    # Without the flag the header is a document with no prediction.
    assert main(["eval", "--pred", str(preds_path), "--gold", str(headed), "--json"]) == 2


def test_train_with_config_file(data_files):
    root, train_path, _ = data_files
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "word": {"ngram_range": [1, 1]},
        "char": {"ngram_range": [1, 3], "max_features": 100, "weight": 0.8},
        "char_wb": None,
        "classifier": "svc",
        "svc": {"C": 2.0, "balanced": True},
        "seed": 1,
    }), encoding="utf-8")
    model_path = root / "model_cfg.json"
    assert main(["train", "--train-file", str(train_path), "--config", str(config_path),
                 "--out", str(model_path)]) == 0


def test_bundle_io_goes_through_the_persistence_module(data_files, tmp_path, monkeypatch):
    root, train_path, dev_path = data_files
    calls = []

    def spy(name):
        real = getattr(persistence, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(persistence, name, wrapper)

    spy("dumps_model")
    spy("loads_model")
    model_path = tmp_path / "model.json"
    assert main(["train", "--train-file", str(train_path), "--preset", "baseline", "--out", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), "--in", str(dev_path), "--out", str(tmp_path / "p.tsv")]) == 0
    assert calls == ["dumps_model", "loads_model"]


def test_repeated_train_byte_identical(data_files):
    root, train_path, _ = data_files
    a = root / "det_a.json"
    b = root / "det_b.json"
    main(["train", "--train-file", str(train_path), "--preset", "exp2-3", "--out", str(a)])
    main(["train", "--train-file", str(train_path), "--preset", "exp2-3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_command(data_files, capsys):
    root, train_path, dev_path = data_files
    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps({"n": [1, 2], "C": [1.0, 3.0]}), encoding="utf-8")
    out_path = root / "results.tsv"
    assert main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                 "--grid", str(grid_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "f1\tprecision\trecall\tmacro_f1\tconfig"
    assert len(lines) == 5
    f1s = [float(line.split("\t")[0]) for line in lines[1:]]
    assert f1s == sorted(f1s, reverse=True)


def test_sweep_writes_one_row_per_config_the_classifier_tells_apart(data_files):
    # Under knn the C list is never read: two configs, within a cap of 2.
    root, train_path, dev_path = data_files
    grid_path = root / "grid_knn.json"
    grid_path.write_text(json.dumps({"n": [1, 2], "C": [1.0, 2.0], "classifier": "knn", "k": 3}), encoding="utf-8")
    out_path = root / "knn.tsv"
    assert main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                 "--grid", str(grid_path), "--out", str(out_path), "--max-configs", "2"]) == 0
    rows = out_path.read_text(encoding="utf-8").strip().split("\n")[1:]
    configs = sorted((c["word"]["ngram_range"][1], c["svc"]["C"]) for c in (json.loads(r.split("\t")[4]) for r in rows))
    assert configs == [(1, 1.0), (2, 1.0)]


def test_repeated_sweep_byte_identical(data_files):
    root, train_path, dev_path = data_files
    grid_path = root / "grid_det.json"
    grid_path.write_text(json.dumps({"n": [1], "C": [1.0, 2.0]}), encoding="utf-8")
    a = root / "sweep_a.tsv"
    b = root / "sweep_b.tsv"
    main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
          "--grid", str(grid_path), "--out", str(a)])
    main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
          "--grid", str(grid_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_cap_is_usage_error(data_files):
    root, train_path, dev_path = data_files
    grid_path = root / "grid_big.json"
    grid_path.write_text(json.dumps({"n": [1, 2, 3, 4, 5], "C": [1.0, 2.0, 3.0]}), encoding="utf-8")
    out_path = root / "never.tsv"
    code = main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                 "--grid", str(grid_path), "--out", str(out_path), "--max-configs", "4"])
    assert code == 1
    assert not out_path.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        "grid", [{"n": [2.5]}, {"balanced": "false"}, {"k": 3.9}, {"n_trees": True}, {"C": [True]}]
    )
    def test_mistyped_grid_field_is_usage_error(self, data_files, capsys, grid):
        root, train_path, dev_path = data_files
        grid_path = root / "grid_typed.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        out_path = root / "typed.tsv"
        code = main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                     "--grid", str(grid_path), "--out", str(out_path)])
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "grid",
        [
            {"n": [1], "C": [1.0], "k": 0},
            {"classifier": "forest", "policy": {"kind": "threshold"}},
            {"n": [0]},
            {"n": [11]},
            {"C": [-1.0]},
            {"w1": [1.5]},
            {"max_features": [0]},
            {"v1": [0.0], "classifier": "vote"},
            {"n_trees": 0},
        ],
    )
    def test_grid_value_no_config_could_take_is_usage_error(self, data_files, capsys, grid):
        root, train_path, dev_path = data_files
        grid_path = root / "grid_range.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        out_path = root / "range.tsv"
        code = main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                     "--grid", str(grid_path), "--out", str(out_path)])
        assert code == 1
        assert "lahja: error: grid file" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"n": [0]}, "grid field 'n' candidate 0: ngram_range must satisfy 1 <= lo <= hi <= 10, got (1, 0)"),
            ({"n": [2], "C": [1.0, -1.0]}, "grid field 'C' candidate -1.0: C must be > 0, got -1.0"),
            ({"v1": [0.0], "classifier": "vote"}, "grid field 'v1' candidate 0.0: vote_weights must be three positive reals"),
            ({"k": 0}, "grid.json': k must be >= 1, got 0"),
        ],
    )
    def test_grid_error_names_the_field_and_candidate(self, data_files, capsys, grid, message):
        root, train_path, dev_path = data_files
        grid_path = root / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        code = main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path),
                     "--grid", str(grid_path), "--out", str(root / "named.tsv")])
        assert code == 1
        assert capsys.readouterr().err.strip().endswith(message)

    def test_overflowing_config_real_is_usage_error(self, data_files, capsys):
        root, train_path, _ = data_files
        config_path = root / "config_inf.json"
        config_path.write_text('{"svc": {"C": 1e999}}', encoding="utf-8")
        out_path = root / "inf.json"
        code = main(["train", "--train-file", str(train_path), "--config", str(config_path),
                     "--out", str(out_path)])
        assert code == 1
        assert "config svc C must be a finite number, got inf" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"seed": 1' + "0" * 5000 + "}"], ids=["deep", "long integer"]
    )
    def test_hostile_config_json_is_usage_error(self, data_files, capsys, text):
        root, train_path, _ = data_files
        config_path = root / "config_hostile.json"
        config_path.write_text(text, encoding="utf-8")
        code = main(["train", "--train-file", str(train_path), "--config", str(config_path),
                     "--out", str(root / "hostile.json")])
        assert code == 1
        assert "is not valid JSON" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, data_files, capsys):
        root, train_path, _ = data_files
        code = main(["train", "--train-file", str(train_path), "--preset", "nope",
                     "--out", str(root / "x.json")])
        assert code == 1
        assert "baseline" in capsys.readouterr().err

    def test_malformed_tsv_is_data_error(self, data_files, capsys):
        root, _, _ = data_files
        bad = root / "bad.tsv"
        bad.write_bytes(b"only one field\n")
        code = main(["train", "--train-file", str(bad), "--preset", "baseline",
                     "--out", str(root / "x.json")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, data_files):
        root, _, _ = data_files
        code = main(["train", "--train-file", str(root / "absent.tsv"), "--preset", "baseline",
                     "--out", str(root / "x.json")])
        assert code == 2

    def test_single_class_training_is_data_error(self, data_files):
        root, _, _ = data_files
        single = root / "single.tsv"
        single.write_bytes(b"aa bb\tX\ncc dd\tX\n")
        code = main(["train", "--train-file", str(single), "--preset", "baseline",
                     "--out", str(root / "x.json")])
        assert code == 2

    def test_corrupt_model_is_data_error(self, data_files):
        root, _, dev_path = data_files
        broken = root / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        code = main(["predict", "--model", str(broken), "--in", str(dev_path),
                     "--out", str(root / "p.tsv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "predict", "sweep", "train on unfittable data"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_usage_error(self, data_files, tmp_path, capsys, command, where):
        """``--out`` is checked before any data is read, so a bad path is a
        usage error even where the data would fail too."""
        root, train_path, dev_path = data_files
        single = tmp_path / "single.tsv"
        single.write_bytes(b"aa bb\tX\ncc dd\tX\n")
        model = tmp_path / "model.json"
        assert main(["train", "--train-file", str(train_path), "--preset", "baseline", "--out", str(model)]) == 0
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1], "C": [1.0]}), encoding="utf-8")
        capsys.readouterr()
        out = str(tmp_path / "absent" / "x") if where == "missing directory" else str(tmp_path)
        argv = {
            "train": ["train", "--train-file", str(train_path), "--preset", "baseline"],
            "predict": ["predict", "--model", str(model), "--in", str(dev_path)],
            "sweep": ["sweep", "--train-file", str(train_path), "--dev-file", str(dev_path), "--grid", str(grid)],
            "train on unfittable data": ["train", "--train-file", str(single), "--preset", "baseline"],
        }[command]
        assert main([*argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lahja: error: cannot write ") and f"{out!r}" in err

    def test_topk_wider_than_the_label_space_is_data_error(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        save_tsv(make_synthetic(3, 10, 8, 0.0, seed=1), train)
        config = tmp_path / "topk.json"
        config.write_text(json.dumps({"policy": {"kind": "topk", "k": 5}}), encoding="utf-8")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1], "C": [1.0], "policy": {"kind": "topk", "k": 5}}), encoding="utf-8")
        model = tmp_path / "model.json"
        assert main(["train", "--train-file", str(train), "--config", str(config), "--out", str(model)]) == 2
        assert "top-k policy with k=5 exceeds label count 3" in capsys.readouterr().err
        assert not model.exists()
        assert main(["sweep", "--train-file", str(train), "--dev-file", str(train), "--grid", str(grid),
                     "--out", str(tmp_path / "sweep.tsv")]) == 2
        assert "top-k policy with k=5 exceeds label count 3" in capsys.readouterr().err

    def test_malformed_thread_count_is_usage_error(self, data_files, tmp_path, monkeypatch, capsys):
        """``LAHJA_THREADS`` is read before any TSV: with a missing dev file
        the sweep still fails as a usage error."""
        _, train_path, dev_path = data_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1], "C": [1.0]}), encoding="utf-8")
        out = tmp_path / "sweep.tsv"
        monkeypatch.setenv("LAHJA_THREADS", "many")
        for dev in (dev_path, tmp_path / "absent.tsv"):
            assert main(["sweep", "--train-file", str(train_path), "--dev-file", str(dev), "--grid", str(grid),
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err == "lahja: error: LAHJA_THREADS must be an integer, got 'many'\n"
            assert not out.exists()

    def test_grid_over_the_cap_is_usage_error_before_any_data_is_read(self, data_files, tmp_path, capsys):
        """``--max-configs`` is checked right after the grid is read: with a
        missing dev file the sweep still fails as a usage error."""
        _, train_path, _ = data_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": [1, 2], "C": [1.0, 2.0], "v1": [0.2, 0.6], "classifier": "vote"}),
                        encoding="utf-8")
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--train-file", str(train_path), "--dev-file", str(tmp_path / "absent.tsv"),
                     "--grid", str(grid), "--out", str(out), "--max-configs", "1"]) == 1
        assert capsys.readouterr().err == (
            "lahja: error: grid enumerates 8 configurations, exceeding the safety cap of 1; "
            "raise the cap explicitly to proceed\n"
        )
        assert not out.exists()

    def test_bad_flags_exit_one(self, data_files, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--no-such-flag"])
        assert excinfo.value.code == 1
        capsys.readouterr()

    def test_mismatched_prediction_ids_is_data_error(self, data_files):
        root, train_path, dev_path = data_files
        preds = root / "short_preds.tsv"
        preds.write_text("0\tlbl00\n", encoding="utf-8")
        assert main(["eval", "--pred", str(preds), "--gold", str(dev_path)]) == 2


class TestPredictionsFile:
    """``lahja eval`` reads predictions through the same TSV line reader as datasets."""

    @staticmethod
    def predictions(data_files, name: str) -> bytes:
        root, train_path, dev_path = data_files
        model, preds = root / f"{name}.json", root / f"{name}.tsv"
        assert main(["train", "--train-file", str(train_path), "--preset", "baseline", "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--in", str(dev_path), "--out", str(preds)]) == 0
        return preds.read_bytes()

    def test_crlf_predictions_score_like_lf(self, data_files, capsys):
        root, _, dev_path = data_files
        lf = root / "lf.tsv"
        lf.write_bytes(self.predictions(data_files, "lf"))
        crlf = root / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert main(["eval", "--pred", str(lf), "--gold", str(dev_path), "--json"]) == 0
        expected = capsys.readouterr().out
        assert main(["eval", "--pred", str(crlf), "--gold", str(dev_path), "--json"]) == 0
        assert capsys.readouterr().out == expected

    def test_non_utf8_predictions_is_data_error(self, data_files, capsys):
        root, _, dev_path = data_files
        bad = root / "latin1.tsv"
        bad.write_bytes(self.predictions(data_files, "latin1").replace(b"\n", b"\xe9\n", 2))
        capsys.readouterr()
        assert main(["eval", "--pred", str(bad), "--gold", str(dev_path)]) == 2
        assert capsys.readouterr().err.strip() == f"lahja: data error: {bad}: line 1: invalid UTF-8"

    def test_wrong_field_count_names_the_fields(self, data_files, capsys):
        root, _, dev_path = data_files
        bad = root / "three.tsv"
        bad.write_bytes(b"0\tlbl00\textra\n")
        assert main(["eval", "--pred", str(bad), "--gold", str(dev_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"lahja: data error: {bad}: line 1: expected 2 tab-separated fields (id, labels), found 3"
        )
