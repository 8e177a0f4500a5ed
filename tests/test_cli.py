import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failcast
from failcast import features
from failcast.cli import STAGES, main
from oracles import BUNDLE_FILES


def run_chain(root: Path, seed: int = 11, signature: float = 0.9) -> Path:
    """synth -> ingest -> label -> pacf-report -> featurize -> train -> predict -> evaluate."""
    trace = root / "trace"
    store = root / "store"
    labels = root / "labels"
    data = root / "data"
    model = root / "model"
    reports = root / "reports"
    assert main([
        "synth", "--out", str(trace), "--machines", "50", "--days", "2",
        "--signature", str(signature), "--seed", str(seed),
    ]) == 0
    assert main([
        "ingest", "--events", str(trace / "machine_events.csv"),
        "--usage", str(trace / "resource_usage.csv"), "--out", str(store),
    ]) == 0
    assert main([
        "label", "--store", str(store),
        "--events", str(trace / "machine_events.csv"), "--out", str(labels),
    ]) == 0
    assert main(["pacf-report", "--store", str(store), "--out", str(root / "pacf_hist.csv")]) == 0
    assert main([
        "featurize", "--store", str(store), "--labels", str(labels),
        "--out", str(data), "--normal-samples", "1500", "--seed", str(seed),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--out", str(model),
        "--gamma", "0.125", "--nu", "0.1", "--trees", "30",
        "--folds", "3", "--seed", str(seed),
        "--archive", str(model / "bundle.zip"),
    ]) == 0
    assert main([
        "predict", "--model", str(model), "--data", str(data),
        "--out", str(root / "predictions.csv"),
    ]) == 0
    assert main([
        "evaluate", "--predictions", str(root / "predictions.csv"),
        "--data", str(data), "--out", str(reports),
    ]) == 0
    return root


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    return run_chain(root)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """The trace of 5 machines over 1 day."""
    trace = tmp_path_factory.mktemp("small") / "trace"
    argv = ["synth", "--out", str(trace), "--machines", "5", "--days", "1", "--seed", "3"]
    assert main(argv) == 0
    return trace


class TestFullChain:
    def test_artifacts_exist(self, chain):
        assert (chain / "store" / "avg.npy").exists()
        assert (chain / "labels" / "failures.csv").exists()
        assert (chain / "data" / "train.csv").exists()
        assert (chain / "model" / "cv_table.csv").exists()
        assert (chain / "model" / "split_counts.csv").exists()
        assert (chain / "model" / "bundle.zip").exists()
        for name in BUNDLE_FILES:
            assert (chain / "model" / name).exists()
        assert (chain / "reports" / "report.txt").exists()
        assert (chain / "reports" / "report.kv").exists()
        assert (chain / "reports" / "roc.csv").exists()

    def test_split_counts_follow_feature_layout(self, chain):
        from failcast import forest

        text = (chain / "model" / "split_counts.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0] == ["index", "kind", "resource", "lag", "count"]
        assert len(rows) == 1 + 72
        assert rows[1][:4] == ["0", "avg", "0", "1"]
        assert rows[72][:4] == ["71", "peak", "5", "6"]
        with open(chain / "model" / "forest.txt") as f:
            model = forest.load(f)
        counts = [int(row[4]) for row in rows[1:]]
        assert counts == model.feature_split_counts.tolist() and sum(counts) > 0

    def test_single_cell_grid_yields_single_cv_row(self, chain):
        rows = (chain / "model" / "cv_table.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one cell

    def test_report_shows_strong_binary_f3(self, chain):
        kv = dict(
            line.split("=", 1)
            for line in (chain / "reports" / "report.kv").read_text().splitlines()
        )
        assert float(kv["binary.f3"]) > 0.7
        assert float(kv["binary.auc"]) > 0.9

    def test_ingest_counts_all_machines(self, chain):
        meta = json.loads((chain / "store" / "meta.json").read_text())
        assert meta["n_machines"] == 50
        assert meta["values_clamped"] == 0

    def test_label_excluded_degenerates(self, chain):
        meta = json.loads((chain / "labels" / "meta.json").read_text())
        assert len(meta["excluded_machines"]) == 2


#: SHA-256 of the `chain` fixture's artifacts (seed 11). A speedup keeps
#: artifact bytes, so a change that moves one of these changes behaviour.
#: The model files rest on OpenBLAS's rounding, as built for x86-64 numpy.
GOLDEN_DIGESTS = {
    "trace/machine_events.csv": "882732d149c2b996bb3a4d7431cad9754ec2f5270dcde51489395a71348dc059",
    "trace/resource_usage.csv": "aceebeef362f5b03b3024ddf6c8dc19c2c62a6dbce4a3c4e4c54944e0feca1f3",
    "trace/truth_labels.csv": "ae1b72c77cb870568925539c078739fcc2fcce9ea3d46a84226edaae88279142",
    "pacf_hist.csv": "91dd28e821de56a973fd8201040d1ae21acf47dc5b15af5246f1708bad34ac4f",
    "model/forest.txt": "1977cb01c82e81c7102e66264b0baec180314463b6ff3c4b0c484f5c60fbe9c1",
    "model/ocsvm.txt": "a2929526981354982126996f0cb2d01ac80c0f1f0d381898798645594c64b9c7",
    "model/cv_table.csv": "ccc03d6bc09164b49ce8b68f863e76f3e1dd24d669ec8bf6280507fda5e97b2c",
    "predictions.csv": "8aa1d380d21d221b4b86ca25fff11fb0176a0e35e59ae66aa2049cff28f09b8a",
    "data/train.csv": "bf300b8bc297ee586d513871411493002d32c4068def3f8bfa77eeab12f5153b",
    "data/test.csv": "2bcb608aa149069e8b95793d59cae26d075cbb49db6609f950d1d782d59f0cc0",
    "data/train_ids.csv": "ae2d92dbb180083f53d5bc687618644d306d7da0df82dd092ebd6fd3a7d72b7d",
    "data/test_ids.csv": "6d2548a0411bdb6c1f2919110dc65857b054e50fc0cec84e926f33ea3e912908",
    "labels/failures.csv": "fd29387bbb09ecec9cfa4b9f9ba1b92cb09904c68b09012262a4cb4103397b4d",
    "model/split_counts.csv": "3c067ad6c83c46c1d226866b73aeebe6ee8d0733a71a93821062c996f8e77807",
    "reports/roc.csv": "99732cf9e1280ae285745cb8547fa94ebdee438e818927ebe699df3e9b088d58",
    "reports/report.txt": "f8572df250e5d46b2ad987db1cccb2da9ada0ae25a50df8812166d2c30455cb4",
    "reports/report.kv": "487c24162a171b0908ba95b853f4d5dc1f8f747cc6249727b6a9b13b3ed2d6fd",
    "store/avg.npy": "2196bacfea1358980c771d24647fdb3a48664dd61bc05d7c27884d7232866999",
    "store/machine_ids.npy": "7d2bbdee3bfe4aa21f28fa8d572d9bbd6cc5e6e9ad28fe2441f5a5596cdd0043",
    "store/meta.json": "a0e851db7471aa1268bc8d8489175554a6c731f2ae0a2d7c0e4a9bf8e2b242cd",
    "store/peak.npy": "0a0fd5355696ddd5565f98a8498ffb6406de54f0ed8393085d724619ca21823c",
    "store/present.npy": "a85fd97a9977e62cd84c4b88c9b654adc634e2bdf881233975eca6beb3e73c77",
    "labels/downtime.npy": "3e0808e987d76393dd326662980f2df7744bcacdafd634776d96aa6321537d12",
    "labels/machine_ids.npy": "cf65a29f08e45e6a9cd535761ef26749abb5d9056ab86cbd263f31172093b277",
    "labels/meta.json": "e717f4b20e04fdb7bcbd790f3290326b58f99f84da508030b05355b8d8bcf3f2",
    "labels/y.npy": "9b70e74c2ea47ea6c4e14ae96bf76936a3736a54b85ca804681e090418c25cca",
}


def test_chain_artifacts_match_the_golden_digests(chain):
    digests = {
        name: hashlib.sha256((chain / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


def test_weighted_averages_are_written_in_shortest_round_trip_form(small_trace, tmp_path):
    """Usage rows that straddle the 5-minute bins average to values that are no millionths."""
    from failcast.features import read_dataset_csv

    from oracles import reference_write_rows

    trace = tmp_path / "trace"
    shutil.copytree(small_trace, trace)
    usage = trace / "resource_usage.csv"
    header, *rows = usage.read_text().splitlines()
    half_interval = 150_000_000
    shifted = [
        f"{int(start) + half_interval},{int(end) + half_interval},{rest}"
        for start, end, rest in (row.split(",", 2) for row in rows)
    ]
    usage.write_text("\n".join([header, *shifted]) + "\n")
    events = str(trace / "machine_events.csv")
    store, labels, data = (str(tmp_path / name) for name in ("store", "labels", "data"))
    assert main(["ingest", "--events", events, "--usage", str(usage), "--out", store]) == 0
    assert main(["label", "--store", store, "--events", events, "--out", labels]) == 0
    assert main(["featurize", "--store", store, "--labels", labels, "--out", data,
                 "--normal-samples", "300", "--seed", "5"]) == 0
    for split in ("train", "test"):
        path = tmp_path / "data" / f"{split}.csv"
        with open(path) as f:
            X, y = read_dataset_csv(f)
        assert np.count_nonzero(np.rint(X * 1e6) / 1e6 != X) > X.size // 4
        header = path.read_text().split("\n", 1)[0] + "\n"
        row_format = "%d," + ",".join(["%r"] * X.shape[1]) + "\n"
        assert path.read_text() == header + reference_write_rows(row_format, y, X)


#: how far a row's score alone may lie from its score in a batch: a batch of one
#: goes down another BLAS path, which rounds g(x) differently (README, "Notes on
#: conventions"); only a margin within that rounding of 0 could change the class
ONE_ROW_SCORE_BOUND = 1e-15
ONE_ROW_MARGIN_ROUNDING = 1e-12


@pytest.fixture(scope="module")
def test_split_batch(chain):
    """The `chain` model, its test rows and their batch predictions, scores and margins."""
    from failcast import ocsvm, pipeline

    model = pipeline.load_bundle(chain / "model")
    with open(chain / "data" / "test.csv") as f:
        X, _ = features.read_dataset_csv(f)
    return model, X, *pipeline.predict_batch(model, X), ocsvm.decision(model.ocsvm, X)


@settings(max_examples=200, derandomize=True)
@given(data=st.data())
def test_a_row_alone_keeps_its_batch_class_and_score(test_split_batch, data):
    from failcast import pipeline

    model, X, preds, scores, g = test_split_batch
    i = data.draw(st.integers(0, len(X) - 1), label="row")
    pred, score = pipeline.predict_batch(model, X[i : i + 1])
    assert pred[0] == preds[i] or abs(g[i]) <= ONE_ROW_MARGIN_ROUNDING
    assert abs(score[0] - scores[i]) <= ONE_ROW_SCORE_BOUND


#: SHA-256 of a 2 x 3 x 3 grid trained on the `chain` fixture's data. The
#: tree counts are unsorted and nu=0.001 is unusable on every fold, so these
#: see the grid's cell order, its tie rule and its zero-score rows.
GRID_DIGESTS = {
    "cv_table.csv": "111a85c33ee6f4fd211eac77281829db5eb37dd374e0c56d874cf38a9d43a763",
    "forest.txt": "966385ae738fe0866f373a17f9a930842ef46fb5ad9904b034a7cb1f7e403c7a",
    "ocsvm.txt": "183fc587ac2f9935ff4ae8309d2c636e69dd7848baa58785ed395f22db716d66",
}


def test_multi_cell_grid_matches_its_digests(chain, tmp_path):
    model = tmp_path / "model"
    assert main([
        "train", "--data", str(chain / "data"), "--out", str(model),
        "--gammas", "0.125,0.5", "--nus", "0.05,0.1,0.001", "--trees-grid", "50,10,30",
        "--folds", "3", "--seed", "11",
    ]) == 0
    digests = {
        name: hashlib.sha256((model / name).read_bytes()).hexdigest() for name in GRID_DIGESTS
    }
    assert digests == GRID_DIGESTS


def test_grid_filters_each_test_fold_once_per_fit(chain, monkeypatch):
    """The 2 x 3 x 3 grid of GRID_DIGESTS makes 12 usable fits on 3 folds.

    Each fit calls ``ocsvm.decision`` once while training and once on its
    test fold, which then serves every tree count: 24 calls, not the 48 of
    one stage-1 pass per tree count.
    """
    from failcast import ForestParams, OcsvmParams, features, ocsvm, pipeline

    with open(chain / "data" / "train.csv") as f:
        X, y = features.read_dataset_csv(f)
    calls = []
    decision = ocsvm.decision
    monkeypatch.setattr(ocsvm, "decision", lambda *a: calls.append(a) or decision(*a))
    grid = pipeline.GridSpec(gammas=(0.125, 0.5), nus=(0.05, 0.1, 0.001),
                             tree_counts=(50, 10, 30), folds=3)
    pipeline.grid_search_cv(X, y, grid, OcsvmParams(), ForestParams(rng_seed=11))
    assert len(calls) == 24


class TestDeterminism:
    def test_chain_is_byte_identical_across_runs(self, tmp_path):
        a = run_chain(tmp_path / "a", seed=3)
        b = run_chain(tmp_path / "b", seed=3)
        compare = [
            ("trace/machine_events.csv", True),
            ("trace/resource_usage.csv", True),
            ("trace/truth_labels.csv", True),
            ("store/avg.npy", False),
            ("data/train.csv", True),
            ("data/test.csv", True),
            ("predictions.csv", True),
            ("reports/report.txt", True),
            ("reports/report.kv", True),
            ("reports/roc.csv", True),
            ("model/cv_table.csv", True),
            ("model/bundle.zip", False),
        ] + [(f"model/{name}", False) for name in BUNDLE_FILES]
        for rel, _ in compare:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestErrors:
    def test_missing_file_nonzero_exit_names_path(self, tmp_path, capsys):
        rc = main(
            [
                "ingest",
                "--events", str(tmp_path / "nope.csv"),
                "--usage", str(tmp_path / "nope2.csv"),
                "--out", str(tmp_path / "s"),
            ]
        )
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "failcast" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["train", "--help"]) == 0

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "machine_events.csv"
        bad.write_text("time_us,machine_id,event\n10,1,9\n")
        usage = tmp_path / "resource_usage.csv"
        usage.write_text(
            "start_us,end_us,machine_id,mean_cpu,mean_diskio,mean_disk,mean_mem,"
            "mean_cache,mean_mai,max_cpu,max_diskio,max_disk,max_mem,max_cache,max_mai\n"
        )
        rc = main(
            ["ingest", "--events", str(bad), "--usage", str(usage), "--out", str(tmp_path / "s")]
        )
        assert rc != 0
        assert "line 2" in capsys.readouterr().err


class TestStreamPredict:
    def test_stream_mode_emits_one_line_per_instance(self, chain, monkeypatch, capsys):
        test_csv = (chain / "data" / "test.csv").read_text().splitlines()
        rows = [line.split(",", 1)[1] for line in test_csv[1:6]]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        rc = main(["predict", "--model", str(chain / "model"), "--stream"])
        assert rc == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(out_lines) == 5
        for line in out_lines:
            y, score = line.split(",")
            assert int(y) in (0, 1, 2, 3)
            assert 0.0 < float(score) <= 1.0


    @pytest.mark.parametrize(
        "extra", [["--data", "x"], ["--out", "y"], ["--data", "x", "--out", "y"]],
        ids=["data", "out", "both"],
    )
    def test_stream_with_data_or_out_exits_2_before_reading_stdin(
        self, chain, tmp_path, monkeypatch, capsys, extra
    ):
        stdin = mock.Mock(spec=io.StringIO)
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.chdir(tmp_path)
        t0 = time.perf_counter()
        assert main(["predict", "--model", str(chain / "model"), "--stream", *extra]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == (
            "", "error: predict --stream reads stdin and writes stdout: no --data or --out\n"
        )
        assert not stdin.method_calls and not list(tmp_path.iterdir())

    def _stream(self, chain, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return main(["predict", "--model", str(chain / "model"), "--stream"])

    def test_stream_matches_batch_predictions(self, chain, monkeypatch, capsys):
        test_csv = (chain / "data" / "test.csv").read_text().splitlines()
        rows = [line.split(",", 1)[1] for line in test_csv[1:41]]
        assert self._stream(chain, monkeypatch, "\n".join(rows) + "\n") == 0
        got = capsys.readouterr().out.splitlines()
        batch = (chain / "predictions.csv").read_text().splitlines()[1:41]
        for line, pred in zip(got, batch):
            y, score = line.split(",")
            _, _, want_y, want_score = pred.split(",")
            assert int(y) == int(want_y)
            assert float(score) == pytest.approx(float(want_score), abs=1e-12)

    def test_wrong_arity_line_exits_2(self, chain, monkeypatch, capsys):
        test_csv = (chain / "data" / "test.csv").read_text().splitlines()
        good = test_csv[1].split(",", 1)[1]
        rc = self._stream(chain, monkeypatch, f"{good}\n0.1,0.2,0.3\n")
        assert rc == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1  # the good line was answered
        assert captured.err.startswith("error: line 2:")

    # a field is read as a dataset field is: no "_", non-ASCII digit or "#" comment
    @pytest.mark.parametrize(
        "bad", ["nan", "inf", "abc", "1_0", "١", "１", "0.5#x"],
        ids=["nan", "inf", "abc", "underscore", "arabic_indic_digit", "fullwidth_digit",
             "comment"],
    )
    def test_bad_value_line_exits_2(self, chain, monkeypatch, capsys, bad):
        test_csv = (chain / "data" / "test.csv").read_text().splitlines()
        fields = test_csv[1].split(",")[1:]
        fields[3] = bad
        assert self._stream(chain, monkeypatch, ",".join(fields) + "\n") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1:")


def _set_manifest(section: str, key: str, value):
    """An edit of manifest.json's text that sets ``section.key`` to ``value``."""
    def edit(text: str) -> str:
        manifest = json.loads(text)
        manifest[section][key] = value
        return json.dumps(manifest)
    return edit


def _set_alpha(new):
    """An edit of ocsvm.txt's text that sets its smallest alpha ``a`` to ``new(a)``."""
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        # support-vector rows are the lines that start with a number, their alpha
        rows = [i for i, line in enumerate(lines) if line[0].isdigit()]
        i = min(rows, key=lambda i: float(lines[i].split(" ", 1)[0]))
        alpha, rest = lines[i].split(" ", 1)
        lines[i] = f"{new(float(alpha))!r} {rest}"
        return "".join(lines)
    return edit


class TestBrokenInputs:
    def test_predict_on_truncated_bundle_exits_2(self, chain, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(chain / "model", model)
        forest = model / "forest.txt"
        forest.write_text("".join(forest.read_text().splitlines(keepends=True)[:-2]))
        rc = main([
            "predict", "--model", str(model), "--data", str(chain / "data"),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "forest.txt" in err
        assert not (tmp_path / "p.csv").exists()

    def test_predict_on_unknown_bundle_format_exits_2(self, chain, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(chain / "model", model)
        ocsvm = model / "ocsvm.txt"
        ocsvm.write_text(ocsvm.read_text().replace("ocsvm-model v1", "ocsvm-model v2", 1))
        rc = main(["predict", "--model", str(model), "--stream"])
        assert rc == 2
        assert "ocsvm.txt" in capsys.readouterr().err

    def test_predict_reads_the_archive_like_the_directory(self, chain, tmp_path):
        out = tmp_path / "p.csv"
        rc = main([
            "predict", "--model", str(chain / "model" / "bundle.zip"),
            "--data", str(chain / "data"), "--out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == (chain / "predictions.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["not_a_zip", "cut", "flipped_bytes"])
    def test_predict_on_a_damaged_archive_exits_2(self, chain, tmp_path, capsys, damage):
        data = bytearray((chain / "model" / "bundle.zip").read_bytes())
        if damage == "not_a_zip":
            data = bytearray(b"not a zip\n")
        elif damage == "cut":
            del data[len(data) // 2 :]
        else:
            # inside the compressed ocsvm.txt that starts the archive
            data[60:64] = bytes(b ^ 0xFF for b in data[60:64])
        fake = tmp_path / "bundle.zip"
        fake.write_bytes(bytes(data))
        rc = main(["predict", "--model", str(fake), "--stream"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {fake}")

    @pytest.mark.parametrize("archive", [False, True])
    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", _set_manifest("forest", "n_trees", 999)),
            ("manifest.json", _set_manifest("ocsvm", "gamma", 0.5)),
            ("layout.json", lambda text: "garbage"),
            ("ocsvm.txt", _set_alpha(lambda a: -1.0)),
            ("ocsvm.txt", _set_alpha(lambda a: 0.0)),
            ("ocsvm.txt", _set_alpha(lambda a: 5.0)),
            ("ocsvm.txt", _set_alpha(lambda a: a / 2)),
            ("manifest.json", _set_manifest("ocsvm", "nu", "x")),
            ("manifest.json", _set_manifest("data", "class_counts", [])),
            ("manifest.json", _set_manifest("data", "class_counts", [10**400, 1, 1, 1])),
            ("manifest.json", lambda text: text.replace("manifest v1", "manifest v2")),
            ("manifest.json", _set_manifest("feature", "dim", 71)),
        ],
        ids=[
            "n_trees", "gamma", "layout", "alpha_negative", "alpha_zero", "alpha_above_C",
            "alpha_sum", "nu_not_a_number", "no_normal_count", "normal_count_overflows",
            "format", "feature_dim",
        ],
    )
    def test_predict_on_a_bundle_that_contradicts_itself_exits_2(
        self, chain, tmp_path, capsys, archive, name, edit
    ):
        texts = {n: (chain / "model" / n).read_text() for n in BUNDLE_FILES}
        texts[name] = edit(texts[name])
        if archive:
            bundle = tmp_path / "bundle.zip"
            with zipfile.ZipFile(bundle, "w") as zf:
                for n, text in texts.items():
                    zf.writestr(n, text)
        else:
            bundle = tmp_path / "model"
            bundle.mkdir()
            for n, text in texts.items():
                (bundle / n).write_text(text)
        rc = main(["predict", "--model", str(bundle), "--stream"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bundle / name}: ")

    def test_predict_on_stages_of_a_bad_width_names_forest_txt(self, chain, tmp_path, capsys):
        """Stages 24 (2 lags) or 71 features wide, with a manifest that states them."""
        from failcast import forest, ocsvm
        from failcast.features import read_dataset_csv

        with open(chain / "data" / "train.csv") as f:
            X, y = read_dataset_csv(f)
        for dim in (24, 71):
            manifest = json.loads((chain / "model" / "manifest.json").read_text())
            manifest["forest"]["n_trees"] = 3
            manifest["feature"] = {"lags": dim / 12, "dim": dim}
            normals = X[y == 0][:300, :dim]
            manifest["data"]["class_counts"][0] = len(normals)
            bundle = tmp_path / f"model{dim}"
            bundle.mkdir()

            def settings(cls, section):  # the manifest entries that are settable fields of cls
                fields = [f.name for f in dataclasses.fields(cls) if f.init]
                return cls(**{name: manifest[section][name] for name in fields})

            with open(bundle / "ocsvm.txt", "w") as f:
                ocsvm.save(ocsvm.train(normals, settings(ocsvm.OcsvmParams, "ocsvm")), f)
            with open(bundle / "forest.txt", "w") as f:
                forest.save(forest.train(X[:, :dim], y, settings(forest.ForestParams, "forest")), f)
            (bundle / "manifest.json").write_text(json.dumps(manifest))
            shutil.copy(chain / "model" / "layout.json", bundle)
            rc = main(["predict", "--model", str(bundle), "--stream"])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: {bundle / 'forest.txt'}: {dim} features"
                " is not the 72 of the 6-lag window\n"
            )

    @pytest.mark.parametrize("limits", ["min_leaf=2 max_depth=none", "min_leaf=1 max_depth=3"])
    def test_predict_on_a_forest_grown_with_limits_exits_2(
        self, chain, tmp_path, capsys, monkeypatch, limits
    ):
        """Trees grow unpruned, so a forest.txt that states other limits does not load."""
        bundle = tmp_path / "model"
        shutil.copytree(chain / "model", bundle)
        forest = bundle / "forest.txt"
        text = forest.read_text()
        assert " min_leaf=1 max_depth=none " in text
        forest.write_text(text.replace("min_leaf=1 max_depth=none", limits, 1))
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        t0 = time.perf_counter()
        rc = main(["predict", "--model", str(bundle), "--stream"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {forest}: {limits}: ")

    @pytest.mark.parametrize(
        "name, cut",
        [("present.npy", 100), ("avg.npy", 1000), ("machine_ids.npy", 0), ("meta.json", 5)],
    )
    def test_damaged_store_exits_2(self, chain, tmp_path, capsys, name, cut):
        store = tmp_path / "store"
        shutil.copytree(chain / "store", store)
        (store / name).write_bytes((store / name).read_bytes()[:cut])
        rc = main(["pacf-report", "--store", str(store), "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {store / name}: ")
        assert not (tmp_path / "h.csv").exists()

    def test_an_archive_in_place_of_a_store_array_exits_2(self, chain, tmp_path, capsys):
        store = tmp_path / "store"
        shutil.copytree(chain / "store", store)
        with open(store / "avg.npy", "wb") as f:
            np.savez(f, avg=np.load(chain / "store" / "avg.npy"))
        rc = main(["pacf-report", "--store", str(store), "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {store / 'avg.npy'}: ")
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("store, name, change", [
        *(("store", name, 0) for name in ("machine_ids", "avg", "peak", "present")),
        *(("store", name, 1) for name in ("avg", "peak", "present")),
        *(("store", name, 2) for name in ("avg", "peak")),
        *(("store", name, "float64") for name in ("machine_ids", "present")),
        ("store", "avg", "float32"),
        *(("labels", name, 0) for name in ("machine_ids", "y", "downtime")),
        *(("labels", name, 1) for name in ("y", "downtime")),
        *(("labels", name, "float64") for name in ("machine_ids", "y", "downtime")),
    ])
    def test_a_store_whose_arrays_disagree_exits_2(
        self, chain, tmp_path, capsys, store, name, change
    ):
        """One machine (axis 0), interval (axis 1) or resource (axis 2) fewer in one file
        of a store, or its values plus 0.5 saved as another dtype."""
        copy = tmp_path / store
        shutil.copytree(chain / store, copy)
        path = copy / f"{name}.npy"
        array = np.load(path)
        if isinstance(change, int):
            np.save(path, np.delete(array, -1, axis=change))
        else:
            np.save(path, array.astype(change) + 0.5)
        events, out = str(chain / "trace" / "machine_events.csv"), str(tmp_path / "out")
        runs = {
            "store": [["label", "--store", str(copy), "--events", events, "--out", out],
                      ["pacf-report", "--store", str(copy), "--out", out]],
            "labels": [["featurize", "--store", str(chain / "store"), "--labels", str(copy),
                        "--out", out]],
        }[store]
        for argv in runs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {copy}{os.sep}") and f"{name}.npy" in err, argv[0]
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("intervals", [0, 6])
    def test_featurize_on_a_store_too_short_for_a_window_exits_2(
        self, chain, tmp_path, capsys, intervals
    ):
        """No interval of a store of 6 intervals or fewer has 6 intervals before it."""
        for store, names in (("store", ("avg", "peak", "present")), ("labels", ("y", "downtime"))):
            shutil.copytree(chain / store, tmp_path / store)
            for name in names:
                path = tmp_path / store / f"{name}.npy"
                np.save(path, np.load(path)[:, :intervals])
        out = tmp_path / "data"
        assert main(["featurize", "--store", str(tmp_path / "store"),
                     "--labels", str(tmp_path / "labels"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: a {intervals}-interval series holds no 6-interval window"
            " before a labeled interval\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("meta", [
        {"interval_us": 60_000_000}, {}, [],
    ], ids=["one_minute", "no_interval", "not_an_object"])
    def test_a_store_of_another_interval_exits_2(self, chain, tmp_path, capsys, meta):
        """A store binned at another interval, as the ingest of old releases could write."""
        store = tmp_path / "store"
        shutil.copytree(chain / "store", store)
        if meta:
            meta = {**json.loads((store / "meta.json").read_text()), **meta}
        (store / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "labels"
        rc = main(["label", "--store", str(store), "--events",
                   str(chain / "trace" / "machine_events.csv"), "--out", str(out)])
        assert rc == 2
        interval = meta.get("interval_us") if meta else None
        assert capsys.readouterr().err == (
            f"error: {store / 'meta.json'}: interval_us is {interval}, not 300000000\n"
        )
        assert not out.exists()

    def test_train_with_nu_above_one_exits_2(self, chain, tmp_path, capsys):
        rc = main([
            "train", "--data", str(chain / "data"), "--out", str(tmp_path / "m"),
            "--gamma", "0.125", "--nus", "0.1,1.5", "--trees", "5", "--folds", "3",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m").exists()

    def test_train_has_no_lags_flag(self, chain, tmp_path, capsys):
        rc = main([
            "train", "--data", str(chain / "data"), "--out", str(tmp_path / "m"),
            "--trees", "5", "--folds", "3", "--lags", "7",
        ])
        assert rc == 2
        assert "--lags" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("stage, flag, value", [
        *((stage, "--seed", "1") for stage in
          ("ingest", "label", "pacf-report", "predict", "evaluate", "adapt-google")),
        ("ingest", "--interval-us", "300000000"), ("ingest", "--horizon-us", "600000000"),
        ("predict", "--split", "train"), ("evaluate", "--split", "train"),
        ("label", "--degenerate-min-failures", "100"), ("label", "--ir-max-minutes", "30"),
        ("pacf-report", "--max-lag", "10"), ("train", "--tol", "0.0001"),
        ("featurize", "--lags", "6"), ("synth", "--degenerate", "2"),
    ])
    def test_a_setting_the_stage_does_not_have_exits_2(self, tmp_path, capsys, stage, flag, value):
        """As a flag, and as a config key unless another stage has it, before any output."""
        required = [arg for f in STAGES[stage].flags if f.options.get("required")
                    for arg in ("--" + f.dest.replace("_", "-"), str(tmp_path / f.dest))]
        assert main([stage, *required, flag, value]) == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        key = flag[2:].replace("-", "_")
        if key != "seed":  # synth, featurize and train read it
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            assert main([stage, *required, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {cfg}: line 1: unknown setting {key!r}\n"
        assert [p.name for p in tmp_path.iterdir()] in ([], ["run.cfg"])

    def test_train_defaults_gamma_to_one_over_the_dataset_width(self, chain, tmp_path):
        model = tmp_path / "m"
        assert main([
            "train", "--data", str(chain / "data"), "--out", str(model),
            "--nu", "0.1", "--trees", "5", "--folds", "2",
        ]) == 0
        manifest = json.loads((model / "manifest.json").read_text())
        assert manifest["feature"] == {"lags": 6, "dim": 72}
        assert manifest["ocsvm"]["gamma"] == 1 / 72
        rows = (model / "cv_table.csv").read_text().splitlines()
        assert rows[1].startswith(f"{1 / 72!r},")

    @pytest.mark.parametrize("dim", [12, 24, 71])
    def test_train_refuses_a_dataset_of_another_width(self, chain, tmp_path, capsys, dim):
        """Whole numbers of 12-feature lags too: only the 6-lag window trains."""
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(chain / "data" / "train_ids.csv", data)
        rows = (chain / "data" / "train.csv").read_text().splitlines()
        (data / "train.csv").write_text(
            "".join(",".join(row.split(",")[: dim + 1]) + "\n" for row in rows)
        )
        model = tmp_path / "m"
        rc = main([
            "train", "--data", str(data), "--out", str(model),
            "--gamma", "0.125", "--nu", "0.1", "--trees", "5", "--folds", "3",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {dim} features is not the 72 of the 6-lag window\n"
        )
        assert not model.exists()


    @pytest.mark.parametrize("bad", ["1,2,3", "1,2,x,0.5"])
    def test_evaluate_on_malformed_predictions_exits_2(self, chain, tmp_path, capsys, bad):
        preds = tmp_path / "p.csv"
        lines = (chain / "predictions.csv").read_text().splitlines()
        preds.write_text("\n".join(lines + [bad]) + "\n")
        rc = main([
            "evaluate", "--predictions", str(preds), "--data", str(chain / "data"),
            "--out", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {preds}: line {len(lines) + 1}:")

    @pytest.mark.parametrize("repeat_first", [False, True])
    def test_evaluate_on_a_repeated_prediction_exits_2(
        self, chain, tmp_path, capsys, repeat_first
    ):
        lines = (chain / "predictions.csv").read_text().splitlines()
        m, i, y, _ = lines[5].split(",")
        repeat = f"{m},{i},{(int(y) + 1) % 4},0.5"
        if repeat_first:
            # the repeat comes before the real row, which is then the second one
            lines.insert(1, repeat)
            line_no = 7
        else:
            lines.append(repeat)
            line_no = len(lines)
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rep"
        rc = main([
            "evaluate", "--predictions", str(preds), "--data", str(chain / "data"),
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: line {line_no}: duplicate prediction for instance ({m}, {i})\n"
        )
        assert not out.exists()

    def test_evaluate_on_a_missing_prediction_exits_2(self, chain, tmp_path, capsys):
        lines = (chain / "predictions.csv").read_text().splitlines()
        m, i = lines[5].split(",")[:2]
        del lines[5]
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines) + "\n")
        rc = main([
            "evaluate", "--predictions", str(preds), "--data", str(chain / "data"),
            "--out", str(tmp_path / "rep"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: missing prediction for instance ({m}, {i})\n"
        )

    def test_evaluate_on_a_prediction_outside_the_split_exits_2(self, chain, tmp_path, capsys):
        preds = tmp_path / "p.csv"
        preds.write_text((chain / "predictions.csv").read_text() + "999,5,0,0.1\n")
        out = tmp_path / "rep"
        rc = main([
            "evaluate", "--predictions", str(preds), "--data", str(chain / "data"),
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {preds}: prediction for instance (999, 5) not in the test split\n"
        )
        assert not out.exists()

    def test_evaluate_joins_predictions_in_any_row_order(self, chain, tmp_path):
        lines = (chain / "predictions.csv").read_text().splitlines()
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        out = tmp_path / "rep"
        assert main([
            "evaluate", "--predictions", str(preds), "--data", str(chain / "data"),
            "--out", str(out),
        ]) == 0
        for name in ("report.kv", "roc.csv"):
            assert (out / name).read_bytes() == (chain / "reports" / name).read_bytes()

    @pytest.mark.parametrize("bad", ["1_000", "   "], ids=["underscore_int", "blank_spaces"])
    @pytest.mark.parametrize("stage", ["ingest", "predict", "evaluate"])
    def test_unreadable_line_exits_2(self, chain, tmp_path, capsys, stage, bad):
        data = tmp_path / "data"
        shutil.copytree(chain / "data", data)
        trace = chain / "trace"
        path, args = {
            "ingest": (tmp_path / "machine_events.csv", [
                "ingest", "--events", str(tmp_path / "machine_events.csv"),
                "--usage", str(trace / "resource_usage.csv")]),
            "predict": (data / "test.csv", ["predict", "--model", str(chain / "model"),
                                            "--data", str(data)]),
            "evaluate": (tmp_path / "predictions.csv", [
                "evaluate", "--predictions", str(tmp_path / "predictions.csv"),
                "--data", str(data)]),
        }[stage]
        source = {"ingest": trace / "machine_events.csv", "predict": chain / "data" / "test.csv",
                  "evaluate": chain / "predictions.csv"}[stage]
        lines = source.read_text().splitlines()
        # the first column of each of these tables is an int column
        lines[2] = bad if bad.isspace() else bad + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 3: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, name",
        [("predict", "test_ids.csv"), ("evaluate", "test_ids.csv"),
         ("evaluate", "predictions.csv")],
    )
    def test_empty_ids_or_predictions_file_exits_2(self, chain, tmp_path, capsys, stage, name):
        data = tmp_path / "data"
        shutil.copytree(chain / "data", data)
        preds = tmp_path / "predictions.csv"
        shutil.copy(chain / "predictions.csv", preds)
        (tmp_path if name == "predictions.csv" else data).joinpath(name).write_text("")
        out = tmp_path / "out"
        args = {
            "predict": ["predict", "--model", str(chain / "model"), "--data", str(data)],
            "evaluate": ["evaluate", "--predictions", str(preds), "--data", str(data)],
        }[stage]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_ingest_non_finite_usage_exits_2(self, chain, tmp_path, capsys):
        usage = tmp_path / "resource_usage.csv"
        header = (chain / "trace" / "resource_usage.csv").read_text().splitlines()[0]
        usage.write_text(header + "\n0,100,7,nan,0,0,0,0,0,0.5,0,0,0,0,0\n")
        rc = main([
            "ingest", "--events", str(chain / "trace" / "machine_events.csv"),
            "--usage", str(usage), "--out", str(tmp_path / "s"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {usage}: line 2:")
        assert not (tmp_path / "s").exists()


    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value", [("gammas", "abc"), ("nus", "0.1,x"), ("trees_grid", "5,1.5")]
    )
    def test_train_non_numeric_grid_list_exits_2(
        self, chain, tmp_path, capsys, where, key, value
    ):
        """The error names the flag, or the config file and key, and the last item."""
        args = ["train", "--data", str(chain / "data"), "--out", str(tmp_path / "m")]
        if where == "flag":
            origin = "--" + key.replace("_", "-")
            args += [origin, value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
            origin = f"{cfg}: config key {key!r}"
        assert main(args) == 2
        item, cast = value.split(",")[-1], "int" if key == "trees_grid" else "float"
        assert capsys.readouterr().err == f"error: {origin}: {item!r} is not a valid {cast}\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "stage, flags",
        [
            ("synth", ["--machines", "0"]),
            ("featurize", ["--train-fraction", "1.5"]),
            ("featurize", ["--normal-samples", "-1"]),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else v,
    )
    def test_out_of_range_value_exits_2(self, chain, tmp_path, capsys, stage, flags):
        inputs = {
            "synth": [],
            "featurize": ["--store", str(chain / "store"), "--labels", str(chain / "labels")],
        }[stage]
        out = tmp_path / "out"
        assert main([stage, *inputs, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_ingest_usage_without_rows_gives_empty_store(self, chain, tmp_path):
        events = str(chain / "trace" / "machine_events.csv")
        usage = tmp_path / "resource_usage.csv"
        usage.write_text(
            (chain / "trace" / "resource_usage.csv").read_text().splitlines()[0] + "\n"
        )
        store, labels = tmp_path / "store", tmp_path / "labels"
        assert main(["ingest", "--events", events, "--usage", str(usage), "--out", str(store)]) == 0
        assert json.loads((store / "meta.json").read_text())["n_machines"] == 0
        assert main(["label", "--store", str(store), "--events", events, "--out", str(labels)]) == 0
        assert np.load(labels / "machine_ids.npy").shape == (0,)
        assert np.load(labels / "y.npy").shape[0] == 0


    @pytest.mark.parametrize("stage", ["ingest", "train", "evaluate", "synth"])
    def test_non_utf8_input_exits_2(self, chain, tmp_path, capsys, stage):
        data = tmp_path / "data"
        shutil.copytree(chain / "data", data)
        events, preds, cfg = (tmp_path / n for n in ("machine_events.csv", "p.csv", "s.cfg"))
        path, source, args = {
            "ingest": (events, chain / "trace" / "machine_events.csv", [
                "ingest", "--events", str(events),
                "--usage", str(chain / "trace" / "resource_usage.csv")]),
            "train": (data / "train.csv", chain / "data" / "train.csv",
                      ["train", "--data", str(data)]),
            "evaluate": (preds, chain / "predictions.csv",
                         ["evaluate", "--predictions", str(preds), "--data", str(data)]),
            "synth": (cfg, None, ["synth", "--config", str(cfg)]),
        }[stage]
        text = source.read_bytes() if source else b"machines=5\ndays=1\n"
        path.write_bytes(text.replace(b"\n", b"\n\xff", 1))
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")
        assert not out.exists()


def _break_header(lines):
    lines[0] = lines[0].replace("f0", "g0")


def _short_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _word_value(lines):
    fields = lines[2].split(",")
    fields[5] = "abc"
    lines[2] = ",".join(fields)


def _keep_49_rows(lines):
    del lines[50:]


def _repeat_first_row(lines):
    lines[2] = lines[1]


class TestBrokenDataset:
    """train, predict and evaluate reject a malformed dataset split with exit 2."""

    @pytest.mark.parametrize("stage", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize(
        "suffix, damage, line_no",
        [
            ("", _break_header, 1),
            ("", _short_row, 4),
            ("", _word_value, 3),
            ("_ids", _keep_49_rows, None),
            ("_ids", _repeat_first_row, 3),
        ],
    )
    def test_malformed_split_exits_2(
        self, chain, tmp_path, capsys, stage, suffix, damage, line_no
    ):
        data = tmp_path / "data"
        shutil.copytree(chain / "data", data)
        split = "train" if stage == "train" else "test"
        path = data / f"{split}{suffix}.csv"
        lines = path.read_text().splitlines()
        damage(lines)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        args = {
            "train": ["train", "--data", str(data), "--out", str(out), "--trees", "5"],
            "predict": ["predict", "--model", str(chain / "model"), "--data", str(data),
                        "--out", str(out)],
            "evaluate": ["evaluate", "--predictions", str(chain / "predictions.csv"),
                         "--data", str(data), "--out", str(out)],
        }[stage]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        if line_no is None:
            assert "has 49 rows" in err
        else:
            assert f"line {line_no}:" in err
        assert not out.exists()


#: per stage: its arguments without --out, every input relative to the directory it
#: runs in; the input file the cases make missing or a directory; and what its --out
#: is, a "dir" or a "file" it writes, or None without one
BOUNDARY_STAGES = {
    "synth": (["synth", "--config", "synth.cfg", "--days", "1"], "synth.cfg", "dir"),
    "ingest": (["ingest", "--events", "trace/machine_events.csv",
                "--usage", "trace/resource_usage.csv"], "trace/resource_usage.csv", "dir"),
    "label": (["label", "--store", "store", "--events", "trace/machine_events.csv"],
              "trace/machine_events.csv", "dir"),
    "pacf-report": (["pacf-report", "--store", "store"], "store/avg.npy", "file"),
    "featurize": (["featurize", "--store", "store", "--labels", "labels"], "labels/y.npy", "dir"),
    "train": (["train", "--data", "data", "--trees", "5", "--folds", "2"], "data/train.csv",
              "dir"),
    "predict": (["predict", "--model", "model", "--data", "data"], "model/forest.txt", "file"),
    "predict-stream": (["predict", "--model", "model", "--stream"], "model/ocsvm.txt", None),
    "evaluate": (["evaluate", "--predictions", "predictions.csv", "--data", "data"],
                 "predictions.csv", "dir"),
    "adapt-google": (["adapt-google", "--machine-events", "google/machine_events.csv",
                      "--task-usage", "google/task_usage.csv"], "google/task_usage.csv", "dir"),
}

#: the split each dataset stage reads
BOUNDARY_SPLITS = {"train": "train", "predict": "test", "evaluate": "test"}


class TestPathBoundary:
    """A path a stage cannot use ends in one ``error: <path>: ...`` line and exit 2.

    Each stage runs on good inputs but one: an input file that is missing
    (``missing``) or a directory (``directory``), an ``--out`` of the other
    kind than the stage writes (``out``: an existing file where it makes a
    directory, an existing directory where it writes a file), or a dataset
    split without its ids sidecar (``no-ids``). The stage creates nothing
    and leaves an existing ``--out`` as it was.
    """

    @staticmethod
    def _inputs(chain: Path, work: Path, args: list[str]) -> None:
        """Copies of the chain artifacts ``args`` name, plus a config and clusterdata tables."""
        (work / "synth.cfg").write_text("machines=5\n")
        (work / "google").mkdir()
        (work / "google" / "machine_events.csv").write_text("0,5,0,abc,0.5,0.5\n")
        (work / "google" / "task_usage.csv").write_text("0,300000000,1,0,5" + ",0.1" * 15 + "\n")
        for name in {arg.split("/")[0] for arg in args}:
            if name in ("trace", "store", "labels", "data", "model"):
                shutil.copytree(chain / name, work / name)
            elif name == "predictions.csv":
                shutil.copy(chain / name, work / name)

    @pytest.mark.parametrize(
        "stage, case",
        [(stage, case) for stage, (_, _, out) in BOUNDARY_STAGES.items()
         for case in ("missing", "directory", "out") if out or case != "out"]
        + [(stage, "no-ids") for stage in BOUNDARY_SPLITS],
    )
    def test_unusable_path_exits_2(self, chain, tmp_path, monkeypatch, capsys, stage, case):
        args, victim, out_kind = BOUNDARY_STAGES[stage]
        work = tmp_path / "work"
        work.mkdir()
        self._inputs(chain, work, args)
        monkeypatch.chdir(work)
        # a stream stage that got past its model would answer this line
        row = (chain / "data" / "test.csv").read_text().splitlines()[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(row.partition(",")[2] + "\n"))
        if case == "no-ids":
            victim = f"data/{BOUNDARY_SPLITS[stage]}_ids.csv"
        if case != "out":
            Path(victim).unlink()
        if case == "directory":
            Path(victim).mkdir()
        out = work / ("out/result.csv" if out_kind == "file" else "out")
        if out_kind:
            args = [*args, "--out", str(out)]
        if case == "out" and out_kind == "dir":
            out.write_text("kept\n")
        elif case == "out":
            out.mkdir(parents=True)
        named = str(out) if case == "out" else victim
        before = sorted(work.rglob("*"))

        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert sorted(work.rglob("*")) == before
        if case == "out" and out_kind == "dir":
            assert out.read_text() == "kept\n"


class TestOutCheckedFirst:
    """An ``--out`` of the wrong kind stops a stage before its work, with the error the
    work would have ended in: an existing file where the stage makes a directory, or an
    existing directory where it writes a file."""

    @pytest.mark.parametrize("stage, args, work", [
        ("featurize", ["--store", "store", "--labels", "labels"], "features.build_dataset"),
        ("train", ["--data", "data", "--trees", "5", "--folds", "2"], "pipeline.grid_search_cv"),
        ("pacf-report", ["--store", "store"], "features.pacf_by_machine"),
        ("predict", ["--model", "model", "--data", "data"], "pipeline.predict_batch"),
    ])
    def test_wrong_kind_of_out_stops_before_the_work(
        self, chain, tmp_path, monkeypatch, capsys, stage, args, work
    ):
        def work_done(*_args, **_kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(f"failcast.{work}", work_done)
        out = tmp_path / "out"
        if BOUNDARY_STAGES[stage][2] == "dir":
            out.write_text("kept\n")
            reason = "File exists"
        else:
            out.mkdir()
            reason = "Is a directory"
        monkeypatch.chdir(chain)
        assert main([stage, *args, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {out}: {reason}\n")
        assert sorted(tmp_path.rglob("*")) == [out]
        assert out.is_dir() or out.read_text() == "kept\n"

    def test_an_archive_that_is_a_directory_stops_train_before_the_fit(
        self, chain, tmp_path, monkeypatch, capsys
    ):
        def fit(*_args, **_kwargs):
            raise AssertionError("pipeline.grid_search_cv ran")

        monkeypatch.setattr("failcast.pipeline.grid_search_cv", fit)
        out, archive = tmp_path / "out", tmp_path / "archive"
        archive.mkdir()
        monkeypatch.chdir(chain)
        assert main(["train", "--data", "data", "--trees", "5", "--folds", "2",
                     "--out", str(out), "--archive", str(archive)]) == 2
        assert capsys.readouterr() == ("", f"error: {archive}: Is a directory\n")
        assert sorted(tmp_path.rglob("*")) == [archive]


class _Recorded(Exception):
    """Raised by a stage's work function once it has recorded its arguments."""


def _train_defaults(got: dict) -> dict:
    from failcast.forest import ForestParams
    from failcast.ocsvm import OcsvmParams
    from failcast.pipeline import GridSpec

    grid = dataclasses.replace(GridSpec(), gammas=(OcsvmParams().gamma,),
                               nus=(OcsvmParams().nu,), tree_counts=(ForestParams().n_trees,))
    return {"grid": grid, "base_forest": ForestParams(), "base_ocsvm": OcsvmParams()}


#: stage -> (its required inputs in the chain, the work function it calls, what the
#: work function is called with, as a function of all its arguments)
DEFAULT_RUNS = {
    "synth": ([], "synth.generate", lambda got: {"cfg": failcast.SynthConfig()}),
    "featurize": (["--store", "store", "--labels", "labels"], "features.build_dataset",
                  lambda got: {"dcfg": failcast.DatasetConfig()}),
    "train": (["--data", "data"], "pipeline.grid_search_cv", _train_defaults),
}


class TestDefaults:
    """A stage run with only its required flags gets each default from the one place that
    states it: a config class's field or a function's signature."""

    @pytest.mark.parametrize("stage", DEFAULT_RUNS)
    def test_a_run_without_settings_gets_the_defaults(self, chain, tmp_path, monkeypatch, stage):
        inputs, work, expected = DEFAULT_RUNS[stage]
        module, name = work.split(".")
        signature = inspect.signature(getattr(importlib.import_module(f"failcast.{module}"), name))
        calls = []

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            raise _Recorded

        with monkeypatch.context() as patch, pytest.raises(_Recorded):
            patch.setattr(f"failcast.{work}", record)
            patch.chdir(chain)
            main([stage, *inputs, "--out", str(tmp_path / "out")])
        (got,) = calls
        want = expected(got)
        assert {key: got[key] for key in want} == want


class TestEvaluatePerfectPredictions:
    def test_ideal_value_reported(self, tmp_path, chain):
        # predictions copied from ground truth labels
        data = chain / "data"
        test_rows = (data / "test.csv").read_text().splitlines()[1:]
        ids_rows = (data / "test_ids.csv").read_text().splitlines()[1:]
        pred = tmp_path / "perfect.csv"
        with open(pred, "w") as f:
            f.write("machine_id,interval,predicted_y,score\n")
            for drow, irow in zip(test_rows, ids_rows):
                y = drow.split(",")[0]
                score = 0.9 if y != "0" else 0.1
                f.write(f"{irow},{y},{score}\n")
        out = tmp_path / "rep"
        rc = main(
            ["evaluate", "--predictions", str(pred), "--data", str(data), "--out", str(out)]
        )
        assert rc == 0
        kv = dict(
            line.split("=", 1) for line in (out / "report.kv").read_text().splitlines()
        )
        assert float(kv["binary.f3"]) == 1.0
        assert float(kv["binary.auc"]) == 1.0


class TestPacfReport:
    def test_histogram_written(self, chain, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        rc = main(["pacf-report", "--store", str(chain / "store"), "--out", str(out)])
        assert rc == 0
        assert "% within lags 1..6; wrote" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "lag,significant_pairs"
        assert len(lines) == 11

    @pytest.mark.parametrize("intervals", [0, 5, 30])
    def test_a_store_too_short_to_fit_counts_nothing(self, chain, tmp_path, capsys, intervals):
        """No machine has a gap-free run of MIN_PACF_RUN intervals, so every lag counts 0,
        and a total of 0 has no share within the window."""
        store = tmp_path / "store"
        shutil.copytree(chain / "store", store)
        for name in ("avg", "peak", "present"):
            np.save(store / f"{name}.npy", np.load(store / f"{name}.npy")[:, :intervals])
        out = tmp_path / "hist.csv"
        assert main(["pacf-report", "--store", str(store), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [f"{lag},0" for lag in range(1, 11)]
        assert capsys.readouterr().out == (
            f"pacf over 0 machine-resource pairs; 0 significant lags; wrote {out}\n"
        )


class TestConfigFile:
    def test_config_supplies_fallbacks_and_cli_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machines=30\ndays=1.0\nseed=4\n")
        out_a = tmp_path / "a"
        assert main(["synth", "--out", str(out_a), "--config", str(cfg)]) == 0
        events = (out_a / "machine_events.csv").read_text()
        machine_ids = {int(l.split(",")[1]) for l in events.splitlines()[1:]}
        assert max(machine_ids) == 29  # config value used

        out_b = tmp_path / "b"
        assert main(
            ["synth", "--out", str(out_b), "--config", str(cfg), "--machines", "20"]
        ) == 0
        events = (out_b / "machine_events.csv").read_text()
        machine_ids = {int(l.split(",")[1]) for l in events.splitlines()[1:]}
        assert max(machine_ids) == 19  # flag beats config

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        rc = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc != 0


    def test_unknown_setting_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("days=1\n# machines, misspelt\nmachine=10\n")
        out = tmp_path / "t"
        assert main(["synth", "--out", str(out), "--days", "1", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}: line 3: unknown setting 'machine'\n")
        assert not out.exists()

    def test_a_repeated_key_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machines=5\ndays=1\nmachines=7\n")
        out = tmp_path / "t"
        assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}: line 3: setting 'machines' given again\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["archive", "out", "model", "help", "gama"])
    def test_a_key_that_is_not_a_setting_exits_2_before_any_output(
        self, chain, tmp_path, capsys, key
    ):
        """An input, an output or --help is a flag but no setting: its key is refused, not
        accepted and ignored; so is a misspelt setting."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trees=5\nfolds=2\n{key}={tmp_path / 'x.zip'}\n")
        out = tmp_path / "m"
        assert main(["train", "--data", str(chain / "data"), "--out", str(out),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {cfg}: line 3: unknown setting {key!r}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_another_stages_setting_is_accepted(self, tmp_path):
        """One file can serve a whole chain: synth ignores featurize's normal samples."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("machines=5\ndays=1\nnormal_samples=300\n")
        assert main(["synth", "--out", str(tmp_path / "t"), "--config", str(cfg)]) == 0

    def test_bad_config_value_exits_2(self, chain, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trees=abc\n")
        rc = main([
            "train", "--data", str(chain / "data"), "--out", str(tmp_path / "m"),
            "--config", str(cfg),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trees" in err and "abc" in err


#: (stage, flags, config file text) of numeric settings outside what a stage can hold
NUMERIC_EXTREMES = [
    ("synth", ["--days", "1e300"], None),
    ("synth", [], "machines=5\ndays=18446744073709551616\n"),
    ("synth", ["--machines", "99999999999999999999"], None),
    ("synth", ["--machines", "9223372036854775807"], None),
    ("synth", ["--seed", "-1"], None),
    ("train", ["--trees-grid", "5,99999999999999999999"], None),
    ("evaluate", ["--latency", "-5"], None),
    ("evaluate", ["--latency", "4611686018427387904"], None),
    ("evaluate", ["--latency", "9223372036854775807"], None),
]


class TestNumericBounds:
    """A numeric setting a stage cannot hold exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "stage, flags, config",
        NUMERIC_EXTREMES,
        ids=[
            "days_1e300", "config_days_2_64", "machines_1e20", "machines_int64_max",
            "negative_seed", "trees_grid_1e20",
            "negative_latency", "latency_2_62", "latency_int64_max",
        ],
    )
    def test_extreme_value_exits_2(self, chain, tmp_path, capsys, stage, flags, config):
        inputs = {
            "synth": [],
            "train": ["--data", str(chain / "data")],
            "evaluate": ["--predictions", str(chain / "predictions.csv"),
                         "--data", str(chain / "data"), "--model", str(chain / "model")],
        }[stage]
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            inputs += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main([stage, *inputs, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, name, value",
        [("synth", "machines", "-99999999999999999999"),
         ("train", "trees_grid", "5,99999999999999999999")],
    )
    def test_an_integer_setting_names_where_it_came_from(
        self, chain, tmp_path, capsys, stage, name, value
    ):
        inputs = {"synth": [], "train": ["--data", str(chain / "data")]}[stage]
        out = str(tmp_path / "o")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={value}\n")
        assert main([stage, *inputs, "--out", out, "--config", str(cfg)]) == 2
        too_big = f"{value.split(',')[-1]} is outside the int64 range\n"
        assert capsys.readouterr().err == f"error: {cfg}: config key {name!r}: {too_big}"
        flag = "--" + name.replace("_", "-")
        assert main([stage, *inputs, "--out", out, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag}: {too_big}"

    @pytest.mark.parametrize(
        "flags",
        [["--gamma", "inf"], ["--gammas", "0.125,inf"], ["--trees", "1000000000000"],
         ["--trees-grid", "5,10001"], ["--folds", "4611686018427387904"]],
        ids=["gamma_inf", "gammas_with_inf", "trees_1e12", "trees_grid_10001", "folds_2_62"],
    )
    def test_a_fit_that_cannot_finish_exits_2_at_once(self, chain, tmp_path, capsys, flags):
        """Refused before any fit: no spin to the solver's cap, no endless growth."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t0 = time.perf_counter()
            assert main(["train", "--data", str(chain / "data"), "--out", str(out), *flags]) == 2
            assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize(
        "one, many",
        [(("gamma", "0.5"), ("gammas", "0.125")), (("nu", "0.3"), ("nus", "0.05")),
         (("trees", "7"), ("trees_grid", "5"))],
        ids=["gamma", "nu", "trees"],
    )
    def test_a_scalar_and_a_list_of_one_axis_exit_2_before_any_fit(
        self, chain, tmp_path, capsys, source, one, many
    ):
        out = tmp_path / "out"
        settings = []
        if source == "flags":
            for name, value in (one, many):
                settings += ["--" + name.replace("_", "-"), value]
        else:  # the scalar from the config file, the list from its flag
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{one[0]}={one[1]}\n")
            settings += ["--config", str(cfg), "--" + many[0].replace("_", "-"), many[1]]
        t0 = time.perf_counter()
        assert main(["train", "--data", str(chain / "data"), "--out", str(out), *settings]) == 2
        assert time.perf_counter() - t0 < 1.0
        options = [f"--{name.replace('_', '-')}" for name, _ in (one, many)]
        assert capsys.readouterr().err == (
            f"error: {options[0]} and {options[1]} both set one grid axis, by flag or config"
            " key; give one of them\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["0.1,,0.2", "", ",0.1", "0.1,"])
    def test_an_empty_item_in_a_comma_list_exits_2(self, chain, tmp_path, capsys, source, value):
        """An empty list too: the flag or key is given, so it is not left to its default."""
        out = tmp_path / "out"
        if source == "flag":
            setting, origin = ["--gammas", value], "--gammas"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"gammas={value}\n")
            setting, origin = ["--config", str(cfg)], f"{cfg}: config key 'gammas'"
        assert main(["train", "--data", str(chain / "data"), "--out", str(out), *setting]) == 2
        assert capsys.readouterr().err == f"error: {origin}: {value!r} has an empty item\n"
        assert not out.exists()

    def test_a_huge_gamma_fits_without_a_warning(self, chain, tmp_path):
        """Every off-diagonal kernel value is exp(-inf) = 0, its exact limit, with no
        overflow warning on the way."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "--data", str(chain / "data"), "--out", str(out),
                         "--gamma", "1e308", "--trees", "5", "--folds", "2"]) == 0
        assert all((out / name).is_file() for name in BUNDLE_FILES)

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        from failcast import synth

        def generate(config, out_dir):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(synth, "generate", generate)
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--machines", "1000000000000"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()


#: stage -> its inputs in the `chain` fixture, and the small settings it runs at; a
#: setting under test drops those of its own grid axis, the names it starts with
#: (`trees` for `trees_grid`)
SETTING_RUNS = {
    "synth": ([], {"machines": "5", "days": "1"}),
    "featurize": (["--store", "store", "--labels", "labels"], {"normal_samples": "300"}),
    "train": (["--data", "data"], {"trees": "5", "folds": "2"}),
    "evaluate": (["--predictions", "predictions.csv", "--data", "data", "--model", "model"], {}),
}

#: what each setting is given besides a value that does not cast
SETTING_EXTREMES = ("0", "-1", "inf", "-inf", "nan", "1e308", "5e-324")
NOT_CASTABLE, EMPTY_ITEM, BEYOND_INT64 = "x", "1,,1", str(2**63)


def _setting_cases():
    """(stage, setting, value) for every setting of every stage in ``STAGES``."""
    for stage, spec in STAGES.items():
        for flag in spec.own:
            if flag.field:
                values = [NOT_CASTABLE, *SETTING_EXTREMES]
                values += [EMPTY_ITEM] * flag.many + [BEYOND_INT64] * (flag.cast is int)
                for value in values:
                    yield pytest.param(stage, flag, value, id=f"{stage}-{flag.dest}={value}")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("stage, flag, value", _setting_cases())
def test_every_setting_exits_0_or_2_with_one_error_line(
    chain, tmp_path, monkeypatch, caplog, stage, flag, value, source
):
    """Exit 0, or exit 2 within 1 s with one `error: ...` line and no output; never a warning.
    A value that fails the setting's own read (cast, empty item, int64) names its origin."""
    inputs, small = SETTING_RUNS[stage]
    small = [f"--{key.replace('_', '-')}={v}" for key, v in small.items()
             if not flag.dest.startswith(key)]
    if source == "flag":  # joined by `=`: argparse takes a lone `-inf` for an option
        setting, origin = [f"{flag.option}={value}"], flag.option
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.dest}={value}\n")
        setting, origin = ["--config", str(cfg)], f"{cfg}: config key {flag.dest!r}"
    out = tmp_path / "out"
    monkeypatch.chdir(chain)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        code, err = _run([stage, *inputs, "--out", str(out), *small, *setting], "")
        seconds = time.perf_counter() - t0
    assert not caught and not [r for r in caplog.records if r.levelno >= logging.WARNING]
    if code == 0:
        return
    assert code == 2 and seconds < 1.0
    assert re.fullmatch(r"error: [^\n]*\n", err), err
    unreadable = (NOT_CASTABLE, EMPTY_ITEM, BEYOND_INT64)
    if value in unreadable or flag.cast is int and value not in ("0", "-1"):
        assert err.startswith(f"error: {origin}: "), err
    assert not out.exists()


class TestEvaluateLatency:
    def test_latency_is_printed_and_the_report_files_stay_the_same(self, chain, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main([
            "evaluate", "--predictions", str(chain / "predictions.csv"),
            "--data", str(chain / "data"), "--out", str(out),
            "--latency", "5", "--model", str(chain / "model"),
        ]) == 0
        for name in ("report.txt", "report.kv", "roc.csv"):
            assert (out / name).read_bytes() == (chain / "reports" / name).read_bytes(), name
        printed = capsys.readouterr().out.splitlines()
        timing = [line for line in printed if line.startswith("latency")]
        assert len(timing) == 1 and printed[-1] == timing[0]
        figures = r"latency: mean=\d+\.\d{3} ms p99=\d+\.\d{3} ms over 5 calls"
        assert re.fullmatch(figures, timing[0]), timing[0]


class TestAdaptGoogle:
    def _write_google_tables(self, tmp_path):
        me = tmp_path / "part-00000-of-00001.csv"
        # time, machine, event, platform, cpu cap, mem cap
        me.write_text(
            "0,5,0,abc,0.5,0.5\n"
            "600000000,5,1,abc,0.5,0.5\n"
            "1200000000,5,0,abc,0.5,0.5\n"
            "0,6,0,abc,1,1\n"
            "50,6,2,abc,1,1\n"
            "70,7,5,abc,1,1\n"  # unknown event code: skipped
        )
        tu = tmp_path / "task_usage.csv"
        cols = [""] * 20
        cols[0], cols[1] = "0", "300000000"
        cols[2], cols[3], cols[4] = "1", "0", "5"
        cols[5] = "0.25"   # mean cpu
        cols[6] = "0.20"   # canonical memory
        cols[9] = "0.10"   # total page cache
        cols[10] = "0.30"  # max memory
        cols[11] = "0.05"  # mean disk io
        cols[12] = "0.15"  # mean disk space
        cols[13] = "0.40"  # max cpu
        cols[14] = "0.06"  # max disk io
        cols[16] = "0.01"  # mai
        row1 = ",".join(cols)
        cols[5] = "0.90"   # second co-resident task pushes cpu sum over 1
        cols[13] = "0.95"
        row2 = ",".join(cols)
        tu.write_text(row1 + "\n" + row2 + "\n")
        return me, tu

    def test_adapter_produces_native_schema(self, tmp_path, capsys):
        me, tu = self._write_google_tables(tmp_path)
        out = tmp_path / "native"
        rc = main(
            ["adapt-google", "--machine-events", str(me), "--task-usage", str(tu),
             "--out", str(out)]
        )
        assert rc == 0
        from failcast import ingestion

        with open(out / "machine_events.csv") as f:
            events = ingestion.parse_machine_events(f)
        assert len(events) == 5  # unknown code dropped
        with open(out / "resource_usage.csv") as f:
            table, stats = ingestion.parse_usage_records(f)
        assert len(table) == 1
        assert table["machine_id"][0] == 5
        mean, peak = table["values"][0, :6], table["values"][0, 6:]
        assert mean[0] == pytest.approx(1.0)   # 0.25 + 0.90 summed, clamped
        assert peak[0] == pytest.approx(1.0)   # 0.40 + 0.95 summed, clamped
        assert mean[3] == pytest.approx(0.4)   # memory summed, in range
        assert peak[3] == pytest.approx(0.6)
        assert mean[2] == pytest.approx(0.3)

    @pytest.mark.parametrize("table", ["machine_events", "task_usage"])
    def test_unreadable_line_names_the_file(self, tmp_path, capsys, table):
        me, tu = self._write_google_tables(tmp_path)
        path = me if table == "machine_events" else tu
        lines = path.read_text().splitlines() + ["1,2"]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["adapt-google", "--machine-events", str(me), "--task-usage", str(tu),
                   "--out", str(tmp_path / "native")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line {len(lines)}: ")

    @pytest.mark.parametrize("table", ["machine_events", "task_usage"])
    def test_rejected_table_leaves_no_output(self, tmp_path, table):
        me, tu = self._write_google_tables(tmp_path)
        (me if table == "machine_events" else tu).write_text("1,2\n")
        out = tmp_path / "native"
        rc = main(["adapt-google", "--machine-events", str(me), "--task-usage", str(tu),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_adapted_trace_runs_through_ingest_label_and_pacf(self, tmp_path):
        """adapt-google -> ingest -> label -> pacf-report on a small clusterdata trace.

        Two co-resident tasks per machine and bin with a blank usage field
        each, a task row spanning three bins, machine ids above 2**31, a
        short REMOVE/ADD outage and an UPDATE event.
        """
        rng = np.random.default_rng(0)
        machines = [5, 2**31 + 7, 2**40 + 3]
        interval = 300_000_000
        events = [f"0,{m},0,hash,0.5,0.5" for m in machines] + [
            f"{20 * interval},5,1,hash,0.5,0.5",
            f"{22 * interval},5,0,hash,0.5,0.5",
            f"{30 * interval},{machines[1]},2,hash,0.25,0.5",
        ]
        tasks = []
        for b in range(60):
            for m in machines:
                for task in range(2):
                    cols = [f"{v:.6f}" for v in rng.uniform(0.0, 0.4, 20)]
                    cols[:5] = [str(b * interval), str((b + 1) * interval), "1", str(task), str(m)]
                    cols[rng.integers(5, 17)] = ""
                    if (b, m, task) == (1, 5, 1):
                        cols[1] = str(4 * interval - 5)  # spans bins 1 to 3
                    tasks.append(",".join(cols))
        trace, native = tmp_path / "trace", tmp_path / "native"
        trace.mkdir()
        (trace / "machine_events.csv").write_text("\n".join(events) + "\n")
        (trace / "task_usage.csv").write_text("\n".join(tasks) + "\n")
        store, labels = tmp_path / "store", tmp_path / "labels"
        assert main(["adapt-google", "--machine-events", str(trace / "machine_events.csv"),
                     "--task-usage", str(trace / "task_usage.csv"), "--out", str(native)]) == 0
        assert main(["ingest", "--events", str(native / "machine_events.csv"),
                     "--usage", str(native / "resource_usage.csv"), "--out", str(store)]) == 0
        assert main(["label", "--store", str(store), "--events",
                     str(native / "machine_events.csv"), "--out", str(labels)]) == 0
        assert main(["pacf-report", "--store", str(store),
                     "--out", str(tmp_path / "pacf.csv")]) == 0

        from failcast import store as store_mod

        series = store_mod.load_interval_store(store)
        tracks = store_mod.load_label_store(labels)
        assert series.machine_ids.tolist() == machines
        assert series.present.all()
        assert tracks.machine_ids.tolist() == machines
        label_meta = json.loads((labels / "meta.json").read_text())
        assert label_meta["class_counts"] == {"ir": 1, "sr": 0, "fd": 0}
        assert len((tmp_path / "pacf.csv").read_text().splitlines()) == 11


#: runs ``failcast.cli.main`` on its arguments, or only imports the module after
#: ``--import``; then prints the exit code, the failcast modules loaded and
#: whether hashlib was
_LOADED_MODULES_PROBE = """
import json, sys
if sys.argv[1] == "--import":
    __import__(sys.argv[2])
    code = 0
else:
    from failcast.cli import STAGES, main
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("failcast")),
                  "hashlib" in sys.modules]))
"""

#: the failcast modules every stage loads, besides its own
STAGE_MODULES = {"failcast", "cli", "tables", "trace_model", "errors"}
#: what ingest loads; label adds labeling, adapt-google swaps store for adapter
TRACE_STAGE_MODULES = STAGE_MODULES | {"store", "ingestion"}
#: what evaluate loads without metrics, and pacf-report and featurize without store
DATASET_STAGE_MODULES = STAGE_MODULES | {"features"}
#: what predict loads, batch and --stream; train adds metrics
MODEL_STAGE_MODULES = DATASET_STAGE_MODULES | {"pipeline", "ocsvm", "forest"}


def _probe_env() -> dict:
    """The environment of a fresh process that imports this failcast."""
    return dict(os.environ, PYTHONPATH=str(Path(failcast.__file__).parents[1]))


def _loaded_modules(argv: list[str], stdin: str = "") -> tuple[set[str], bool]:
    """The failcast modules a fresh process loads to run ``argv``, and if it loads hashlib.

    Submodules are named without the package prefix.
    """
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES_PROBE, *argv], input=stdin,
                          capture_output=True, text=True, env=_probe_env(), timeout=120)
    code, modules, hashlib_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.partition(".")[2] or m for m in modules}, hashlib_loaded


class TestStageImports:
    """Each CLI stage, in a fresh process, loads only the modules it runs."""

    def test_the_synth_module_loads_only_what_it_uses(self):
        modules, _ = _loaded_modules(["--import", "failcast.synth"])
        assert modules == {"failcast", "synth", "ingestion", "tables", "trace_model", "errors"}

    def test_ingest_and_label_load_no_feature_or_model_module(self, chain, tmp_path):
        events = str(chain / "trace" / "machine_events.csv")
        store = tmp_path / "store"
        for argv, own in (
            (["ingest", "--events", events, "--usage", str(chain / "trace" / "resource_usage.csv"),
              "--out", str(store)], set()),
            (["label", "--store", str(store), "--events", events, "--out", str(tmp_path / "l")],
             {"labeling"}),
        ):
            modules, _ = _loaded_modules(argv)
            assert modules == TRACE_STAGE_MODULES | own, argv[0]

    def test_pacf_report_and_featurize_load_no_model_module(self, chain, tmp_path):
        store = str(chain / "store")
        for argv in (
            ["pacf-report", "--store", store, "--out", str(tmp_path / "h.csv")],
            ["featurize", "--store", store, "--labels", str(chain / "labels"),
             "--out", str(tmp_path / "data"), "--normal-samples", "100"],
        ):
            modules, _ = _loaded_modules(argv)
            assert modules == DATASET_STAGE_MODULES | {"store"}, argv[0]

    def test_predict_does_not_load_hashlib(self, chain, tmp_path):
        """predict loads the cascade's modules and no others, hashlib included."""
        line = (chain / "data" / "test.csv").read_text().splitlines()[1].split(",", 1)[1]
        for argv, stdin in (
            (["predict", "--model", str(chain / "model"), "--data", str(chain / "data"),
              "--out", str(tmp_path / "p.csv")], ""),
            (["predict", "--model", str(chain / "model" / "bundle.zip"), "--stream"], line),
        ):
            modules, hashlib_loaded = _loaded_modules(argv, stdin)
            assert modules == MODEL_STAGE_MODULES, argv
            assert not hashlib_loaded, argv

    def test_train_loads_the_predict_modules_and_metrics(self, chain, tmp_path):
        argv = ["train", "--data", str(chain / "data"), "--out", str(tmp_path / "model"),
                "--gamma", "0.125", "--nu", "0.1", "--trees", "5", "--folds", "2"]
        modules, _ = _loaded_modules(argv)
        assert modules == MODEL_STAGE_MODULES | {"metrics"}

    def test_adapt_google_loads_the_adapter_and_the_trace_parser(self, tmp_path):
        me, tu = TestAdaptGoogle()._write_google_tables(tmp_path)
        modules, _ = _loaded_modules(["adapt-google", "--machine-events", str(me),
                                      "--task-usage", str(tu), "--out", str(tmp_path / "n")])
        assert modules == TRACE_STAGE_MODULES - {"store"} | {"adapter"}

    def test_evaluate_loads_no_labeling(self, chain, tmp_path):
        argv = ["evaluate", "--predictions", str(chain / "predictions.csv"),
                "--data", str(chain / "data"), "--out", str(tmp_path / "rep")]
        modules, _ = _loaded_modules(argv)
        assert modules == DATASET_STAGE_MODULES | {"metrics"}
        modules, _ = _loaded_modules([*argv, "--latency", "2", "--model", str(chain / "model")])
        assert modules == MODEL_STAGE_MODULES | {"metrics"}

    def test_every_public_name_resolves_on_first_use(self):
        script = (
            "import failcast\n"
            "from failcast import *\n"
            "assert all(name in globals() for name in failcast.__all__)\n"
            "try:\n"
            "    failcast.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_probe_env(), timeout=120)
        assert proc.stdout == "ok\n", proc.stderr


#: what the line-mutation properties put in place of one field of a line
ODD_TOKENS = ("nan", "inf", "-inf", "1e309", "-1", "0", "", "x", "2.5", "18446744073709551616")


@st.composite
def _mutated(draw, text: str, separators: str = r"[\s,:]+") -> str:
    """``text`` with a line deleted, repeated or shuffled, a field replaced, or cut short.

    The fields of a line are what lies between runs of ``separators``.
    """
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "repeat", "shuffle", "token", "truncate"]))
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "shuffle":
        j = draw(st.integers(i, min(len(lines), i + 8)))
        lines[i:j] = draw(st.permutations(lines[i:j]))
    elif kind == "token":
        fields = re.split(f"({separators})", lines[i])
        fields[draw(st.sampled_from(range(0, len(fields), 2)))] = draw(st.sampled_from(ODD_TOKENS))
        lines[i] = "".join(fields)
    else:
        text = "\n".join(lines)
        return text[: draw(st.integers(0, len(text)))]
    return "\n".join(lines) + "\n"


def _run(argv: list[str], stdin: str) -> tuple[int, str]:
    """``main(argv)`` reading ``stdin``; its exit code and standard error."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestLineMutations:
    """A mutated input file or stream line exits 0, or 2 with one error naming it."""

    @staticmethod
    def _stream_lines(chain, n: int = 4) -> list[str]:
        rows = (chain / "data" / "test.csv").read_text().splitlines()[1 : n + 1]
        return [row.split(",", 1)[1] for row in rows]

    @settings(max_examples=400, derandomize=True)
    @given(name=st.sampled_from(BUNDLE_FILES), data=st.data())
    def test_mutated_bundle_file(self, chain, name, data):
        texts = {n: (chain / "model" / n).read_text() for n in BUNDLE_FILES}
        texts[name] = data.draw(_mutated(texts[name]))
        with tempfile.TemporaryDirectory() as tmp:
            bundle = Path(tmp) / "model"
            bundle.mkdir()
            for n, text in texts.items():
                (bundle / n).write_text(text)
            stdin = "\n".join(self._stream_lines(chain)) + "\n"
            code, err = _run(["predict", "--model", str(bundle), "--stream"], stdin)
        assert code in (0, 2)
        if code == 2:
            files = "|".join(map(re.escape, BUNDLE_FILES))
            assert re.match(rf"error: {re.escape(str(bundle))}/({files}): ", err), err
            assert "Traceback" not in err

    @settings(max_examples=200, derandomize=True)
    @given(data=st.data())
    def test_mutated_stream_lines(self, chain, data):
        stdin = data.draw(_mutated("\n".join(self._stream_lines(chain))))
        code, err = _run(["predict", "--model", str(chain / "model"), "--stream"], stdin)
        assert code in (0, 2)
        if code == 2:
            assert re.match(r"error: line \d+: ", err), err
            assert "Traceback" not in err

    @staticmethod
    def _check(code: int, err: str, path: Path) -> None:
        """Exit 0, or 2 with one error naming ``path``."""
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and str(path) in err, err

    @settings(max_examples=100, derandomize=True)
    @given(name=st.sampled_from(["machine_events.csv", "resource_usage.csv"]), data=st.data())
    def test_mutated_trace_file(self, small_trace, name, data):
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp)
            for n in ("machine_events.csv", "resource_usage.csv"):
                shutil.copy(small_trace / n, trace)
            path = trace / name
            path.write_text(data.draw(_mutated(path.read_text())))
            code, err = _run([
                "ingest", "--events", str(trace / "machine_events.csv"),
                "--usage", str(trace / "resource_usage.csv"), "--out", str(trace / "store"),
            ], "")
        self._check(code, err, path)

    @settings(max_examples=60, derandomize=True)
    @given(name=st.sampled_from(["test.csv", "test_ids.csv"]), data=st.data())
    def test_mutated_dataset_file(self, chain, name, data):
        with tempfile.TemporaryDirectory() as tmp:
            split = Path(tmp)
            for n in ("test.csv", "test_ids.csv"):
                shutil.copy(chain / "data" / n, split)
            path = split / name
            path.write_text(data.draw(_mutated(path.read_text())))
            code, err = _run([
                "predict", "--model", str(chain / "model"), "--data", str(split),
                "--out", str(split / "p.csv"),
            ], "")
        self._check(code, err, path)

    @settings(max_examples=80, derandomize=True)
    @given(data=st.data())
    def test_mutated_predictions(self, chain, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "predictions.csv"
            path.write_text(data.draw(_mutated((chain / "predictions.csv").read_text())))
            code, err = _run([
                "evaluate", "--predictions", str(path), "--data", str(chain / "data"),
                "--out", str(Path(tmp) / "rep"),
            ], "")
        self._check(code, err, path)

    #: a config file of the settings ``synth`` reads, for a 5-machine, 1-day trace
    SYNTH_CONFIG = "machines=5\ndays=1\nsignature=0.9\nseed=3\n"

    @settings(max_examples=30, derandomize=True)
    @given(data=st.data())
    def test_mutated_config_file(self, data):
        """An error that does not name the config file is the one its settings give as flags."""
        from failcast.cli import _read_config_file

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text(data.draw(_mutated(self.SYNTH_CONFIG, r"[\s,:=]+")))
            code, err = _run(["synth", "--config", str(path), "--out", str(Path(tmp) / "a")], "")
            assert code in (0, 2) and "Traceback" not in err
            if code == 2:
                assert err.startswith("error: "), err
            if code == 2 and str(path) not in err:
                # the file reads, and synth rejects one of its settings
                flags = [
                    f"--{key}={value}" for key, value in _read_config_file(str(path)).items()
                    if key in ("machines", "days", "signature", "seed")
                ]
                assert _run(["synth", *flags, "--out", str(Path(tmp) / "b")], "") == (code, err)
