import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from climd import fileformats as ff
from climd import measurer
from climd.cli import build_parser, main
from climd.distribution import ClassDistribution
from climd.measurer import DifficultyTable, TraceBatch, score_dataset
from climd.scheduler import build_schedule
from climd.simlab import (FusionModel, SyntheticSpec, TrainConfig, collect_traces,
                          generate_dataset)

ALPHA_100_50_10 = 5.889555519686648
SRC = Path(__file__).resolve().parents[1] / "src"


def make_labels_file(path, counts):
    pairs = []
    i = 0
    for cid, k in enumerate(counts):
        for _ in range(k):
            pairs.append((f"s{i:05d}", cid))
            i += 1
    ff.write_labels(path, *map(list, zip(*pairs)))


def make_traces_file(path, n=200, seed=5):
    spec = SyntheticSpec(n_classes=3, dims=(4, 3), n_samples=n,
                         imbalance_exponent=1.2, seed=seed)
    dataset = generate_dataset(spec)
    model = FusionModel.init(spec.dims, 4, 3, np.random.default_rng(seed))
    ff.write_traces(path, collect_traces(model, dataset))


def write_random_traces(path, n, seed=0, c=3, m=2, d=3):
    """n valid traces with labels cycling over c classes; returns the lines."""
    rng = np.random.default_rng(seed)
    ff.write_traces(path, TraceBatch(ids=[f"s{i:05d}" for i in range(n)],
                                     labels=np.arange(n) % c,
                                     probs=rng.dirichlet(np.ones(c), size=(n, m)),
                                     emb=rng.standard_normal((n, m, d))))
    return path.read_text().splitlines()


def data_files(outdir):
    return sorted(p for p in outdir.iterdir() if p.name != "manifest.json")


class TestFit:
    def test_writes_report_and_manifest(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        make_labels_file(labels, [100, 50, 10])
        out = tmp_path / "out"
        assert main(["fit", "--labels", str(labels), "--out", str(out)]) == 0
        dist = ff.read_distribution(out / "distribution.csv")
        assert dist.alpha_hat == pytest.approx(ALPHA_100_50_10, abs=1e-9)
        assert (out / "manifest.json").exists()
        assert "alpha_hat = 5.88956" in capsys.readouterr().out

    def test_balanced_labels_flag_degenerate_and_exit_zero(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        make_labels_file(labels, [20, 20, 20])
        out = tmp_path / "out"
        assert main(["fit", "--labels", str(labels), "--out", str(out)]) == 0
        assert ff.read_distribution(out / "distribution.csv").degenerate
        assert "degenerate" in capsys.readouterr().out

    def test_alpha_below_one_exits_1_writing_nothing(self, tmp_path, capsys):
        # gamma 5 on sizes (3, 1) fits alpha_hat = 0.2 * (1 + 2 / ln 3) = 0.564...
        labels = tmp_path / "labels.csv"
        ff.write_labels(labels, ["a", "b", "c", "d"], [0, 0, 0, 1])
        out = tmp_path / "out"
        assert main(["fit", "--labels", str(labels), "--gamma", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha_hat must be a finite number >= 1, got 0.564")
        assert not out.exists()

    def test_header_only_labels_exit_1(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        ff.write_labels(labels, [], [])
        out = tmp_path / "out"
        assert main(["fit", "--labels", str(labels), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {labels}: no labeled samples found\n"
        assert not out.exists()

    def test_missing_file_exits_3_without_partial_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", "--labels", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 3
        assert not (out / "distribution.csv").exists()
        assert not (out / "manifest.json").exists()


class TestScoreAndSchedule:
    def test_pipeline_by_hand(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces)
        score_out = tmp_path / "scored"
        assert main(["score", "--traces", str(traces), "--out", str(score_out)]) == 0
        table = ff.read_difficulty(score_out / "difficulty.csv")
        assert len(table) == 200

        labels = tmp_path / "labels.csv"
        ff.write_labels(labels, table.ids, table.labels)
        fit_out = tmp_path / "fitted"
        assert main(["fit", "--labels", str(labels), "--out", str(fit_out)]) == 0

        sched_out = tmp_path / "sched"
        assert main(["schedule",
                     "--difficulty", str(score_out / "difficulty.csv"),
                     "--distribution", str(fit_out / "distribution.csv"),
                     "--epochs", "5", "--out", str(sched_out)]) == 0
        lines = (sched_out / "schedule.csv").read_text().splitlines()
        assert lines  # epoch,class,rank,count,ids...
        counts = (sched_out / "epoch_rank_counts.csv").read_text().splitlines()
        last = [int(v) for v in counts[-1].split(",")]
        assert last[0] == 5 and sum(last[1:]) == 200


    def test_schedule_keeps_the_rank_order_of_the_file(self, tmp_path):
        # Ranks 1, 2, 3 are classes 1, 0, 2, though class 2 is the largest.
        dist = tmp_path / "distribution.csv"
        dist.write_text("# n_min=3\n# gamma=0.3\n# alpha_hat=5.0\n# degenerate=false\n"
                        "class_id,count,rank\n1,3,1\n2,9,3\n0,6,2\n")
        labels = np.repeat([0, 1, 2], [6, 3, 9])
        r = np.linspace(0.9, 0.1, labels.size)
        ff.write_difficulty(tmp_path / "difficulty.csv", DifficultyTable(
            ids=[f"s{i}" for i in range(labels.size)], labels=labels,
            psi=np.column_stack([r, r]), phi=r, r=r))
        out = tmp_path / "out"
        assert main(["schedule", "--difficulty", str(tmp_path / "difficulty.csv"),
                     "--distribution", str(dist), "--epochs", "4", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "schedule.csv").read_text().splitlines()]
        assert [row[1:3] for row in rows] == [["1", "1"], ["0", "2"], ["2", "3"]] * 4
        assert [row[3] for row in rows[-3:]] == ["3", "6", "9"]
        table = (out / "epoch_rank_counts.csv").read_text().splitlines()
        assert table[0] == "epoch,rank_1,rank_2,rank_3"
        assert table[-1] == "4,3,6,9"

    @pytest.mark.parametrize("command", ["pipeline", "schedule"])
    def test_huge_epoch_count_exits_1(self, tmp_path, capsys, command):
        # numpy refuses a 2**62-row count matrix before it allocates anything.
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, 30)
        scored = tmp_path / "scored"
        assert main(["pipeline", "--traces", str(traces), "--epochs", "2",
                     "--out", str(scored)]) == 0
        inputs = {"pipeline": ["--traces", str(traces)],
                  "schedule": ["--difficulty", str(scored / "difficulty.csv"),
                               "--distribution", str(scored / "distribution.csv")]}
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *inputs[command], "--epochs", str(2 ** 62),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("no room for a 4611686018427387904 x 3 epoch count matrix\n")
        assert not out.exists()


class TestFigure2:
    def test_stdout_table(self, capsys):
        assert main(["figure2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        first = [int(v) for v in lines[1].split()[1:]]
        assert first == [10] * 10

    def test_out_directory(self, tmp_path):
        out = tmp_path / "fig"
        assert main(["figure2", "--out", str(out)]) == 0
        assert (out / "figure2.csv").exists()
        assert (out / "manifest.json").exists()

    def test_leaves_the_lab_unimported(self, tmp_path):
        """Only simulate imports climd.simlab; the package still exports the
        lab's names, looked up on first use. A fresh process, since this
        one has imported the lab."""
        code = ("import sys, climd.cli\n"
                "assert climd.cli.main(['figure2', '--out', sys.argv[1]]) == 0\n"
                "assert 'climd.simlab' not in sys.modules, 'figure2 imported the lab'\n"
                "from climd import FusionModel\n"
                "assert FusionModel.__module__ == 'climd.simlab'\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "fig")],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestEval:
    def test_hand_example(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        ff.write_predictions(preds, ["a", "b", "c"], [0, 0, 1], [0, 1, 1])
        assert main(["eval", "--predictions", str(preds)]) == 0
        out = capsys.readouterr().out
        assert "accuracy     0.666667" in out
        assert "weighted_f1  0.666667" in out
        assert "macro_f1     0.666667" in out
        for classes in ("0", "-1"):
            argv = ["eval", "--predictions", str(preds), "--classes", classes]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: --classes ")

    # Numpy rejects a confusion matrix of these sizes before it allocates
    # anything; a class count much below 1e9 could really try to allocate
    # the C x C matrix, so none is tested.
    @pytest.mark.parametrize("rows,flags,classes", [
        ("a,0,1000000000000\nb,1,1\n", [], "1000000000001"),
        ("a,0,1\nb,1,1\n", ["--classes", "3000000000"], "3000000000"),
    ])
    def test_huge_class_count_exits_1(self, tmp_path, capsys, rows, flags, classes):
        preds = tmp_path / "preds.csv"
        preds.write_text(rows)
        assert main(["eval", "--predictions", str(preds), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no room for a {classes} x {classes} confusion matrix\n"

    def test_header_only_predictions_exit_1(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        ff.write_predictions(path, [], [], [])
        assert main(["eval", "--predictions", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: no prediction rows found\n"

    def test_only_the_exact_header_is_skipped(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("sample_idA,0,1\nb,1,1\n")
        assert main(["eval", "--predictions", str(preds)]) == 0
        assert "accuracy     0.500000" in capsys.readouterr().out


class TestPipeline:
    def test_end_to_end_and_idempotent(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces)
        out = tmp_path / "run1"
        assert main(["pipeline", "--traces", str(traces), "--epochs", "5",
                     "--out", str(out)]) == 0
        for name in ("difficulty.csv", "distribution.csv", "schedule.csv",
                     "epoch_rank_counts.csv", "manifest.json"):
            assert (out / name).exists()

        out2 = tmp_path / "run2"
        assert main(["pipeline", "--traces", str(traces), "--epochs", "5",
                     "--out", str(out2)]) == 0
        for a, b in zip(data_files(out), data_files(out2)):
            assert a.read_bytes() == b.read_bytes()
        m1 = json.loads((out / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert ff.manifest_data_fields(m1) == ff.manifest_data_fields(m2)

    def test_corrupt_trace_aborts_with_line_number(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces, n=30)
        lines = traces.read_text().splitlines()
        lines[2] = "not-json"
        traces.write_text("\n".join(lines) + "\n")
        code = main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "read-traces" in err

    @pytest.mark.parametrize("field,value", [
        ("probs", float("nan")), ("probs", float("inf")),
        ("embedding", float("nan")), ("embedding", float("-inf")),
        ("embedding", None),  # drops a value: embedding dims differ across modalities
        ("label", True), ("label", 1.7),
        ("sample_id", None), ("sample_id", True), ("sample_id", 1.5),
        ("sample_id", 12), ("sample_id", ["a"]),
    ])
    def test_bad_trace_values_exit_1(self, tmp_path, capsys, field, value):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces, n=30)
        lines = traces.read_text().splitlines()
        obj = json.loads(lines[4])
        if field in ("label", "sample_id"):
            obj[field] = value
        elif value is None:
            obj["modalities"][1]["embedding"].pop()
        else:
            obj["modalities"][1][field][0] = value
        lines[4] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        code = main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'read-traces': ") and "Traceback" not in err
        assert "s00004" in err or "line 5" in err

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    @pytest.mark.parametrize("label", [2**63, -2**63 - 1, 10**30])
    def test_label_outside_int64_names_its_line(self, tmp_path, capsys, command, label):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 10)
        obj = json.loads(lines[6])
        obj["label"] = label
        lines[6] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        argv = [command, "--traces", str(traces), "--out", str(tmp_path / "out")]
        assert main(argv + (["--epochs", "3"] if command == "pipeline" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'read-traces': {traces}: line 7: "
            f"label must be a 64-bit JSON integer, got {label}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    @pytest.mark.parametrize("field,values,shown", [
        ("probs", [True, False], "true"), ("probs", [0.0, True], "true"),
        ("probs", ["0.25", "0.75"], '"0.25"'), ("probs", [None, 1.0], "null"),
        ("probs", [[0.25], 0.75], "[0.25]"), ("embedding", [0.5, False, 1.0], "false"),
        ("embedding", [1.0, 10**400, 1.0], None),  # a JSON integer beyond the float range
    ])
    def test_non_number_trace_values_exit_1(self, tmp_path, capsys, command, field,
                                            values, shown):
        # Two classes, so that [true, false] and ["0.25", "0.75"] would sum to 1.
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 10, c=2)
        obj = json.loads(lines[6])
        obj["modalities"][1][field] = values
        lines[6] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        argv = [command, "--traces", str(traces), "--out", str(tmp_path / "out")]
        assert main(argv + (["--epochs", "3"] if command == "pipeline" else [])) == 1
        why = f", got {shown}" if shown else " within the float64 range"
        assert capsys.readouterr().err == (
            f"error: stage 'read-traces': {traces}: line 7: {field} values must be JSON numbers"
            f"{why}\n")
        assert not (tmp_path / "out").exists()

    def test_json_integer_trace_values_are_numbers(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 10, c=2)
        obj = json.loads(lines[6])
        obj["modalities"][1] = {"probs": [1, 0], "embedding": [2, 0, -1]}
        lines[6] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        batch = ff.read_traces(traces)
        assert batch.probs[6, 1].tolist() == [1.0, 0.0]
        assert batch.emb[6, 1].tolist() == [2.0, 0.0, -1.0]
        assert main(["score", "--traces", str(traces), "--out", str(tmp_path / "out")]) == 0

    def test_non_utf8_traces_exit_1(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces, n=30)
        traces.write_bytes(traces.read_bytes().replace(b'"s00003"', b'"s\xff0003"'))
        code = main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_id", ["s,3", "s\n3", "s\r3", "s\ud8003",
                                        "", " s3", "s3 ", "s3\t"])
    def test_csv_breaking_id_exits_1(self, tmp_path, capsys, bad_id):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 10)
        obj = json.loads(lines[3])
        obj["sample_id"] = bad_id
        lines[3] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        for argv in (["pipeline", "--epochs", "3"], ["score"]):
            code = main(argv + ["--traces", str(traces), "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: stage 'read-traces': ") and "line 4" in err
            assert "sample id contains" in err
            assert not (tmp_path / "out").exists()

    def test_alpha_below_one_fails_at_the_fit_stage(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces)
        out = tmp_path / "out"
        assert main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--gamma", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'fit': alpha_hat must be a finite number >= 1")
        assert not out.exists()

    def test_zero_epochs_fail_at_the_schedule_stage(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces)
        out = tmp_path / "out"
        assert main(["pipeline", "--traces", str(traces), "--epochs", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: stage 'schedule': total_epochs must be >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    @pytest.mark.parametrize("content", ["", "\n  \n\r\n"])
    def test_trace_file_without_traces_exits_1(self, tmp_path, capsys, command, content):
        traces = tmp_path / "traces.jsonl"
        traces.write_text(content)
        argv = [command, "--traces", str(traces), "--out", str(tmp_path / "out")]
        assert main(argv + (["--epochs", "3"] if command == "pipeline" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'read-traces': {traces}: no traces found\n")
        assert not (tmp_path / "out").exists()

    def test_missing_traces_leave_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["pipeline", "--traces", str(tmp_path / "nope.jsonl"),
                     "--epochs", "3", "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestTextArtifacts:
    """Every text input is read as UTF-8 and every artifact written as UTF-8."""

    @pytest.fixture
    def argv(self, tmp_path):
        """The argv of schedule, fit and eval on small valid inputs."""
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, 30)
        table = score_dataset(ff.read_traces(traces))
        ff.write_difficulty(tmp_path / "difficulty.csv", table)
        ff.write_distribution(tmp_path / "distribution.csv",
                              ClassDistribution.from_labels(table.labels))
        ff.write_labels(tmp_path / "labels.csv", table.ids, table.labels)
        ff.write_predictions(tmp_path / "predictions.csv",
                             table.ids, table.labels, table.labels[::-1])
        out = ["--out", str(tmp_path / "out")]
        return {
            "schedule": ["schedule", "--difficulty", str(tmp_path / "difficulty.csv"),
                         "--distribution", str(tmp_path / "distribution.csv"),
                         "--epochs", "3", *out],
            "fit": ["fit", "--labels", str(tmp_path / "labels.csv"), *out],
            "eval": ["eval", "--predictions", str(tmp_path / "predictions.csv")],
        }

    @pytest.mark.parametrize("command,name", [
        ("schedule", "difficulty.csv"), ("schedule", "distribution.csv"),
        ("fit", "labels.csv"), ("eval", "predictions.csv"),
    ])
    def test_non_utf8_input_exits_1(self, tmp_path, capsys, argv, command, name):
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        assert main(argv[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err and name in err
        assert not (tmp_path / "out").exists()

    def test_score_writes_utf8_under_the_posix_locale(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 10)
        lines[3] = lines[3].replace('"s00003"', '"\u00e9"')
        traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="POSIX",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "climd.cli", "score", "--traces",
                               str(traces), "--out", str(out)],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert ff.read_difficulty(out / "difficulty.csv").ids[3] == "é"

    def test_schedule_rejects_a_repeated_id(self, tmp_path, capsys):
        difficulty = tmp_path / "difficulty.csv"
        difficulty.write_text("sample_id,label,phi,psi_1,psi_2,r\n"
                              "a,0,0.5,0.25,0.25,0.75\nb,1,0.5,0.25,0.25,0.75\n"
                              "a,1,0.5,0.25,0.25,0.75\n")
        distribution = tmp_path / "distribution.csv"
        ff.write_distribution(distribution, ClassDistribution.from_labels([0, 1, 1]))
        code = main(["schedule", "--difficulty", str(difficulty), "--distribution",
                     str(distribution), "--epochs", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {difficulty}: line 4: duplicate sample ids: ['a']")
        assert not (tmp_path / "out").exists()

    def test_schedule_rejects_a_padded_id(self, tmp_path, capsys):
        difficulty = tmp_path / "difficulty.csv"
        difficulty.write_text("sample_id,label,phi,psi_1,psi_2,r\n"
                              "a ,0,0.5,0.25,0.25,0.75\nb,1,0.5,0.25,0.25,0.75\n")
        distribution = tmp_path / "distribution.csv"
        ff.write_distribution(distribution, ClassDistribution.from_labels([0, 1]))
        code = main(["schedule", "--difficulty", str(difficulty), "--distribution",
                     str(distribution), "--epochs", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {difficulty}: line 2: sample id contains")
        assert "['a ']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, lineno", [("gamma", "abc", 2),
                                                     ("alpha_hat", "xyz", 3)])
    def test_schedule_names_a_non_numeric_header_value(self, tmp_path, capsys,
                                                        key, value, lineno):
        distribution = tmp_path / "distribution.csv"
        header = {"gamma": "0.3", "alpha_hat": "5.0", key: value}
        distribution.write_text(f"# n_min=3\n# gamma={header['gamma']}\n"
                                f"# alpha_hat={header['alpha_hat']}\n# degenerate=false\n"
                                "class_id,count,rank\n0,6,1\n1,3,2\n")
        difficulty = tmp_path / "difficulty.csv"
        difficulty.write_text("sample_id,label,phi,psi_1,psi_2,r\n"
                              "a,0,0.5,0.25,0.25,0.75\nb,1,0.5,0.25,0.25,0.75\n")
        code = main(["schedule", "--difficulty", str(difficulty), "--distribution",
                     str(distribution), "--epochs", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {distribution}: line {lineno}: "
                                           f"could not convert string to float: {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,name", [("fit", "labels.csv"),
                                              ("eval", "predictions.csv")])
    def test_repeated_id_exits_1_naming_its_line(self, tmp_path, capsys, argv,
                                                 command, name):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[5] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        assert main(argv[command]) == 1
        err = capsys.readouterr().err
        sid = lines[2].split(",")[0]
        assert err.startswith(f"error: {path}: line 6: duplicate sample ids: [{sid!r}]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,value", [
        ("fit", "nan"), ("fit", "inf"), ("pipeline", "nan"),
    ])
    def test_non_finite_gamma_exits_1(self, tmp_path, capsys, command, value):
        if command == "fit":
            labels = tmp_path / "labels.csv"
            make_labels_file(labels, [100, 50, 10])
            argv = ["fit", "--labels", str(labels)]
        else:
            traces = tmp_path / "traces.jsonl"
            write_random_traces(traces, 30)
            argv = ["pipeline", "--traces", str(traces), "--epochs", "3"]
        assert main(argv + ["--gamma", value, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gamma must be a finite number" in err
        assert not (tmp_path / "out").exists()


class TestStreaming:
    """pipeline and score read and score the traces one chunk at a time."""

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    def test_id_repeated_in_a_later_chunk_exits_1(self, tmp_path, capsys, command):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, ff.TRACE_CHUNK + 8)
        lines[ff.TRACE_CHUNK] = lines[ff.TRACE_CHUNK].replace(
            f'"s{ff.TRACE_CHUNK:05d}"', '"s00000"')
        traces.write_text("\n".join(lines) + "\n")
        argv = [command, "--traces", str(traces), "--out", str(tmp_path / "out")]
        assert main(argv + (["--epochs", "3"] if command == "pipeline" else [])) == 1
        err = capsys.readouterr().err
        assert f"{traces}: line {ff.TRACE_CHUNK + 1}: duplicate sample ids: ['s00000']" in err
        assert not (tmp_path / "out").exists()

    # The counting tests count the calls of this process, so one share
    # reads every chunk here.
    def test_each_id_is_checked_once_per_chunk_and_once_across(self, tmp_path, monkeypatch):
        # A chunk's score table shares the ids its TraceBatch has checked.
        monkeypatch.setattr(ff, "TRACE_CHUNK", 32)
        monkeypatch.setenv("CLIMD_THREADS", "1")
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, 2 * 32 + 5)
        checked, unique = [], []
        for name, sizes in (("check_ids", checked), ("check_unique", unique)):
            def counting(ids, real=getattr(measurer, name), sizes=sizes):
                sizes.append(len(ids))
                return real(ids)
            monkeypatch.setattr(measurer, name, counting)
        assert main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--out", str(tmp_path / "out")]) == 0
        # Every rule per chunk; across the chunks, only the repeats.
        assert checked == [32, 32, 5]
        assert unique == [32, 32, 5, 69]

    def test_a_chunked_score_scans_each_id_once(self, tmp_path, monkeypatch):
        # The character rule is one regex scan of a chunk's joined ids.
        monkeypatch.setattr(ff, "TRACE_CHUNK", 32)
        monkeypatch.setenv("CLIMD_THREADS", "1")
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, 2 * 32 + 5)
        scanned, breaks = [], measurer._ID_BREAKS

        class Counting:
            def search(self, text):
                scanned.append(len(text))
                return breaks.search(text)

        monkeypatch.setattr(measurer, "_ID_BREAKS", Counting())
        assert main(["score", "--traces", str(traces), "--out", str(tmp_path / "out")]) == 0
        assert len(scanned) == 3

    def test_bad_value_in_a_later_chunk_names_its_line(self, tmp_path, capsys):
        traces = tmp_path / "traces.jsonl"
        lines = write_random_traces(traces, 2 * ff.TRACE_CHUNK + 10)
        bad = 2 * ff.TRACE_CHUNK + 3  # 0-based index into lines
        obj = json.loads(lines[bad])
        obj["modalities"][0]["probs"][0] = float("nan")
        lines[bad] = json.dumps(obj)
        traces.write_text("\n".join(lines) + "\n")
        code = main(["pipeline", "--traces", str(traces), "--epochs", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'read-traces': ")
        assert f"line {bad + 1}:" in err and f"s{bad:05d}" in err

    def test_outputs_equal_the_whole_batch_path(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, ff.TRACE_CHUNK * 5 // 2, c=4)
        batch = ff.read_traces(traces)
        table = score_dataset(batch)
        dist = ClassDistribution.from_labels(batch.labels, 0.3)
        schedule = build_schedule(table, dist, 5)
        expected = tmp_path / "expected"
        expected.mkdir()
        ff.write_difficulty(expected / "difficulty.csv", table)
        ff.write_distribution(expected / "distribution.csv", dist)
        ff.write_schedule(expected / "schedule.csv", schedule, table.ids)
        ff.write_epoch_rank_table(expected / "epoch_rank_counts.csv", schedule.counts)

        assert main(["pipeline", "--traces", str(traces), "--epochs", "5",
                     "--out", str(tmp_path / "pipe")]) == 0
        assert main(["score", "--traces", str(traces), "--out", str(tmp_path / "score")]) == 0
        for path in data_files(expected):
            assert (tmp_path / "pipe" / path.name).read_bytes() == path.read_bytes()
        assert ((tmp_path / "score" / "difficulty.csv").read_bytes()
                == (expected / "difficulty.csv").read_bytes())

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    def test_whole_trace_arrays_never_resident(self, tmp_path, monkeypatch, command):
        # Many small chunks of wide embeddings: the whole (N, M, C) and
        # (N, M, D) arrays dwarf one chunk's parse and the score columns.
        # tracemalloc sees this process only, so one share reads every chunk.
        monkeypatch.setattr(ff, "TRACE_CHUNK", 32)
        monkeypatch.setenv("CLIMD_THREADS", "1")
        n, m, c, d = 1024, 2, 3, 64
        traces = tmp_path / "traces.jsonl"
        write_random_traces(traces, n, c=c, m=m, d=d)
        whole = n * m * (c + d) * np.dtype(float).itemsize
        peaks = []  # traced peak once reading, scoring (and scheduling) are done
        write_difficulty = ff.write_difficulty

        def record_peak(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return write_difficulty(*args)

        monkeypatch.setattr(ff, "write_difficulty", record_peak)
        argv = [command, "--traces", str(traces), "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv + (["--epochs", "3"] if command == "pipeline" else []))
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peaks[0] < whole, (peaks, whole)


class TestSimulate:
    ARGS = ["simulate", "--classes", "3", "--dims", "4,4",
            "--n", "240", "--imbalance", "1.2", "--epochs", "6", "--warmup", "1",
            "--lr", "0.05", "--seeds", "2", "--batch", "16", "--hidden", "8"]

    def test_report_and_rerun_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        report = (out1 / "report.csv").read_text().splitlines()
        assert report[0] == "seed,arm,accuracy,weighted_f1,macro_f1,visits"
        assert len(report) == 1 + 4  # 2 seeds x 2 arms
        assert (out1 / "summary.csv").exists()
        for a, b in zip(data_files(out1), data_files(out2)):
            assert a.read_bytes() == b.read_bytes()

    def test_parallel_workers_do_not_change_outputs(self, tmp_path, monkeypatch):
        for base_seed in ("0", "11"):
            outs = []
            for threads in ("1", "2"):
                monkeypatch.setenv("CLIMD_THREADS", threads)
                outs.append(tmp_path / base_seed / threads)
                assert main(self.ARGS + ["--base-seed", base_seed, "--out", str(outs[-1])]) == 0
            for csv in ("report.csv", "summary.csv"):
                serial, parallel = ((out / csv).read_bytes() for out in outs)
                assert serial == parallel, (base_seed, csv)

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_threads_exit_1(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("CLIMD_THREADS", value)
        assert main(self.ARGS + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "CLIMD_THREADS" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--lr", "-1", "learning_rate"),
        ("--gamma", "nan", "gamma"),
        ("--imbalance", "nan", "imbalance_exponent"),
        ("--imbalance", "inf", "imbalance_exponent"),
        ("--separation", "inf", "class_separation"),
        ("--separation", "0", "class_separation"),
        ("--noise", "nan", "noise_scale"),
        ("--noise", "-0.5", "noise_scale"),
        ("--base-seed", "-1", "seed"),
    ])
    def test_bad_numbers_exit_1(self, tmp_path, capsys, flag, value, field):
        code = main(self.ARGS + [flag, value, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("lr,message", [
        # The curriculum arm's parameters overflow in its third epoch.
        ("1e20", "training diverged: arm 'climd' at epoch 3 has a non-finite loss"),
        # The warm-up leaves finite parameters of about 1e200, and the next
        # forward pass, collecting the traces, overflows.
        ("1e100", "model outputs are not finite: training diverged"),
    ])
    def test_diverged_training_exits_1(self, tmp_path, capsys, lr, message):
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "1", "--epochs", "6", "--warmup", "1",
                     "--n", "300", "--lr", lr, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    # Both sizes fail in np.zeros before it touches memory. 10**18 overflows
    # int64 and float64 sums of the block sizes.
    @pytest.mark.parametrize("hidden", [10**15, 10**18])
    def test_oversized_model_exits_1(self, tmp_path, capsys, hidden):
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "1", "--epochs", "2", "--hidden", str(hidden),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no room for a model of ") and err.count("\n") == 1
        assert not out.exists()

    # Every size fails before it touches memory: the seed list overflows a
    # list's size, and the dataset's (N, sum of dims) feature matrix is
    # refused by numpy, the first thing the lab allocates.
    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", 10**18, f"no room for {10**18} seeds"),
        ("--seeds", 10**20, f"no room for {10**20} seeds"),
        ("--n", 10**15, f"no room for a dataset of {10**15} samples x 24 features"),
        ("--n", 10**18, f"no room for a dataset of {10**18} samples x 24 features"),
        ("--n", 10**20, f"no room for a dataset of {10**20} samples x 24 features"),
        ("--dims", f"{10**15},{10**15},{10**15}",
         f"no room for a dataset of 2000 samples x {3 * 10**15} features"),
        ("--dims", f"{10**18},{10**18},{10**18}",
         f"no room for a dataset of 2000 samples x {3 * 10**18} features"),
    ])
    def test_oversized_run_exits_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "1", "--epochs", "2", flag, str(value),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_default_dims_are_three_modalities_of_8(self, tmp_path):
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "1", "--n", "200", "--epochs", "2",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["spec"]["dims"] == [8, 8, 8]

    def test_one_modality_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--dims", "8", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need >= 2 modalities, got 1\n"
        assert not out.exists()

    def test_a_tie_is_a_win_for_neither_arm(self, tmp_path):
        # With a zero learning rate both arms keep the init model, so their
        # macro F1 is equal on every seed.
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "2", "--lr", "0", "--n", "300", "--epochs", "4",
                     "--warmup", "1", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
        assert [(row[0], row[-1]) for row in rows[1:]] == [("climd", "0"), ("baseline", "0")]


def canonical_sha256(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


class TestSimulateFlags:
    """Each simulate flag fills the lab field named by its dest, whose
    default lives only in the dataclass."""

    def test_each_field_has_exactly_one_flag(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in subparsers.choices["simulate"]._actions]
        names = [f.name for cls in (SyntheticSpec, TrainConfig) for f in fields(cls)]
        # A name in both dataclasses would be one flag filling two fields.
        assert len(set(names)) == len(names)
        assert {name: dests.count(name) for name in names} == dict.fromkeys(names, 1)

    def test_no_lab_flags_record_the_dataclass_defaults(self, tmp_path):
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "1", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        # warmup_epochs is recorded as the warm-up that ran, 20 epochs // 10.
        expected = json.loads(json.dumps({"spec": vars(SyntheticSpec()),
                                          "train": {**vars(TrainConfig()), "warmup_epochs": 2}}))
        assert {k: config[k] for k in ("spec", "train")} == expected

    def test_base_seed_sets_both_seeds(self, tmp_path):
        # The spec's seed, the lab's one seed, and the seeds that ran.
        out = tmp_path / "x"
        assert main(["simulate", "--seeds", "2", "--n", "200", "--epochs", "2",
                     "--base-seed", "7", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["spec"]["seed"] == 7
        assert "seed" not in manifest["config"]["train"]
        assert manifest["seeds"] == [7, 8]


class TestConfigDigest:
    """Each manifest's config_digest is the SHA-256 of the canonical JSON
    (sorted keys, no spaces) of the other entries of the config it sits in."""

    @staticmethod
    def config(out):
        config = json.loads((out / "manifest.json").read_text())["config"]
        digest = config.pop("config_digest")
        assert digest == canonical_sha256(config)
        return config, digest

    def test_schedule_and_pipeline(self, tmp_path):
        traces = tmp_path / "traces.jsonl"
        make_traces_file(traces)
        for order in ("high_r_easy", "low_r_easy"):
            run = tmp_path / f"pipeline-{order}"
            assert main(["pipeline", "--traces", str(traces), "--epochs", "5",
                         "--gamma", "0.4", "--order", order, "--out", str(run)]) == 0
            alpha_hat = ff.read_distribution(run / "distribution.csv").alpha_hat
            sched = tmp_path / f"schedule-{order}"
            assert main(["schedule", "--difficulty", str(run / "difficulty.csv"),
                         "--distribution", str(run / "distribution.csv"),
                         "--epochs", "5", "--order", order, "--out", str(sched)]) == 0
            config = {"epochs": 5, "order": order, "gamma": 0.4, "alpha_hat": alpha_hat}
            assert self.config(run) == self.config(sched) == (config, canonical_sha256(config))

    def test_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert main(TestSimulate.ARGS + ["--out", str(out)]) == 0
        spec = {"n_classes": 3, "dims": [4, 4], "n_samples": 240,
                "imbalance_exponent": 1.2, "class_separation": 2.0, "noise_scale": 1.0,
                "redundancy": 0.3, "seed": 0}
        train = {"learning_rate": 0.05, "epochs": 6, "warmup_epochs": 1,
                 "batch_size": 16, "hidden": 8, "gamma": 0.3}
        assert self.config(out)[0] == {"spec": spec, "train": train, "n_seeds": 2}


class TestExitCodes:
    def test_usage_error_is_validation(self, tmp_path):
        assert main(["schedule", "--epochs", "5", "--out", str(tmp_path)]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_non_integer_dims_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--dims", "8,x", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --dims must be integers, got '8,x'\n"
        assert not out.exists()
