"""Tests of the benchmark itself: the oracle, the span arithmetic and the worker.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import inputs
import oracle
import spans
from workloads import ScheduleCsv, SimulateLab

from climd.cli import main
from climd.measurer import ModalityOutput, SampleTrace, score_sample


def test_oracle_scores_match_score_sample():
    ts = inputs.make_traces(seed=3, n=300)
    psi, phi, r = oracle.expected_scores(ts.labels, ts.probs, ts.emb)
    for i in range(ts.n):
        rec = score_sample(SampleTrace(
            sample_id=f"s{i}", label=int(ts.labels[i]),
            modalities=[ModalityOutput(probs=p, embedding=e)
                        for p, e in zip(ts.probs[i], ts.emb[i])]))
        assert rec.psi_per_modality == pytest.approx(psi[i], abs=1e-12)
        assert rec.phi == pytest.approx(phi[i], abs=1e-12)
        assert rec.r == pytest.approx(r[i], abs=1e-12)


def test_pipeline_outputs_pass_the_oracle(tmp_path):
    ts = inputs.make_traces(seed=4, n=400)
    traces = tmp_path / "traces.jsonl"
    inputs.write_traces_jsonl(traces, ts)
    out = tmp_path / "out"
    assert main(["pipeline", "--traces", str(traces), "--epochs", "7",
                 "--out", str(out)]) == 0
    ids = inputs.sample_ids(ts.n)
    psi, phi, r = oracle.expected_scores(ts.labels, ts.probs, ts.emb)
    assert oracle.check_difficulty(out / "difficulty.csv", ids, ts.labels,
                                   psi, phi, r) == []
    classes, counts = np.unique(ts.labels, return_counts=True)
    assert oracle.check_distribution(
        out / "distribution.csv", dict(zip(classes.tolist(), counts.tolist())),
        inputs.mle_alpha(counts), inputs.GAMMA) == []
    assert oracle.check_schedule(out / "schedule.csv", ids, ts.labels, r, 7) == []

    bad = psi.copy()
    bad[5, 1] += 1e-8
    assert oracle.check_difficulty(out / "difficulty.csv", ids, ts.labels,
                                   bad, phi, r)


@pytest.fixture
def small_schedule(tmp_path):
    """A real `climd schedule` output over 20 classes of 5..50 samples."""
    wl = ScheduleCsv()
    wl.epochs, wl.classes, wl.largest = 6, 20, 50
    wl.generate(7, tmp_path)
    out = tmp_path / "out"
    assert main(wl.argv(out)) == 0
    return wl, out / "schedule.csv"


def test_schedule_oracle_accepts_the_program_output(small_schedule):
    wl, path = small_schedule
    assert wl.check(path.parent) == []


def test_schedule_oracle_flags_ids_swapped_across_the_prefix_boundary(small_schedule):
    wl, path = small_schedule
    lines = path.read_text().splitlines()
    queue_of = {}  # class -> its full queue, from the final epoch
    for line in lines:
        t, c, _rank, _k, *ids = line.split(",")
        if int(t) == wl.epochs:
            queue_of[c] = ids
    for i, line in enumerate(lines):
        t, c, rank, k, *ids = line.split(",")
        if 0 < int(k) < len(queue_of[c]):
            ids[-1] = queue_of[c][int(k)]  # last id in, first id out
            lines[i] = ",".join([t, c, rank, k, *ids])
            break
    path.write_text("\n".join(lines) + "\n")
    bad = wl.check(path.parent)
    assert len(bad) == 1 and "not a prefix" in bad[0]


def test_schedule_oracle_flags_a_wrong_epoch_total(small_schedule):
    wl, path = small_schedule
    lines = path.read_text().splitlines()
    t, c, rank, k, *ids = lines[0].split(",")
    lines[0] = ",".join([t, c, rank, str(int(k) + 1), *ids])
    path.write_text("\n".join(lines) + "\n")
    assert any("epoch 1 holds" in v for v in wl.check(path.parent))


def test_warmup_visits_match_the_lab():
    from climd.distribution import subset_size
    from climd.simlab import SyntheticSpec, generate_dataset, split_balanced_test

    wl = SimulateLab()
    dataset = generate_dataset(SyntheticSpec(n_classes=wl.classes, n_samples=wl.n,
                                             imbalance_exponent=wl.exponent))
    train_idx, _ = split_balanced_test(dataset, wl.test_fraction, seed=0)
    per_epoch = subset_size(1, wl.epochs, train_idx.size)
    assert wl.warmup_visits() == wl.warmup * per_epoch


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op, None, 0]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("cli", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),   # overlaps a: covered is [1, 5]
        span("c", 7.0, 8.0, parent=0),
        span("d", 7.5, 7.75, parent=3),  # grandchild: counts against c only
        span("e", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 3.0, 0.75, 0.25, 2.5])


def test_layer_metrics_count_rounds_and_take_medians():
    tree = []
    for op, rounds in ((0, 1), (1, 3), (2, 2)):
        root = len(tree)
        tree.append(span("cli", 0.0, 4.0, op=op))
        tree.append(span("scheduler.apportion", 1.0, 2.0, parent=root, op=op))
        for j in range(rounds):
            tree.append(span("scheduler.largest_remainder", 1.0 + j * 0.1,
                             1.05 + j * 0.1, parent=root + 1, op=op))
    m = spans.layer_metrics(tree, [0, 1, 2])
    assert m["scheduler.apportion.calls"] == 1
    assert m["scheduler.largest_remainder.calls"] == 2
    assert m["scheduler.apportion.rounds_per_call"] == 2.0
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["scheduler.apportion.self_s"] == pytest.approx(0.9)
    assert m["simlab.loss_and_grads.us_per_call"] == 0.0
    assert set(m) | {"fileformats.write_schedule.bytes", "simlab.macro_f1_gain",
                     "trace.overhead_s"} == set(spans.LAYER_UNITS)


def test_wrapper_reraises_unchanged_and_marks_the_span():
    tracer = spans.Tracer()
    exc = ValueError("boom")

    def fails():
        raise exc

    with pytest.raises(ValueError) as info:
        tracer.wrap(fails, "measurer.fails")()
    assert info.value is exc
    assert tracer.spans[0][0] == "measurer.fails" and tracer.spans[0][6] == 1
    assert spans.layer_metrics(tracer.spans, [-1])["measurer.errors"] == 1


def test_worker_traces_a_pipeline_op(tmp_path):
    import run

    ts = inputs.make_traces(seed=5, n=200)
    traces = tmp_path / "traces.jsonl"
    inputs.write_traces_jsonl(traces, ts)
    worker = run.Worker()
    try:
        reply = worker.call({"argv": ["pipeline", "--traces", str(traces), "--epochs",
                                      "4", "--out", str(tmp_path / "out")],
                             "op": 0, "traced": True})
        assert reply["code"] == 0 and reply["wall"] > 0
        assert worker.call({"quit": str(tmp_path / "spans.json")})["peak_rss_kb"] > 0
    finally:
        worker.close()
    recorded = json.loads((tmp_path / "spans.json").read_text())
    names = {s[0] for s in recorded}
    assert {"cli", "fileformats.read_traces", "measurer.score_dataset",
            "distribution.from_labels", "scheduler.build_schedule",
            "scheduler.apportion", "fileformats.write_schedule"} <= names
    m = spans.layer_metrics(recorded, [0])
    assert m["fileformats.read_traces.us_per_sample"] > 0
    assert all(m[f"{mod}.errors"] == 0 for mod in spans.MODULES)
    assert os.path.exists(tmp_path / "out" / "schedule.csv")


def test_benchmark_json_names_what_the_run_reports():
    import run

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_a_small_run_reports_every_metric(trace, monkeypatch, tmp_path):
    import run
    from workloads import PipelineJsonl

    monkeypatch.setattr(run, "WORK", tmp_path)
    wl = PipelineJsonl()
    wl.n, wl.epochs = 300, 4
    result = run.Run(wl, seed=1, seconds=0.3, trace=trace).execute()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * run.SESSIONS
    units = spans.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace:
        assert result["metrics"]["fileformats.read_traces.self_s"]["value"] > 0
