"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them all).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from climd import fileformats as ff
from climd.cli import main
from climd.distribution import ClassDistribution, fit_alpha, ramp_targets, subset_size
from climd.measurer import (
    DifficultyTable,
    complementarity,
    intra_modal_confidence,
    score_sample,
)
from climd.measurer import ModalityOutput, SampleTrace
from climd.metrics import confusion, accuracy, macro_f1, weighted_f1
from climd.scheduler import build_queues, build_schedule
from climd.simlab import (
    ARMS,
    FusionModel,
    SyntheticSpec,
    TrainConfig,
    loss_and_grads,
    run_experiment,
    summarize,
)


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")


def test_criterion_1_figure2_reproduction(tmp_path, capsys):
    with criterion(1, "figure-2 reproduction", budget_seconds=1.0):
        out = tmp_path / "fig2"
        assert main(["figure2", "--out", str(out)]) == 0
        rows = (out / "figure2.csv").read_text().splitlines()[1:]
        table = np.array([[int(v) for v in row.split(",")[1:]] for row in rows])

        assert table.shape == (10, 10)
        assert list(table[0]) == [10] * 10  # epoch 1 exactly uniform
        for t in range(1, 11):
            assert table[t - 1].sum() == 100 * t
            row = table[t - 1]
            assert all(b <= a + 1 for a, b in zip(row, row[1:]))

        # epoch-10 target probabilities vs rank^-1.5 / sum, before rounding
        dist = ClassDistribution.from_counts(
            {i: int(table[-1][i]) for i in range(10)}, gamma=0.3, alpha=5.0)
        q = ramp_targets(dist, 10)[1][-1]
        weights = [r ** -1.5 for r in range(1, 11)]
        z = math.fsum(weights)
        expect = np.array([w / z for w in weights])
        assert np.max(np.abs(q - expect)) <= 1e-9
        assert abs(q[0] - 0.50117) < 5e-6
    capsys.readouterr()


def test_criterion_2_mle_matches_grid_search():
    def grid_search_alpha(counts, gamma=0.3, step=1e-3):
        counts = np.asarray(counts, dtype=float)
        c = counts.size
        n_min = counts.min()
        log_sum = float(np.log(counts).sum())
        lo = 1.0 / gamma + step
        span = 40.0
        while True:
            grid = np.arange(lo, lo + span, step)
            ga = gamma * grid
            ll = (c * np.log(ga - 1.0) + (ga - 1.0) * c * math.log(n_min)
                  - ga * log_sum)
            best = int(np.argmax(ll))
            if best < grid.size - 1:
                return float(grid[best])
            span *= 2.0

    with criterion(2, "MLE equals grid-search maximum", budget_seconds=10.0):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            c = int(rng.integers(3, 21))
            counts = rng.integers(1, 10_001, size=c)
            if len(set(counts.tolist())) == 1:
                continue
            fit = fit_alpha(counts, gamma=0.3)
            assert abs(fit.alpha_hat - grid_search_alpha(counts)) <= 2e-3
            checked += 1


def test_criterion_3_measurer_properties():
    with criterion(3, "measurer property suite"):
        rng = np.random.default_rng(3)

        # confidence range and monotonicity on 1000 random cases
        for _ in range(1000):
            c = int(rng.integers(2, 12))
            p_lo, p_hi = np.sort(rng.uniform(1e-9, 1.0, size=2))
            if p_lo == p_hi:
                continue
            rest = rng.dirichlet(np.ones(c - 1))
            probs_lo = np.concatenate([[p_lo], rest * (1.0 - p_lo)])
            probs_hi = np.concatenate([[p_hi], rest * (1.0 - p_hi)])
            psi_lo = intra_modal_confidence(probs_lo, 0)
            psi_hi = intra_modal_confidence(probs_hi, 0)
            assert 0.0 < psi_lo <= 0.5 and 0.0 < psi_hi <= 0.5
            assert psi_lo < psi_hi

        # complementarity range and positive-scale invariance at 1e-9
        for _ in range(300):
            m = int(rng.integers(2, 6))
            d = int(rng.integers(2, 8))
            embs = [rng.standard_normal(d) for _ in range(m)]
            phi = complementarity(embs)
            assert 0.0 <= phi <= 2.0
            scaled = [e * float(rng.uniform(1e-3, 1e3)) for e in embs]
            assert abs(complementarity(scaled) - phi) <= 1e-9

        # combined score decomposes exactly (1e-9)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            c = int(rng.integers(2, 6))
            trace = SampleTrace(
                sample_id="x", label=int(rng.integers(c)),
                modalities=[ModalityOutput(probs=rng.dirichlet(np.ones(c)),
                                           embedding=rng.standard_normal(4))
                            for _ in range(m)],
            )
            rec = score_sample(trace)
            assert abs(rec.r - (rec.phi + sum(rec.psi_per_modality) / m)) <= 1e-9


def test_criterion_4_scheduler_properties():
    with criterion(4, "scheduler property suite", budget_seconds=30.0):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = int(rng.integers(2, 11))
            counts = np.maximum(rng.integers(1, 5000 // c + 1, size=c), 1)
            while counts.sum() > 5000:
                counts[int(np.argmax(counts))] -= 1
            n = int(counts.sum())
            n_min = int(counts.min())
            # epoch-1 feasibility: the uniform share must fit every class
            total_epochs = int(max(2, math.ceil(n / (c * n_min)) + 1)
                               + rng.integers(0, 8))

            labels = np.repeat(np.arange(c), counts)
            r = rng.random(n)
            ids = [f"s{i:05d}" for i in range(n)]
            table = DifficultyTable(ids=ids, labels=labels, psi=np.column_stack([r / 2, r / 2]),
                                    phi=r / 2, r=r)
            dist = ClassDistribution.from_labels(labels, 0.3)
            schedule = build_schedule(table, dist, total_epochs)
            rows = build_queues(table, dist)
            queues = dict(zip(dist.classes.tolist(), np.split(rows, np.cumsum(dist.counts)[:-1])))
            # the oracle queue: (-r, sample id) within each class
            for cid, queue in queues.items():
                members = np.flatnonzero(labels == cid)
                expect = sorted(members, key=lambda i: (-r[i], ids[i]))
                assert queue.tolist() == expect

            epochs = [schedule.epoch(t) for t in range(1, total_epochs + 1)]
            for t, (rows, counts) in enumerate(zip(epochs, schedule.counts), start=1):
                expected = (n if t == total_epochs
                            else subset_size(t, total_epochs, n))
                assert sum(counts) == rows.size == expected
                cursor = 0
                for cid, cap, k in zip(dist.classes.tolist(), dist.counts, counts):
                    chosen = rows[cursor:cursor + k]
                    cursor += k
                    assert k <= cap  # cap respect
                    assert np.array_equal(chosen, queues[cid][:k])  # prefix property
            first = schedule.counts[0]
            assert max(first) - min(first) <= 1  # epoch-1 balance
            assert sorted(epochs[-1]) == list(range(n))  # full coverage, exactly once


def test_criterion_5_gradient_correctness():
    with criterion(5, "analytic gradients vs finite differences"):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 4))
            dims = tuple(int(rng.integers(2, 6)) for _ in range(m))
            hidden = int(rng.integers(2, 5))
            c = int(rng.integers(2, 5))
            batch = int(rng.integers(1, 6))
            model = FusionModel.init(dims, hidden, c, rng)
            x = np.hstack([rng.standard_normal((batch, d)) for d in dims])
            y = rng.integers(0, c, size=batch)
            analytic, numeric, scratch = (FusionModel(dims, hidden, c) for _ in range(3))
            loss_and_grads(model, x, y, analytic)

            step, flat = 1e-5, model.flat
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss_and_grads(model, x, y, scratch)
                flat[i] = orig - step
                lo = loss_and_grads(model, x, y, scratch)
                flat[i] = orig
                numeric.flat[i] = (hi - lo) / (2.0 * step)
            # Each tensor's own relative error, read from the named views.
            pairs = [*zip(analytic.enc_w, numeric.enc_w), *zip(analytic.enc_b, numeric.enc_b),
                     (analytic.head_w, numeric.head_w), (analytic.head_b, numeric.head_b),
                     *zip(analytic.aux_w, numeric.aux_w), *zip(analytic.aux_b, numeric.aux_b)]
            assert len(pairs) == 4 * m + 2
            for ga, gn in pairs:
                denom = max(np.linalg.norm(ga), np.linalg.norm(gn), 1e-8)
                assert np.linalg.norm(ga - gn) / denom < 1e-4


def test_criterion_6_curriculum_beats_random_baseline():
    with criterion(6, "end-to-end curriculum benefit", budget_seconds=300.0):
        spec = SyntheticSpec(n_classes=5, dims=(8, 8, 8), n_samples=2000,
                             imbalance_exponent=1.5, seed=0)
        config = TrainConfig(learning_rate=0.01, epochs=20, warmup_epochs=3,
                             batch_size=32, hidden=16)
        scores, _ = run_experiment(spec, config, n_seeds=10)
        means, wins = summarize(scores)
        climd, baseline = ARMS.index("climd"), ARMS.index("baseline")
        print(f"  macro F1: curriculum {means[climd, 2]:.4f} vs "
              f"baseline {means[baseline, 2]:.4f}; wins {wins[climd]}/10")
        assert means[climd, 2] > means[baseline, 2]
        assert wins[climd] >= 7


def test_criterion_7_rerun_determinism(tmp_path):
    with criterion(7, "byte-identical reruns"):
        args = ["simulate", "--classes", "3", "--dims", "4,4",
                "--n", "300", "--imbalance", "1.2", "--epochs", "5",
                "--warmup", "1", "--lr", "0.05", "--seeds", "2",
                "--batch", "16", "--hidden", "8"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0

        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            if name == "manifest.json":
                m1 = json.loads((out1 / name).read_text())
                m2 = json.loads((out2 / name).read_text())
                assert ff.manifest_data_fields(m1) == ff.manifest_data_fields(m2)
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_criterion_8_metrics_cross_check():
    with criterion(8, "metrics cross-check"):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert abs(accuracy(cm) - 2 / 3) <= 1e-12
        assert abs(macro_f1(cm) - 2 / 3) <= 1e-12
        assert abs(weighted_f1(cm) - 2 / 3) <= 1e-12

        rng = np.random.default_rng(8)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            per_class = int(rng.integers(1, 50))
            rows = [np.bincount(rng.integers(0, c, size=per_class), minlength=c)
                    for _ in range(c)]
            cm = np.stack(rows)
            assert abs(weighted_f1(cm) - macro_f1(cm)) <= 1e-12
