import math
from dataclasses import replace

import numpy as np
import pytest

from climd import scheduler
from climd.errors import ValidationError
from climd.measurer import score_dataset
from climd.scheduler import random_baseline_schedule
from climd.simlab import (
    FusionModel,
    SyntheticSpec,
    TrainConfig,
    _stream,
    class_sizes,
    collect_traces,
    evaluate,
    generate_dataset,
    loss_and_grads,
    run_experiment,
    run_seed,
    split_balanced_test,
    train,
    uniform_warmup_schedule,
)

SMALL_SPEC = SyntheticSpec(n_classes=3, dims=(4, 3), n_samples=120,
                           imbalance_exponent=1.0, seed=5)


def random_model(rng, dims=(3, 4), hidden=3, n_classes=3):
    return FusionModel.init(dims, hidden, n_classes, rng)


def seed_init(dataset, config):
    """The init model run_seed builds for a dataset and config."""
    return FusionModel.init(dataset.spec.dims, config.hidden, dataset.spec.n_classes,
                            _stream(config.seed, "init"))


def finite_difference_grads(model, x, y, step=1e-5):
    """Central-difference oracle over every parameter entry."""
    grads = []
    for p in model.params():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_and_grads(model, x, y)[0]
            flat[i] = orig - step
            lo = loss_and_grads(model, x, y)[0]
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def per_modality_loss_and_grads(model, xs, y):
    """Reference: each head and modality on its own arrays, one at a time."""
    m, h, n = model.n_modalities, model.hidden, y.size

    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    z = [x @ w.T + b for x, w, b in zip(xs, model.enc_w, model.enc_b)]
    zcat = np.concatenate(z, axis=-1)
    fused = softmax(zcat @ model.head_w.T + model.head_b)
    aux = [softmax(zi @ w.T + b) for zi, w, b in zip(z, model.aux_w, model.aux_b)]
    rows = np.arange(n)
    onehot = np.zeros_like(fused)
    onehot[rows, y] = 1.0
    loss = float(-np.log(np.maximum(fused[rows, y], 1e-300)).mean())
    for pa in aux:
        loss += float(-np.log(np.maximum(pa[rows, y], 1e-300)).mean()) / m
    d_fused = (fused - onehot) / n
    dz = d_fused @ model.head_w
    g_enc_w, g_enc_b, g_aux_w, g_aux_b = [], [], [], []
    for mi in range(m):
        d_aux = (aux[mi] - onehot) / (n * m)
        g_aux_w.append(d_aux.T @ z[mi])
        g_aux_b.append(d_aux.sum(axis=0))
        dz_m = dz[:, mi * h:(mi + 1) * h] + d_aux @ model.aux_w[mi]
        g_enc_w.append(dz_m.T @ xs[mi])
        g_enc_b.append(dz_m.sum(axis=0))
    return loss, [*g_enc_w, *g_enc_b, d_fused.T @ zcat, d_fused.sum(axis=0),
                  *g_aux_w, *g_aux_b]


class TestClassSizes:
    def test_balanced_exponent(self):
        sizes = class_sizes(103, 5, 0.0)
        assert sizes.sum() == 103
        assert sizes.max() - sizes.min() <= 1

    def test_frozen_example(self):
        # Independent largest-remainder oracle over the normalized
        # rank^-1.5 weights gives (312, 111, 60, 39, 28) for N=550, C=5.
        assert list(class_sizes(550, 5, 1.5)) == [312, 111, 60, 39, 28]

    def test_quota_deviation_when_no_clamping(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = int(rng.integers(2, 10))
            n = int(rng.integers(c * 20, 3000))
            e = float(rng.uniform(0.0, 1.2))
            sizes = class_sizes(n, c, e)
            ranks = np.arange(1, c + 1, dtype=float)
            w = ranks ** -e
            w /= w.sum()
            assert sizes.sum() == n
            if sizes.min() > 1:  # min-clamp untriggered
                assert np.all(np.abs(sizes - w * n) < 1.0)
            assert np.all(sizes[:-1] >= sizes[1:])

    def test_min_one_per_class(self):
        sizes = class_sizes(12, 10, 6.0)
        assert sizes.min() >= 1
        assert sizes.sum() == 12


class TestGenerateDataset:
    def test_deterministic(self):
        a = generate_dataset(SMALL_SPEC)
        b = generate_dataset(SMALL_SPEC)
        assert a.sample_ids == b.sample_ids
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.x, b.x)

    def test_seed_changes_data(self):
        a = generate_dataset(SMALL_SPEC)
        b = generate_dataset(replace(SMALL_SPEC, seed=6))
        assert not np.array_equal(a.x[:, :4], b.x[:, :4])

    def test_column_blocks_are_the_per_modality_draws(self):
        ds = generate_dataset(SMALL_SPEC)
        assert ds.x.shape == (120, 7) and ds.x.dtype == np.float64
        for mi, (a, b) in enumerate([(0, 4), (4, 7)]):
            noise = _stream(SMALL_SPEC.seed, f"features-{mi}").standard_normal((120, b - a))
            assert np.array_equal(ds.x[:, a:b], ds.centroids[mi][ds.labels] + noise)

    def test_full_redundancy_duplicates_centroids(self):
        spec = SyntheticSpec(n_classes=4, dims=(5, 5, 5), n_samples=40,
                             redundancy=1.0, seed=2)
        ds = generate_dataset(spec)
        for other in ds.centroids[1:]:
            assert np.allclose(ds.centroids[0], other, atol=1e-12)

    def test_separation_calibration(self):
        ds = generate_dataset(replace(SMALL_SPEC, class_separation=2.5))
        for cents in ds.centroids:
            c = cents.shape[0]
            dists = [np.linalg.norm(cents[i] - cents[j])
                     for i in range(c) for j in range(i + 1, c)]
            assert np.mean(dists) == pytest.approx(2.5, rel=1e-9)

    def test_labels_match_sizes(self):
        ds = generate_dataset(SMALL_SPEC)
        sizes = class_sizes(120, 3, 1.0)
        assert np.bincount(ds.labels).tolist() == list(sizes)

    def test_infeasible_spec(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n_classes=10, dims=(2, 2), n_samples=5)


class TestForward:
    def test_zeroed_head_gives_uniform_probs(self):
        model = random_model(np.random.default_rng(0))
        model.head_w[:] = 0.0
        model.head_b[:] = 0.0
        fused, _, _ = model.forward_batch(np.ones((4, 7)))
        assert np.allclose(fused, 1.0 / 3.0, atol=1e-12)

    def test_probability_vectors_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        x = np.hstack([rng.standard_normal((16, 3)), rng.standard_normal((16, 4))])
        fused, aux, _ = model.forward_batch(x)
        assert np.allclose(fused.sum(axis=1), 1.0, atol=1e-6)
        for pa in aux:
            assert np.allclose(pa.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(pa >= 0)

    def test_against_independent_reimplementation(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        x = [rng.standard_normal(3), rng.standard_normal(4)]
        fused, aux, embs = model.forward_batch(np.concatenate(x).reshape(1, -1))
        fused, aux, embs = fused[0], [p[0] for p in aux], [zm[0] for zm in embs]

        # plain-loop oracle
        z = []
        for xm, w, b in zip(x, model.enc_w, model.enc_b):
            z.append(np.array([float(np.dot(w[i], xm)) + b[i]
                               for i in range(w.shape[0])]))
        zcat = np.concatenate(z)
        logits = model.head_w @ zcat + model.head_b
        e = np.exp(logits - logits.max())
        assert np.allclose(fused, e / e.sum(), atol=1e-12)
        for mi in range(2):
            assert np.allclose(embs[mi], z[mi], atol=1e-12)
            la = model.aux_w[mi] @ z[mi] + model.aux_b[mi]
            ea = np.exp(la - la.max())
            assert np.allclose(aux[mi], ea / ea.sum(), atol=1e-12)

    def test_dim_mismatch(self):
        model = random_model(np.random.default_rng(3))
        for x in (np.ones((2, 13)), np.ones((2, 3)), np.ones(7), np.ones((1, 2, 7))):
            with pytest.raises(ValidationError, match=r"\(n, 7\) matrix"):
                model.forward_batch(x)


class TestParameterBuffer:
    def test_copy_shares_no_memory(self):
        model = random_model(np.random.default_rng(4))
        clone = model.copy()
        assert not np.shares_memory(model.flat, clone.flat)
        for p, q in zip(model.params(), clone.params()):
            assert np.array_equal(p, q)
            assert not np.shares_memory(p, q)

    def test_params_alias_the_model(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        x = np.hstack([rng.standard_normal((4, 3)), rng.standard_normal((4, 4))])
        before = model.forward_batch(x)
        for p in model.params():
            p += 0.5
            after = model.forward_batch(x)
            p -= 0.5
            assert any(not np.array_equal(np.asarray(a), np.asarray(b))
                       for a, b in zip(before, after))
        assert sum(p.size for p in model.params()) == model.flat.size

    def test_gradients_survive_the_next_call(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        x = np.hstack([rng.standard_normal((5, 3)), rng.standard_normal((5, 4))])
        _, first = loss_and_grads(model, x, np.array([0, 1, 2, 0, 1]))
        kept = [g.copy() for g in first]
        _, second = loss_and_grads(model, x[::-1] + 1.0, np.array([2, 2, 1, 1, 0]))
        assert any(not np.array_equal(a, b) for a, b in zip(kept, second))
        for g, k in zip(first, kept):
            assert np.array_equal(g, k)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            m = int(rng.integers(2, 4))
            dims = tuple(int(rng.integers(2, 5)) for _ in range(m))
            hidden = int(rng.integers(2, 4))
            c = int(rng.integers(2, 4))
            batch = int(rng.integers(1, 5))
            model = FusionModel.init(dims, hidden, c, rng)
            x = np.hstack([rng.standard_normal((batch, d)) for d in dims])
            y = rng.integers(0, c, size=batch)
            _, analytic = loss_and_grads(model, x, y)
            numeric = finite_difference_grads(model, x, y)
            for ga, gn in zip(analytic, numeric):
                denom = max(np.linalg.norm(ga), np.linalg.norm(gn), 1e-8)
                assert np.linalg.norm(ga - gn) / denom < 1e-4


    def test_equals_per_modality_reference_bitwise(self):
        # Shapes include one-wide modalities, hidden=1 and single-row batches.
        rng = np.random.default_rng(8)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(1, 10)) for _ in range(m))
            hidden = int(rng.choice([1, 2, 5, 16]))
            c = int(rng.integers(2, 11))
            batch = int(rng.integers(1, 41))
            model = FusionModel.init(dims, hidden, c, rng)
            rows = rng.standard_normal((batch, sum(dims))) * 3
            y = rng.integers(0, c, size=batch)
            loss, grads = loss_and_grads(model, rows, y)
            ends = np.cumsum(dims).tolist()
            ref_loss, ref_grads = per_modality_loss_and_grads(
                model, [rows[:, a:b].copy() for a, b in zip([0, *ends], ends)], y)
            assert loss == ref_loss
            for g, r in zip(grads, ref_grads):
                assert g.shape == r.shape and np.array_equal(g, r)


class TestTrain:
    def small_setup(self, epochs=4, lr=0.1, seed=3):
        spec = SyntheticSpec(n_classes=3, dims=(4, 3), n_samples=90,
                             imbalance_exponent=0.8, seed=seed)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, epochs, seed=seed)
        config = TrainConfig(learning_rate=lr, epochs=epochs, warmup_epochs=0,
                             batch_size=16, hidden=4, seed=seed)
        return dataset, schedule, config

    def test_zero_learning_rate_keeps_parameters(self):
        dataset, schedule, config = self.small_setup(lr=0.0)
        init = seed_init(dataset, config)
        model, _ = train(dataset, schedule, config, init_model=init)
        for p0, p1 in zip(init.params(), model.params()):
            assert np.array_equal(p0, p1)

    @pytest.mark.parametrize("dims, hidden", [((3, 4), 4), ((1, 4), 4)])
    def test_fused_step_matches_per_parameter_loop(self, dims, hidden):
        spec = SyntheticSpec(n_classes=3, dims=dims, n_samples=70,
                             imbalance_exponent=0.8, seed=4)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, 3, seed=4)
        config = TrainConfig(learning_rate=0.1, epochs=3, warmup_epochs=0,
                             batch_size=16, hidden=hidden, seed=4)
        assert all(rows.size % config.batch_size for rows in schedule)
        init = seed_init(dataset, config)
        model, _ = train(dataset, schedule, config, init, arm="loop")

        # Plain loop: one update per parameter.
        ref = init.copy()
        rng = _stream(config.seed, "shuffle-loop")
        for rows in schedule:
            idx = rows[rng.permutation(rows.size)]
            for start in range(0, idx.size, config.batch_size):
                batch = idx[start:start + config.batch_size]
                _, grads = loss_and_grads(ref, dataset.x[batch], dataset.labels[batch])
                for p, g in zip(ref.params(), grads):
                    p -= config.learning_rate * g
        for p, q in zip(model.params(), ref.params()):
            assert np.array_equal(p, q)

    def test_single_sample_converges(self):
        spec = SyntheticSpec(n_classes=2, dims=(3, 3), n_samples=2,
                             imbalance_exponent=0.0, seed=1)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(1, 200, seed=0)
        config = TrainConfig(learning_rate=0.5, epochs=200, warmup_epochs=0,
                             batch_size=1, hidden=4, seed=0)
        _, history = train(dataset, schedule, config, seed_init(dataset, config))
        losses = [e.mean_loss for e in history.epochs]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.05

    def test_determinism(self):
        dataset, schedule, config = self.small_setup()
        init = seed_init(dataset, config)
        m1, h1 = train(dataset, schedule, config, init)
        m2, h2 = train(dataset, schedule, config, init)
        for p1, p2 in zip(m1.params(), m2.params()):
            assert np.array_equal(p1, p2)
        assert [e.mean_loss for e in h1.epochs] == [e.mean_loss for e in h2.epochs]

    def test_epoch_visits_exact_plan_multiset(self):
        dataset, schedule, config = self.small_setup()
        _, history = train(dataset, schedule, config, seed_init(dataset, config),
                           record_visits=True)
        for rows, visited in zip(schedule, history.visited):
            assert np.array_equal(np.sort(visited), np.sort(rows))
            assert len(visited) == rows.size

    def test_unknown_sample_id_rejected_before_training(self):
        dataset, schedule, config = self.small_setup()
        for ghost in (dataset.n_samples, -1):
            schedule[1][0] = ghost
            with pytest.raises(ValidationError, match=f"epoch 2 .*{ghost}"):
                train(dataset, schedule, config, seed_init(dataset, config))

    def test_init_model_must_match_the_dataset(self):
        dataset, schedule, config = self.small_setup()
        for dims, classes in (((4, 4), 3), ((3, 4), 3), ((4, 3, 1), 3), ((4, 3), 2),
                              ((4, 3), 4)):
            init = FusionModel.init(dims, config.hidden, classes, np.random.default_rng(0))
            with pytest.raises(ValidationError, match=r"init model has \(dims, classes\)"):
                train(dataset, schedule, config, init)

    def test_per_epoch_eval_metrics(self):
        dataset, schedule, config = self.small_setup()
        eval_set = (dataset.x, dataset.labels)
        _, history = train(dataset, schedule, config, seed_init(dataset, config),
                           eval_set=eval_set)
        assert len(history.epochs) == config.epochs
        for stats in history.epochs:
            assert 0.0 <= stats.test_accuracy <= 1.0
            assert 0.0 <= stats.test_weighted_f1 <= 1.0
            assert 0.0 <= stats.test_macro_f1 <= 1.0


class TestTraces:
    def test_trace_count_and_validity(self):
        dataset = generate_dataset(SMALL_SPEC)
        model = FusionModel.init(SMALL_SPEC.dims, 4, 3, np.random.default_rng(0))
        traces = collect_traces(model, dataset)
        assert len(traces) == dataset.n_samples
        assert traces.ids == dataset.sample_ids
        assert traces.probs.shape == (dataset.n_samples, 2, 3)
        assert traces.emb.shape == (dataset.n_samples, 2, 4)
        # The TraceBatch constructor validates invariants.
        table = score_dataset(traces)
        assert len(table) == dataset.n_samples

    def test_deterministic(self):
        dataset = generate_dataset(SMALL_SPEC)
        model = FusionModel.init(SMALL_SPEC.dims, 4, 3, np.random.default_rng(0))
        a = collect_traces(model, dataset)
        b = collect_traces(model, dataset)
        assert a.ids == b.ids
        for col in ("labels", "probs", "emb"):
            assert np.array_equal(getattr(a, col), getattr(b, col))


class TestSplit:
    def test_balanced_and_disjoint(self):
        dataset = generate_dataset(SMALL_SPEC)
        train_idx, test_idx = split_balanced_test(dataset, 0.3, seed=4)
        assert set(train_idx).isdisjoint(test_idx)
        assert len(train_idx) + len(test_idx) == dataset.n_samples
        test_labels = dataset.labels[test_idx]
        counts = np.bincount(test_labels, minlength=3)
        assert counts.max() == counts.min()

    def test_deterministic(self):
        dataset = generate_dataset(SMALL_SPEC)
        a = split_balanced_test(dataset, 0.3, seed=4)
        b = split_balanced_test(dataset, 0.3, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


    @pytest.mark.parametrize("fraction", [math.nan, -0.2, 0.0, 1.0, 1.5])
    def test_test_fraction_outside_open_unit_interval_rejected(self, fraction):
        with pytest.raises(ValidationError, match="test_fraction"):
            TrainConfig(test_fraction=fraction)


class TestWarmupSchedule:
    def test_uniform_counts(self):
        labels = np.arange(80) % 4
        schedule = uniform_warmup_schedule(labels, 3, 20, seed=0)
        assert len(schedule) == 3
        for rows in schedule:
            assert rows.size == 20
            assert np.bincount(labels[rows], minlength=4).tolist() == [5] * 4


class TestExperiment:
    def tiny(self, n_seeds=2):
        spec = SyntheticSpec(n_classes=3, dims=(4, 4), n_samples=240,
                             imbalance_exponent=1.2, seed=11)
        config = TrainConfig(learning_rate=0.05, epochs=6, warmup_epochs=1,
                             batch_size=16, hidden=8, seed=11)
        return spec, config, n_seeds

    def test_budget_parity_and_visit_arithmetic(self):
        spec, config, _ = self.tiny()
        results = run_seed(spec, config, 0)
        by_arm = {r.arm: r for r in results}
        assert by_arm["climd"].visits == by_arm["baseline"].visits
        # the curriculum budget is the sum of the per-epoch subset sizes
        dataset = generate_dataset(replace(spec, seed=spec.seed))
        train_idx, _ = split_balanced_test(dataset, config.test_fraction,
                                           config.seed)
        n = len(train_idx)
        t = config.epochs
        expected = sum(math.floor(e * n / t + 0.5) for e in range(1, t + 1))
        assert by_arm["climd"].visits == expected

    def test_rerun_is_identical(self):
        spec, config, n = self.tiny()
        a = run_experiment(spec, config, n)
        b = run_experiment(spec, config, n)
        assert a.rows == b.rows
        assert a.wins == b.wins

    def test_parallel_matches_serial(self):
        spec, config, n = self.tiny()
        serial = run_experiment(spec, config, n, max_workers=1)
        parallel = run_experiment(spec, config, n, max_workers=2)
        assert serial.rows == parallel.rows

    def test_report_shape(self):
        spec, config, n = self.tiny()
        report = run_experiment(spec, config, n)
        assert len(report.rows) == 2 * n
        assert {r.arm for r in report.rows} == {"climd", "baseline"}
        assert 0 <= report.wins <= n
        assert 0 <= report.baseline_wins <= n - report.wins
        for r in report.rows:
            for value in (r.accuracy, r.weighted_f1, r.macro_f1):
                assert 0.0 <= value <= 1.0

    def test_refresh_computes_the_ramp_once(self, monkeypatch):
        # The ramp apportions each epoch but the full-data last one; a
        # refresh only re-orders the queues. The warm-up looks apportion
        # up in simlab, so its call is not counted here.
        calls, apportion = [], scheduler.apportion

        def counted(*args):
            calls.append(args)
            return apportion(*args)

        monkeypatch.setattr(scheduler, "apportion", counted)
        spec, config, _ = self.tiny()
        run_seed(spec, replace(config, epochs=8, refresh_every=2), 0)
        assert len(calls) == 7

    def test_refresh_interval_keeps_budget_and_determinism(self):
        spec, config, _ = self.tiny()
        once = run_seed(spec, config, 0)
        refreshed = run_seed(spec, replace(config, refresh_every=2), 0)
        again = run_seed(spec, replace(config, refresh_every=2), 0)
        by_arm = {r.arm: r for r in refreshed}
        assert by_arm["climd"].visits == by_arm["baseline"].visits
        assert by_arm["climd"].visits == once[0].visits
        assert refreshed == again
        # the baseline arm is untouched by the refresh cadence
        assert by_arm["baseline"] == {r.arm: r for r in once}["baseline"]


class TestEvaluate:
    def test_perfect_model_is_perfect(self):
        # Widely separated, nearly noiseless classes: training must nail them.
        spec = SyntheticSpec(n_classes=3, dims=(4, 4), n_samples=60,
                             imbalance_exponent=0.0, class_separation=10.0,
                             noise_scale=0.05, seed=3)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, 80, seed=0)
        config = TrainConfig(learning_rate=0.02, epochs=80, warmup_epochs=0,
                             batch_size=8, hidden=6, seed=0)
        model, _ = train(dataset, schedule, config, seed_init(dataset, config))
        acc, wf1, mf1 = evaluate(model, dataset.x, dataset.labels)
        assert acc == 1.0 and wf1 == 1.0 and mf1 == 1.0
