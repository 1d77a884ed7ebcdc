import concurrent.futures
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from climd import fileformats as ff
from climd import measurer, scheduler, simlab
from climd.cli import main
from climd.errors import ValidationError
from climd.measurer import score_dataset
from climd.scheduler import random_baseline_schedule
from climd.simlab import (
    TEST_FRACTION,
    ArmResult,
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
    score_traces,
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

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError, match="2 samples cannot cover 3 classes"):
            class_sizes(2, 3, 1.0)

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

    @pytest.mark.parametrize("field, value, message", [
        ("n_classes", 1, "need >= 2 classes, got 1"),
        ("dims", (4,), "need >= 2 modalities, got 1"),
        ("dims", (4, 0), "all modality dims must be >= 1"),
        ("redundancy", 1.5, "redundancy must be in"),
        ("redundancy", math.nan, "redundancy must be in"),
    ])
    def test_bad_spec_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            replace(SMALL_SPEC, **{field: value})


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
        model = train(dataset, schedule, config, init_model=init)
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
        model = train(dataset, schedule, config, init, arm="loop")

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
        init = seed_init(dataset, config)
        model = train(dataset, schedule, config, init)
        x, y = dataset.x[:1], dataset.labels[:1]
        assert loss_and_grads(model, x, y)[0] < min(0.05, loss_and_grads(init, x, y)[0])

    def test_determinism(self):
        dataset, schedule, config = self.small_setup()
        init = seed_init(dataset, config)
        m1 = train(dataset, schedule, config, init)
        m2 = train(dataset, schedule, config, init)
        assert np.array_equal(m1.flat, m2.flat)

    def test_a_generator_trains_like_the_equal_list(self):
        dataset, schedule, config = self.small_setup()
        init = seed_init(dataset, config)
        from_list = train(dataset, schedule, config, init)
        from_generator = train(dataset, (rows for rows in schedule), config, init)
        assert np.array_equal(from_list.flat, from_generator.flat)

    def test_epoch_visits_exact_plan_multiset(self, monkeypatch):
        # Column 0 holds the row number, so every batch names its rows; at
        # learning rate 0 the model stays finite whatever the features.
        dataset, schedule, config = self.small_setup(lr=0.0)
        dataset.x[:, 0] = np.arange(dataset.n_samples)
        batches, loss_and_grads = [], simlab.loss_and_grads

        def recording(model, x, y, out=None):
            batches.append(x[:, 0].astype(int))
            return loss_and_grads(model, x, y, out)

        monkeypatch.setattr(simlab, "loss_and_grads", recording)
        train(dataset, schedule, config, seed_init(dataset, config))
        visited = np.concatenate(batches)
        ends = np.cumsum([rows.size for rows in schedule])
        assert visited.size == ends[-1]
        for rows, seen in zip(schedule, np.split(visited, ends[:-1])):
            assert np.array_equal(np.sort(seen), np.sort(rows))

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


def assert_tables_equal(a, b):
    assert a.ids == b.ids
    for col in ("labels", "psi", "phi", "r"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), col


class TestScoreTraces:
    """The lab scores its traces in TRACE_CHUNK blocks. Tests set the chunk
    to 64 rows, a multiple of a BLAS kernel's row block, as the default is."""

    @pytest.mark.parametrize("dims, hidden, n", [
        ((8, 8, 8), 16, 300),  # four full blocks and a short one
        ((1, 5), 4, 201),      # a one-wide modality
        ((3, 5, 4), 1, 130),   # one hidden unit; a last block of 2 rows
    ])
    def test_blocks_equal_one_pass_and_check_each_id_once(self, monkeypatch, dims, hidden, n):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 64)
        dataset = generate_dataset(SyntheticSpec(n_classes=4, dims=dims, n_samples=n, seed=3))
        model = FusionModel.init(dims, hidden, 4, np.random.default_rng(1))
        whole = score_dataset(collect_traces(model, dataset))
        checked = []
        check_ids = measurer.check_ids

        def counting(ids):
            checked.append(len(ids))
            return check_ids(ids)

        monkeypatch.setattr(measurer, "check_ids", counting)
        table = score_traces(model, dataset)
        assert checked == [64] * (n // 64) + [n % 64, n]
        assert_tables_equal(table, whole)

    def test_run_seed_schedules_the_blockwise_table(self, monkeypatch):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 64)
        spec = SyntheticSpec(n_classes=3, dims=(4, 1), n_samples=300, seed=2)
        config = TrainConfig(epochs=4, warmup_epochs=1, hidden=5, batch_size=16)
        seen = {"blocks": 0}
        real_train, real_collect, real_build = train, collect_traces, simlab.build_schedule

        def spy_train(dataset, epochs, config, init_model, arm="train"):
            model = real_train(dataset, epochs, config, init_model, arm)
            seen.setdefault(arm, (dataset, model))
            return model

        def spy_collect(model, dataset):
            seen["blocks"] += 1
            return real_collect(model, dataset)

        def spy_build(table, *args):
            seen["table"] = table
            return real_build(table, *args)

        monkeypatch.setattr(simlab, "train", spy_train)
        monkeypatch.setattr(simlab, "collect_traces", spy_collect)
        monkeypatch.setattr(simlab, "build_schedule", spy_build)
        run_seed(spec, config, 0)
        trainset, warm_model = seen["warmup"]
        assert seen["blocks"] == math.ceil(trainset.n_samples / 64) > 1
        assert_tables_equal(seen["table"], score_dataset(collect_traces(warm_model, trainset)))

    def test_peak_is_a_few_blocks_not_the_split(self, monkeypatch):
        # Wide embeddings, so a block's trace arrays dwarf its score columns.
        # One pass over the 5.3 blocks of rows peaks at about 13.5 blocks.
        monkeypatch.setattr(ff, "TRACE_CHUNK", 64)
        n, dims, hidden, c = 5 * 64 + 17, (8, 8, 8), 64, 3
        dataset = generate_dataset(SyntheticSpec(n_classes=c, dims=dims, n_samples=n, seed=1))
        model = FusionModel.init(dims, hidden, c, np.random.default_rng(0))
        block = 64 * len(dims) * (c + hidden) * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            score_traces(model, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * block, (peak, block)


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

    def test_singleton_minority_class_rejected(self):
        dataset = generate_dataset(SyntheticSpec(n_classes=3, dims=(2, 2), n_samples=3))
        with pytest.raises(ValidationError, match="minority class too small"):
            split_balanced_test(dataset, 0.4, seed=0)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("warmup_epochs", -1, "warmup_epochs must be >= 0"),
        ("batch_size", 0, "batch_size and hidden must be >= 1"),
        ("hidden", 0, "batch_size and hidden must be >= 1"),
    ])
    def test_bad_config_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("epochs, warmup, resolved", [
        (5, None, 1), (25, None, 2), (25, 0, 0), (25, 7, 7),
    ])
    def test_warmup_defaults_to_a_tenth_of_the_epochs(self, epochs, warmup, resolved):
        assert TrainConfig(epochs=epochs, warmup_epochs=warmup).resolved_warmup == resolved


class TestWarmupSchedule:
    def test_uniform_counts(self):
        labels = np.arange(80) % 4
        schedule = list(uniform_warmup_schedule(labels, 3, 20, seed=0))
        assert len(schedule) == 3
        for rows in schedule:
            assert rows.size == 20
            assert np.bincount(labels[rows], minlength=4).tolist() == [5] * 4

    def test_epochs_are_drawn_lazily(self):
        labels = np.arange(80) % 4
        first = list(uniform_warmup_schedule(labels, 3, 20, seed=0))
        # Checked first: a list of 10**12 epochs would never be built.
        assert not isinstance(uniform_warmup_schedule(labels, 3, 20, seed=0), list)
        head = list(islice(uniform_warmup_schedule(labels, 10**12, 20, seed=0), 3))
        assert len(head) == 3
        assert all(np.array_equal(a, b) for a, b in zip(head, first))


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
        train_idx, _ = split_balanced_test(dataset, TEST_FRACTION, config.seed)
        n = len(train_idx)
        t = config.epochs
        expected = sum(math.floor(e * n / t + 0.5) for e in range(1, t + 1))
        assert by_arm["climd"].visits == expected

    def test_no_seeds_rejected(self):
        spec, config, _ = self.tiny()
        with pytest.raises(ValidationError, match="n_seeds must be >= 1, got 0"):
            run_experiment(spec, config, 0)

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

    # A fake pool records its size and maps in this process, so no real
    # pool starts, whatever size the case asks for.
    @pytest.mark.parametrize("max_workers, n_seeds, cpus, pool_size", [
        (8, 3, 2, 2),  # capped at the CPUs this process may use
        (2, 3, 4, 2),  # capped at max_workers
        (8, 2, 4, 2),  # capped at the seeds
        (8, 3, 1, None),  # one CPU: serial, no pool
        (2, 1, 4, None),  # one seed: serial, no pool
    ])
    def test_pool_size_is_capped(self, monkeypatch, max_workers, n_seeds, cpus, pool_size):
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec, config, _ = self.tiny()
        run_experiment(spec, config, n_seeds, max_workers=max_workers)
        assert sizes == ([] if pool_size is None else [pool_size])

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

    def test_curriculum_arm_computes_the_ramp_once(self, monkeypatch):
        # The ramp apportions each epoch but the full-data last one. The
        # warm-up looks apportion up in simlab, so its call is not counted
        # here.
        calls, apportion = [], scheduler.apportion

        def counted(*args):
            calls.append(args)
            return apportion(*args)

        monkeypatch.setattr(scheduler, "apportion", counted)
        spec, config, _ = self.tiny()
        run_seed(spec, replace(config, epochs=8), 0)
        assert len(calls) == 7

    def test_curriculum_arm_builds_only_the_epochs_it_trains(self, monkeypatch):
        calls, prefixes = [], scheduler.Schedule.prefixes

        def counted(schedule, t):
            calls.append(t)
            return prefixes(schedule, t)

        monkeypatch.setattr(scheduler.Schedule, "prefixes", counted)
        spec, config, _ = self.tiny()
        run_seed(spec, replace(config, epochs=20), 0)
        assert calls == list(range(1, 21))

    # The lab's numbers on the tiny setup, pinned so that a refactor that
    # changes any draw, step or metric shows here and not only in reruns.
    PINNED = [
        ArmResult(0, "climd", 0.7555555555555555, 0.7486277163696518,
                  0.7486277163696519, 684),
        ArmResult(0, "baseline", 0.6888888888888889, 0.6505531505531505,
                  0.6505531505531505, 684),
        ArmResult(1, "climd", 0.7333333333333333, 0.695230217810863,
                  0.695230217810863, 684),
        ArmResult(1, "baseline", 0.7333333333333333, 0.695230217810863,
                  0.695230217810863, 684),
    ]

    def test_pinned_rows(self):
        spec, config, n = self.tiny()
        report = run_experiment(spec, config, n)
        assert report.rows == self.PINNED

    # tiny()'s setup and a two-seed criterion-6 setup as simulate flags.
    RUNS = {"tiny": ["--classes", "3", "--dims", "4,4", "--n", "240", "--imbalance", "1.2",
                     "--base-seed", "11", "--lr", "0.05", "--epochs", "6", "--warmup", "1",
                     "--batch", "16", "--hidden", "8", "--seeds", "2"],
            "criterion-6": ["--seeds", "2", "--epochs", "20", "--warmup", "3", "--lr", "0.01"]}

    def test_other_blas_kernels_give_the_same_reports(self, tmp_path):
        """The pinned rows hold and both reports are byte-identical when a
        child process runs OpenBLAS's Haswell or Prescott kernel instead of
        this process's. OPENBLAS_CORETYPE acts on the child alone."""
        if np.lib.NumpyVersion(np.__version__) < "1.26.0":
            pytest.skip("numpy < 1.26 has no show_config(mode='dicts') to name its BLAS")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        machine = platform.machine()
        if "openblas" not in blas.lower() or machine.lower() not in ("x86_64", "amd64"):
            pytest.skip(f"the kernels are OpenBLAS's on x86-64, not {blas} on {machine}")

        def argvs(root):
            return [["simulate", *flags, "--out", str(root / name)]
                    for name, flags in self.RUNS.items()]

        for argv in argvs(tmp_path / "here"):
            assert main(argv) == 0
        rows = [line.split(",") for line in
                (tmp_path / "here" / "tiny" / "report.csv").read_text().splitlines()[1:]]
        assert [ArmResult(int(s), arm, float(a), float(w), float(m), int(v))
                for s, arm, a, w, m, v in rows] == self.PINNED
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        for core in ("Haswell", "Prescott"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            env.pop("CLIMD_THREADS", None)
            proc = subprocess.run([sys.executable, "-c", "import json, sys; from climd.cli "
                                   "import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))",
                                   json.dumps(argvs(tmp_path / core))],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            for name in self.RUNS:
                assert ((tmp_path / core / name / "report.csv").read_bytes()
                        == (tmp_path / "here" / name / "report.csv").read_bytes()), (core, name)


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
        model = train(dataset, schedule, config, seed_init(dataset, config))
        acc, wf1, mf1 = evaluate(model, dataset.x, dataset.labels)
        assert acc == 1.0 and wf1 == 1.0 and mf1 == 1.0
