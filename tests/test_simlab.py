import concurrent.futures
import json
import math
import os
import platform
import re
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
    ARMS,
    TEST_FRACTION,
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
    summarize,
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
                            _stream(dataset.spec.seed, "init"))


def grad_buffer(model):
    """A model of ``model``'s shape for loss_and_grads to write a gradient into."""
    return FusionModel(model.dims, model.hidden, model.n_classes)


def tensors(model):
    """The named parameter views of ``model``, one per tensor."""
    return [*model.enc_w, *model.enc_b, model.head_w, model.head_b,
            *model.aux_w, *model.aux_b]


def loss_of(model, x, y):
    return loss_and_grads(model, x, y, grad_buffer(model))


def finite_difference_grads(model, x, y, step=1e-5):
    """Central-difference oracle over every entry of ``model.flat``, as a
    gradient model laid out like it."""
    numeric, flat = grad_buffer(model), model.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_of(model, x, y)
        flat[i] = orig - step
        lo = loss_of(model, x, y)
        flat[i] = orig
        numeric.flat[i] = (hi - lo) / (2 * step)
    return numeric


def split_modalities(rows, dims):
    """Each modality's columns of ``rows`` as an array of its own."""
    ends = np.cumsum(dims).tolist()
    return [rows[:, a:b].copy() for a, b in zip([0, *ends], ends)]


def per_modality_forward(model, xs):
    """Reference forward pass: (fused probs, per-modality probs, per-modality
    embeddings), each head and modality on its own arrays, one at a time."""
    def softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    z = [x @ w.T + b for x, w, b in zip(xs, model.enc_w, model.enc_b)]
    fused = softmax(np.concatenate(z, axis=-1) @ model.head_w.T + model.head_b)
    aux = [softmax(zi @ w.T + b) for zi, w, b in zip(z, model.aux_w, model.aux_b)]
    return fused, aux, z


def per_modality_loss_and_grads(model, xs, y):
    """Reference: each head and modality on its own arrays, one at a time.
    Returns the loss and a gradient model holding the gradients."""
    m, h, n = model.n_modalities, model.hidden, y.size
    fused, aux, z = per_modality_forward(model, xs)
    zcat = np.concatenate(z, axis=-1)
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
    ref = grad_buffer(model)
    for view, g in zip(tensors(ref), [*g_enc_w, *g_enc_b, d_fused.T @ zcat,
                                      d_fused.sum(axis=0), *g_aux_w, *g_aux_b], strict=True):
        assert view.shape == g.shape
        view[...] = g
    return loss, ref


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


    def test_take_slices_as_views_and_gathers_index_arrays(self):
        dataset = generate_dataset(SMALL_SPEC)
        block = dataset.take(slice(10, 20))
        assert block.sample_ids == dataset.sample_ids[10:20]
        assert np.shares_memory(block.x, dataset.x)
        assert np.shares_memory(block.labels, dataset.labels)
        rows = np.array([7, 0, 5])
        picked = dataset.take(rows)
        assert picked.sample_ids == [dataset.sample_ids[i] for i in rows]
        assert np.array_equal(picked.x, dataset.x[rows])
        assert np.array_equal(picked.labels, dataset.labels[rows])
        assert picked.spec == dataset.spec


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

    def test_each_forward_batch_owns_its_buffers(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        x = rng.standard_normal((6, 7))
        first, second = model.forward_batch(x), model.forward_batch(x)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, b)

    def test_dim_mismatch(self):
        model = random_model(np.random.default_rng(3))
        for x in (np.ones((2, 13)), np.ones((2, 3)), np.ones(7), np.ones((1, 2, 7))):
            with pytest.raises(ValidationError, match=r"\(n, 7\) matrix"):
                model.forward_batch(x)

    @pytest.mark.parametrize("hidden", [1, 16])
    @pytest.mark.parametrize("dims", [(8, 8, 8), (3, 5, 1)])
    def test_a_batch_of_no_rows(self, dims, hidden):
        # The stacked and the looped encoder, with one-wide operands too.
        m, c = len(dims), 4
        model = FusionModel.init(dims, hidden, c, np.random.default_rng(4))
        dataset = generate_dataset(SyntheticSpec(n_classes=c, dims=dims, n_samples=40, seed=4))
        empty = dataset.take(slice(0, 0))
        fused, aux, z = model.forward_batch(empty.x)
        assert (fused.shape, aux.shape, z.shape) == ((0, c), (m, 0, c), (m, 0, hidden))
        traces = collect_traces(model, empty)
        assert (len(traces), traces.probs.shape, traces.emb.shape) == (0, (0, m, c),
                                                                       (0, m, hidden))
        table = score_traces(model, empty)
        assert (len(table), table.psi.shape, table.r.shape) == (0, (0, m), (0,))
        with pytest.raises(ValidationError, match="at least one row"):
            loss_of(model, empty.x, empty.labels)
        with pytest.raises(ValidationError, match="empty confusion matrix"):
            evaluate(model, empty.x, empty.labels)


class TestParameterBuffer:
    def test_copy_shares_no_memory(self):
        model = random_model(np.random.default_rng(4))
        clone = model.copy()
        assert not np.shares_memory(model.flat, clone.flat)
        for p, q in zip(tensors(model), tensors(clone), strict=True):
            assert np.array_equal(p, q)
            assert not np.shares_memory(p, q)

    def test_named_views_alias_the_model(self):
        """Each named view is a part of ``flat`` that the forward pass reads,
        and together they tile ``flat`` exactly once."""
        rng = np.random.default_rng(5)
        model = random_model(rng)
        x = np.hstack([rng.standard_normal((4, 3)), rng.standard_normal((4, 4))])
        before = model.forward_batch(x)
        for p in tensors(model):
            assert np.shares_memory(p, model.flat)
            p += 0.5
            after = model.forward_batch(x)
            p -= 0.5
            assert any(not np.array_equal(np.asarray(a), np.asarray(b))
                       for a, b in zip(before, after))
        kept = model.flat.copy()
        model.flat[:] = np.arange(model.flat.size)
        entries = np.concatenate([p.reshape(-1) for p in tensors(model)])
        assert np.array_equal(np.sort(entries), np.arange(model.flat.size))
        model.flat[:] = kept

    def test_equal_widths_stack_the_encoder_weights(self):
        """With equal widths, item m of the (M, H, D) stack is enc_w[m]
        itself: the same memory, shape and strides. Mixed widths have no
        stack."""
        model = random_model(np.random.default_rng(9), dims=(4, 4, 4), hidden=5)
        assert model._enc_w_stack.shape == (3, 5, 4)
        for w, item in zip(model.enc_w, model._enc_w_stack, strict=True):
            assert np.shares_memory(w, item)
            assert (item.__array_interface__["data"], item.shape, item.strides) == (
                w.__array_interface__["data"], w.shape, w.strides)
        assert FusionModel((3, 5, 1), 2, 3)._enc_w_stack is None

    def test_gradients_survive_a_call_into_another_out(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        x = np.hstack([rng.standard_normal((5, 3)), rng.standard_normal((5, 4))])
        first, second = grad_buffer(model), grad_buffer(model)
        loss_and_grads(model, x, np.array([0, 1, 2, 0, 1]), first)
        kept = first.flat.copy()
        loss_and_grads(model, x[::-1] + 1.0, np.array([2, 2, 1, 1, 0]), second)
        assert not np.array_equal(kept, second.flat)
        assert np.array_equal(first.flat, kept)


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
            analytic = grad_buffer(model)
            loss_and_grads(model, x, y, analytic)
            numeric = finite_difference_grads(model, x, y)
            for ga, gn in zip(tensors(analytic), tensors(numeric), strict=True):
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
            out = grad_buffer(model)
            loss = loss_and_grads(model, rows, y, out)
            ref_loss, ref = per_modality_loss_and_grads(
                model, split_modalities(rows, dims), y)
            assert loss == ref_loss
            assert np.array_equal(out.flat, ref.flat)

    @pytest.mark.parametrize("hidden", [1, 16])
    @pytest.mark.parametrize("c", [2, 9])
    def test_reused_workspaces_stay_bitwise(self, hidden, c):
        """One gradient model takes batches of 32, 7, 1, again 32 and again
        7 rows of new data. It keeps the workspaces of its largest and its
        latest batch size and reuses them; the one of 7 rows is built again
        after the one of 1 row replaced it. At C = 9 numpy's pairwise sum
        along a row changes form."""
        rng = np.random.default_rng(10)
        dims = (3, 1, 5)
        model = FusionModel.init(dims, hidden, c, rng)
        out = FusionModel(dims, hidden, c)
        for batch in (32, 7, 1, 32, 7):
            rows = rng.standard_normal((batch, sum(dims))) * 3
            y = rng.integers(0, c, size=batch)
            loss = loss_and_grads(model, rows, y, out)
            ref_loss, ref = per_modality_loss_and_grads(
                model, split_modalities(rows, dims), y)
            assert loss == ref_loss
            assert np.array_equal(out.flat, ref.flat)
            model.flat -= 0.1 * out.flat
        assert sorted(out._steps) == [7, 32]

    @pytest.mark.parametrize("dims", [(8, 8, 8), (1, 1)])
    @pytest.mark.parametrize("hidden", [1, 16])
    @pytest.mark.parametrize("c", [2, 9])
    def test_stacked_path_equals_per_modality_reference(self, dims, hidden, c):
        """Equal widths run the encoder pass and the enc_w gradient as one
        stacked matmul each. Through one kept gradient model, on batches of
        32, 7 and 1 rows, the loss, every gradient and every forward_batch
        output are bitwise the per-modality reference's, also at hidden 1
        and width 1, where the gradient takes contiguous copies."""
        rng = np.random.default_rng(12)
        model = FusionModel.init(dims, hidden, c, rng)
        out = FusionModel(dims, hidden, c)
        assert model._enc_w_stack is not None and out._enc_w_stack is not None
        for batch in (32, 7, 1):
            rows = rng.standard_normal((batch, sum(dims))) * 3
            y = rng.integers(0, c, size=batch)
            xs = split_modalities(rows, dims)
            loss = loss_and_grads(model, rows, y, out)
            ref_loss, ref = per_modality_loss_and_grads(model, xs, y)
            assert loss == ref_loss
            assert np.array_equal(out.flat, ref.flat)
            fused, aux, z = model.forward_batch(rows)
            ref_fused, ref_aux, ref_z = per_modality_forward(model, xs)
            assert np.array_equal(fused, ref_fused)
            for got, ref in [*zip(aux, ref_aux), *zip(z, ref_z)]:
                assert got.shape == ref.shape and np.array_equal(got, ref)
            model.flat -= 0.1 * out.flat

    @pytest.mark.parametrize("dims", [(8, 8, 8), (3, 1, 5), (1, 1)])
    @pytest.mark.parametrize("hidden", [1, 16])
    def test_every_entry_of_out_is_written(self, dims, hidden):
        """``train`` reads only ``out.flat``, so each call overwrites all of
        it: a kept gradient model filled with NaN before each batch of 32, 7
        and 1 rows ends equal to a fresh one."""
        rng = np.random.default_rng(13)
        c = 4
        model = FusionModel.init(dims, hidden, c, rng)
        out = FusionModel(dims, hidden, c)
        for batch in (32, 7, 1):
            rows = rng.standard_normal((batch, sum(dims))) * 3
            y = rng.integers(0, c, size=batch)
            out.flat[:] = np.nan
            loss = loss_and_grads(model, rows, y, out)
            assert np.isfinite(out.flat).all()
            fresh = grad_buffer(model)
            assert loss_and_grads(model, rows, y, fresh) == loss
            assert np.array_equal(out.flat, fresh.flat)

    @pytest.mark.parametrize("bad", [3, -1])
    def test_labels_outside_the_classes_rejected(self, bad):
        """A label outside [0, C) would index a logit of another row."""
        rng = np.random.default_rng(11)
        model = FusionModel.init((2, 3), 4, 3, rng)
        out = FusionModel((2, 3), 4, 3)
        x = rng.standard_normal((5, 5))
        y = np.array([0, 1, 2, bad, 0])
        for _ in range(2):  # with a fresh workspace, then a kept one
            with pytest.raises(ValidationError, match=r"class ids in \[0, 3\)"):
                loss_and_grads(model, x, y, out)


class TestTrain:
    def small_setup(self, epochs=4, lr=0.1, seed=3):
        spec = SyntheticSpec(n_classes=3, dims=(4, 3), n_samples=90,
                             imbalance_exponent=0.8, seed=seed)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, epochs, seed=seed)
        config = TrainConfig(learning_rate=lr, epochs=epochs, warmup_epochs=0,
                             batch_size=16, hidden=4)
        return dataset, schedule, config

    def test_zero_learning_rate_keeps_parameters(self):
        dataset, schedule, config = self.small_setup(lr=0.0)
        init = seed_init(dataset, config)
        model = train(dataset, schedule, config, init_model=init)
        assert np.array_equal(init.flat, model.flat)

    @pytest.mark.parametrize("dims, hidden", [((3, 4), 4), ((1, 4), 4)])
    def test_fused_step_matches_per_parameter_loop(self, dims, hidden):
        spec = SyntheticSpec(n_classes=3, dims=dims, n_samples=70,
                             imbalance_exponent=0.8, seed=4)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, 3, seed=4)
        config = TrainConfig(learning_rate=0.1, epochs=3, warmup_epochs=0,
                             batch_size=16, hidden=hidden)
        assert all(rows.size % config.batch_size for rows in schedule)
        init = seed_init(dataset, config)
        model = train(dataset, schedule, config, init, arm="loop")

        # Plain loop: one update per parameter.
        ref = init.copy()
        rng = _stream(dataset.spec.seed, "shuffle-loop")
        for rows in schedule:
            idx = rows[rng.permutation(rows.size)]
            for start in range(0, idx.size, config.batch_size):
                batch = idx[start:start + config.batch_size]
                grad = grad_buffer(ref)
                loss_and_grads(ref, dataset.x[batch], dataset.labels[batch], grad)
                for p, g in zip(tensors(ref), tensors(grad), strict=True):
                    p -= config.learning_rate * g
        assert np.array_equal(model.flat, ref.flat)

    def test_single_sample_converges(self):
        spec = SyntheticSpec(n_classes=2, dims=(3, 3), n_samples=2,
                             imbalance_exponent=0.0, seed=1)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(1, 200, seed=0)
        config = TrainConfig(learning_rate=0.5, epochs=200, warmup_epochs=0,
                             batch_size=1, hidden=4)
        init = seed_init(dataset, config)
        model = train(dataset, schedule, config, init)
        x, y = dataset.x[:1], dataset.labels[:1]
        assert loss_of(model, x, y) < min(0.05, loss_of(init, x, y))

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

        def recording(model, x, y, out):
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


def count_calls(monkeypatch, module, name):
    """The sizes of the first argument of each later call of ``module.name``."""
    sizes, real = [], getattr(module, name)

    def counting(arg):
        sizes.append(len(arg))
        return real(arg)

    monkeypatch.setattr(module, name, counting)
    return sizes


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
        checked = count_calls(monkeypatch, measurer, "check_ids")
        unique = count_calls(monkeypatch, measurer, "check_unique")
        table = score_traces(model, dataset)
        # Every rule per block; across the blocks, only the repeats.
        assert checked == [64] * (n // 64) + [n % 64]
        assert unique == checked + [n]
        assert_tables_equal(table, whole)

    def test_run_seed_schedules_the_blockwise_table(self, monkeypatch):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 64)
        spec = SyntheticSpec(n_classes=3, dims=(4, 1), n_samples=300, seed=2)
        config = TrainConfig(epochs=4, warmup_epochs=1, hidden=5, batch_size=16)
        seen = {"blocks": 0}
        arms = []
        real_train, real_collect, real_build = train, collect_traces, simlab.build_schedule

        # The bench labels a train span by its ``arm`` keyword, so run_seed
        # must pass it by keyword.
        def spy_train(*args, **kwargs):
            assert len(args) == 4 and list(kwargs) == ["arm"], (len(args), kwargs)
            arms.append(kwargs["arm"])
            model = real_train(*args, **kwargs)
            seen.setdefault(kwargs["arm"], (args[0], model))
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
        assert arms == ["warmup", "climd", "baseline"]
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


class TestIntegerFields:
    """Each integer field of the lab's dataclasses refuses a float, a bool or
    a str, naming the field, and takes a numpy integer."""

    FIELDS = [*((SyntheticSpec, name) for name in ("n_classes", "n_samples", "seed", "dims")),
              *((TrainConfig, name) for name in ("epochs", "warmup_epochs", "batch_size",
                                                 "hidden"))]

    @staticmethod
    def make(cls, name, value):
        # Two classes, so that 3 samples cover them; dims holds one int per modality.
        if cls is TrainConfig:
            return cls(**{name: value})
        return cls(**{"n_classes": 2, name: (value, 8) if name == "dims" else value})

    @pytest.mark.parametrize("cls, name", FIELDS)
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_rejected(self, cls, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.make(cls, name, value)

    @pytest.mark.parametrize("cls, name", FIELDS)
    def test_numpy_integer_accepted(self, cls, name):
        assert self.make(cls, name, np.int64(3)) == self.make(cls, name, 3)

    def test_str_dims_rejected(self):
        with pytest.raises(ValidationError, match="^dims must be an integer, got '8'$"):
            SyntheticSpec(dims="88")

    def test_numpy_integer_spec_generates_the_same_dataset(self):
        spec = SyntheticSpec(n_classes=np.int64(3), dims=(np.int64(4), np.int64(3)),
                             n_samples=np.int64(120), imbalance_exponent=1.0,
                             seed=np.int64(5))
        assert np.array_equal(generate_dataset(spec).x, generate_dataset(SMALL_SPEC).x)


class TestFloatFields:
    """Each float field of the lab's dataclasses refuses a str, None or a
    bool, naming the field, and takes a numpy float."""

    FIELDS = [*((SyntheticSpec, name) for name in ("imbalance_exponent", "class_separation",
                                                   "noise_scale", "redundancy")),
              *((TrainConfig, name) for name in ("learning_rate", "gamma"))]

    @pytest.mark.parametrize("cls, name", FIELDS)
    @pytest.mark.parametrize("value", ["0.1", None, True])
    def test_non_number_rejected(self, cls, name, value):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            cls(**{name: value})

    @pytest.mark.parametrize("cls, name", FIELDS)
    def test_numpy_float_accepted(self, cls, name):
        assert cls(**{name: np.float64(0.1)}) == cls(**{name: 0.1})

    @pytest.mark.parametrize("dims", [8, np.int64(8), None])
    def test_scalar_dims_rejected(self, dims):
        message = f"dims must be a sequence of integers, got {dims!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(dims=dims)


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
                             batch_size=16, hidden=8)
        return spec, config, n_seeds

    def test_budget_parity_and_visit_arithmetic(self):
        spec, config, _ = self.tiny()
        scores, visits = run_seed(spec, config, 0)
        assert scores.shape == (len(ARMS), 3) and scores.dtype == np.float64
        assert visits.shape == (len(ARMS),) and visits.dtype == np.int64
        by_arm = dict(zip(ARMS, visits.tolist()))
        assert by_arm["climd"] == by_arm["baseline"]
        # the curriculum budget is the sum of the per-epoch subset sizes
        dataset = generate_dataset(replace(spec, seed=spec.seed))
        train_idx, _ = split_balanced_test(dataset, TEST_FRACTION, spec.seed)
        n = len(train_idx)
        t = config.epochs
        expected = sum(math.floor(e * n / t + 0.5) for e in range(1, t + 1))
        assert by_arm["climd"] == expected

    def test_offset_adds_to_the_spec_seed_alone(self):
        # Every draw comes from the spec's seed, so only the sum counts.
        spec, config, _ = self.tiny()
        a = run_seed(replace(spec, seed=11), config, 1)
        b = run_seed(replace(spec, seed=12), config, 0)
        assert all(map(np.array_equal, a, b))

    def test_no_seeds_rejected(self):
        spec, config, _ = self.tiny()
        with pytest.raises(ValidationError, match="n_seeds must be >= 1, got 0"):
            run_experiment(spec, config, 0)

    def test_rerun_is_identical(self):
        spec, config, n = self.tiny()
        a = run_experiment(spec, config, n)
        b = run_experiment(spec, config, n)
        assert all(map(np.array_equal, a, b))

    def test_parallel_matches_serial(self):
        spec, config, n = self.tiny()
        serial = run_experiment(spec, config, n, max_workers=1)
        parallel = run_experiment(spec, config, n, max_workers=2)
        assert all(map(np.array_equal, serial, parallel))

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
        scores, visits = run_experiment(spec, config, n)
        assert scores.shape == (n, len(ARMS), 3) and scores.dtype == np.float64
        assert visits.shape == (n, len(ARMS)) and visits.dtype == np.int64
        assert ((0.0 <= scores) & (scores <= 1.0)).all()
        means, wins = summarize(scores)
        assert means.shape == (len(ARMS), 3)
        assert wins.shape == (len(ARMS),) and 0 <= wins.sum() <= n

    def test_summary_means_sum_pairwise_and_ties_win_for_no_arm(self):
        scores = np.random.default_rng(3).random((30, 3, 3))
        scores[:4, :, 2] = [[0.5, 0.5, 0.1], [0.2, 0.5, 0.5], [0.5, 0.5, 0.5], [0.1, 0.2, 0.3]]
        scores[4:, 1, 2] = scores[4:, 0, 2]
        means, wins = summarize(scores)
        assert [[np.mean(scores[:, a, k].tolist()) for k in range(3)]
                for a in range(3)] == means.tolist()
        expected = [sum(mf1[a] > max(np.delete(mf1, a)) for mf1 in scores[:, :, 2].tolist())
                    for a in range(3)]
        assert wins.tolist() == expected and expected[1] == 0

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
    # changes any draw, step or metric shows here and not only in reruns:
    # the (seed, arm) scores and visits that run_experiment returns.
    PINNED_SCORES = np.array([
        [[0.7555555555555555, 0.7486277163696518, 0.7486277163696519],
         [0.6888888888888889, 0.6505531505531505, 0.6505531505531505]],
        [[0.7333333333333333, 0.695230217810863, 0.695230217810863],
         [0.7333333333333333, 0.695230217810863, 0.695230217810863]],
    ])
    PINNED_VISITS = np.array([[684, 684], [684, 684]])

    def test_pinned_rows(self):
        spec, config, n = self.tiny()
        scores, visits = run_experiment(spec, config, n)
        assert scores.tolist() == self.PINNED_SCORES.tolist()
        assert visits.tolist() == self.PINNED_VISITS.tolist()

    # tiny()'s setup at 2 and 10 seeds and a two-seed criterion-6 setup as
    # simulate flags.
    TINY = ["--classes", "3", "--dims", "4,4", "--n", "240", "--imbalance", "1.2",
            "--base-seed", "11", "--lr", "0.05", "--epochs", "6", "--warmup", "1",
            "--batch", "16", "--hidden", "8"]
    RUNS = {"tiny": [*TINY, "--seeds", "2"],
            "criterion-6": ["--seeds", "2", "--epochs", "20", "--warmup", "3", "--lr", "0.01"],
            "tiny-10": [*TINY, "--seeds", "10"],
            "one-wide": ["--seeds", "2", "--dims", "3,5,1", "--hidden", "1", "--epochs", "8",
                         "--warmup", "2", "--n", "300", "--lr", "0.05"],
            "equal-hidden-1": ["--seeds", "2", "--dims", "4,4", "--hidden", "1", "--epochs", "8",
                               "--warmup", "2", "--n", "300", "--lr", "0.05"]}
    # The 10-seed summary: a mean over 8 or more seeds can differ in its last
    # bits when the seeds are added one after another instead of pairwise.
    PINNED_SUMMARY = (
        "arm,mean_accuracy,mean_weighted_f1,mean_macro_f1,macro_f1_wins\n"
        "climd,0.7666666666666668,0.7547621094983905,0.7547621094983905,7\n"
        "baseline,0.7333333333333333,0.7169462470471343,0.7169462470471343,2\n")
    # The report of a run through the step's special cases: hidden 1 and a
    # one-wide modality.
    PINNED_ONE_WIDE = (
        "seed,arm,accuracy,weighted_f1,macro_f1,visits\n"
        "0,climd,0.3333333333333333,0.20666666666666667,0.20666666666666664,1216\n"
        "0,baseline,0.3,0.18434782608695655,0.18434782608695652,1216\n"
        "1,climd,0.3,0.2354066985645933,0.2354066985645933,1216\n"
        "1,baseline,0.36666666666666664,0.24242424242424243,0.24242424242424243,1216\n")
    # The same special case, hidden 1, on the stacked path of equal widths.
    PINNED_EQUAL_HIDDEN_1 = (
        "seed,arm,accuracy,weighted_f1,macro_f1,visits\n"
        "0,climd,0.23333333333333334,0.12987012987012986,0.12987012987012986,1216\n"
        "0,baseline,0.2,0.07058823529411766,0.07058823529411765,1216\n"
        "1,climd,0.4666666666666667,0.3352046783625731,0.33520467836257306,1216\n"
        "1,baseline,0.43333333333333335,0.29254955570745045,0.29254955570745045,1216\n")

    def test_other_blas_kernels_give_the_same_reports(self, tmp_path):
        """The pinned rows, 10-seed summary and one-wide reports hold, and
        every report and summary is byte-identical when a child process runs
        OpenBLAS's Haswell or Prescott kernel instead of this process's.
        OPENBLAS_CORETYPE acts on the child alone."""
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
        rows = np.array([line.split(",") for line in
                         (tmp_path / "here" / "tiny" / "report.csv").read_text().splitlines()[1:]])
        assert rows[:, :2].tolist() == [[str(s), arm] for s in (0, 1) for arm in ARMS]
        assert rows[:, 2:5].astype(float).tolist() == self.PINNED_SCORES.reshape(-1, 3).tolist()
        assert rows[:, 5].astype(int).tolist() == self.PINNED_VISITS.reshape(-1).tolist()
        assert (tmp_path / "here" / "tiny-10" / "summary.csv").read_text() == self.PINNED_SUMMARY
        assert (tmp_path / "here" / "one-wide" / "report.csv").read_text() == self.PINNED_ONE_WIDE
        assert ((tmp_path / "here" / "equal-hidden-1" / "report.csv").read_text()
                == self.PINNED_EQUAL_HIDDEN_1)
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
                for csv in ("report.csv", "summary.csv"):
                    assert ((tmp_path / core / name / csv).read_bytes()
                            == (tmp_path / "here" / name / csv).read_bytes()), (core, name, csv)


class TestEvaluate:
    def test_perfect_model_is_perfect(self):
        # Widely separated, nearly noiseless classes: training must nail them.
        spec = SyntheticSpec(n_classes=3, dims=(4, 4), n_samples=60,
                             imbalance_exponent=0.0, class_separation=10.0,
                             noise_scale=0.05, seed=3)
        dataset = generate_dataset(spec)
        schedule = random_baseline_schedule(dataset.n_samples, 80, seed=0)
        config = TrainConfig(learning_rate=0.02, epochs=80, warmup_epochs=0,
                             batch_size=8, hidden=6)
        model = train(dataset, schedule, config, seed_init(dataset, config))
        acc, wf1, mf1 = evaluate(model, dataset.x, dataset.labels)
        assert acc == 1.0 and wf1 == 1.0 and mf1 == 1.0
