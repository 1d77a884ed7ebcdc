"""Desk-scale simulation lab: synthetic imbalanced multimodal data, a small
early-fusion classifier trained with plain SGD, and the end-to-end
curriculum-vs-random comparison.

The classifier is deliberately minimal: one affine encoder per modality
(its activation doubles as the modality embedding), a softmax head on the
concatenated embeddings, and one auxiliary softmax head per modality.
The auxiliary heads exist because difficulty scoring needs per-modality
class probabilities, which a pure fusion head does not expose; they are
trained jointly with equal loss weight. All gradients are closed-form.

Features have one layout, an (n, sum of dims) float64 matrix with the
modalities side by side; the model slices modality m from its column
block ``FusionModel.columns[m]``. Every parameter lives in one flat
float64 buffer, and the named weights, built once per model, are views
into it: copying a model is one buffer copy, and an SGD step scales a
gradient buffer of the same layout by the learning rate in place and
subtracts it from ``flat``. The biases of all heads sit together in it as
one block.
``train`` takes its schedule as any iterable of per-epoch row arrays,
drawn one epoch at a time, and returns the trained model; per epoch it
gathers the shuffled rows once from the dataset's ``x``, and per batch it
takes a view of them and applies one update, starting from a required
init model: ``run_seed`` builds one, and the warm-up and each of ``ARMS``
start from it. ``loss_and_grads`` keeps a workspace of buffers and views
for each of two batch sizes on its gradient model, so a training step
allocates next to nothing. ``forward_batch``, whose outputs escape, runs
each pass in fresh buffers and returns views of them, which
``collect_traces`` hands on as the traces without a copy; both take any
number of rows, 0 too. After the warm-up, ``score_traces`` traces and
scores the train split ``TRACE_CHUNK`` rows at a time. The auxiliary
heads run as one batched matmul and share one softmax with the fused
head; its row max is taken across a transposed copy, which is exact in
any order. When every modality has the same width, as the default dims
do, the encoder pass and the encoder-weight gradient are one stacked
matmul each over an (M, n, D) view of the batch; mixed widths loop over
the modalities. The arithmetic of every sum (summation axes and order,
scale factors) is that of the per-modality formulas, so losses and
gradients are bitwise those of separate per-modality arrays.

Determinism: a lab run has one seed, ``SyntheticSpec.seed``, and every
random draw comes from a named generator derived from (seed, purpose), so
runs with the same seed are bit-identical and independent seeds can
execute in parallel without affecting results.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import fileformats as ff
from .distribution import DEFAULT_GAMMA, ClassDistribution, rank_weights, subset_size
from .errors import ValidationError, check_int, check_number, room_for
from .measurer import DifficultyTable, TraceBatch, join_tables, score_dataset
from .metrics import accuracy, confusion, macro_f1, weighted_f1
from .scheduler import (
    _stream,
    apportion,
    build_schedule,
    largest_remainder,
    random_baseline_schedule,
    truncate_schedule,
)
from .shares import fork_shares, usable_cpus


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Recipe for an imbalanced multimodal Gaussian-mixture dataset.

    ``redundancy`` is the correlation coefficient coupling per-class
    centroids across modalities: 1 makes all modalities carry the same
    class signal (up to dimension padding), 0 makes them independent.
    ``class_separation`` is the mean pairwise distance between class
    centroids within each modality, ``noise_scale`` the per-sample
    isotropic Gaussian noise.
    """

    n_classes: int = 5
    dims: tuple[int, ...] = (8, 8, 8)
    n_samples: int = 2000
    imbalance_exponent: float = 1.5
    class_separation: float = 2.0
    noise_scale: float = 1.0
    redundancy: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "n_samples", "seed"):
            check_int(name, getattr(self, name))
        try:
            check_int("dims", *self.dims)
            n_modalities = len(self.dims)
        except TypeError:
            raise ValidationError(
                f"dims must be a sequence of integers, got {self.dims!r}") from None
        check_number("seed", self.seed, 0)
        if self.n_classes < 2:
            raise ValidationError(f"need >= 2 classes, got {self.n_classes}")
        if n_modalities < 2:
            raise ValidationError(f"need >= 2 modalities, got {n_modalities}")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"all modality dims must be >= 1, got {self.dims}")
        if self.n_samples < self.n_classes:
            raise ValidationError(
                f"n_samples={self.n_samples} cannot cover {self.n_classes} classes"
            )
        check_number("redundancy", self.redundancy, 0.0, high=1.0)
        check_number("imbalance_exponent", self.imbalance_exponent, 0.0)
        check_number("class_separation", self.class_separation, 0.0, strict=True)
        check_number("noise_scale", self.noise_scale, 0.0)


@dataclass
class SyntheticDataset:
    sample_ids: list[str]
    labels: np.ndarray
    x: np.ndarray  # (N, sum of dims), the modalities side by side
    centroids: list[np.ndarray]  # one (C, d_m) array per modality
    spec: SyntheticSpec

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    def take(self, rows) -> "SyntheticDataset":
        """The samples at ``rows``, a slice (whose arrays are views) or an
        index array."""
        ids = (self.sample_ids[rows] if isinstance(rows, slice)
               else [self.sample_ids[i] for i in rows])
        return replace(self, sample_ids=ids, labels=self.labels[rows], x=self.x[rows])


def _columns(dims) -> list[slice]:
    """The column block of each modality in a side-by-side feature matrix."""
    ends = np.cumsum(dims).tolist()
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


def class_sizes(n_total: int, n_classes: int, exponent: float) -> np.ndarray:
    """Integer class sizes following a rank power law, summing to n_total.

    Largest-remainder rounding of the normalized rank^(-exponent) weights,
    then any zero-size class is topped up to 1 at the expense of the
    current largest class.
    """
    if n_total < n_classes:
        raise ValidationError(f"{n_total} samples cannot cover {n_classes} classes")
    sizes = largest_remainder(rank_weights(n_classes, float(exponent)) * n_total, n_total)
    while (sizes == 0).any():
        sizes[int(np.argmax(sizes))] -= 1
        sizes[int(np.argmin(sizes))] += 1
    return sizes


def generate_dataset(spec: SyntheticSpec) -> SyntheticDataset:
    """Class-conditional Gaussian features per modality, deterministic per seed.

    Per-class centroids blend a cross-modality common component and a
    modality-specific one with weights sqrt(redundancy) and
    sqrt(1 - redundancy), then each modality is rescaled so its mean
    pairwise centroid distance equals ``class_separation``. The feature
    matrix is allocated first, so a size with no room fails before any work.
    """
    n, width = spec.n_samples, sum(spec.dims)
    with room_for(f"a dataset of {n} samples x {width} features"):
        x = np.empty((n, width))
    sizes = class_sizes(n, spec.n_classes, spec.imbalance_exponent)
    c = spec.n_classes
    d_max = max(spec.dims)
    common = _stream(spec.seed, "centroids-common").standard_normal((c, d_max))
    rng_specific = _stream(spec.seed, "centroids-specific")
    rho = spec.redundancy
    centroids = []
    for d in spec.dims:
        specific = rng_specific.standard_normal((c, d))
        raw = math.sqrt(rho) * common[:, :d] + math.sqrt(1.0 - rho) * specific
        dists = [
            float(np.linalg.norm(raw[i] - raw[j]))
            for i in range(c) for j in range(i + 1, c)
        ]
        mean_dist = sum(dists) / len(dists)
        centroids.append(raw * (spec.class_separation / mean_dist))

    labels = np.repeat(np.arange(c), sizes)
    digits = max(5, len(str(n)))
    sample_ids = [f"s{i:0{digits}d}" for i in range(n)]
    for mi, col in enumerate(_columns(spec.dims)):
        noise = _stream(spec.seed, f"features-{mi}").standard_normal((n, spec.dims[mi]))
        x[:, col] = centroids[mi][labels] + spec.noise_scale * noise
    return SyntheticDataset(sample_ids=sample_ids, labels=labels, x=x,
                            centroids=centroids, spec=spec)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class FusionModel:
    """Early-fusion classifier with per-modality auxiliary heads.

    encoder m:  z_m = x[:, columns[m]] @ enc_w[m].T + enc_b[m]   (the embedding)
    fused head: softmax(concat(z) @ head_w.T + head_b)
    aux head m: softmax(z_m @ aux_w[m].T + aux_b[m])

    Every parameter lives in the one float64 buffer ``flat``; the named
    attributes are views into it, with the per-modality blocks stacked:
    enc_b (M, H), aux_w (M, C, H), aux_b (M, C). enc_w is a list of (H, d_m)
    views, since the input dims may differ. ``flat`` holds enc_w, enc_b,
    head_w, aux_w, then ``biases``, the (M+1, C) block of head_b followed by
    aux_b, so that one op adds or sums the biases of every head. The views
    and the transposes the passes use are built once, with the model.

    When every modality has the same width D, the enc_w block is also the
    (M, H, D) view ``_enc_w_stack`` and a batch is the (M, n, D) view of
    ``_modalities``, so the encoder pass and the enc_w gradient are one
    stacked matmul each. It is bitwise the per-modality loop: item m of
    each stacked operand has the shape and strides of modality m's own
    operand, and numpy makes the same BLAS call for each item that the
    loop makes. Mixed widths keep the loop.
    """

    def __init__(self, dims, hidden: int, n_classes: int,
                 flat: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        self.hidden = int(hidden)
        self.n_classes = int(n_classes)
        self.columns = _columns(self.dims)
        m, h, c = len(self.dims), self.hidden, self.n_classes
        shapes = [(h, d) for d in self.dims] + [(m, h), (c, m * h), (m, c, h), (m + 1, c)]
        # Python ints: a float64 or int64 cumsum would round or wrap huge sizes.
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        with room_for(f"a model of {ends[-1]} parameters"):
            self.flat = np.zeros(ends[-1]) if flat is None else flat
        (*self.enc_w, self.enc_b, self.head_w, self.aux_w, self.biases) = [
            part.reshape(shape) for part, shape in zip(np.split(self.flat, ends[:-1]), shapes)]
        self.head_b, self.aux_b = self.biases[0], self.biases[1:]
        d = self.dims[0]
        self._enc_w_stack = (self.flat[:m * h * d].reshape(m, h, d)
                             if self.dims == (d,) * m else None)
        self._enc_w_t = ([w.T for w in self.enc_w] if self._enc_w_stack is None
                         else self._enc_w_stack.transpose(0, 2, 1))
        self._enc_b_row = self.enc_b.reshape(-1)
        self._head_w_t = self.head_w.T
        self._aux_w_t = self.aux_w.transpose(0, 2, 1)
        self._bias_rows = self.biases[:, None, :]
        # loss_and_grads' workspaces by batch size, when this model holds gradients.
        self._steps: dict[int, _Step] = {}

    @classmethod
    def init(cls, dims, hidden: int, n_classes: int,
             rng: np.random.Generator) -> "FusionModel":
        model = cls(dims, hidden, n_classes)
        m = model.n_modalities
        for w, d in zip(model.enc_w, model.dims):
            w[...] = rng.standard_normal((hidden, d)) / math.sqrt(d)
        model.head_w[...] = (rng.standard_normal((n_classes, m * hidden))
                             / math.sqrt(m * hidden))
        model.aux_w[...] = rng.standard_normal((m, n_classes, hidden)) / math.sqrt(hidden)
        return model

    @property
    def n_modalities(self) -> int:
        return len(self.dims)

    def copy(self) -> "FusionModel":
        return FusionModel(self.dims, self.hidden, self.n_classes, self.flat.copy())

    def _modalities(self, x: np.ndarray):
        """Modality m's columns of ``x`` as item m: one (M, n, D) view when
        the widths are equal, else a list of (n, d_m) views."""
        if self._enc_w_stack is None:
            return [x[:, col] for col in self.columns]
        return x.reshape(x.shape[0], self.n_modalities, self.dims[0]).transpose(1, 0, 2)

    def _forward(self, x: np.ndarray, work: _Forward | None = None) -> _Forward:
        """The pass over the rows of ``x``, any number of them, run in the
        buffers of ``work`` (fresh ones unless given), which it returns:
        ``xm`` is ``_modalities(x)``, ``zcat`` the side-by-side embeddings
        and ``logits`` the fused then the per-modality probabilities.

        The softmax takes the max of each row from a (C, rows) transposed
        copy, as one reduction across contiguous rows: a max is exact in
        any order. Its sum stays a reduction along each row, since the
        order of a sum shows in its last bits."""
        width = self.columns[-1].stop
        if x.ndim != 2 or x.shape[1] != width:
            raise ValidationError(
                f"model takes an (n, {width}) matrix of its {self.n_modalities} "
                f"modalities side by side, got shape {x.shape}"
            )
        if work is None:
            work = _Forward(self, x.shape[0])
        work.xm = xm = self._modalities(x)
        if self._enc_w_stack is None:
            for x_m, w_t, z in zip(xm, self._enc_w_t, work.zm):
                np.matmul(x_m, w_t, out=z)
        else:
            np.matmul(xm, self._enc_w_t, out=work.zm)
        work.zcat += self._enc_b_row
        # np.dot costs less per call than matmul; it needs a contiguous out.
        np.dot(work.zcat, self._head_w_t, out=work.fused)
        np.matmul(work.zm, self._aux_w_t, out=work.aux)
        work.logits += self._bias_rows
        rows = work.rows
        np.copyto(work.by_class, rows.T)
        np.maximum.reduce(work.by_class, axis=0, out=work.row_stat[:, 0])
        rows -= work.row_stat
        np.exp(rows, out=rows)
        np.add.reduce(rows, axis=-1, keepdims=True, out=work.row_stat)
        rows /= work.row_stat
        return work

    @np.errstate(over="ignore", invalid="ignore")
    def forward_batch(self, x: np.ndarray):
        """(fused probs, per-modality probs, per-modality embeddings) of the
        rows of ``x``, the (n, sum of dims) matrix of the modalities, as
        (n, C), (M, n, C) and (M, n, H) views of a fresh pass's own
        buffers. Any row count works, 0 too."""
        work = self._forward(x)
        if not (np.isfinite(work.logits).all() and np.isfinite(work.zcat).all()):
            raise ValidationError("model outputs are not finite: training diverged")
        return work.fused, work.aux, work.zm


def _per_modality(zcat: np.ndarray, m: int, h: int) -> np.ndarray:
    """(n, M*H) side-by-side embeddings as an (M, n, H) view."""
    return zcat.reshape(zcat.shape[0], m, h).transpose(1, 0, 2)


class _Forward:
    """The buffers of one forward pass over n rows and their views, and the pass's ``xm``."""

    def __init__(self, model: FusionModel, n: int):
        m, c = model.n_modalities, model.n_classes
        self.zcat = np.empty((n, m * model.hidden))
        self.zm = _per_modality(self.zcat, m, model.hidden)
        self.logits = np.empty((m + 1, n, c))
        self.fused, self.aux = self.logits[0], self.logits[1:]
        self.rows = self.logits.reshape(-1, c)
        self.by_class = np.empty((c, (m + 1) * n))
        self.row_stat = np.empty(((m + 1) * n, 1))


class _Step(_Forward):
    """A forward pass's buffers plus those of the loss and gradients of n
    rows: the workspace of every training step on a batch of that size."""

    def __init__(self, model: FusionModel, n: int):
        super().__init__(model, n)
        m = model.n_modalities
        self.dz = np.empty_like(self.zcat)
        self.dzm = _per_modality(self.dz, m, model.hidden)
        self.aux_dz = np.empty_like(self.zm)
        # Each head's row of each sample in ``rows``; with the labels, the
        # flat index of its true class.
        self.row_ids = np.arange((m + 1) * n).reshape(m + 1, n)
        self.picked = np.empty((m + 1, n))
        self.delta = np.empty((m + 1, n))
        self.scale = np.array([n] + [n * m] * m, dtype=float).reshape(-1, 1, 1)
        self.flat_logits = self.logits.reshape(-1)
        self.fused_t = self.fused.T
        self.aux_t = self.aux.transpose(0, 2, 1)


def loss_and_grads(model: FusionModel, x: np.ndarray, y: np.ndarray,
                   out: FusionModel) -> float:
    """Batch loss of the rows of ``x`` (column block ``model.columns[m]`` is
    modality m) and their class ids ``y``, each in [0, C); any other label
    raises a ``ValidationError``, as does a batch of no rows, which has no
    mean loss.

    The analytic gradient is written into ``out``, a model of the same
    shape used as a buffer: ``out.flat`` is laid out like ``model.flat``
    and each named view of ``out`` is its parameter's gradient. ``out``
    also keeps a workspace of buffers and views for each of its last two
    batch sizes, so a step on a kept size allocates next to nothing.
    """
    m = model.n_modalities
    h = model.hidden
    n = y.size
    if n == 0:
        raise ValidationError("loss_and_grads needs a batch of at least one row")
    work = out._steps.get(n)
    if work is None:
        # An epoch has at most two batch sizes, but its last batch's size
        # changes from epoch to epoch: keep the largest size and the latest.
        if len(out._steps) == 2:
            del out._steps[min(out._steps)]
        work = out._steps[n] = _Step(out, n)
    model._forward(x, work)

    try:
        true = np.ravel_multi_index((work.row_ids, y), work.rows.shape)
    except ValueError:
        raise ValidationError(f"labels must be class ids in [0, {model.n_classes}), "
                              f"got {np.min(y)}..{np.max(y)}") from None
    # Contiguous, so each head's mean is the pairwise sum over its own row.
    picked = work.flat_logits.take(true, out=work.picked)
    # logits[0] becomes the fused head's logit gradient, logits[1:] the aux heads'.
    work.flat_logits.put(true, np.subtract(picked, 1.0, out=work.delta))
    np.maximum(picked, 1e-300, out=picked)
    log_sums = np.add.reduce(np.log(picked, out=picked), axis=1).tolist()
    loss = -(log_sums[0] / n)
    for log_sum in log_sums[1:]:
        loss += -(log_sum / n) / m

    work.logits /= work.scale
    np.dot(work.fused_t, work.zcat, out=out.head_w)
    np.add.reduce(work.logits, axis=1, out=out.biases)
    np.dot(work.fused, model.head_w, out=work.dz)
    np.matmul(work.aux, model.aux_w, out=work.aux_dz)
    work.dzm += work.aux_dz
    xm, zm, dzm = work.xm, work.zm, work.dzm
    # A one-wide operand makes matmul a gemv and a column sum a pairwise
    # one, and those add up a strided operand in another order than a
    # contiguous one. Contiguous copies keep every gradient bitwise equal
    # to the per-modality formulas on separate arrays.
    if h == 1:
        zm, dzm = np.ascontiguousarray(zm), np.ascontiguousarray(dzm)
    np.add.reduce(dzm, axis=1, out=out.enc_b)
    np.matmul(work.aux_t, zm, out=out.aux_w)
    if out._enc_w_stack is None:
        for x_m, dz_m, g in zip(xm, dzm, out.enc_w):
            if h == 1 or x_m.shape[1] == 1:
                x_m, dz_m = np.ascontiguousarray(x_m), np.ascontiguousarray(dz_m)
            np.matmul(dz_m.T, x_m, out=g)
    else:
        # Item m of the stacked copies is modality m's contiguous copy.
        if h == 1 or model.dims[0] == 1:
            xm, dzm = np.ascontiguousarray(xm), np.ascontiguousarray(dzm)
        np.matmul(dzm.transpose(0, 2, 1), xm, out=out._enc_w_stack)

    return loss


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 20
    warmup_epochs: int | None = None  # None -> max(1, epochs // 10)
    batch_size: int = 32
    hidden: int = 16
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        for name in ("epochs", "batch_size", "hidden"):
            check_int(name, getattr(self, name))
        if self.warmup_epochs is not None:
            check_int("warmup_epochs", self.warmup_epochs)
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.warmup_epochs is not None and self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be >= 0")
        check_number("learning_rate", self.learning_rate, 0.0)
        check_number("gamma", self.gamma, 0.0, strict=True)
        if self.batch_size < 1 or self.hidden < 1:
            raise ValidationError("batch_size and hidden must be >= 1")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return max(1, self.epochs // 10)


def evaluate(model: FusionModel, x: np.ndarray, y: np.ndarray):
    """(accuracy, weighted F1, macro F1) of argmax fused predictions."""
    fused, _, _ = model.forward_batch(x)
    pred = fused.argmax(axis=1)
    cm = confusion(y, pred, model.n_classes)
    return accuracy(cm), weighted_f1(cm), macro_f1(cm)


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: SyntheticDataset, epochs: Iterable[np.ndarray], config: TrainConfig,
          init_model: FusionModel, arm: str = "train") -> FusionModel:
    """SGD from a copy of ``init_model``, which must have the dataset's dims
    and classes, over ``epochs``, any iterable of per-epoch row arrays
    (drawn one at a time, so a generator is never held whole): each epoch
    visits exactly the rows of its array, shuffled by the generator of the
    dataset's seed and ``arm``. Returns the model.

    Each epoch gathers its shuffled rows and labels from the dataset once.
    Each batch is a view of consecutive rows of that gather, one
    ``loss_and_grads`` call into a gradient buffer reused by every batch,
    and one update of the flat parameters by the buffer scaled in place
    (none when the learning rate is 0).

    An epoch raises before its first step if it references a row outside
    the dataset, and after its last if a batch loss or parameter is not
    finite; a batch raises if a label is not a class id.
    """
    want = (tuple(dataset.spec.dims), dataset.spec.n_classes)
    if (init_model.dims, init_model.n_classes) != want:
        raise ValidationError(f"init model has (dims, classes) "
                              f"{(init_model.dims, init_model.n_classes)}, the dataset {want}")
    n, labels = dataset.n_samples, dataset.labels
    model = init_model.copy()
    grad = FusionModel(model.dims, model.hidden, model.n_classes)
    rng = _stream(dataset.spec.seed, f"shuffle-{arm}")
    size, lr = config.batch_size, config.learning_rate
    for t, rows in enumerate(epochs, start=1):
        outside = rows[(rows < 0) | (rows >= n)]
        if outside.size:
            raise ValidationError(
                f"epoch {t} references rows outside the dataset's {n} samples: "
                f"{outside[:5].tolist()}"
            )
        idx = rows[rng.permutation(rows.size)]
        x, y = dataset.x[idx], labels[idx]
        # Batch losses are bounded when finite, so the sum is finite iff all are.
        loss_sum = 0.0
        for start in range(0, idx.size, size):
            stop = start + size
            loss_sum += loss_and_grads(model, x[start:stop], y[start:stop], grad)
            if lr != 0.0:
                grad.flat *= lr
                model.flat -= grad.flat
        if not (math.isfinite(loss_sum) and np.isfinite(model.flat).all()):
            raise ValidationError(f"training diverged: arm {arm!r} at epoch {t} has a "
                                  f"non-finite loss or parameter (try a smaller learning rate)")
    return model


def collect_traces(model: FusionModel, dataset: SyntheticDataset) -> TraceBatch:
    """Traces of every sample, of any number: the auxiliary-head
    probabilities (n, M, C) and the encoder activations (n, M, H) as
    embeddings, both views of the forward pass's own buffers rather than
    copies. Deterministic."""
    _, aux, z = model.forward_batch(dataset.x)
    return TraceBatch(ids=dataset.sample_ids, labels=dataset.labels,
                      probs=aux.transpose(1, 0, 2), emb=z.transpose(1, 0, 2))


def score_traces(model: FusionModel, dataset: SyntheticDataset) -> DifficultyTable:
    """The difficulty table of every sample's traces, collected and scored
    ``TRACE_CHUNK`` rows at a time, as ``climd pipeline`` scores a trace
    file, so that only the scores of earlier blocks stay resident.

    It equals ``score_dataset(collect_traces(model, dataset))`` bitwise.
    Rows are scored independently. A BLAS kernel works on blocks of a
    power-of-two number of rows, and a row's activations can depend on
    its place in that block; every block here starts at a multiple of
    ``TRACE_CHUNK``, a power of two, so each row keeps its place. The ids
    are checked once per block, and only for repeats across blocks. A
    dataset of no rows is one empty block, as an empty trace file is.
    """
    size = ff.TRACE_CHUNK
    tables = []
    for lo in range(0, max(dataset.n_samples, 1), size):
        block = dataset.take(slice(lo, lo + size))
        tables.append(score_dataset(collect_traces(model, block)))
    return join_tables(tables)


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

# The arms every seed trains: the curriculum, and the random baseline with
# its visit budget. Their order is that of the arm axis of every result.
ARMS = ("climd", "baseline")

# The share of the minority class that each class holds out for testing.
TEST_FRACTION = 0.4


def split_balanced_test(dataset: SyntheticDataset, test_fraction: float,
                        seed: int):
    """Stratified test split with an equal per-class count bounded by what
    the minority class can spare. Returns (train_idx, test_idx)."""
    labels = dataset.labels
    classes, counts = np.unique(labels, return_counts=True)
    n_min = int(counts.min())
    per_class = max(1, int(round(test_fraction * n_min)))
    per_class = min(per_class, n_min - 1)
    if per_class < 1:
        raise ValidationError("minority class too small to hold out a test set")
    rng = _stream(seed, "split")
    test_idx = []
    for cid in classes:
        members = np.flatnonzero(labels == cid)
        picked = rng.choice(members, size=per_class, replace=False)
        test_idx.append(np.sort(picked))
    test_idx = np.concatenate(test_idx)
    mask = np.ones(dataset.n_samples, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def uniform_warmup_schedule(labels, n_epochs: int, epoch_size: int,
                            seed: int) -> Iterator[np.ndarray]:
    """Class-balanced warm-up over the rows of ``labels``: each epoch's rows
    are an (approximately) equal number of samples per class, fresh random
    picks per epoch. The epochs are drawn lazily, one per ``next``."""
    labels = np.asarray(labels)
    class_ids, caps = np.unique(labels, return_counts=True)
    members = [np.flatnonzero(labels == cid) for cid in class_ids]
    q = np.full(class_ids.size, 1.0 / class_ids.size)
    rng = _stream(seed, "warmup-order")
    counts = apportion(q, min(epoch_size, int(caps.sum())), caps)
    return (np.concatenate([rows[np.sort(rng.choice(rows.size, size=int(k), replace=False))]
                            for rows, k in zip(members, counts)])
            for _ in range(n_epochs))


def run_seed(spec: SyntheticSpec, config: TrainConfig,
             offset: int) -> tuple[np.ndarray, np.ndarray]:
    """One full comparison at seed ``spec.seed + offset``, from which
    every draw comes: generate, split, init, warm up, score, schedule, then
    train and evaluate each of ``ARMS``, all from the warm-up's one init
    model. Returns the arms' (A, 3) test scores and (A,) visits, each
    counted from the arm's own epochs."""
    dspec = replace(spec, seed=spec.seed + offset)
    seed = dspec.seed
    dataset = generate_dataset(dspec)
    train_idx, test_idx = split_balanced_test(dataset, TEST_FRACTION, seed)
    trainset = dataset.take(train_idx)
    test = dataset.take(test_idx)
    n_train = trainset.n_samples
    init = FusionModel.init(dspec.dims, config.hidden, dspec.n_classes, _stream(seed, "init"))

    # Warm-up pass: trains a throwaway model just to produce traces.
    warm_epoch_size = subset_size(1, config.epochs, n_train)
    warm_schedule = uniform_warmup_schedule(trainset.labels, config.resolved_warmup,
                                            warm_epoch_size, seed)
    warm_model = train(trainset, warm_schedule, config, init, arm="warmup")
    table = score_traces(warm_model, trainset)
    dist = ClassDistribution.from_labels(trainset.labels, config.gamma)

    schedule = build_schedule(table, dist, config.epochs)
    budget = int(schedule.counts.sum())
    baseline = truncate_schedule(
        random_baseline_schedule(n_train, math.ceil(budget / n_train), seed), budget)
    arms = {"climd": (map(schedule.epoch, range(1, config.epochs + 1)), budget),
            "baseline": (baseline, sum(rows.size for rows in baseline))}

    scores = np.empty((len(ARMS), 3))
    visits = np.empty(len(ARMS), dtype=np.int64)
    for a, arm in enumerate(ARMS):
        epochs, visits[a] = arms[arm]
        scores[a] = evaluate(train(trainset, epochs, config, init, arm=arm), test.x, test.labels)
    assert (visits == budget).all()
    return scores, visits


def run_experiment(spec: SyntheticSpec, config: TrainConfig, n_seeds: int,
                   max_workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``ARMS`` over ``n_seeds`` seeds: the (S, A, 3) float64 test
    scores (accuracy, weighted F1, macro F1) and the (S, A) int64 visits,
    indexed by seed offset, then arm in ``ARMS`` order.

    Seeds are dealt out to ``max_workers`` shares, capped at one per seed
    and per CPU this process may use, which run on forked processes
    (:func:`~climd.shares.fork_shares`). Results are merged in seed order,
    so parallelism never changes the report.
    """
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    with room_for(f"{n_seeds} seeds"):
        scores = np.empty((n_seeds, len(ARMS), 3))
        visits = np.empty((n_seeds, len(ARMS)), dtype=np.int64)
    k = min(max_workers, n_seeds, usable_cpus())
    per_seed = fork_shares(
        lambda w: (run_seed(spec, config, s) for s in range(w, n_seeds, k)), k)
    np.stack([s for s, _ in per_seed], out=scores)
    np.stack([v for _, v in per_seed], out=visits)
    return scores, visits


def summarize(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (A, 3) mean over the seeds of (S, A, 3) scores, and the (A,)
    count of seeds where an arm's macro F1 beats every other arm's. A mean
    sums its seeds pairwise, as the mean of a list does; an axis-0 mean adds
    them one after another, which can differ in the last bit from 8 seeds on."""
    means = np.ascontiguousarray(scores.transpose(1, 2, 0)).mean(axis=-1)
    macro = scores[:, :, 2]
    best = macro == macro.max(axis=1, keepdims=True)
    wins = (best & (best.sum(axis=1, keepdims=True) == 1)).sum(axis=0)
    return means, wins
