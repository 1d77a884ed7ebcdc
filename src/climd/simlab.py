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
float64 buffer, laid out in ``FusionModel.params()`` order, and the named
weights are views into it: copying a model is one buffer copy, and an SGD
step is one ``flat -= lr * grad`` against a gradient buffer of the same
layout. ``train`` takes its schedule as a list of per-epoch row arrays;
per batch it gathers the rows once from the dataset's ``x`` and applies
that one update, starting from a required init model: ``run_seed``
builds one, and the warm-up and both arms start from it.
The auxiliary heads run as one batched matmul and share one softmax with
the fused head. The arithmetic (summation axes and order, scale factors)
is that of the per-modality formulas, so losses and gradients are bitwise
those of separate per-modality arrays.

Determinism: every random draw comes from a named generator derived from
(seed, purpose), so runs with the same seeds are bit-identical and
independent seeds can execute in parallel without affecting results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distribution import ClassDistribution, rank_weights, subset_size
from .errors import ValidationError, check_number
from .measurer import TraceBatch, score_dataset
from .metrics import accuracy, confusion, macro_f1, weighted_f1
from .scheduler import (
    _stream,
    apportion,
    build_queues,
    build_schedule,
    largest_remainder,
    random_baseline_schedule,
    truncate_schedule,
)


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
        check_number("seed", self.seed, 0)
        if self.n_classes < 2:
            raise ValidationError(f"need >= 2 classes, got {self.n_classes}")
        if len(self.dims) < 2:
            raise ValidationError(f"need >= 2 modalities, got {len(self.dims)}")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"all modality dims must be >= 1, got {self.dims}")
        if self.n_samples < self.n_classes:
            raise ValidationError(
                f"n_samples={self.n_samples} cannot cover {self.n_classes} classes"
            )
        if not 0.0 <= self.redundancy <= 1.0:
            raise ValidationError(f"redundancy must be in [0, 1], got {self.redundancy}")
        check_number("imbalance_exponent", self.imbalance_exponent, 0.0)
        check_number("class_separation", self.class_separation, 0.0, strict=True)
        check_number("noise_scale", self.noise_scale, 0.0)

    @property
    def n_modalities(self) -> int:
        return len(self.dims)


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
    pairwise centroid distance equals ``class_separation``.
    """
    sizes = class_sizes(spec.n_samples, spec.n_classes, spec.imbalance_exponent)
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
    n = int(sizes.sum())
    width = max(5, len(str(n)))
    sample_ids = [f"s{i:0{width}d}" for i in range(n)]
    x = np.empty((n, sum(spec.dims)))
    for mi, col in enumerate(_columns(spec.dims)):
        noise = _stream(spec.seed, f"features-{mi}").standard_normal((n, spec.dims[mi]))
        x[:, col] = centroids[mi][labels] + spec.noise_scale * noise
    return SyntheticDataset(sample_ids=sample_ids, labels=labels, x=x,
                            centroids=centroids, spec=spec)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


class FusionModel:
    """Early-fusion classifier with per-modality auxiliary heads.

    encoder m:  z_m = x[:, columns[m]] @ enc_w[m].T + enc_b[m]   (the embedding)
    fused head: softmax(concat(z) @ head_w.T + head_b)
    aux head m: softmax(z_m @ aux_w[m].T + aux_b[m])

    Every parameter lives in the one float64 buffer ``flat``, laid out in
    ``params()`` order; the named attributes are views into it, with the
    per-modality blocks stacked: enc_b (M, H), aux_w (M, C, H), aux_b (M, C).
    enc_w is a list of (H, d_m) views, since the input dims may differ.
    """

    def __init__(self, dims, hidden: int, n_classes: int,
                 flat: np.ndarray | None = None):
        self.dims = tuple(int(d) for d in dims)
        self.hidden = int(hidden)
        self.n_classes = int(n_classes)
        self.columns = _columns(self.dims)
        m, h, c = len(self.dims), self.hidden, self.n_classes
        shapes = [(h, d) for d in self.dims] + [(m, h), (c, m * h), (c,), (m, c, h), (m, c)]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        (*self.enc_w, self.enc_b, self.head_w, self.head_b, self.aux_w, self.aux_b) = [
            part.reshape(shape) for part, shape in zip(np.split(self.flat, ends[:-1]), shapes)]

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

    def params(self) -> list[np.ndarray]:
        return [*self.enc_w, *self.enc_b, self.head_w, self.head_b,
                *self.aux_w, *self.aux_b]

    def _forward(self, x: np.ndarray):
        """(zcat, probs): the embeddings side by side as (n, M*H), and the
        fused then the per-modality class probabilities as (M+1, n, C)."""
        width = self.columns[-1].stop
        if x.ndim != 2 or x.shape[1] != width:
            raise ValidationError(
                f"model takes an (n, {width}) matrix of its {self.n_modalities} "
                f"modalities side by side, got shape {x.shape}"
            )
        m, h = self.n_modalities, self.hidden
        n = x.shape[0]
        zcat = np.empty((n, m * h))
        for mi, (col, w) in enumerate(zip(self.columns, self.enc_w)):
            np.matmul(x[:, col], w.T, out=zcat[:, mi * h:(mi + 1) * h])
        zcat += self.enc_b.reshape(-1)
        logits = np.empty((m + 1, n, self.n_classes))
        np.matmul(zcat, self.head_w.T, out=logits[0])
        logits[0] += self.head_b
        np.matmul(_per_modality(zcat, m), self.aux_w.transpose(0, 2, 1), out=logits[1:])
        logits[1:] += self.aux_b[:, None, :]
        return zcat, _softmax_inplace(logits)

    @np.errstate(over="ignore", invalid="ignore")
    def forward_batch(self, x: np.ndarray):
        """(fused probs, per-modality probs, per-modality embeddings) of the
        rows of ``x``, the (n, sum of dims) matrix of the modalities."""
        zcat, probs = self._forward(x)
        if not (np.isfinite(probs).all() and np.isfinite(zcat).all()):
            raise ValidationError("model outputs are not finite: training diverged")
        return probs[0], probs[1:], _per_modality(zcat, self.n_modalities)


def _per_modality(zcat: np.ndarray, m: int) -> np.ndarray:
    """(n, M*H) side-by-side embeddings as an (M, n, H) view."""
    n = zcat.shape[0]
    return zcat.reshape(n, m, -1).transpose(1, 0, 2)


def loss_and_grads(model: FusionModel, x: np.ndarray, y: np.ndarray,
                   out: FusionModel | None = None):
    """Batch loss and its analytic gradients, ordered like model.params(),
    of the rows of ``x`` (column block ``model.columns[m]`` is modality m).

    The gradients are the parameters of ``out``, a model of the same shape
    used as a buffer (a fresh one unless given), so they are views of the
    one flat array ``out.flat``, laid out like ``model.flat``.
    """
    m = model.n_modalities
    h = model.hidden
    n = y.size
    zcat, probs = model._forward(x)

    # Contiguous, so each head's mean is the pairwise sum over its own row.
    picked = np.ascontiguousarray(probs[:, np.arange(n), y])
    log_sums = np.add.reduce(np.log(np.maximum(picked, 1e-300)), axis=1).tolist()
    loss = -(log_sums[0] / n)
    for log_sum in log_sums[1:]:
        loss += -(log_sum / n) / m

    if out is None:
        out = FusionModel(model.dims, h, model.n_classes)
    # d[0] is the fused head's logit gradient, d[1:] the auxiliary heads'.
    d = probs
    d -= np.eye(model.n_classes)[y]
    d /= np.array([n] + [n * m] * m, dtype=float)[:, None, None]
    np.matmul(d[0].T, zcat, out=out.head_w)
    np.add.reduce(d[0], axis=0, out=out.head_b)
    dz = d[0] @ model.head_w  # (n, M*H)
    dzm = _per_modality(dz, m)
    dzm += d[1:] @ model.aux_w
    zm = _per_modality(zcat, m)
    # A one-wide operand makes matmul a gemv and a column sum a pairwise
    # one, and those add up a strided operand in another order than a
    # contiguous one. Contiguous copies keep every gradient bitwise equal
    # to the per-modality formulas on separate arrays.
    if h == 1:
        zm, dzm = np.ascontiguousarray(zm), np.ascontiguousarray(dzm)
    np.matmul(d[1:].transpose(0, 2, 1), zm, out=out.aux_w)
    np.add.reduce(d[1:], axis=1, out=out.aux_b)
    np.add.reduce(dzm, axis=1, out=out.enc_b)
    for col, dz_m, g in zip(model.columns, dzm, out.enc_w):
        xm = x[:, col]
        if h == 1 or xm.shape[1] == 1:
            xm, dz_m = np.ascontiguousarray(xm), np.ascontiguousarray(dz_m)
        np.matmul(dz_m.T, xm, out=g)

    return loss, out.params()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    epochs: int = 100
    warmup_epochs: int | None = None  # None -> max(1, epochs // 10)
    batch_size: int = 32
    hidden: int = 16
    gamma: float = 0.3
    test_fraction: float = 0.4
    refresh_every: int = 0  # re-score difficulty every k epochs; 0 = once
    seed: int = 0

    def __post_init__(self):
        check_number("seed", self.seed, 0)
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.warmup_epochs is not None and self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be >= 0")
        check_number("learning_rate", self.learning_rate, 0.0)
        check_number("gamma", self.gamma, 0.0, strict=True)
        check_number("test_fraction", self.test_fraction, 0.0, strict=True, below=1.0)
        if self.batch_size < 1 or self.hidden < 1:
            raise ValidationError("batch_size and hidden must be >= 1")
        if self.refresh_every < 0:
            raise ValidationError("refresh_every must be >= 0")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return max(1, self.epochs // 10)


@dataclass
class EpochStats:
    t: int
    visits: int
    mean_loss: float
    test_accuracy: float | None = None
    test_weighted_f1: float | None = None
    test_macro_f1: float | None = None


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    visited: list[np.ndarray] | None = None  # per-epoch row visit order when recorded


def evaluate(model: FusionModel, x: np.ndarray, y: np.ndarray):
    """(accuracy, weighted F1, macro F1) of argmax fused predictions."""
    fused, _, _ = model.forward_batch(x)
    pred = fused.argmax(axis=1)
    cm = confusion(y, pred, model.n_classes)
    return accuracy(cm), weighted_f1(cm), macro_f1(cm)


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: SyntheticDataset, epochs: list[np.ndarray], config: TrainConfig,
          init_model: FusionModel, eval_set=None, arm: str = "train",
          record_visits: bool = False, first_epoch: int = 1):
    """SGD from a copy of ``init_model``, which must have the dataset's dims
    and classes, over ``epochs``: each epoch visits exactly the rows of its
    array, shuffled by a seeded generator. Epochs are numbered from
    ``first_epoch`` in the history and in errors. Returns (model, history).

    Each batch is one gather from ``dataset.x``, one ``loss_and_grads``
    call into a gradient buffer reused by every batch, and one update of
    the flat parameters (none when the learning rate is 0).

    ``eval_set`` is an optional (x, y) pair evaluated after every epoch.
    An epoch that ends with a non-finite batch loss or parameter raises.
    """
    want = (tuple(dataset.spec.dims), dataset.spec.n_classes)
    if (init_model.dims, init_model.n_classes) != want:
        raise ValidationError(f"init model has (dims, classes) "
                              f"{(init_model.dims, init_model.n_classes)}, the dataset {want}")
    n = dataset.n_samples
    for t, rows in enumerate(epochs, start=first_epoch):
        outside = rows[(rows < 0) | (rows >= n)]
        if outside.size:
            raise ValidationError(
                f"epoch {t} references rows outside the dataset's {n} samples: "
                f"{outside[:5].tolist()}"
            )

    model = init_model.copy()
    grad = FusionModel(model.dims, model.hidden, model.n_classes)
    rng = _stream(config.seed, f"shuffle-{arm}")
    history = TrainHistory(visited=[] if record_visits else None)
    for t, rows in enumerate(epochs, start=first_epoch):
        idx = rows[rng.permutation(rows.size)]
        if record_visits:
            history.visited.append(idx)
        losses = []
        for start in range(0, idx.size, config.batch_size):
            batch = idx[start:start + config.batch_size]
            loss, _ = loss_and_grads(model, dataset.x[batch], dataset.labels[batch],
                                     out=grad)
            losses.append(loss)
            if config.learning_rate != 0.0:
                model.flat -= config.learning_rate * grad.flat
        if not (np.isfinite(losses).all() and np.isfinite(model.flat).all()):
            raise ValidationError(f"training diverged: arm {arm!r} at epoch {t} has a "
                                  f"non-finite loss or parameter (try a smaller learning rate)")
        stats = EpochStats(t=t, visits=int(idx.size),
                           mean_loss=float(np.mean(losses)) if losses else float("nan"))
        if eval_set is not None:
            stats.test_accuracy, stats.test_weighted_f1, stats.test_macro_f1 = \
                evaluate(model, *eval_set)
        history.epochs.append(stats)
    return model, history


def collect_traces(model: FusionModel, dataset: SyntheticDataset) -> TraceBatch:
    """Traces of every sample: auxiliary-head probabilities plus the
    encoder activations as embeddings. Deterministic."""
    _, aux, z = model.forward_batch(dataset.x)
    return TraceBatch(ids=dataset.sample_ids, labels=dataset.labels,
                      probs=np.stack(aux, axis=1), emb=np.stack(z, axis=1))


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

@dataclass
class ArmResult:
    seed: int
    arm: str
    accuracy: float
    weighted_f1: float
    macro_f1: float
    visits: int


@dataclass
class ExperimentReport:
    rows: list[ArmResult]
    seeds: list[int]
    wins: int  # seeds where the curriculum arm's macro F1 beats the baseline's
    baseline_wins: int  # and where the baseline's beats the curriculum arm's

    def mean(self, arm: str, metric: str) -> float:
        return float(np.mean([getattr(r, metric) for r in self.rows if r.arm == arm]))


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
                            seed: int) -> list[np.ndarray]:
    """Class-balanced warm-up over the rows of ``labels``: each epoch's rows
    are an (approximately) equal number of samples per class, fresh random
    picks per epoch."""
    labels = np.asarray(labels)
    class_ids, caps = np.unique(labels, return_counts=True)
    members = [np.flatnonzero(labels == cid) for cid in class_ids]
    q = np.full(class_ids.size, 1.0 / class_ids.size)
    rng = _stream(seed, "warmup-order")
    counts = apportion(q, min(epoch_size, int(caps.sum())), caps)
    return [np.concatenate([rows[np.sort(rng.choice(rows.size, size=int(k), replace=False))]
                            for rows, k in zip(members, counts)])
            for _ in range(n_epochs)]


def _train_subset_view(dataset: SyntheticDataset, train_idx: np.ndarray) -> SyntheticDataset:
    return replace(dataset, sample_ids=[dataset.sample_ids[i] for i in train_idx],
                   labels=dataset.labels[train_idx], x=dataset.x[train_idx])


def _train_curriculum_arm(trainset: SyntheticDataset, dist: ClassDistribution,
                          table, cfg: TrainConfig, init: FusionModel):
    """Train under the ramp in chunks of ``refresh_every`` epochs (all of
    them when 0), re-scoring difficulty before each chunk after the first.
    Class counts are fixed by the distribution, so refreshing only
    re-orders the within-class queues and never changes the visit budget."""
    step = cfg.refresh_every or cfg.epochs
    model, budget = init, 0
    schedule = build_schedule(table, dist, cfg.epochs)
    for chunk, start in enumerate(range(0, cfg.epochs, step)):
        if chunk:
            table = score_dataset(collect_traces(model, trainset))
            schedule = replace(schedule, order=build_queues(table, dist))
        part = schedule.epochs()[start:start + step]
        model, _ = train(trainset, part, cfg, model, first_epoch=start + 1,
                         arm=f"climd-r{chunk}" if cfg.refresh_every else "climd")
        budget += sum(rows.size for rows in part)
    return model, budget


def run_seed(spec: SyntheticSpec, config: TrainConfig, offset: int) -> list[ArmResult]:
    """One full comparison at seed offset ``offset``: generate, warm up,
    score, schedule, then train the curriculum arm and the budget-matched
    random baseline. The warm-up and both arms start from one init model."""
    dspec = replace(spec, seed=spec.seed + offset)
    cfg = replace(config, seed=config.seed + offset)
    dataset = generate_dataset(dspec)
    train_idx, test_idx = split_balanced_test(dataset, cfg.test_fraction, cfg.seed)
    trainset = _train_subset_view(dataset, train_idx)
    test_x = dataset.x[test_idx]
    test_y = dataset.labels[test_idx]
    n_train = trainset.n_samples
    init = FusionModel.init(dspec.dims, cfg.hidden, dspec.n_classes,
                            _stream(cfg.seed, "init"))

    # Warm-up pass: trains a throwaway model just to produce traces.
    warm_epoch_size = subset_size(1, cfg.epochs, n_train)
    warm_schedule = uniform_warmup_schedule(trainset.labels, cfg.resolved_warmup,
                                            warm_epoch_size, cfg.seed)
    warm_model, _ = train(trainset, warm_schedule, cfg, init, arm="warmup")
    table = score_dataset(collect_traces(warm_model, trainset))
    dist = ClassDistribution.from_labels(trainset.labels, cfg.gamma)

    climd_model, budget = _train_curriculum_arm(trainset, dist, table, cfg, init)

    base_epochs = math.ceil(budget / n_train)
    baseline = truncate_schedule(random_baseline_schedule(n_train, base_epochs, cfg.seed),
                                 budget)
    base_model, _ = train(trainset, baseline, cfg, init, arm="baseline")

    results = []
    for arm, model, visits in (("climd", climd_model, budget),
                               ("baseline", base_model, sum(rows.size for rows in baseline))):
        acc, wf1, mf1 = evaluate(model, test_x, test_y)
        results.append(ArmResult(seed=offset, arm=arm, accuracy=acc,
                                 weighted_f1=wf1, macro_f1=mf1, visits=visits))
    assert results[0].visits == results[1].visits
    return results


def run_experiment(spec: SyntheticSpec, config: TrainConfig, n_seeds: int,
                   max_workers: int = 1) -> ExperimentReport:
    """Curriculum vs budget-matched random baseline over ``n_seeds`` seeds.

    Seeds fan out to ``max_workers`` processes; results are merged in seed
    order, so parallelism never changes the report.
    """
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    jobs = ([spec] * n_seeds, [config] * n_seeds, range(n_seeds))
    if max_workers > 1:
        # Imported here: multiprocessing is costly to import, and serial
        # runs never need it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(max_workers, n_seeds)) as pool:
            per_seed = list(pool.map(run_seed, *jobs))
    else:
        per_seed = list(map(run_seed, *jobs))

    return ExperimentReport(rows=[r for pair in per_seed for r in pair],
                            seeds=list(range(n_seeds)),
                            wins=sum(c.macro_f1 > b.macro_f1 for c, b in per_seed),
                            baseline_wins=sum(b.macro_f1 > c.macro_f1 for c, b in per_seed))
