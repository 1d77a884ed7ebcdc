"""Training-difficulty scoring for multimodal classifiers.

Each sample is scored from two signals computed on model outputs:

* intra-modal confidence: a sigmoid-squashed mean log-probability of the
  true class, one score per modality, always in (0, 0.5];
* inter-modal complementarity: one minus the mean pairwise cosine
  similarity of the modality embeddings, in [0, 2] (0 = fully redundant
  modalities, 2 = antipodal).

The combined score is ``r = complementarity + mean(confidences)``.
Whether a large ``r`` counts as easy or hard is decided downstream by the
scheduler's ``difficulty_order`` setting; this module only computes scores.

The production path is columnar: a :class:`TraceBatch` holds the model
outputs of N samples as arrays and is validated once when built, and
:func:`score_dataset` turns it into a columnar :class:`DifficultyTable`
in one vectorized pass. Each row is scored independently, so scoring a
batch in chunks gives bit-identical rows, and :func:`join_tables` joins
the chunks' tables. The per-sample functions
(:func:`score_sample` and the helpers it calls) state the same formulas
one sample at a time and serve as the reference the batch path is
tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, compress, islice
from operator import eq

import numpy as np

from .errors import ValidationError

# Probabilities are floored at PROB_EPS inside the log so that a modality
# assigning ~0 to the true class scores near 0 instead of crashing.
PROB_EPS = 1e-12

PROB_SUM_TOL = 1e-6

# Characters that would break the one-row-per-line UTF-8 CSV artifacts: the
# field and line separators, and lone surrogates, which UTF-8 cannot encode.
_ID_BREAKS = re.compile(r"[,\n\r\ud800-\udfff]")


def _reject(ids: list[str], bad, reason: str):
    """Raise naming up to five of the ``ids`` flagged in ``bad``; the
    error's ``row`` is the index of the first, for readers to map onto a
    line."""
    rows = np.flatnonzero(bad)
    if rows.size:
        names = [ids[i] for i in rows[:5]]
        raise ValidationError(f"{reason} in {rows.size} of {len(ids)} samples, first {names}",
                              row=int(rows[0]))


def id_order(ids: list[str]) -> np.ndarray:
    """The rows of ``ids`` in ``str`` order, repeats in row order: the
    array of ``sorted(range(len(ids)), key=ids.__getitem__)``. It sorts an
    array of references to the ids; a fixed-width string array would drop
    trailing NULs and read ``"a"`` and ``"a\\x00"`` as one id."""
    return np.argsort(np.array(ids, dtype=object), kind="stable")


def check_ids(ids: list[str]):
    """The sample-id rule of every table of samples: ids are unique and
    non-empty, have no leading or trailing whitespace, and contain no
    ``,``, newline, carriage return or lone surrogate. A rejected id's
    error has the ``row`` of the first offender (for a repeat, its second
    occurrence). Readers strip every line, so a padded id would not read
    back as written. An id that is not a ``str`` is rejected like a bad
    one. Repeats are found by :func:`check_unique`, which it calls."""
    try:
        joined = "".join(ids)
    except TypeError:
        _reject(ids, [not isinstance(sid, str) for sid in ids], "sample id is not a string")
        raise
    if _ID_BREAKS.search(joined) or not all(sid and sid == sid.strip() for sid in ids):
        _reject(ids, [not sid or sid != sid.strip() or bool(_ID_BREAKS.search(sid))
                      for sid in ids],
                "sample id contains ',', a line break or a lone surrogate (not UTF-8), "
                "or is empty or padded with whitespace")
    check_unique(ids)


def check_unique(ids: list[str]):
    """Reject a repeated id, with the ``row`` of its second occurrence.
    Repeats are found by sorting the ids, which makes no per-id object."""
    ranked = sorted(ids)
    repeat = np.fromiter(map(eq, islice(ranked, 1, None), ranked), bool)
    if repeat.any():
        dupes = list(dict.fromkeys(compress(islice(ranked, 1, None), repeat)))
        raise ValidationError(f"duplicate sample ids: {dupes[:5]}",
                              row=int(id_order(ids)[1:][repeat].min()))


def check_int64(name: str, values) -> np.ndarray:
    """``values`` as int64, which must be integers that fit in it (or none)."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu"
                        or values.dtype.kind == "u" and values.max() >= 2**63):
        raise ValidationError(f"{name} must be integers that fit in 64 bits, got {values.dtype}")
    return values.astype(np.int64, copy=False)


# Per-sample reference types. score_sample and the functions it calls
# check their inputs and state the formulas one sample at a time.

@dataclass
class ModalityOutput:
    """One modality's class-probability vector and feature embedding."""

    probs: np.ndarray
    embedding: np.ndarray


@dataclass
class SampleTrace:
    """Model outputs for one sample across all of its modalities."""

    sample_id: str
    label: int
    modalities: list[ModalityOutput]


@dataclass
class DifficultyRecord:
    """Per-sample difficulty breakdown: per-modality psi, phi, combined r."""

    sample_id: str
    label: int
    psi_per_modality: list[float]
    phi: float
    r: float


@dataclass(eq=False)
class TraceBatch:
    """Model outputs for N samples with M modalities and C classes.

    ``ids`` (N sample ids), ``labels`` (N,) int64, ``probs`` (N, M, C) class
    probabilities and ``emb`` (N, M, D) embeddings. The whole batch is
    validated once, when it is built; a rejected batch names up to five
    offending sample ids. Ids follow :func:`check_ids`.
    """

    ids: list[str]
    labels: np.ndarray
    probs: np.ndarray
    emb: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.probs = np.asarray(self.probs, dtype=float)
        self.emb = np.asarray(self.emb, dtype=float)
        n = len(self.ids)
        if (self.labels.shape != (n,) or self.probs.ndim != 3 or self.emb.ndim != 3
                or self.probs.shape[0] != n or self.emb.shape[:2] != self.probs.shape[:2]):
            raise ValidationError(
                f"inconsistent batch: {n} ids, labels {self.labels.shape}, "
                f"probs {self.probs.shape}, embeddings {self.emb.shape}"
            )
        self.labels = check_int64("labels", self.labels)
        if n == 0:
            return
        _, m, c = self.probs.shape
        if m < 2 or c < 2:
            raise ValidationError(f"need >= 2 modalities and >= 2 classes, got {m} and {c}")
        _reject(self.ids, (self.labels < 0) | (self.labels >= c), f"label outside [0, {c})")
        _reject(self.ids, ~np.isfinite(self.probs).all(axis=(1, 2)), "probs contain NaN or inf")
        _reject(self.ids, (self.probs < 0).any(axis=(1, 2)), "probs have negative entries")
        _reject(self.ids, (np.abs(self.probs.sum(axis=2) - 1.0) > PROB_SUM_TOL).any(axis=1),
                f"probs do not sum to 1 within {PROB_SUM_TOL}")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(self.emb, axis=2)
        _reject(self.ids, ~((norms > 0) & np.isfinite(norms)).all(axis=1),
                "an embedding norm is zero, NaN or inf")
        check_ids(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(eq=False)
class DifficultyTable:
    """Columnar difficulty scores, one row per sample in input order:
    ``ids``, ``labels`` (N,), per-modality ``psi`` (N, M), ``phi`` (N,)
    and the combined ``r`` (N,). Ids follow :func:`check_ids`."""

    ids: list[str]
    labels: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        try:
            self.psi = np.asarray(self.psi, dtype=float)
        except ValueError as exc:
            raise ValidationError(f"psi must be one (N, M) array: {exc}") from exc
        self.labels = check_int64("labels", self.labels)
        self.phi = np.asarray(self.phi, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if (self.labels.shape != (n,) or self.phi.shape != (n,) or self.r.shape != (n,)
                or self.psi.shape[:1] != (n,) or self.psi.ndim != 2):
            raise ValidationError(
                f"inconsistent difficulty table: {n} ids, labels {self.labels.shape}, "
                f"psi {self.psi.shape}, phi {self.phi.shape}, r {self.r.shape}"
            )
        _reject(self.ids, ~(np.isfinite(self.phi) & np.isfinite(self.r)
                            & np.isfinite(self.psi).all(axis=1)), "score is NaN or inf")
        check_ids(self.ids)

    @classmethod
    def _of_checked(cls, ids, labels, psi, phi, r) -> "DifficultyTable":
        """The table of columns whose rows were checked where they were made
        (a batch's when it was built), built without checking them again."""
        table = cls.__new__(cls)
        table.ids, table.labels, table.psi, table.phi, table.r = ids, labels, psi, phi, r
        return table

    def __len__(self) -> int:
        return len(self.ids)


def join_tables(tables: list[DifficultyTable]) -> DifficultyTable:
    """The rows of one or more ``tables`` in order as one table. Each table
    has checked its own rows, so only repeats across the tables are checked
    here: a repeat's ``row`` counts from the first table's first row."""
    if not tables:
        raise ValidationError("join_tables needs at least one table")
    ids = [sid for table in tables for sid in table.ids]
    check_unique(ids)
    return DifficultyTable._of_checked(
        ids, *(np.concatenate([getattr(t, col) for t in tables])
               for col in ("labels", "psi", "phi", "r")))


def intra_modal_confidence(probs, label: int, n_classes: int | None = None) -> float:
    """Confidence of one modality in the true class.

    Computes sigmoid((1/C) * ln p[label]) with the probability floored at
    PROB_EPS. Strictly increasing in p[label]; equals 0.5 iff p[label]=1.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValidationError(f"probs must be a vector over >= 2 classes, got shape {probs.shape}")
    if np.any(probs < 0):
        raise ValidationError("probs has negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probs sums to {total!r}, expected 1 within {PROB_SUM_TOL}")
    c = probs.size
    if n_classes is not None and n_classes != c:
        raise ValidationError(f"n_classes={n_classes} but probs has length {c}")
    if not 0 <= label < c:
        raise ValidationError(f"label {label} outside [0, {c})")
    p = max(float(probs[label]), PROB_EPS)
    x = math.log(p) / c
    # x <= 0 always, so exp(x) is safe from overflow.
    return math.exp(x) / (1.0 + math.exp(x))


def pairwise_similarity(a, b) -> float:
    """Cosine similarity of two embeddings, in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cannot take cosine similarity of a zero-norm embedding")
    s = float(np.dot(a, b)) / (na * nb)
    # Cosine can spill past +-1 by a few ulps.
    return min(1.0, max(-1.0, s))


def complementarity(embeddings: list) -> float:
    """How much the modality embeddings disagree, in [0, 2].

    One minus the mean pairwise cosine similarity over all ordered pairs
    m != m' (normalizer M*(M-1); for a symmetric similarity this equals
    the unordered-pair mean, so either form can be used to cross-check).
    """
    m = len(embeddings)
    if m < 2:
        raise ValidationError(f"complementarity needs >= 2 embeddings, got {m}")
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += pairwise_similarity(embeddings[i], embeddings[j])
    mean_sim = 2.0 * total / (m * (m - 1))
    return 1.0 - mean_sim


def score_sample(trace: SampleTrace) -> DifficultyRecord:
    """Combined difficulty of one sample: r = phi + mean(psi)."""
    c = len(trace.modalities[0].probs)
    psis = [intra_modal_confidence(mod.probs, trace.label, c) for mod in trace.modalities]
    phi = complementarity([mod.embedding for mod in trace.modalities])
    r = phi + sum(psis) / len(psis)
    return DifficultyRecord(
        sample_id=trace.sample_id,
        label=trace.label,
        psi_per_modality=psis,
        phi=phi,
        r=r,
    )


def score_dataset(batch: TraceBatch) -> DifficultyTable:
    """Score every sample of a validated batch in one vectorized pass.

    Row order is kept, and every row depends on that sample alone. The
    table shares the batch's ids, which the batch has checked.
    """
    n, m, c = batch.probs.shape
    if n == 0:
        return DifficultyTable._of_checked(batch.ids, batch.labels, np.zeros((0, m)),
                                           np.zeros(0), np.zeros(0))
    p_true = np.take_along_axis(batch.probs, batch.labels.reshape(n, 1, 1), axis=2)[..., 0]
    e = np.exp(np.log(np.maximum(p_true, PROB_EPS)) / c)
    psi = e / (1.0 + e)
    unit = batch.emb / np.linalg.norm(batch.emb, axis=2, keepdims=True)
    total = sum(np.clip((unit[:, i] * unit[:, j]).sum(axis=1), -1.0, 1.0)
                for i, j in combinations(range(m), 2))
    phi = 1.0 - 2.0 * total / (m * (m - 1))
    return DifficultyTable._of_checked(batch.ids, batch.labels, psi, phi,
                                       phi + psi.sum(axis=1) / m)
