"""Seeded input generators for the benchmark workloads.

Every input is made here with numpy from the workload seed, in the file
formats the climd README documents. Nothing is imported from climd, so a
change to the program cannot change what it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAMMA = 0.3  # the CLI's default --gamma, used by pipeline and by the fit below


def rank_power_sizes(n_total: int, n_classes: int, exponent: float) -> np.ndarray:
    """Class sizes proportional to rank**-exponent, largest-remainder rounded
    so they sum to n_total. Index 0 is rank 1."""
    w = np.arange(1, n_classes + 1, dtype=float) ** -exponent
    target = w / w.sum() * n_total
    sizes = np.floor(target).astype(np.int64)
    short = n_total - int(sizes.sum())
    sizes[np.argsort(-(target - sizes), kind="stable")[:short]] += 1
    return sizes


def mle_alpha(counts, gamma: float = GAMMA) -> float:
    """Closed-form MLE of the smoothed power law over class counts."""
    counts = np.asarray(counts, dtype=float)
    denom = float(np.log(counts).sum() - counts.size * math.log(counts.min()))
    return (1.0 / gamma) * (1.0 + counts.size / denom)


def sample_ids(n: int) -> list[str]:
    """Fixed-width ids, so string order equals index order."""
    return [f"s{i:07d}" for i in range(n)]


def _floats(row) -> str:
    return ",".join(map(repr, row))


@dataclass
class TraceSet:
    """The arrays behind a traces.jsonl file; row i is sample s{i:07d}."""

    labels: np.ndarray  # (N,)
    probs: np.ndarray   # (N, M, C)
    emb: np.ndarray     # (N, M, D)

    @property
    def n(self) -> int:
        return self.labels.size


def make_traces(seed: int, n: int, n_classes: int = 10,
                n_modalities: int = 3, dim: int = 16,
                exponent: float = 1.5) -> TraceSet:
    rng = np.random.default_rng([seed, 1])
    sizes = rank_power_sizes(n, n_classes, exponent)
    labels = rng.permutation(np.repeat(np.arange(n_classes), sizes))
    logits = rng.standard_normal((n, n_modalities, n_classes))
    boost = rng.normal(1.5, 1.0, (n, n_modalities))
    logits[np.arange(n), :, labels] += boost
    logits -= logits.max(axis=2, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=2, keepdims=True)
    centroids = rng.standard_normal((n_classes, n_modalities, dim))
    emb = centroids[labels] + rng.standard_normal((n, n_modalities, dim))
    return TraceSet(labels=labels, probs=probs, emb=emb)


def write_traces_jsonl(path: Path, ts: TraceSet):
    ids = sample_ids(ts.n)
    probs, emb = ts.probs.tolist(), ts.emb.tolist()
    with open(path, "w") as fh:
        for i in range(ts.n):
            mods = ",".join(
                f'{{"probs":[{_floats(p)}],"embedding":[{_floats(e)}]}}'
                for p, e in zip(probs[i], emb[i])
            )
            fh.write(f'{{"sample_id":"{ids[i]}","label":{int(ts.labels[i])},'
                     f'"modalities":[{mods}]}}\n')


@dataclass
class ScoredSet:
    """The arrays behind a pre-scored difficulty.csv + distribution.csv."""

    labels: np.ndarray  # (N,) class ids
    r: np.ndarray       # (N,)
    sizes: dict         # class id -> count
    alpha_hat: float

    @property
    def n(self) -> int:
        return self.labels.size


def make_scored(seed: int, n_classes: int, largest: int, smallest: int,
                n_modalities: int = 3):
    """Class sizes fall geometrically from ``largest`` to ``smallest`` (the
    ImageNet-LT range). Class ids are shuffled against size, and r is rounded
    to 3 decimals so within-class ties are common and the sample-id
    tie-break is exercised. Returns (ScoredSet, phi, psi)."""
    rng = np.random.default_rng([seed, 2])
    k = np.arange(n_classes)
    by_rank = np.rint(largest * (smallest / largest) ** (k / (n_classes - 1))).astype(np.int64)
    class_of_rank = rng.permutation(n_classes)
    sizes = {int(c): int(s) for c, s in zip(class_of_rank, by_rank)}
    labels = rng.permutation(np.repeat(class_of_rank, by_rank))
    n = labels.size
    phi = rng.uniform(0.0, 2.0, n)
    psi = rng.uniform(0.05, 0.5, (n, n_modalities))
    r = np.round(phi + psi.mean(axis=1), 3)
    return ScoredSet(labels=labels, r=r, sizes=sizes,
                     alpha_hat=mle_alpha(by_rank)), phi, psi


def write_scored(difficulty: Path, distribution: Path, ss: ScoredSet, phi, psi):
    m = psi.shape[1]
    ids = sample_ids(ss.n)
    header = "sample_id,label,phi," + ",".join(f"psi_{i}" for i in range(1, m + 1)) + ",r"
    with open(difficulty, "w") as fh:
        fh.write(header + "\n")
        for sid, lab, ph, ps, r in zip(ids, ss.labels.tolist(), phi.tolist(),
                                       psi.tolist(), ss.r.tolist()):
            fh.write(f"{sid},{lab},{ph!r},{_floats(ps)},{r!r}\n")
    by_rank = sorted(ss.sizes, key=lambda c: (-ss.sizes[c], c))
    lines = [f"# n_min={min(ss.sizes.values())}", f"# gamma={GAMMA!r}",
             f"# alpha_hat={ss.alpha_hat!r}", "# degenerate=false",
             "class_id,count,rank"]
    lines += [f"{c},{ss.sizes[c]},{rank}" for rank, c in enumerate(by_rank, start=1)]
    distribution.write_text("\n".join(lines) + "\n")
