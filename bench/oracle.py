"""Output checks that recompute the expected results with numpy alone.

Nothing here imports climd: the checks restate the README's definitions
from the generated arrays. Every check returns a list of violations; an
empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

PROB_EPS = 1e-12  # the README's floor on p[label] inside the log
SCORE_TOL = 1e-9


def expected_scores(labels, probs, emb):
    """(psi (N,M), phi (N,), r (N,)) from the README definitions:
    psi = sigmoid(ln(max(p[label], eps)) / C), phi = 1 - mean pairwise
    cosine of the modality embeddings, r = phi + mean(psi)."""
    n, m, c = probs.shape
    p_true = probs[np.arange(n), :, labels]
    psi = 1.0 / (1.0 + np.exp(-np.log(np.maximum(p_true, PROB_EPS)) / c))
    unit = emb / np.linalg.norm(emb, axis=2, keepdims=True)
    cos = np.clip(np.einsum("nid,njd->nij", unit, unit), -1.0, 1.0)
    iu = np.triu_indices(m, k=1)
    phi = 1.0 - cos[:, iu[0], iu[1]].mean(axis=1)
    return psi, phi, phi + psi.mean(axis=1)


def round_half_up_div(a: int, b: int) -> int:
    """round(a / b) with halves rounded up, in exact integer arithmetic."""
    return (2 * a + b) // (2 * b)


def epoch_totals(n: int, epochs: int) -> list[int]:
    return [round_half_up_div(t * n, epochs) for t in range(1, epochs + 1)]


def check_difficulty(path: Path, ids, labels, psi, phi, r) -> list[str]:
    lines = path.read_text().splitlines()
    m = psi.shape[1]
    header = "sample_id,label,phi," + ",".join(f"psi_{i}" for i in range(1, m + 1)) + ",r"
    if not lines or lines[0] != header:
        return [f"{path.name}: header {lines[:1]} != {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(ids) or any(len(row) != m + 4 for row in rows):
        return [f"{path.name}: expected {len(ids)} rows of {m + 4} fields"]
    out = []
    if [row[0] for row in rows] != list(ids):
        out.append(f"{path.name}: sample ids are not in input order")
    if not np.array_equal(np.array([int(row[1]) for row in rows]), labels):
        out.append(f"{path.name}: labels differ from the input")
    got = np.array([row[2:] for row in rows], dtype=float)
    for name, want, have in (("phi", phi, got[:, 0]), ("psi", psi, got[:, 1:-1]),
                             ("r", r, got[:, -1])):
        err = float(np.max(np.abs(want - have)))
        if not err <= SCORE_TOL:
            out.append(f"{path.name}: {name} off by {err:.3g} > {SCORE_TOL}")
    return out


def read_difficulty_r(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()[1:]
    return np.array([line.rsplit(",", 1)[1] for line in lines], dtype=float)


def check_distribution(path: Path, sizes: dict, alpha_hat: float,
                       gamma: float) -> list[str]:
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key] = value
        elif line and line != "class_id,count,rank":
            rows.append(tuple(int(v) for v in line.split(",")))
    out = []
    got_alpha = float(meta.get("alpha_hat", "nan"))
    if not abs(got_alpha - alpha_hat) <= SCORE_TOL:
        out.append(f"{path.name}: alpha_hat {got_alpha!r} != closed form {alpha_hat!r}")
    if float(meta.get("gamma", "nan")) != gamma or meta.get("degenerate") != "false":
        out.append(f"{path.name}: header {meta} does not match gamma={gamma}")
    by_rank = sorted(sizes, key=lambda c: (-sizes[c], c))
    want = [(c, sizes[c], rank) for rank, c in enumerate(by_rank, start=1)]
    if rows != want:
        out.append(f"{path.name}: class_id,count,rank rows differ from the input counts")
    return out


def check_schedule(path: Path, ids, labels, r, epochs: int) -> list[str]:
    """The four schedule invariants: per-epoch sums, caps, queue prefixes
    and a final epoch holding every id once. Returns violations."""
    n = len(ids)
    order = np.lexsort((np.arange(n), -r, labels))  # label, then -r, then id
    classes, starts, sizes = np.unique(labels[order], return_index=True,
                                       return_counts=True)
    size_of = dict(zip(classes.tolist(), sizes.tolist()))
    ids_arr = np.asarray(ids, dtype=object)
    queue, prefix_end = {}, {}
    for c, s, k in zip(classes.tolist(), starts.tolist(), sizes.tolist()):
        members = ids_arr[order[s:s + k]]
        queue[c] = ",".join(members)
        # prefix_end[c][j] = length of the first j ids joined with commas
        prefix_end[c] = np.concatenate(
            ([0], np.cumsum([len(sid) + 1 for sid in members]) - 1))

    out = []
    totals = [0] * epochs
    seen = set()
    last_full = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            head = line.rstrip("\n").split(",", 4)
            try:
                t, c, _rank, k = (int(v) for v in head[:4])
            except ValueError:
                out.append(f"{path.name}:{lineno}: malformed line")
                continue
            listed = head[4] if len(head) == 5 else ""
            if (t, c) in seen or not 1 <= t <= epochs or c not in size_of:
                out.append(f"{path.name}:{lineno}: unexpected epoch/class ({t}, {c})")
                continue
            seen.add((t, c))
            totals[t - 1] += k
            if k > size_of[c]:
                out.append(f"{path.name}:{lineno}: class {c} takes {k} > cap {size_of[c]}")
            elif listed != queue[c][:prefix_end[c][k]]:
                out.append(f"{path.name}:{lineno}: ids are not a prefix of class {c}'s queue")
            elif t == epochs and k == size_of[c]:
                last_full += 1
    if len(seen) != epochs * len(size_of):
        out.append(f"{path.name}: {len(seen)} epoch/class lines, "
                   f"expected {epochs * len(size_of)}")
    want = epoch_totals(n, epochs)
    for t, (got, exp) in enumerate(zip(totals, want), start=1):
        if got != exp:
            out.append(f"{path.name}: epoch {t} holds {got} samples, expected {exp}")
    if last_full != len(size_of):
        # full prefixes of every class partition the ids exactly once
        out.append(f"{path.name}: final epoch does not hold every id exactly once")
    return out


def check_simulate(outdir: Path, n_seeds: int) -> tuple[list[str], float]:
    """Budget-matched arms per seed, and a summary consistent with the
    report. Returns (violations, mean curriculum minus baseline macro F1)."""
    lines = (outdir / "report.csv").read_text().splitlines()
    if lines[:1] != ["seed,arm,accuracy,weighted_f1,macro_f1,visits"]:
        return [f"report.csv: header {lines[:1]}"], math.nan
    rows = {}
    for line in lines[1:]:
        seed, arm, _acc, _wf1, mf1, visits = line.split(",")
        rows[int(seed), arm] = (float(mf1), int(visits))
    out = []
    if set(rows) != {(s, a) for s in range(n_seeds) for a in ("climd", "baseline")}:
        return [f"report.csv: rows {sorted(rows)}"], math.nan
    for s in range(n_seeds):
        if rows[s, "climd"][1] != rows[s, "baseline"][1]:
            out.append(f"report.csv: seed {s} arms differ in visits "
                       f"{rows[s, 'climd'][1]} vs {rows[s, 'baseline'][1]}")
    mean = {arm: float(np.mean([rows[s, arm][0] for s in range(n_seeds)]))
            for arm in ("climd", "baseline")}
    summary = (outdir / "summary.csv").read_text().splitlines()[1:]
    for line in summary:
        arm, _acc, _wf1, mf1, _wins = line.split(",")
        if abs(float(mf1) - mean.get(arm, math.nan)) > 1e-12:
            out.append(f"summary.csv: {arm} mean macro F1 {mf1} != report mean")
    gain = mean["climd"] - mean["baseline"]
    if not gain > 0:
        out.append(f"curriculum does not beat the baseline on macro F1 (gain {gain:.4f})")
    return out, gain


def sim_visits(report: Path) -> int:
    """Sum of the per-arm visit budgets in report.csv."""
    return sum(int(line.rsplit(",", 1)[1])
               for line in report.read_text().splitlines()[1:])


def digest_outputs(outdir: Path) -> dict[str, str]:
    """sha256 of every artifact; the manifest is hashed without its
    timestamp, the one field allowed to change between reruns."""
    out = {}
    for path in sorted(outdir.iterdir()):
        h = hashlib.sha256()
        if path.name == "manifest.json":
            data = json.loads(path.read_text())
            data.pop("timestamp", None)
            h.update(json.dumps(data, sort_keys=True).encode())
        else:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        out[path.name] = h.hexdigest()
    return out
