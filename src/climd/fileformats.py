"""Text-based interchange formats.

Every artifact is line-delimited text so pipeline stages stay diffable
and independently inspectable. Readers return the columnar types the
pipeline works on: :func:`read_traces` a validated
:class:`~climd.measurer.TraceBatch`, parsed a chunk of lines at a time
into arrays, and :func:`read_difficulty` a
:class:`~climd.measurer.DifficultyTable`. :func:`iter_traces` yields the
traces as one batch per ``TRACE_CHUNK`` lines, so ``climd score`` and
``climd pipeline`` score them chunk by chunk and never hold the whole
trace arrays. Every rejected line is named by its number. The table
writers write through an open file a block of rows (a schedule: one
epoch) at a time.

* traces: one JSON object per line with ``sample_id``, ``label`` and a
  ``modalities`` array of ``{"probs": [...], "embedding": [...]}``;
* difficulty table: CSV ``sample_id,label,phi,psi_1..psi_M,r`` in input order;
* labels: CSV ``sample_id,label``;
* distribution report: ``class_id,count,rank`` CSV preceded by ``#``
  header lines carrying n_min, gamma, alpha_hat and the degenerate flag;
* schedule manifest: one line per (epoch, class):
  ``epoch,class_id,rank,s_t,<sample ids...>``;
* epoch-by-rank summary: CSV ``epoch,rank_1..rank_C`` of counts;
* predictions: CSV ``sample_id,true,pred``;
* run manifest: a single JSON document with the resolved config, input
  digests, seeds, version and timestamp.

Floats are written with ``repr`` so they round-trip exactly and reruns
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .distribution import ClassDistribution
from .errors import ValidationError
from .measurer import DifficultyTable, TraceBatch
from .scheduler import Schedule, epoch_rank_counts


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# traces (JSON lines)
# ---------------------------------------------------------------------------

# Lines parsed into Python lists before they are packed into arrays, the
# lines per batch of iter_traces, and the rows formatted per write by the
# table writers.
TRACE_CHUNK = 1024


def write_traces(path, batch: TraceBatch):
    lines = []
    for sid, label, probs, emb in zip(batch.ids, batch.labels.tolist(), batch.probs, batch.emb):
        lines.append(json.dumps({
            "sample_id": sid,
            "label": label,
            "modalities": [{"probs": p, "embedding": e}
                           for p, e in zip(probs.tolist(), emb.tolist())],
        }, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _pack(path, rows: list, linenos: list[int], shape: tuple) -> np.ndarray:
    """Stack one chunk of per-line nested lists into a float array whose
    rows have ``shape``, naming the first line that does not fit."""
    try:
        arr = np.array(rows, dtype=float)
        if arr.shape[1:] == shape:
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    for lineno, row in zip(linenos, rows):
        try:
            if np.array(row, dtype=float).shape != shape:
                break
        except (TypeError, ValueError, OverflowError):
            break
    raise ValidationError(f"{path}: corrupt trace at line {lineno}: expected numbers "
                          f"in shape {shape} (modalities, values), as on the first line")


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file, with their numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


def read_traces(path, lines=None, shapes=None) -> TraceBatch:
    """The traces of a JSONL file as one validated :class:`TraceBatch`.

    By default the whole file. :func:`iter_traces` passes ``lines``, an
    iterator over some of its (line number, text) pairs, and ``shapes``,
    the (probs, embeddings) shape every trace must have, which is
    otherwise that of the first trace. Lines are parsed ``TRACE_CHUNK`` at
    a time into arrays, the batch is validated once, and a rejected trace
    is named by its line.
    """
    ids, labels, probs, emb, linenos = [], [], [], [], []
    numbered = _numbered_lines(path) if lines is None else lines
    while chunk := list(islice(numbered, TRACE_CHUNK)):
        chunk_p, chunk_e = [], []
        for lineno, line in chunk:
            try:
                obj = json.loads(line)
                if type(obj["label"]) is not int:
                    raise ValidationError(f"label must be a JSON integer, got {obj['label']!r}")
                chunk_p.append([mod["probs"] for mod in obj["modalities"]])
                chunk_e.append([mod["embedding"] for mod in obj["modalities"]])
                shapes = shapes or (np.shape(chunk_p[0]), np.shape(chunk_e[0]))
                ids.append(str(obj["sample_id"]))
                labels.append(obj["label"])
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}: corrupt trace at line {lineno}: {exc}") from exc
        chunk_n = [lineno for lineno, _ in chunk]
        probs.append(_pack(path, chunk_p, chunk_n, shapes[0]))
        emb.append(_pack(path, chunk_e, chunk_n, shapes[1]))
        linenos += chunk_n
    try:
        return TraceBatch(ids=ids, labels=np.array(labels, dtype=np.int64),
                          probs=np.concatenate(probs) if probs else np.zeros((0, 0, 0)),
                          emb=np.concatenate(emb) if emb else np.zeros((0, 0, 0)))
    except (ValidationError, OverflowError) as exc:
        row = getattr(exc, "row", None)
        where = f" at line {linenos[row]}" if row is not None else ""
        raise ValidationError(f"{path}: corrupt trace{where}: {exc}") from exc


def iter_traces(path) -> Iterator[TraceBatch]:
    """Yield the traces of a JSONL file as :func:`read_traces` batches of
    up to ``TRACE_CHUNK`` lines, in file order; a file without traces
    yields one empty batch. Each batch is validated on its own, against
    the shapes of the first; the checks that span the file (repeated ids)
    are left to the caller."""
    numbered = _numbered_lines(path)
    shapes = None
    while True:
        batch = read_traces(path, islice(numbered, TRACE_CHUNK), shapes)
        if len(batch) or shapes is None:
            yield batch
        if len(batch) < TRACE_CHUNK:
            return
        shapes = batch.probs.shape[1:], batch.emb.shape[1:]


# ---------------------------------------------------------------------------
# difficulty table (CSV)
# ---------------------------------------------------------------------------

def write_difficulty(path, table: DifficultyTable):
    m = table.psi.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(["sample_id", "label", "phi",
                           *(f"psi_{i}" for i in range(1, m + 1)), "r"]) + "\n")
        for lo in range(0, len(table), TRACE_CHUNK):
            hi = lo + TRACE_CHUNK
            scores = np.column_stack([table.phi[lo:hi], table.psi[lo:hi], table.r[lo:hi]])
            fh.writelines(f"{sid},{label}," + ",".join(map(repr, row)) + "\n"
                          for sid, label, row in zip(table.ids[lo:hi],
                                                     table.labels[lo:hi].tolist(),
                                                     scores.tolist()))


def read_difficulty(path) -> DifficultyTable:
    ids, labels, scores = [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:3] != ["sample_id", "label", "phi"] or cols[-1] != "r":
            raise ValidationError(f"{path}: unrecognized difficulty header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ValidationError(
                    f"{path}: line {lineno}: expected {len(cols)} fields, got {len(parts)}"
                )
            try:
                label = np.int64(int(parts[1]))
                row = [float(v) for v in parts[2:]]
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise ValidationError(f"{path}: line {lineno}: non-finite score in {line!r}")
            ids.append(parts[0])
            labels.append(label)
            scores.extend(row)
    scores = np.array(scores, dtype=float).reshape(len(ids), len(cols) - 2)
    return DifficultyTable(ids=ids, labels=np.array(labels, dtype=int), psi=scores[:, 1:-1],
                           phi=scores[:, 0], r=scores[:, -1])


# ---------------------------------------------------------------------------
# labels (CSV)
# ---------------------------------------------------------------------------

def write_labels(path, pairs):
    lines = ["sample_id,label"]
    lines += [f"{sid},{int(label)}" for sid, label in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def read_labels(path) -> list[tuple[str, int]]:
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line == "sample_id,label"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 'sample_id,label', got {line!r}"
                )
            try:
                pairs.append((parts[0], int(parts[1])))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: bad label {parts[1]!r}") from exc
    return pairs


# ---------------------------------------------------------------------------
# fitted distribution report
# ---------------------------------------------------------------------------

def write_distribution(path, dist: ClassDistribution):
    lines = [
        f"# n_min={dist.n_min}",
        f"# gamma={_fmt(dist.gamma)}",
        f"# alpha_hat={_fmt(dist.alpha_hat)}",
        f"# degenerate={'true' if dist.degenerate else 'false'}",
        "class_id,count,rank",
    ]
    for cid in dist.classes_by_rank():
        lines.append(f"{cid},{dist.counts[cid]},{dist.rank_of_class[cid]}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_distribution(path) -> ClassDistribution:
    meta = {}
    counts = {}
    ranks = {}
    line_of_rank = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line == "class_id,count,rank":
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValidationError(f"{path}: line {lineno}: expected 3 fields")
            try:
                cid, count, rank = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
            if cid in counts:
                raise ValidationError(f"{path}: line {lineno}: duplicate class_id {cid}")
            if rank in line_of_rank:
                raise ValidationError(f"{path}: line {lineno}: duplicate rank {rank}")
            counts[cid] = count
            ranks[cid] = rank
            line_of_rank[rank] = lineno
    for key in ("gamma", "alpha_hat", "degenerate"):
        if key not in meta:
            raise ValidationError(f"{path}: missing '# {key}=' header line")
    values = {}
    for key in ("gamma", "alpha_hat"):
        try:
            values[key] = float(meta[key])
        except ValueError:
            values[key] = math.nan
        if not math.isfinite(values[key]):
            raise ValidationError(f"{path}: {key} must be a finite number, got {meta[key]!r}")
    if meta["degenerate"] not in ("true", "false"):
        raise ValidationError(f"{path}: degenerate must be true or false, "
                              f"got {meta['degenerate']!r}")
    degenerate = meta["degenerate"] == "true"
    if not degenerate and values["gamma"] * values["alpha_hat"] <= 1:
        raise ValidationError(f"{path}: gamma*alpha_hat must exceed 1 when degenerate=false, "
                              f"got {values['gamma'] * values['alpha_hat']!r}")
    for rank, lineno in line_of_rank.items():
        if not 1 <= rank <= len(ranks):
            raise ValidationError(f"{path}: line {lineno}: rank {rank} outside "
                                  f"1..{len(ranks)}; ranks must be a permutation")
    return ClassDistribution(counts=counts, gamma=values["gamma"],
                             alpha_hat=values["alpha_hat"], degenerate=degenerate,
                             rank_of_class=ranks)


# ---------------------------------------------------------------------------
# schedule artifacts
# ---------------------------------------------------------------------------

def write_schedule(path, schedule: Schedule, dist: ClassDistribution, ids):
    """One line per (epoch, class); ``ids`` are the sample ids of the rows
    the schedule indexes."""
    ids = np.asarray(ids, dtype=object)
    ranks = [dist.rank_of_class[cid] for cid in schedule.classes]
    with open(path, "w") as fh:
        for plan in schedule.plans:
            chunks = np.split(ids[plan.indices], np.cumsum(plan.counts)[:-1])
            fh.writelines(",".join([str(plan.t), str(cid), str(rank), str(k), *chunk]) + "\n"
                          for cid, rank, k, chunk in zip(schedule.classes, ranks,
                                                         plan.counts, chunks))


def write_epoch_rank_table(path, schedule: Schedule, dist: ClassDistribution):
    counts = epoch_rank_counts(schedule, dist)
    header = "epoch," + ",".join(f"rank_{r}" for r in range(1, counts.shape[1] + 1))
    lines = [header]
    for i, row in enumerate(counts, start=1):
        lines.append(f"{i}," + ",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def format_epoch_rank_table(schedule: Schedule, dist: ClassDistribution) -> str:
    counts = epoch_rank_counts(schedule, dist)
    header = "epoch " + " ".join(f"{f'rank{r}':>6}" for r in range(1, counts.shape[1] + 1))
    rows = [header]
    for i, row in enumerate(counts, start=1):
        rows.append(f"{i:>5} " + " ".join(f"{int(v):>6}" for v in row))
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def read_predictions(path) -> list[tuple[str, int, int]]:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line.startswith("sample_id")):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValidationError(
                    f"{path}: line {lineno}: expected 'sample_id,true,pred', got {line!r}"
                )
            try:
                rows.append((parts[0], int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_predictions(path, rows):
    lines = ["sample_id,true,pred"]
    lines += [f"{sid},{int(t)},{int(p)}" for sid, t, p in rows]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(command: str, config: dict, inputs: dict[str, str],
                   seeds: list[int], version: str) -> dict:
    return {
        "command": command,
        "config": config,
        "inputs": {name: sha256_file(p) for name, p in inputs.items()},
        "seeds": seeds,
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(path, manifest: dict):
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def manifest_data_fields(manifest: dict) -> dict:
    """Everything that must be identical across reruns (drops the timestamp)."""
    return {k: v for k, v in manifest.items() if k != "timestamp"}

