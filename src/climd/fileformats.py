"""Text-based interchange formats.

Every artifact is line-delimited UTF-8 text so pipeline stages stay
diffable and independently inspectable. Readers take their lines from
:func:`_numbered_lines` (decoded as UTF-8, stripped, blank lines
skipped) and name a rejected line by its number. Writers hand theirs to
:func:`write_lines`, which writes them through the open file as they are
made, so a table is formatted a block of rows (a schedule: one epoch) at
a time. :func:`read_traces` returns a validated
:class:`~climd.measurer.TraceBatch`, parsed a chunk of lines at a time
into arrays, and :func:`read_difficulty` a
:class:`~climd.measurer.DifficultyTable`. :func:`iter_traces` yields the
traces as one batch per ``TRACE_CHUNK`` lines, so ``climd score`` and
``climd pipeline`` score them chunk by chunk and never hold the whole
trace arrays.

* traces: one JSON object per line with a string ``sample_id``, an
  integer ``label`` and a ``modalities`` array of
  ``{"probs": [...], "embedding": [...]}``;
* difficulty table: CSV ``sample_id,label,phi,psi_1..psi_M,r`` in input order;
* labels: CSV ``sample_id,label``, the header optional;
* distribution report: ``class_id,count,rank`` CSV, rank order kept, under
  ``#`` lines carrying n_min, gamma, alpha_hat and the degenerate flag;
* schedule manifest: one line per (epoch, class):
  ``epoch,class_id,rank,s_t,<sample ids...>``;
* epoch-by-rank summary: CSV ``epoch,rank_1..rank_C`` of counts;
* predictions: CSV ``sample_id,true,pred``, the header optional;
* simulate report: CSV ``seed,arm,accuracy,weighted_f1,macro_f1,visits``
  (``report.csv``) and ``arm,mean_accuracy,mean_weighted_f1,
  mean_macro_f1,macro_f1_wins`` (``summary.csv``);
* run manifest: a single JSON document with the resolved config, input
  digests, seeds, version and timestamp. A ``config_digest`` in the
  config is :func:`config_digest` of the settings that determine the
  results.

Floats are written with ``repr`` so they round-trip exactly and reruns
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .distribution import ClassDistribution
from .errors import ValidationError
from .measurer import DifficultyTable, TraceBatch, check_ids
from .scheduler import Schedule


def _fmt(x: float) -> str:
    return repr(float(x))


def write_lines(path, lines: Iterable[str]):
    """Write each of ``lines`` and a newline to a UTF-8 text file, through
    the open file as the lines are made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    """The stripped non-blank lines of a UTF-8 text file, with their numbers."""
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                if line := line.strip():
                    yield n, line
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


def _fields(path, lineno: int, line: str, width: int) -> list[str]:
    """The ``width`` comma-separated fields of a line, naming it otherwise."""
    parts = line.split(",")
    if len(parts) != width:
        raise ValidationError(f"{path}: line {lineno}: expected {width} fields, "
                              f"got {len(parts)} in {line!r}")
    return parts


def _checked(path, linenos: list[int], check):
    """``check()``, with its error prefixed by the path and, when the
    error names a ``row``, suffixed by that row's line."""
    try:
        return check()
    except ValidationError as exc:
        row = getattr(exc, "row", None)
        where = f" (line {linenos[row]})" if row is not None else ""
        raise ValidationError(f"{path}: {exc}{where}") from exc


def _numbers(path, lineno: int, fields, kind=int) -> list:
    """``fields`` parsed as ``kind``, int (which must fit in 64 bits) or
    float, naming the line of one that does not parse."""
    try:
        return [int(np.int64(v)) if kind is int else float(v) for v in fields]
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: line {lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# traces (JSON lines)
# ---------------------------------------------------------------------------

# Lines parsed into Python lists before they are packed into arrays, the
# lines per batch of iter_traces, and the rows formatted per block by the
# difficulty writer.
TRACE_CHUNK = 1024


def write_traces(path, batch: TraceBatch):
    write_lines(path, (
        json.dumps({"sample_id": sid, "label": label,
                    "modalities": [{"probs": p, "embedding": e}
                                   for p, e in zip(probs.tolist(), emb.tolist())]},
                   separators=(",", ":"))
        for sid, label, probs, emb in zip(batch.ids, batch.labels.tolist(),
                                          batch.probs, batch.emb)))


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
                if type(obj["sample_id"]) is not str:
                    raise ValidationError(
                        f"sample_id must be a JSON string, got {obj['sample_id']!r}")
                if type(obj["label"]) is not int:
                    raise ValidationError(f"label must be a JSON integer, got {obj['label']!r}")
                chunk_p.append([mod["probs"] for mod in obj["modalities"]])
                chunk_e.append([mod["embedding"] for mod in obj["modalities"]])
                shapes = shapes or (np.shape(chunk_p[0]), np.shape(chunk_e[0]))
                ids.append(obj["sample_id"])
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

def _difficulty_lines(table: DifficultyTable) -> Iterator[str]:
    m = table.psi.shape[1]
    yield ",".join(["sample_id", "label", "phi", *(f"psi_{i}" for i in range(1, m + 1)), "r"])
    for lo in range(0, len(table), TRACE_CHUNK):
        hi = lo + TRACE_CHUNK
        scores = np.column_stack([table.phi[lo:hi], table.psi[lo:hi], table.r[lo:hi]])
        yield from (f"{sid},{label}," + ",".join(map(repr, row))
                    for sid, label, row in zip(table.ids[lo:hi], table.labels[lo:hi].tolist(),
                                               scores.tolist()))


def write_difficulty(path, table: DifficultyTable):
    write_lines(path, _difficulty_lines(table))


def read_difficulty(path) -> DifficultyTable:
    lines = _numbered_lines(path)
    _, header = next(lines, (1, ""))
    cols = header.split(",")
    if cols[:3] != ["sample_id", "label", "phi"] or cols[-1] != "r":
        raise ValidationError(f"{path}: unrecognized difficulty header {header!r}")
    ids, labels, scores, linenos = [], [], [], []
    for lineno, line in lines:
        parts = _fields(path, lineno, line, len(cols))
        labels += _numbers(path, lineno, parts[1:2])
        row = _numbers(path, lineno, parts[2:], float)
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"{path}: line {lineno}: non-finite score in {line!r}")
        ids.append(parts[0])
        scores += row
        linenos.append(lineno)
    scores = np.array(scores, dtype=float).reshape(len(ids), len(cols) - 2)
    return _checked(path, linenos, lambda: DifficultyTable(
        ids=ids, labels=np.array(labels, dtype=int), psi=scores[:, 1:-1],
        phi=scores[:, 0], r=scores[:, -1]))


# ---------------------------------------------------------------------------
# labels (CSV)
# ---------------------------------------------------------------------------

def write_labels(path, pairs):
    write_lines(path, ["sample_id,label", *(f"{sid},{int(label)}" for sid, label in pairs)])


def read_labels(path) -> list[tuple[str, int]]:
    """The (sample id, label) pairs of a labels file; the header is optional
    and the ids follow :func:`~climd.measurer.check_ids`."""
    pairs, linenos = [], []
    for lineno, line in _numbered_lines(path):
        if lineno == 1 and line == "sample_id,label":
            continue
        sid, label = _fields(path, lineno, line, 2)
        pairs.append((sid, *_numbers(path, lineno, [label])))
        linenos.append(lineno)
    _checked(path, linenos, lambda: check_ids([sid for sid, _ in pairs]))
    return pairs


# ---------------------------------------------------------------------------
# fitted distribution report
# ---------------------------------------------------------------------------

def write_distribution(path, dist: ClassDistribution):
    write_lines(path, [
        f"# n_min={dist.n_min}",
        f"# gamma={_fmt(dist.gamma)}",
        f"# alpha_hat={_fmt(dist.alpha_hat)}",
        f"# degenerate={'true' if dist.degenerate else 'false'}",
        "class_id,count,rank",
        *(f"{cid},{n},{rank}" for rank, (cid, n) in
          enumerate(zip(dist.classes.tolist(), dist.counts.tolist()), start=1)),
    ])


def read_distribution(path) -> ClassDistribution:
    meta = {}
    rows = {}  # rank -> (class id, count, line)
    for lineno, line in _numbered_lines(path):
        if line == "class_id,count,rank":
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
            continue
        cid, count, rank = _numbers(path, lineno, _fields(path, lineno, line, 3))
        if rank in rows:
            raise ValidationError(f"{path}: line {lineno}: duplicate rank {rank}")
        rows[rank] = cid, count, lineno
    for key in ("gamma", "alpha_hat", "degenerate"):
        if key not in meta:
            raise ValidationError(f"{path}: missing '# {key}=' header line")
    values = {}
    for key in ("gamma", "alpha_hat"):
        try:
            values[key] = float(meta[key])
        except ValueError:
            values[key] = math.nan
    if meta["degenerate"] not in ("true", "false"):
        raise ValidationError(f"{path}: degenerate must be true or false, "
                              f"got {meta['degenerate']!r}")
    for rank, (_, _, lineno) in rows.items():
        if not 1 <= rank <= len(rows):
            raise ValidationError(f"{path}: line {lineno}: rank {rank} outside "
                                  f"1..{len(rows)}; ranks must be a permutation")
    classes, counts, linenos = np.array([rows[r] for r in sorted(rows)],
                                        dtype=np.int64).reshape(-1, 3).T
    return _checked(path, linenos.tolist(), lambda: ClassDistribution(
        classes=classes, counts=counts, gamma=values["gamma"],
        alpha_hat=values["alpha_hat"], degenerate=meta["degenerate"] == "true"))


# ---------------------------------------------------------------------------
# schedule artifacts
# ---------------------------------------------------------------------------

def write_schedule(path, schedule: Schedule, ids):
    """One line per (epoch, class), formatted one epoch at a time; ``ids``
    are the sample ids of the rows the schedule indexes."""
    ids = np.asarray(ids, dtype=object)
    classes = schedule.classes.tolist()
    write_lines(path, (",".join([str(t), str(cid), str(rank), str(rows.size), *ids[rows]])
                       for t in range(1, len(schedule.counts) + 1)
                       for rank, (cid, rows) in enumerate(zip(classes, schedule.prefixes(t)),
                                                          start=1)))


def write_epoch_rank_table(path, counts: np.ndarray):
    write_lines(path, ["epoch," + ",".join(f"rank_{r}" for r in range(1, counts.shape[1] + 1)),
                       *(f"{i}," + ",".join(str(int(v)) for v in row)
                         for i, row in enumerate(counts, start=1))])


def format_epoch_rank_table(counts: np.ndarray) -> str:
    header = "epoch " + " ".join(f"{f'rank{r}':>6}" for r in range(1, counts.shape[1] + 1))
    rows = [header]
    for i, row in enumerate(counts, start=1):
        rows.append(f"{i:>5} " + " ".join(f"{int(v):>6}" for v in row))
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def read_predictions(path) -> list[tuple[str, int, int]]:
    """The (sample id, true, pred) rows of a predictions file; the header
    is optional and the ids follow :func:`~climd.measurer.check_ids`."""
    rows, linenos = [], []
    for lineno, line in _numbered_lines(path):
        if lineno == 1 and line == "sample_id,true,pred":
            continue
        sid, *labels = _fields(path, lineno, line, 3)
        rows.append((sid, *_numbers(path, lineno, labels)))
        linenos.append(lineno)
    _checked(path, linenos, lambda: check_ids([sid for sid, _, _ in rows]))
    return rows


def write_predictions(path, rows):
    write_lines(path, ["sample_id,true,pred",
                       *(f"{sid},{int(t)},{int(p)}" for sid, t, p in rows)])


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of ``payload`` (sorted keys, no spaces)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


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
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])


def manifest_data_fields(manifest: dict) -> dict:
    """Everything that must be identical across reruns (drops the timestamp)."""
    return {k: v for k, v in manifest.items() if k != "timestamp"}

