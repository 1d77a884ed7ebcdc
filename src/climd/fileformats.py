"""Text-based interchange formats.

Every artifact is line-delimited UTF-8 text so pipeline stages stay
diffable and independently inspectable. Readers take their lines from
:func:`_numbered_lines` (decoded as UTF-8 less a leading BOM, stripped,
blank lines skipped) and name a rejected row one way,
``<path>: line <n>: <reason>`` (:func:`checked` for a check of all the
rows read). Writers hand theirs to :func:`write_lines`, which writes
them through the open file as they are made, so a table is formatted a
block of rows (a schedule: one epoch) at a time. Each reader writes its lines into arrays as it parses
them, the id-keyed CSV tables through one row loop, so besides the ids
it holds one line's Python objects, not a chunk's; one row writer takes
those arrays back once they pass their reader's checks. :func:`iter_traces`
yields the traces as one batch per ``TRACE_CHUNK`` lines, so ``climd
score`` and ``climd pipeline`` score them chunk by chunk, never the
whole trace arrays at once. Given a share of a share count, it yields
only that share's chunks and counts past the lines of the others, so the
commands read a file in forked shares whose line numbers and errors are
those of one read.

* traces: one JSON object per line with a string ``sample_id``, an
  integer ``label`` and a ``modalities`` array of
  ``{"probs": [...], "embedding": [...]}`` lists of JSON numbers;
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
  config is :func:`config_digest` of the config's other entries.

Floats are written with ``repr`` so they round-trip exactly and reruns
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from datetime import datetime, timezone
from itertools import chain, count, islice
from typing import Iterable, Iterator

import numpy as np

from .distribution import ClassDistribution
from .errors import ValidationError
from .measurer import DifficultyTable, TraceBatch, check_ids, check_int64
from .scheduler import Schedule


def _fmt(x: float) -> str:
    return repr(float(x))


def write_lines(path, lines: Iterable[str]):
    """Write each of ``lines`` and a newline to a UTF-8 text file, through
    the open file as the lines are made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _numbered_lines(path) -> Iterator[tuple[int, str]]:
    """The stripped non-blank lines of a UTF-8 text file, with their
    numbers; a leading byte order mark is dropped, not read as text."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def checked(path, check, linenos=None):
    """``check()`` of rows read from ``path``, its error (of the same class)
    prefixed by the path and, when it names a ``row``, by that row's line
    number: ``linenos[row]``, or by default that of the file's row-th
    non-blank line, found by reading the file again, so that a caller need
    keep no line number per row."""
    try:
        return check()
    except ValidationError as exc:
        lineno = None
        if exc.row is not None:
            lineno = (linenos[exc.row] if linenos is not None
                      else next(islice(_numbered_lines(path), exc.row, None), (None,))[0])
        where = f"line {lineno}: " if lineno is not None else ""
        raise type(exc)(f"{path}: {where}{exc}") from exc


def _numbers(path, lineno: int, fields, kind=int) -> list:
    """``fields`` parsed as ``kind``, int (which must fit in 64 bits) or
    float, naming the line of one that does not parse. Python's digit
    grouping (``1_0``) and non-ASCII digits are not numbers here."""
    for v in fields:
        if "_" in v or not v.isascii():
            raise ValidationError(f"{path}: line {lineno}: not an ASCII number: {v!r}")
    try:
        return [int(np.int64(v)) if kind is int else float(v) for v in fields]
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: line {lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# traces (JSON lines)
# ---------------------------------------------------------------------------

# The rows of each array chunk read_traces writes its lines into, the
# lines per batch of iter_traces, the rows the lab traces and scores per
# block, and the rows formatted per block by the row writer.
TRACE_CHUNK = 1024


def write_traces(path, batch: TraceBatch):
    write_lines(path, (
        json.dumps({"sample_id": sid, "label": label,
                    "modalities": [{"probs": p, "embedding": e}
                                   for p, e in zip(probs.tolist(), emb.tolist())]},
                   separators=(",", ":"))
        for sid, label, probs, emb in zip(batch.ids, batch.labels.tolist(),
                                          batch.probs, batch.emb)))


def _put_values(out: np.ndarray, key: str, rows: list):
    """Check one trace's per-modality ``key`` lists, then write them into
    ``out``, its row of a chunk's array: numpy alone would broadcast a short
    row and turn a bool, a numeric string or null into a float."""
    shape = out.shape
    if (len(shape) == 2 and not {*map(type, rows)} - {list}
            and [*map(len, rows)] == [shape[1]] * shape[0]):
        if not {int, float}.issuperset(map(type, chain(*rows))):
            bad = next(v for v in chain(*rows) if type(v) not in (int, float))
            raise ValidationError(f"{key} values must be JSON numbers, got {json.dumps(bad)}")
        try:
            out[...] = rows
            return
        except OverflowError:  # an integer beyond the float range
            raise ValidationError(
                f"{key} values must be JSON numbers within the float64 range") from None
    raise ValidationError(f"expected numbers in shape {shape} (modalities, values), "
                          "as on the first line")


def read_traces(path, lines=None, shapes=None) -> TraceBatch:
    """The traces of a JSONL file as one validated :class:`TraceBatch`.

    By default the whole file. :func:`iter_traces` passes ``lines``, an
    iterator over some of its numbered lines as (number, text) pairs, and
    ``shapes``, the (probs, embeddings) shape every trace must have, which
    is otherwise that of the first trace. Each line is parsed, checked and
    written straight into arrays of ``TRACE_CHUNK`` rows, the batch is
    validated once, and a rejected trace is named by its line.
    """
    ids, labels, linenos, chunks = [], array("q"), array("q"), []
    for lineno, line in _numbered_lines(path) if lines is None else lines:
        n = len(ids) % TRACE_CHUNK
        try:
            obj = json.loads(line)
            if type(obj["sample_id"]) is not str:
                raise ValidationError(
                    f"sample_id must be a JSON string, got {obj['sample_id']!r}")
            if type(obj["label"]) is not int:
                raise ValidationError(f"label must be a JSON integer, got {obj['label']!r}")
            if not -2**63 <= obj["label"] < 2**63:
                raise ValidationError(
                    f"label must be a 64-bit JSON integer, got {obj['label']!r}")
            rows = [[mod[key] for mod in obj["modalities"]] for key in ("probs", "embedding")]
            shapes = shapes or tuple(map(np.shape, rows))
            if not n:
                chunks.append(tuple(np.empty((TRACE_CHUNK, *shape)) for shape in shapes))
            _put_values(chunks[-1][0][n], "probs", rows[0])
            _put_values(chunks[-1][1][n], "embedding", rows[1])
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        ids.append(obj["sample_id"])
        labels.append(obj["label"])
        linenos.append(lineno)
    # The first len(ids) rows of each chunked array; a single chunk is not copied.
    probs, emb = ((col[0] if len(col) == 1 else np.concatenate(col))[:len(ids)]
                  for col in zip(*chunks or [(np.zeros((0, 0, 0)),) * 2]))
    return checked(path, lambda: TraceBatch(
        ids=ids, labels=np.frombuffer(labels, np.int64), probs=probs, emb=emb), linenos)


def iter_traces(path, share: int = 0, shares: int = 1) -> Iterator[TraceBatch]:
    """Yield the traces of a JSONL file as :func:`read_traces` batches of
    up to ``TRACE_CHUNK`` lines, in file order; a file without traces
    yields one empty batch. Each batch is validated on its own, against
    the shapes of the first trace; the checks that span the file (repeated
    ids) are left to the caller, whose :func:`checked` names their line.

    With ``shares`` > 1 it yields only the batches of the blocks k with
    ``k % shares == share`` (the empty batch to share 0), and counts past
    the lines of the others, parsing only the file's first trace for its
    shapes. A line's number and a batch's errors are then those of the
    whole-file read.
    """
    numbered = _numbered_lines(path)
    shapes = None
    for k in count():
        block = islice(numbered, TRACE_CHUNK)
        if k % shares == share:
            batch = read_traces(path, block, shapes)
            if len(batch) or not k:
                yield batch
        else:
            batch = read_traces(path, islice(block, 1)) if shapes is None else ()
        if len(batch) + sum(1 for _ in block) < TRACE_CHUNK:
            return
        shapes = shapes or (batch.probs.shape[1:], batch.emb.shape[1:])



# ---------------------------------------------------------------------------
# difficulty table (CSV)
# ---------------------------------------------------------------------------

def _write_rows(path, header: str, ids, columns: list):
    """The mirror of :func:`_rows`: ``header``, then per id a line of the id and
    its values in ``columns``, (N,) or (N, m) arrays stacked a block at a time as
    Python objects, so that an int stays an int and a float keeps its ``repr``."""
    write_lines(path, chain([header], (
        ",".join([sid, *map(repr, row)]) for lo in range(0, len(ids), TRACE_CHUNK)
        for sid, row in zip(ids[lo:lo + TRACE_CHUNK], np.column_stack(
            [col[lo:lo + TRACE_CHUNK].astype(object) for col in columns]).tolist()))))


def _write_ints(path, header: str, ids, columns):
    """Write ``ids`` and (N,) integer ``columns`` once they pass their reader's
    checks, before a file is opened; a rejected row is named by the line it
    would have been written on."""
    def check():
        check_ids(ids)
        cols = [check_int64(name, col) for name, col in zip(header.split(",")[1:], columns)]
        if any(col.shape != (len(ids),) for col in cols):
            raise ValidationError(f"{len(ids)} ids, columns of shapes {[c.shape for c in cols]}")
        return cols
    _write_rows(path, header, ids, checked(path, check, range(2, len(ids) + 2)))


def write_difficulty(path, table: DifficultyTable):
    psi = [f"psi_{i}" for i in range(1, table.psi.shape[1] + 1)]
    _write_rows(path, ",".join(["sample_id", "label", "phi", *psi, "r"]), table.ids,
                [table.labels, table.phi, table.psi, table.r])


def _rows(path, lines, header: str, n_ints: int):
    """The ids, the (N, ``n_ints``) int64 columns, the (N, rest) finite
    float columns and the line numbers of the CSV rows in ``lines``, whose
    fields ``header`` names; each line is packed into arrays as it is read.
    The first of ``lines``, an iterator, is skipped if it equals ``header``;
    a later one equal to it is a row, so it is rejected."""
    width = header.count(",") + 1
    ids, ints, floats, linenos = [], array("q"), array("d"), array("q")
    first = next(lines, None)
    if first is not None and first[1] != header:
        lines = chain([first], lines)
    for lineno, line in lines:
        parts = _fields(path, lineno, line, width)
        ints.extend(_numbers(path, lineno, parts[1:1 + n_ints]))
        row = _numbers(path, lineno, parts[1 + n_ints:], float)
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"{path}: line {lineno}: non-finite score in {line!r}")
        ids.append(parts[0])
        floats.extend(row)
        linenos.append(lineno)
    n = len(ids)
    return (ids, np.frombuffer(ints, np.int64).reshape(n, n_ints),
            np.frombuffer(floats).reshape(n, width - 1 - n_ints), linenos)


def read_difficulty(path) -> DifficultyTable:
    lines = _numbered_lines(path)
    _, header = first = next(lines, (1, ""))
    cols = header.split(",")
    if cols[:3] != ["sample_id", "label", "phi"] or cols[-1] != "r":
        raise ValidationError(f"{path}: unrecognized difficulty header {header!r}")
    # _rows skips the header as the first of its lines and rejects a repeat.
    ids, labels, scores, linenos = _rows(path, chain([first], lines), header, 1)
    return checked(path, lambda: DifficultyTable(
        ids=ids, labels=labels[:, 0], psi=scores[:, 1:-1], phi=scores[:, 0], r=scores[:, -1]),
        linenos)


# ---------------------------------------------------------------------------
# labels (CSV)
# ---------------------------------------------------------------------------

def write_labels(path, ids, labels):
    _write_ints(path, "sample_id,label", ids, [labels])


def read_labels(path) -> tuple[list[str], np.ndarray]:
    """The sample ids and (N,) int64 labels of a labels file; the header
    is optional and the ids follow :func:`~climd.measurer.check_ids`."""
    ids, labels, _, linenos = _rows(path, _numbered_lines(path), "sample_id,label", 1)
    checked(path, lambda: check_ids(ids), linenos)
    return ids, labels[:, 0]


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
    meta = {}  # key -> (value, line)
    rows = {}  # rank -> (class id, count, line)
    header = "class_id,count,rank"  # skipped once, before the first row; a repeat is a row
    for lineno, line in _numbered_lines(path):
        if line == header and not rows:
            header = None
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            if (key := key.strip()) in meta:
                raise ValidationError(f"{path}: line {lineno}: repeated header key {key!r}")
            meta[key] = value.strip(), lineno
            continue
        cid, count, rank = _numbers(path, lineno, _fields(path, lineno, line, 3))
        if rank in rows:
            raise ValidationError(f"{path}: line {lineno}: duplicate rank {rank}")
        rows[rank] = cid, count, lineno
    for key in ("gamma", "alpha_hat", "degenerate"):
        if key not in meta:
            raise ValidationError(f"{path}: missing '# {key}=' header line")
    [gamma], [alpha_hat] = (_numbers(path, lineno, [text], float)
                            for text, lineno in (meta["gamma"], meta["alpha_hat"]))
    degenerate = meta["degenerate"][0]
    if degenerate not in ("true", "false"):
        raise ValidationError(f"{path}: degenerate must be true or false, got {degenerate!r}")
    for rank, (_, _, lineno) in rows.items():
        if not 1 <= rank <= len(rows):
            raise ValidationError(f"{path}: line {lineno}: rank {rank} outside "
                                  f"1..{len(rows)}; ranks must be a permutation")
    classes, counts, linenos = np.array([rows[r] for r in sorted(rows)],
                                        dtype=np.int64).reshape(-1, 3).T
    return checked(path, lambda: ClassDistribution(
        classes=classes, counts=counts, gamma=gamma, alpha_hat=alpha_hat,
        degenerate=degenerate == "true"), linenos.tolist())


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

def read_predictions(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sample ids and (N,) int64 true and predicted labels of a
    predictions file; the header is optional and the ids follow
    :func:`~climd.measurer.check_ids`."""
    ids, labels, _, linenos = _rows(path, _numbered_lines(path), "sample_id,true,pred", 2)
    checked(path, lambda: check_ids(ids), linenos)
    return ids, labels[:, 0], labels[:, 1]


def write_predictions(path, ids, true, pred):
    _write_ints(path, "sample_id,true,pred", ids, [true, pred])


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    """SHA-256 of a file, read in blocks into one reused 64 KiB buffer."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(block[:n])
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

