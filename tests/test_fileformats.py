import hashlib
import json
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climd import cli
from climd import fileformats as ff
from climd.distribution import ClassDistribution, subset_size
from climd.errors import DomainError, ValidationError
from climd.measurer import DifficultyTable, TraceBatch, check_ids, score_dataset
from climd.scheduler import (EASY_HIGH_R, EASY_LOW_R, build_queues, build_schedule,
                             reference_ramp)
from climd.simlab import FusionModel, SyntheticSpec, collect_traces, generate_dataset


@pytest.fixture
def traces():
    spec = SyntheticSpec(n_classes=3, dims=(4, 3), n_samples=40,
                         imbalance_exponent=1.0, seed=9)
    dataset = generate_dataset(spec)
    model = FusionModel.init(spec.dims, 4, 3, np.random.default_rng(1))
    return collect_traces(model, dataset)


class TestTraceFormat:
    def test_round_trip_is_lossless(self, traces, tmp_path):
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, traces)
        back = ff.read_traces(path)
        assert len(back) == len(traces)
        assert back.ids == traces.ids
        assert np.array_equal(back.labels, traces.labels)
        assert np.array_equal(back.probs, traces.probs)
        assert np.array_equal(back.emb, traces.emb)

    def test_corrupt_line_names_its_number(self, traces, tmp_path):
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, traces)
        lines = path.read_text().splitlines()
        lines[4] = '{"sample_id": "x"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="line 5"):
            ff.read_traces(path)

    def test_a_trace_missing_a_modality_names_its_line(self, traces, tmp_path):
        # Its (1, C) probs would broadcast silently over a chunk row's (M, C).
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, traces)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[4])
        obj["modalities"] = obj["modalities"][:1]
        lines[4] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as info:
            ff.read_traces(path)
        assert str(info.value) == (f"{path}: line 5: expected numbers in shape "
                                   f"{traces.probs.shape[1:]} (modalities, values), "
                                   "as on the first line")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, TraceBatch(ids=[], labels=np.zeros(0, dtype=int),
                                         probs=np.zeros((0, 2, 3)), emb=np.zeros((0, 2, 4))))
        assert path.read_text() == ""
        assert len(ff.read_traces(path)) == 0


class TestDifficultyFormat:
    def test_round_trip(self, traces, tmp_path):
        table = score_dataset(traces)
        path = tmp_path / "difficulty.csv"
        ff.write_difficulty(path, table)
        back = ff.read_difficulty(path)
        assert back.ids == table.ids
        assert np.array_equal(back.labels, table.labels)
        # repr round-trips exactly
        for col in ("phi", "psi", "r"):
            assert np.array_equal(getattr(back, col), getattr(table, col))

    def test_header_names_modalities(self, traces, tmp_path):
        path = tmp_path / "difficulty.csv"
        ff.write_difficulty(path, score_dataset(traces))
        header = path.read_text().splitlines()[0]
        assert header == "sample_id,label,phi,psi_1,psi_2,r"

    @pytest.mark.parametrize("header", ["", "id,label,phi,r", "sample_id,label,phi,psi_1"])
    def test_unrecognized_header_rejected(self, tmp_path, header):
        path = tmp_path / "difficulty.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValidationError, match="unrecognized difficulty header"):
            ff.read_difficulty(path)

    def test_mixed_modality_counts_rejected(self):
        with pytest.raises(ValidationError):
            DifficultyTable(ids=["a", "b"], labels=[0, 0], psi=[[0.5, 0.5], [0.5, 0.5, 0.5]],
                            phi=[0.0, 0.0], r=[0.5, 0.5])

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "difficulty.csv"
        path.write_text("sample_id,label,phi,psi_1,r\na,0,0.1,0.4\n")
        with pytest.raises(ValidationError, match="line 2"):
            ff.read_difficulty(path)
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"sample_id,label,phi,psi_1,r\na,0,0.1,0.2,0.3\nb,0,0.1,0.2,{bad}\n")
            with pytest.raises(ValidationError, match="line 3"):
                ff.read_difficulty(path)
        path.write_text("sample_id,label,phi,psi_1,r\na,0,0.1,nan,0.3\n")
        with pytest.raises(ValidationError, match="line 2"):
            ff.read_difficulty(path)


def traced_peak(read):
    """``read()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = read()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    """The readers write each line straight into arrays, so their peak is
    set by arrays and not by a chunk (or a file) of parsed Python objects."""

    def test_iter_traces_peak_is_set_by_chunk_arrays(self, tmp_path):
        n, m, c, d = 2 * ff.TRACE_CHUNK + 10, 2, 3, 64
        rng = np.random.default_rng(3)
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, TraceBatch(ids=[f"s{i:05d}" for i in range(n)],
                                         labels=np.arange(n) % c,
                                         probs=rng.dirichlet(np.ones(c), size=(n, m)),
                                         emb=rng.standard_normal((n, m, d))))
        chunk = ff.TRACE_CHUNK * m * (c + d) * np.dtype(float).itemsize
        # One line's text and its parsed floats, each in a list slot.
        line = (max(map(len, path.read_text().splitlines()))
                + m * (c + d) * (sys.getsizeof(1.0) + 8))
        sizes, peak = traced_peak(lambda: [len(batch) for batch in ff.iter_traces(path)])
        assert sizes == [ff.TRACE_CHUNK, ff.TRACE_CHUNK, 10]
        # Four chunks of arrays: the caller's last batch, the chunk being
        # filled, and the batch check's temporaries (up to a chunk's
        # embeddings). A chunk's lines and nested lists would add ~6 more.
        assert peak < 4 * chunk + line, (peak, chunk, line)

    def test_read_difficulty_peak_is_a_small_multiple_of_the_table(self, tmp_path):
        n = 10_000
        rng = np.random.default_rng(4)
        r = rng.uniform(0.0, 2.0, n)
        path = tmp_path / "difficulty.csv"
        ff.write_difficulty(path, DifficultyTable(
            ids=[f"s{i:07d}" for i in range(n)], labels=np.arange(n) % 7,
            psi=rng.uniform(0.0, 0.5, (n, 3)), phi=r / 2, r=r))
        table, peak = traced_peak(lambda: ff.read_difficulty(path))
        size = (sum(a.nbytes for a in (table.labels, table.psi, table.phi, table.r))
                + sys.getsizeof(table.ids) + sum(map(sys.getsizeof, table.ids)))
        assert peak < 1.5 * size, (peak, size)

    @pytest.mark.parametrize("name", ["labels", "predictions"])
    def test_label_readers_peak_below_130_bytes_per_row(self, tmp_path, name):
        n = 50_000
        write, read = CSV_PAIRS[name]
        path = tmp_path / f"{name}.csv"
        write(path, [f"s{i:08d}" for i in range(n)])
        _, peak = traced_peak(lambda: read(path))
        # A 9-character id is a 58-byte str and a list slot, a label 8 bytes
        # in an array; a tuple per row would add about 80 bytes more.
        assert peak < 130 * n, peak / n


class TestIdAndDigestMemory:
    """The id checks, the id tie-break and the input digest make no
    per-id object and no file-sized buffer."""

    N = 50_000

    def ids(self):
        return random.Random(6).sample([f"s{i:07d}" for i in range(self.N)], self.N)

    def test_check_ids_peak_is_a_small_multiple_of_the_id_pointers(self):
        ids = self.ids()
        scan = sys.getsizeof("".join(ids))
        _, peak = traced_peak(lambda: check_ids(ids))
        # A sorted copy of the id list, its merge buffer and a bool per id;
        # a set of the ids alone would take about 5 * 8 * N.
        assert peak < 2 * 8 * self.N + scan, (peak, scan)

    def test_build_queues_peak_is_a_small_multiple_of_the_row_count(self):
        n = self.N
        labels = np.arange(n) % 7
        r = np.round(np.random.default_rng(6).uniform(0.0, 2.0, n), 2)
        table = DifficultyTable(ids=self.ids(), labels=labels, psi=np.zeros((n, 2)),
                                phi=r, r=r)
        dist = ClassDistribution.from_labels(labels, 0.3)
        order, peak = traced_peak(lambda: build_queues(table, dist))
        rank = {cid: k for k, cid in enumerate(dist.classes.tolist())}
        assert order.tolist() == sorted(range(n), key=lambda i: (rank[labels[i]], -r[i],
                                                                 table.ids[i]))
        # A handful of (N,) index and key arrays; an int object per row for
        # the id tie-break would add about 5 * 8 * N more.
        assert peak < 6 * 8 * n, peak

    def test_sha256_file_peak_does_not_grow_with_the_file(self, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(np.random.default_rng(6).bytes(4 << 20))
        digest, peak = traced_peak(lambda: ff.sha256_file(path))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 128 << 10, peak


class TestLabelsFormat:
    def test_round_trip(self, tmp_path):
        pairs = [(f"s{i}", i % 3) for i in range(10)]
        path = tmp_path / "labels.csv"
        ff.write_labels(path, *map(list, zip(*pairs)))
        ids, labels = ff.read_labels(path)
        assert labels.dtype == np.int64
        assert list(zip(ids, labels.tolist())) == pairs

    def test_bad_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\na,0\nb,zebra\n")
        with pytest.raises(ValidationError, match="line 3"):
            ff.read_labels(path)


class TestDistributionFormat:
    def test_round_trip(self, tmp_path):
        dist = ClassDistribution.from_counts({0: 100, 1: 50, 2: 10}, gamma=0.3)
        path = tmp_path / "distribution.csv"
        ff.write_distribution(path, dist)
        back = ff.read_distribution(path)
        assert np.array_equal(back.counts, dist.counts)
        assert np.array_equal(back.classes, dist.classes)
        assert back.gamma == dist.gamma
        assert back.alpha_hat == dist.alpha_hat
        assert back.degenerate == dist.degenerate

    def test_degenerate_round_trip(self, tmp_path):
        dist = ClassDistribution.from_counts({0: 5, 1: 5}, gamma=0.3)
        assert dist.degenerate
        path = tmp_path / "distribution.csv"
        ff.write_distribution(path, dist)
        assert ff.read_distribution(path).degenerate

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "distribution.csv"
        path.write_text("class_id,count,rank\n0,5,1\n")
        with pytest.raises(ValidationError, match="gamma"):
            ff.read_distribution(path)

    HEADER = "# n_min=10\n# gamma=0.3\n# alpha_hat=5.0\n# degenerate=false\nclass_id,count,rank\n"

    @pytest.mark.parametrize("rows,match", [
        ("0,100,1\n0,50,2\n", "line 7: duplicate class_id 0"),
        ("0,100,1\n1,50,1\n", "line 7: duplicate rank 1"),
        ("0,100,1\n1,50,3\n", "line 7: rank 3 outside 1..2"),
        ("0,100,0\n1,50,1\n", "line 6: rank 0 outside 1..2"),
    ])
    def test_bad_class_rows_named(self, tmp_path, rows, match):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER + rows)
        with pytest.raises(ValidationError, match=match):
            ff.read_distribution(path)

    @pytest.mark.parametrize("old,new,match", [
        ("gamma=0.3", "gamma=nan", "gamma must be a finite number"),
        ("gamma=0.3", "gamma=abc", "line 2: could not convert string to float: 'abc'"),
        ("alpha_hat=5.0", "alpha_hat=inf", "alpha_hat must be a finite number"),
        ("alpha_hat=5.0", "alpha_hat=3.0", r"gamma\*alpha_hat must exceed 1"),
        ("degenerate=false", "degenerate=no", "degenerate must be true or false"),
        ("gamma=0.3\n", "gamma=0.3\n# gamma=0.9\n", "line 3: repeated header key 'gamma'"),
    ])
    def test_bad_header_values_named(self, tmp_path, old, new, match):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER.replace(old, new) + "0,100,1\n1,50,2\n")
        with pytest.raises(ValidationError, match=match):
            ff.read_distribution(path)

    def test_a_domain_error_keeps_its_class(self, tmp_path):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER.replace("alpha_hat=5.0", "alpha_hat=3.0")
                        + "0,100,1\n1,50,2\n")
        with pytest.raises(DomainError) as info:
            ff.read_distribution(path)
        assert str(info.value) == (f"{path}: gamma*alpha_hat must exceed 1 unless degenerate, "
                                   f"got {0.3 * 3.0!r}")

    def test_degenerate_flag_waives_the_alpha_bound(self, tmp_path):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER.replace("alpha_hat=5.0", "alpha_hat=3.0")
                        .replace("degenerate=false", "degenerate=true") + "0,50,1\n1,50,2\n")
        assert ff.read_distribution(path).degenerate

    def test_alpha_below_one_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER.replace("alpha_hat=5.0", "alpha_hat=0.5")
                        .replace("degenerate=false", "degenerate=true") + "0,50,1\n1,50,2\n")
        with pytest.raises(ValidationError) as info:
            ff.read_distribution(path)
        assert str(info.value) == f"{path}: alpha_hat must be a finite number >= 1, got 0.5"


@st.composite
def scored_tables(draw):
    """A difficulty table with arbitrary class sizes, rows and ids in a
    shuffled order, and r drawn from a few values so that ties are common;
    plus an epoch count and a difficulty order."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=6))
    n = sum(sizes)
    perm = np.array(draw(st.permutations(range(n))))
    labels = np.repeat(np.arange(len(sizes)), sizes)[perm]
    r = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                               min_size=n, max_size=n)))
    ids = [f"s{i:02d}" for i in draw(st.permutations(range(n)))]
    table = DifficultyTable(ids=ids, labels=labels, psi=np.column_stack([r / 2, r / 2]),
                            phi=r / 2, r=r)
    return table, draw(st.integers(1, 12)), draw(st.sampled_from([EASY_HIGH_R, EASY_LOW_R]))


class TestScheduleFormat:
    @settings(derandomize=True, database=None)
    @given(scored_tables())
    def test_written_schedule_is_the_ramp_of_queue_prefixes(self, case):
        table, total_epochs, order = case
        dist = ClassDistribution.from_labels(table.labels, 0.3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "schedule.csv"
            ff.write_schedule(path, build_schedule(table, dist, total_epochs, order), table.ids)
            lines = [line.split(",") for line in path.read_text().splitlines()]
        n = len(table)
        # The oracle queue of a class: easy to hard by r, ties by sample id.
        sign = -1 if order == EASY_HIGH_R else 1
        queues = {cid: sorted((table.ids[i] for i in np.flatnonzero(table.labels == cid)),
                              key=lambda sid: (sign * table.r[table.ids.index(sid)], sid))
                  for cid in dist.classes.tolist()}
        assert len(lines) == total_epochs * dist.n_classes
        visits = {}
        for i, (epoch, cid, rank, s_t, *ids) in enumerate(lines):
            t, k = divmod(i, dist.n_classes)
            assert (int(epoch), int(cid), int(rank)) == (t + 1, dist.classes[k], k + 1)
            assert len(ids) == int(s_t)
            assert ids == queues[int(cid)][:len(ids)]
            visits.setdefault(t + 1, []).extend(ids)
        for t, ids in visits.items():
            assert len(ids) == subset_size(t, total_epochs, n)
        assert sorted(visits[total_epochs]) == sorted(table.ids)

    def test_manifest_lines(self, tmp_path):
        labels = np.repeat(np.arange(4), [30, 15, 10, 5])
        r = np.full(60, 0.5)
        table = DifficultyTable(ids=[f"x{i}" for i in range(60)], labels=labels,
                                psi=np.column_stack([r / 2, r / 2]), phi=r / 2, r=r)
        schedule = build_schedule(table, ClassDistribution.from_labels(labels, 0.3), 3)
        path = tmp_path / "schedule.csv"
        ff.write_schedule(path, schedule, table.ids)
        lines = path.read_text().splitlines()
        assert len(lines) == 3 * 4
        epoch, cid, rank, count, *ids = lines[0].split(",")
        assert (epoch, rank) == ("1", "1")
        assert len(ids) == int(count)
        total = sum(int(line.split(",")[3]) for line in lines if line.startswith("3,"))
        assert total == 60

    def test_epoch_rank_table(self, tmp_path):
        path = tmp_path / "counts.csv"
        ff.write_epoch_rank_table(path, reference_ramp())
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch," + ",".join(f"rank_{r}" for r in range(1, 11))
        first = [int(v) for v in lines[1].split(",")]
        assert first == [1] + [10] * 10


class TestPredictionsFormat:
    def test_round_trip(self, tmp_path):
        rows = [("a", 0, 0), ("b", 0, 1), ("c", 1, 1)]
        path = tmp_path / "preds.csv"
        ff.write_predictions(path, *map(list, zip(*rows)))
        ids, true, pred = ff.read_predictions(path)
        assert true.dtype == pred.dtype == np.int64
        assert list(zip(ids, true.tolist(), pred.tolist())) == rows

    def test_bad_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,true,pred\na,0\n")
        with pytest.raises(ValidationError, match="line 2"):
            ff.read_predictions(path)


NON_ASCII_IDS = ["é", "Ωmega", "日本語", "😀", "a b"]


def plain(result):
    """A reader's result as plain Python values, comparable with ==."""
    if isinstance(result, tuple):
        return [v.tolist() if isinstance(v, np.ndarray) else v for v in result]
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(result).items()}


def random_batch(ids):
    rng = np.random.default_rng(3)
    n = len(ids)
    return TraceBatch(ids=ids, labels=np.arange(n) % 3, probs=rng.dirichlet(np.ones(3), (n, 2)),
                      emb=rng.standard_normal((n, 2, 4)))


# One writer/reader pair per CSV artifact: (write(path, ids), read(path)).
CSV_PAIRS = {
    "difficulty": (lambda path, ids: ff.write_difficulty(path, score_dataset(random_batch(ids))),
                   ff.read_difficulty),
    "labels": (lambda path, ids: ff.write_labels(path, ids, np.arange(len(ids)) % 3),
               ff.read_labels),
    "predictions": (lambda path, ids: ff.write_predictions(
        path, ids, np.arange(len(ids)) % 3, (np.arange(len(ids)) + 1) % 3), ff.read_predictions),
    "distribution": (lambda path, ids: ff.write_distribution(
        path, ClassDistribution.from_labels(np.arange(len(ids)) % 3)), ff.read_distribution),
}


class TestTextLines:
    """Every reader takes the same lines: UTF-8, stripped, blank ones skipped."""

    @pytest.mark.parametrize("name", sorted(CSV_PAIRS))
    def test_crlf_and_blank_lines_read_the_same(self, tmp_path, name):
        write, read = CSV_PAIRS[name]
        path = tmp_path / f"{name}.csv"
        write(path, [f"s{i}" for i in range(7)])
        expected = plain(read(path))
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        spaced = [header] + [line for row in rows for line in ("", " \t", row)] + ["", "  "]
        path.write_bytes("\r\n".join(spaced).encode("utf-8") + b"\r\n")
        assert plain(read(path)) == expected

    @pytest.mark.parametrize("name", ["labels", "predictions"])
    def test_header_is_optional(self, tmp_path, name):
        write, read = CSV_PAIRS[name]
        path = tmp_path / f"{name}.csv"
        write(path, [f"s{i}" for i in range(7)])
        expected = read(path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        assert plain(read(path)) == plain(expected) and len(expected[0]) == 7

    @pytest.mark.parametrize("name", sorted(set(CSV_PAIRS) - {"distribution"}))
    def test_non_ascii_ids_round_trip(self, tmp_path, name):
        write, read = CSV_PAIRS[name]
        path = tmp_path / f"{name}.csv"
        write(path, NON_ASCII_IDS)
        assert "日本語" in path.read_bytes().decode("utf-8")
        back = read(path)
        ids = back[0] if isinstance(back, tuple) else back.ids
        assert ids == NON_ASCII_IDS

    # Python's int() and float() read digit grouping and any Unicode digit.
    @pytest.mark.parametrize("read, text, lineno, field", [
        (ff.read_labels, "sample_id,label\na,0\nb,1_0\n", 3, "1_0"),
        (ff.read_labels, "a,１２\n", 1, "１２"),
        (ff.read_predictions, "sample_id,true,pred\na,0,1_1\n", 2, "1_1"),
        (ff.read_predictions, "a,٣,0\n", 1, "٣"),
        (ff.read_difficulty, "sample_id,label,phi,psi_1,r\na,0,0.1,0.2,0_3\n", 2, "0_3"),
        (ff.read_difficulty, "sample_id,label,phi,psi_1,r\na,０,0.1,0.2,0.3\n", 2, "０"),
        (ff.read_distribution,
         TestDistributionFormat.HEADER.replace("0.3", "0_3") + "0,100,1\n", 2, "0_3"),
        (ff.read_distribution, TestDistributionFormat.HEADER + "0,1０0,1\n", 6, "1０0"),
    ], ids=["labels-grouped", "labels-fullwidth", "predictions-grouped",
            "predictions-arabic-indic", "difficulty-grouped", "difficulty-fullwidth",
            "distribution-header-grouped", "distribution-row-fullwidth"])
    def test_only_plain_ascii_numbers_parse(self, tmp_path, read, text, lineno, field):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read(path)
        assert str(info.value) == f"{path}: line {lineno}: not an ASCII number: {field!r}"

    def test_non_ascii_trace_ids_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, random_batch(NON_ASCII_IDS))
        assert ff.read_traces(path).ids == NON_ASCII_IDS


def text(content):
    return lambda path: path.write_text(content)


def eight_traces(lineno, old, new):
    """A writer of traces s0..s7 (s4's label is 1) with a blank third line,
    whose line ``lineno`` has ``old`` replaced by ``new``."""
    def write(path):
        ff.write_traces(path, random_batch([f"s{i}" for i in range(8)]))
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)
        path.write_text("\n".join(lines) + "\n")
    return write


class TestRejectedLines:
    """Every reader names a rejected row as ``<path>: line <n>: <reason>``,
    whether one line or a check of all the rows read rejects it."""

    @pytest.mark.parametrize("read, write, lineno, reason", [
        (ff.read_traces, eight_traces(4, '{"sample_id"', 'not-json{"sample_id"'), 4,
         "Expecting value: line 1 column 1 (char 0)"),
        (ff.read_traces, eight_traces(6, '"label":1,', '"label":7,'), 6,
         "label outside [0, 3) in 1 of 8 samples, first ['s4']"),
        # Chunks of four traces: s5's line repeats s0, an id of the first chunk,
        # and is found by reading the file again, past its blank line.
        (cli._score_traces, eight_traces(7, '"s5"', '"s0"'), 7,
         "duplicate sample ids: ['s0']"),
        (ff.read_difficulty, text("sample_id,label,phi,psi_1,r\na,0,0.1,0.2,0.3\n"
                                  "b,0,0.1,0.2,inf\n"), 3,
         "non-finite score in 'b,0,0.1,0.2,inf'"),
        (ff.read_difficulty, text("sample_id,label,phi,psi_1,r\na,0,0.1,0.2,0.3\n\n"
                                  "b,0,0.1,0.2,0.3\na,1,0.1,0.2,0.3\n"), 5,
         "duplicate sample ids: ['a']"),
        (ff.read_labels, text("sample_id,label\na,0\nb,1\n\na,2\n"), 5,
         "duplicate sample ids: ['a']"),
        (ff.read_predictions, text("a,0,1\nb,1,1\na,1,0\n"), 3,
         "duplicate sample ids: ['a']"),
        (ff.read_distribution, text(TestDistributionFormat.HEADER + "0,100,1\n0,50,2\n"), 7,
         "duplicate class_id 0"),
    ], ids=["traces-bad-line", "traces-batch-check", "traces-repeat-across-chunks",
            "difficulty-non-finite", "difficulty-repeated-id", "labels-repeated-id",
            "predictions-repeated-id", "distribution-repeated-class"])
    def test_a_rejected_row_is_named_by_path_and_line(self, tmp_path, monkeypatch, read,
                                                      write, lineno, reason):
        monkeypatch.setattr(ff, "TRACE_CHUNK", 4)
        path = tmp_path / "input.txt"
        write(path)
        with pytest.raises(ValidationError) as info:
            read(path)
        assert str(info.value) == f"{path}: line {lineno}: {reason}"


class TestManifest:
    def test_data_fields_drop_timestamp(self, tmp_path):
        src = tmp_path / "input.txt"
        src.write_text("hello")
        manifest = ff.build_manifest("fit", {"gamma": 0.3}, {"labels": src},
                                     [0, 1], "0.1.0")
        assert "timestamp" in manifest
        data = ff.manifest_data_fields(manifest)
        assert "timestamp" not in data
        assert data["inputs"]["labels"] == ff.sha256_file(src)

    def test_digest_tracks_content(self, tmp_path):
        src = tmp_path / "input.txt"
        src.write_text("hello")
        d1 = ff.sha256_file(src)
        src.write_text("changed")
        assert ff.sha256_file(src) != d1


# Valid sample ids: any code point but the separators and lone surrogates,
# non-ASCII ones included, and no surrounding whitespace.
VALID_IDS = st.lists(st.sampled_from(NON_ASCII_IDS) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
    min_size=1, max_size=6).filter(lambda sid: sid == sid.strip()), unique=True, max_size=8)
INT64S = st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1, 0, -1])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     -1.7976931348623157e308])


@st.composite
def id_tables(draw):
    """A table name and its ids, integer columns (labels; or true and
    pred) and, for a difficulty table, its phi, psi (N, M) and r."""
    name = draw(st.sampled_from(["difficulty", "labels", "predictions"]))
    ids = draw(VALID_IDS)
    n = len(ids)
    ints = [np.array(draw(st.lists(INT64S, min_size=n, max_size=n)), dtype=np.int64)
            for _ in range(2 if name == "predictions" else 1)]
    m = draw(st.integers(0, 3))
    floats = [np.array(draw(st.lists(FLOATS, min_size=n * k, max_size=n * k))).reshape(shape)
              for k, shape in ((1, n), (m, (n, m)), (1, n))]
    return name, ids, ints, floats


def write_table(name, path, ids, ints, floats):
    """Write an id-keyed table: a difficulty table is built from its columns."""
    if name == "difficulty":
        phi, psi, r = floats
        ff.write_difficulty(path, DifficultyTable(ids=ids, labels=ints[0], psi=psi, phi=phi, r=r))
    else:
        {"labels": ff.write_labels, "predictions": ff.write_predictions}[name](path, ids, *ints)


def read_table(name, path):
    """The ids, integer columns and float columns of an id-keyed table."""
    if name == "difficulty":
        table = ff.read_difficulty(path)
        return table.ids, [table.labels], [table.phi, table.psi, table.r]
    ids, *ints = {"labels": ff.read_labels, "predictions": ff.read_predictions}[name](path)
    return ids, ints, []


class TestRowWriter:
    """The difficulty, labels and predictions writers take the arrays their
    readers return, and write only what those readers read back."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(id_tables())
    def test_write_read_write_is_exact(self, case):
        name, ids, ints, floats = case
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            write_table(name, first, ids, ints, floats)
            back_ids, back_ints, back_floats = read_table(name, first)
            write_table(name, second, back_ids, back_ints, back_floats)
            assert second.read_bytes() == first.read_bytes()
        assert back_ids == ids
        for col, back in zip(ints, back_ints):
            assert back.dtype == np.int64 and back.tobytes() == col.tobytes()
        if name == "difficulty":
            for col, back in zip(floats, back_floats):
                assert back.shape == col.shape and back.tobytes() == col.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(id_tables().filter(lambda case: case[1]), st.data())
    def test_invalid_input_is_refused_and_writes_no_file(self, case, data):
        name, ids, ints, floats = case
        ids, ints, floats = list(ids), [*ints], [f.copy() for f in floats]
        n = len(ids)
        row = data.draw(st.integers(0, n - 1))
        kinds = ["comma", "newline", "padded", "empty", "float-label", "bool-label",
                 "label-2**63", "label-below-int64"] + ["repeat"] * (n > 1)
        kinds += ["nan", "inf"] * (name == "difficulty")
        kind = data.draw(st.sampled_from(kinds))
        column = data.draw(st.integers(0, len(ints) - 1))
        if kind in ("comma", "newline", "padded", "empty"):
            ids[row] = {"comma": "a,b", "newline": "a\nb", "padded": f" {ids[row]}",
                        "empty": ""}[kind]
        elif kind == "repeat":
            ids[row] = ids[row - 1]
        elif kind == "float-label":
            ints[column] = ints[column].astype(float)
        elif kind == "bool-label":
            ints[column] = ints[column] % 2 == 0
        elif kind in ("label-2**63", "label-below-int64"):
            values = ints[column].tolist()
            values[row] = 2**63 if kind == "label-2**63" else -2**63 - 1
            ints[column] = values
        else:
            value = np.nan if kind == "nan" else data.draw(st.sampled_from([np.inf, -np.inf]))
            k = data.draw(st.sampled_from([k for k, f in enumerate(floats) if f.size]))
            floats[k][row] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            with pytest.raises(ValidationError):
                write_table(name, path, ids, ints, floats)
            assert not path.exists()

    @pytest.mark.parametrize("write, message", [
        (lambda p: ff.write_labels(p, ["a,b"], [0]), "line 2: sample id contains"),
        (lambda p: ff.write_labels(p, ["a", "a"], [0, 1]),
         "line 3: duplicate sample ids: ['a']"),
        (lambda p: ff.write_labels(p, ["a"], [2**63]),
         "label must be integers that fit in 64 bits, got uint64"),
        (lambda p: ff.write_labels(p, [" a"], [0]), "line 2: sample id contains"),
        (lambda p: ff.write_labels(p, ["a"], [1.7]),
         "label must be integers that fit in 64 bits, got float64"),
        (lambda p: ff.write_labels(p, ["a", "b"], [0]), "2 ids, columns of shapes [(1,)]"),
        (lambda p: ff.write_labels(p, ["a", 2], [0, 1]),
         "line 3: sample id is not a string in 1 of 2 samples, first [2]"),
        (lambda p: ff.write_predictions(p, ["x\ny"], [0], [1]), "line 2: sample id contains"),
        (lambda p: ff.write_predictions(p, ["x"], [0], [True]),
         "pred must be integers that fit in 64 bits, got bool"),
    ], ids=["comma", "repeat", "2**63", "padded", "float", "short-column", "non-str",
            "newline", "bool"])
    def test_refusal_names_the_path(self, tmp_path, write, message):
        path = tmp_path / "table.csv"
        with pytest.raises(ValidationError) as info:
            write(path)
        assert str(info.value).startswith(f"{path}: {message}")
        assert not path.exists()

    def test_write_difficulty_does_not_check_the_ids_again(self, tmp_path, monkeypatch):
        table = score_dataset(random_batch(["a", "b", "c"]))

        def refuse(ids):
            raise AssertionError("ids checked again")
        monkeypatch.setattr(ff, "check_ids", refuse)
        ff.write_difficulty(tmp_path / "difficulty.csv", table)
