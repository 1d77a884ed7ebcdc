import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climd import fileformats as ff
from climd.distribution import ClassDistribution, subset_size
from climd.errors import ValidationError
from climd.measurer import DifficultyTable, TraceBatch, score_dataset
from climd.scheduler import EASY_HIGH_R, EASY_LOW_R, build_schedule, reference_ramp
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


class TestLabelsFormat:
    def test_round_trip(self, tmp_path):
        pairs = [(f"s{i}", i % 3) for i in range(10)]
        path = tmp_path / "labels.csv"
        ff.write_labels(path, pairs)
        assert ff.read_labels(path) == pairs

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
        ("0,100,1\n0,50,2\n", r"duplicate class_id 0 \(line 7\)"),
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
        ("gamma=0.3", "gamma=abc", "gamma must be a finite number"),
        ("alpha_hat=5.0", "alpha_hat=inf", "alpha_hat must be a finite number"),
        ("alpha_hat=5.0", "alpha_hat=3.0", r"gamma\*alpha_hat must exceed 1"),
        ("degenerate=false", "degenerate=no", "degenerate must be true or false"),
    ])
    def test_bad_header_values_named(self, tmp_path, old, new, match):
        path = tmp_path / "distribution.csv"
        path.write_text(self.HEADER.replace(old, new) + "0,100,1\n1,50,2\n")
        with pytest.raises(ValidationError, match=match):
            ff.read_distribution(path)

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
        ff.write_predictions(path, rows)
        assert ff.read_predictions(path) == rows

    def test_bad_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,true,pred\na,0\n")
        with pytest.raises(ValidationError, match="line 2"):
            ff.read_predictions(path)


NON_ASCII_IDS = ["é", "Ωmega", "日本語", "😀", "a b"]


def plain(result):
    """A reader's result as plain Python values, comparable with ==."""
    if isinstance(result, list):
        return result
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
    "labels": (lambda path, ids: ff.write_labels(path, [(sid, i % 3) for i, sid in enumerate(ids)]),
               ff.read_labels),
    "predictions": (lambda path, ids: ff.write_predictions(
        path, [(sid, i % 3, (i + 1) % 3) for i, sid in enumerate(ids)]), ff.read_predictions),
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
        assert read(path) == expected and len(expected) == 7

    @pytest.mark.parametrize("name", sorted(set(CSV_PAIRS) - {"distribution"}))
    def test_non_ascii_ids_round_trip(self, tmp_path, name):
        write, read = CSV_PAIRS[name]
        path = tmp_path / f"{name}.csv"
        write(path, NON_ASCII_IDS)
        assert "日本語" in path.read_bytes().decode("utf-8")
        back = read(path)
        ids = [row[0] for row in back] if isinstance(back, list) else back.ids
        assert ids == NON_ASCII_IDS

    def test_non_ascii_trace_ids_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        ff.write_traces(path, random_batch(NON_ASCII_IDS))
        assert ff.read_traces(path).ids == NON_ASCII_IDS


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
