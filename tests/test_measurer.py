from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from climd import fileformats as ff
from climd.errors import ValidationError
from climd.measurer import (
    DifficultyTable,
    ModalityOutput,
    SampleTrace,
    TraceBatch,
    check_ids,
    complementarity,
    id_order,
    intra_modal_confidence,
    join_tables,
    pairwise_similarity,
    score_dataset,
    score_sample,
)

# Frozen oracle values, computed with mpmath at 40 digits:
#   sigmoid(ln(0.5)/3)    = 0.44249333402444210333...
#   sigmoid(ln(1e-12)/2)  = 9.99999000000999999e-7  (= 1/(1+1e6) exactly)
SIGMA_HALF_C3 = 0.4424933340244421
SIGMA_EPS_C2 = 9.99999000001e-07


def make_trace(sample_id, label, probs_list, embeddings):
    mods = [ModalityOutput(probs=p, embedding=e)
            for p, e in zip(probs_list, embeddings)]
    return SampleTrace(sample_id=sample_id, label=label, modalities=mods)


class TestIntraModalConfidence:
    def test_certain_prediction_scores_half(self):
        for c in (2, 3, 10):
            probs = np.zeros(c)
            probs[1] = 1.0
            assert intra_modal_confidence(probs, 1) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_oracle_value(self):
        got = intra_modal_confidence([0.5, 0.3, 0.2], 0)
        assert got == pytest.approx(SIGMA_HALF_C3, abs=1e-12)

    def test_zero_probability_clamps_instead_of_crashing(self):
        got = intra_modal_confidence([0.0, 1.0], 0)
        assert got == pytest.approx(SIGMA_EPS_C2, rel=1e-9)
        assert got > 0.0

    def test_range_is_half_open(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(2, 12))
            probs = rng.dirichlet(np.ones(c))
            label = int(rng.integers(c))
            psi = intra_modal_confidence(probs, label)
            assert 0.0 < psi <= 0.5
            if probs[label] < 1.0:
                assert psi < 0.5

    def test_strictly_increasing_in_true_probability(self):
        for c in (2, 3, 7):
            grid = np.linspace(1e-9, 1.0, 50)
            vals = []
            for p in grid:
                probs = np.full(c, (1.0 - p) / (c - 1))
                probs[0] = p
                vals.append(intra_modal_confidence(probs, 0))
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            intra_modal_confidence([0.7, 0.4], 0)  # does not sum to 1
        with pytest.raises(ValidationError):
            intra_modal_confidence([1.2, -0.2], 0)  # negative entry
        with pytest.raises(ValidationError):
            intra_modal_confidence([0.5, 0.5], 2)  # label out of range
        with pytest.raises(ValidationError):
            intra_modal_confidence([0.5, 0.5], 0, n_classes=3)  # C mismatch
        with pytest.raises(ValidationError):
            intra_modal_confidence([1.0], 0)  # single class


class TestPairwiseSimilarity:
    def test_self_similarity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(1, 8)))
            if np.linalg.norm(v) == 0:
                continue
            assert pairwise_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert pairwise_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert pairwise_similarity([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-15)

    def test_symmetry_and_positive_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 10))
            a, b = rng.standard_normal(d), rng.standard_normal(d)
            s = rng.uniform(1e-3, 1e3)
            base = pairwise_similarity(a, b)
            assert pairwise_similarity(b, a) == pytest.approx(base, abs=1e-9)
            assert pairwise_similarity(s * a, b) == pytest.approx(base, abs=1e-9)
            assert pairwise_similarity(a, s * b) == pytest.approx(base, abs=1e-9)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_similarity([0.0, 0.0], [1.0, 0.0])


class TestComplementarity:
    def test_identical_modalities_are_redundant(self):
        assert complementarity([[1.0, 2.0], [1.0, 2.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_modalities(self):
        assert complementarity([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0, abs=1e-15)

    def test_antipodal_modalities(self):
        assert complementarity([[1.0, 0.0], [-1.0, 0.0]]) == pytest.approx(2.0, abs=1e-15)

    def test_needs_two_modalities(self):
        with pytest.raises(ValidationError):
            complementarity([[1.0, 0.0]])

    def test_range_and_ordered_pair_form(self):
        # The implementation averages unordered pairs; the contract is the
        # ordered-pair sum with normalizer M*(M-1). Both must agree.
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            d = int(rng.integers(2, 6))
            embs = [rng.standard_normal(d) for _ in range(m)]
            phi = complementarity(embs)
            ordered = sum(
                pairwise_similarity(embs[i], embs[j])
                for i in range(m) for j in range(m) if i != j
            )
            assert phi == pytest.approx(1.0 - ordered / (m * (m - 1)), abs=1e-9)
            assert 0.0 <= phi <= 2.0


class TestScoreSample:
    def test_confident_redundant_sample(self):
        trace = make_trace("a", 0, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 2.0], [1.0, 2.0]])
        rec = score_sample(trace)
        assert rec.psi_per_modality == pytest.approx([0.5, 0.5], abs=1e-12)
        assert rec.phi == pytest.approx(0.0, abs=1e-12)
        assert rec.r == pytest.approx(0.5, abs=1e-12)

    def test_confident_orthogonal_sample(self):
        trace = make_trace("a", 0, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert score_sample(trace).r == pytest.approx(1.5, abs=1e-12)

    def test_frozen_composition(self):
        probs = [0.5, 0.3, 0.2]
        trace = make_trace("a", 0, [probs, probs], [[1.0, 2.0], [2.0, 1.0]])
        rec = score_sample(trace)
        assert rec.phi == pytest.approx(0.2, abs=1e-12)
        assert rec.r == pytest.approx(0.2 + SIGMA_HALF_C3, abs=1e-12)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            c = int(rng.integers(2, 6))
            trace = make_trace(
                "x", int(rng.integers(c)),
                [rng.dirichlet(np.ones(c)) for _ in range(m)],
                [rng.standard_normal(4) for _ in range(m)],
            )
            rec = score_sample(trace)
            assert rec.r == pytest.approx(
                rec.phi + sum(rec.psi_per_modality) / m, abs=1e-9)


def random_batch(n, seed=0, c=3, m=2, d=3):
    rng = np.random.default_rng(seed)
    return TraceBatch(ids=[f"s{i:03d}" for i in range(n)], labels=rng.integers(c, size=n),
                      probs=rng.dirichlet(np.ones(c), size=(n, m)),
                      emb=rng.standard_normal((n, m, d)))


def row_trace(batch, i):
    """Row i of a batch as the per-sample reference type."""
    return make_trace(batch.ids[i], int(batch.labels[i]), batch.probs[i], batch.emb[i])


class TestTraceBatch:
    @pytest.mark.parametrize("column,row,value,match", [
        ("probs", (1, 0, 0), np.nan, "NaN or inf"),
        ("probs", (1, 0, 0), np.inf, "NaN or inf"),
        ("probs", (1, 0, 0), -0.1, "negative"),
        ("probs", (1, 0, 0), 0.9, "sum to 1"),
        ("emb", (1, 1, 2), np.nan, "norm is zero, NaN or inf"),
        ("emb", (1, 1, 2), -np.inf, "norm is zero, NaN or inf"),
        ("emb", (1, 1), 0.0, "norm is zero"),
        ("emb", (1, 1), 1e200, "norm is zero, NaN or inf"),
        ("labels", 1, 3, "outside"),
    ])
    def test_bad_rows_named(self, column, row, value, match):
        batch = random_batch(4)
        arrays = {k: getattr(batch, k).copy() for k in ("labels", "probs", "emb")}
        arrays[column][row] = value
        with pytest.raises(ValidationError, match=f"{match}.*s001"):
            TraceBatch(ids=batch.ids, **arrays)

    @pytest.mark.parametrize("bad_id", ["s,001", "s\n001", "s\r001", "s\ud800001",
                                        "", " s001", "s001 ", "\ts001", "s001\u3000"])
    def test_csv_breaking_ids_rejected(self, bad_id):
        batch = random_batch(4)
        ids = list(batch.ids)
        ids[2] = bad_id
        with pytest.raises(ValidationError, match="sample id contains") as info:
            TraceBatch(ids, batch.labels, batch.probs, batch.emb)
        assert info.value.row == 2

    def test_a_non_str_id_is_rejected(self):
        batch = random_batch(2)
        with pytest.raises(ValidationError) as info:
            TraceBatch(["a", None], batch.labels, batch.probs, batch.emb)
        assert str(info.value) == "sample id is not a string in 1 of 2 samples, first [None]"
        assert info.value.row == 1
        assert TraceBatch([np.str_("a"), "b"], batch.labels, batch.probs, batch.emb).ids[0] == "a"

    def test_shapes_and_dtypes(self):
        batch = random_batch(3, m=2)
        with pytest.raises(ValidationError, match="integers"):
            TraceBatch(batch.ids, batch.labels + 0.5, batch.probs, batch.emb)
        with pytest.raises(ValidationError, match="inconsistent"):
            TraceBatch(batch.ids, batch.labels, batch.probs, batch.emb[:, :1])
        with pytest.raises(ValidationError, match="modalities"):
            TraceBatch(batch.ids, batch.labels, batch.probs[:, :1], batch.emb[:, :1])


# Valid sample ids: any code point but the separators and lone surrogates,
# astral ones included, and no surrounding whitespace. The fixed ones add
# prefix pairs and trailing NULs, which a fixed-width string array loses.
valid_ids = st.one_of(
    st.sampled_from(["a", "ab", "a\x00", "a\x00\x00", "\x00", "b", "é", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
            min_size=1).filter(lambda sid: sid == sid.strip()),
)


class TestIds:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(valid_ids, max_size=40))
    @example(["a\x00", "ab", "a", "a\x00"])
    def test_id_order_and_repeat_check_match_the_str_reference(self, ids):
        assert id_order(ids).tolist() == sorted(range(len(ids)), key=ids.__getitem__)
        check_ids(list(dict.fromkeys(ids)))
        repeats = sorted(sid for sid, k in Counter(ids).items() if k > 1)
        if not repeats:
            check_ids(ids)
            return
        with pytest.raises(ValidationError) as info:
            check_ids(ids)
        assert str(info.value) == f"duplicate sample ids: {repeats[:5]}"
        assert info.value.row == next(i for i, sid in enumerate(ids) if sid in ids[:i])


class TestDifficultyTable:
    @pytest.mark.parametrize("column", ["labels", "phi", "r"])
    def test_columns_of_unequal_length_rejected(self, column):
        cols = {"labels": [0, 1], "psi": np.zeros((2, 2)), "phi": np.zeros(2),
                "r": np.zeros(2)}
        cols[column] = cols[column][:1]
        with pytest.raises(ValidationError, match="inconsistent difficulty table: 2 ids"):
            DifficultyTable(ids=["a", "b"], **cols)

    @pytest.mark.parametrize("labels", [[0.5, 1.0, 0.0, 1.0], [True, False, True, False],
                                        [0, 1, 2**63, 1], ["0", "1", "0", "1"]])
    def test_labels_must_be_int64_integers(self, labels):
        r = np.full(4, 0.5)
        with pytest.raises(ValidationError, match="labels must be integers that fit in 64 bits"):
            DifficultyTable(ids=list("abcd"), labels=labels, psi=np.zeros((4, 2)), phi=r, r=r)

    @pytest.mark.parametrize("column", ["phi", "psi", "r"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected_naming_the_row(self, column, value):
        # Unchecked, build_schedule ranked r = [nan, 0.2, 0.1, inf] over
        # classes [0, 0, 1, 1] and took the inf row as class 1's easiest.
        cols = {"psi": np.zeros((4, 2)), "phi": np.zeros(4), "r": np.array([0.3, 0.2, 0.1, 0.4])}
        cols[column][3] = value
        with pytest.raises(ValidationError) as info:
            DifficultyTable(ids=list("abcd"), labels=[0, 0, 1, 1], **cols)
        assert str(info.value) == "score is NaN or inf in 1 of 4 samples, first ['d']"
        assert info.value.row == 3

    def test_non_str_ids_rejected(self):
        with pytest.raises(ValidationError) as info:
            DifficultyTable(ids=[1, 2], labels=[0, 1], psi=np.zeros((2, 2)), phi=np.zeros(2),
                            r=np.zeros(2))
        assert str(info.value) == "sample id is not a string in 2 of 2 samples, first [1, 2]"
        assert info.value.row == 0

    def test_empty_table_is_valid(self):
        table = DifficultyTable(ids=[], labels=[], psi=np.zeros((0, 2)), phi=[], r=[])
        assert len(table) == 0 and table.labels.dtype == np.int64


class TestJoinTables:
    def test_repeat_across_tables_names_its_row(self):
        batch = random_batch(6)
        ids = [*batch.ids[:5], batch.ids[1]]
        parts = [score_dataset(TraceBatch(ids[a:b], batch.labels[a:b],
                                          batch.probs[a:b], batch.emb[a:b]))
                 for a, b in ((0, 3), (3, 6))]
        with pytest.raises(ValidationError) as info:
            join_tables(parts)
        assert str(info.value) == "duplicate sample ids: ['s001']"
        assert info.value.row == 5

    def test_no_tables_rejected(self):
        with pytest.raises(ValidationError, match="^join_tables needs at least one table$"):
            join_tables([])

    def test_labels_are_int64_whatever_the_batch_was_given(self):
        batch = random_batch(6)
        parts = [score_dataset(TraceBatch(batch.ids[a:b], batch.labels[a:b].astype(dtype),
                                          batch.probs[a:b], batch.emb[a:b]))
                 for (a, b), dtype in (((0, 3), np.int32), ((3, 6), np.uint8))]
        joined = join_tables(parts)
        assert [t.labels.dtype for t in (*parts, joined)] == [np.int64] * 3
        assert np.array_equal(joined.labels, batch.labels)


class TestScoreDataset:
    def test_empty(self):
        empty = TraceBatch(ids=[], labels=np.zeros(0, dtype=int),
                           probs=np.zeros((0, 2, 3)), emb=np.zeros((0, 2, 4)))
        assert len(score_dataset(empty)) == 0

    def test_matches_scalar_reference(self):
        for seed, (c, m, d) in enumerate([(2, 2, 1), (3, 3, 4), (7, 4, 16)]):
            batch = random_batch(50, seed=seed, c=c, m=m, d=d)
            batch.probs[0, 0] = np.eye(c)[(batch.labels[0] + 1) % c]  # p_true = 0
            table = score_dataset(batch)
            for i in range(len(batch)):
                rec = score_sample(row_trace(batch, i))
                assert table.psi[i].tolist() == pytest.approx(rec.psi_per_modality, abs=1e-12)
                assert table.phi[i] == pytest.approx(rec.phi, abs=1e-12)
                assert table.r[i] == pytest.approx(rec.r, abs=1e-12)

    def test_single_matches_score_sample(self):
        batch = random_batch(8)
        whole = score_dataset(batch)
        for i in range(len(batch)):
            one = score_dataset(TraceBatch([batch.ids[i]], batch.labels[i:i + 1],
                                           batch.probs[i:i + 1], batch.emb[i:i + 1]))
            assert one.psi[0].tobytes() == whole.psi[i].tobytes()
            assert one.phi[0].tobytes() == whole.phi[i].tobytes()
            assert one.r[0].tobytes() == whole.r[i].tobytes()
            assert one.r[0] == pytest.approx(score_sample(row_trace(batch, i)).r, abs=1e-12)

    def test_permutation_equivariance(self):
        batch = random_batch(20)
        fwd = score_dataset(batch)
        rev = score_dataset(TraceBatch(batch.ids[::-1], batch.labels[::-1],
                                       batch.probs[::-1], batch.emb[::-1]))
        assert rev.ids == fwd.ids[::-1]
        for col in ("labels", "psi", "phi", "r"):
            assert np.array_equal(getattr(rev, col), getattr(fwd, col)[::-1])

    def test_duplicate_ids_named(self):
        batch = random_batch(3)
        ids = list(batch.ids)
        ids[2] = ids[0]
        with pytest.raises(ValidationError, match="s000") as info:
            TraceBatch(ids, batch.labels, batch.probs, batch.emb)
        assert info.value.row == 2
        table = score_dataset(batch)
        with pytest.raises(ValidationError, match="duplicate sample ids: \\['s000'\\]"):
            DifficultyTable(ids, table.labels, table.psi, table.phi, table.r)
        with pytest.raises(ValidationError, match="padded with whitespace") as info:
            DifficultyTable(["s000", "s001 ", "s002"], table.labels, table.psi,
                            table.phi, table.r)
        assert info.value.row == 1

    def test_mixed_class_counts_named(self, tmp_path):
        path, odd_path = tmp_path / "traces.jsonl", tmp_path / "odd.jsonl"
        ff.write_traces(path, random_batch(2, c=3))
        odd = random_batch(1, seed=1, c=4)
        odd.ids[0] = "odd"
        ff.write_traces(odd_path, odd)
        path.write_text(path.read_text() + odd_path.read_text())
        with pytest.raises(ValidationError, match="line 3"):
            ff.read_traces(path)

    def test_parallel_equals_sequential(self):
        batch = random_batch(64)
        sequential = score_dataset(batch)
        chunks = [TraceBatch(batch.ids[i:i + 16], batch.labels[i:i + 16],
                             batch.probs[i:i + 16], batch.emb[i:i + 16])
                  for i in range(0, 64, 16)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            joined = join_tables(list(pool.map(score_dataset, chunks)))
        assert joined.ids == sequential.ids
        for col in ("labels", "psi", "phi", "r"):
            assert getattr(joined, col).tobytes() == getattr(sequential, col).tobytes()
