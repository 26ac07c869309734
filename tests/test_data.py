import numpy as np
import pytest

from hmm_ensemble import (
    DataError,
    LabeledDataset,
    ParameterError,
    Provenance,
    Vocabulary,
    load_csv,
    subsample_imbalance,
)
from hmm_ensemble.data import split_indices


def write_csv(tmp_path, rows, header="sequence,label"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write_csv(tmp_path, ["ACGT,1", "NNNN,0"])
        ds = load_csv(path)
        assert ds.vocabulary.tokens == ("A", "C", "G", "T", "N")
        assert len(ds) == 2
        assert ds.labels.tolist() == [1, 0]
        assert ds.sequences[0].tolist() == [0, 1, 2, 3]

    def test_reload_identical(self, tmp_path):
        path = write_csv(tmp_path, ["GATC,1", "CCTA,0", "AGGG,1"])
        a, b = load_csv(path), load_csv(path)
        assert a.vocabulary == b.vocabulary
        assert a.labels.tolist() == b.labels.tolist()
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))

    def test_bad_label_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["AC,1", "GT,2"])
        with pytest.raises(DataError, match=r":3:"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["AC,1"], header="seq,label")
        with pytest.raises(DataError, match="sequence"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_empty_sequence_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["AC,1", ",0"])
        with pytest.raises(DataError, match=r":3:"):
            load_csv(path)

    def test_line_numbers_count_comment_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# config_hash=x\nsequence,label\nACC,1\nCAA,2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":4:"):
            load_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# config_hash=x\nsequence,label\nACC,1\nCAA,0\n", encoding="utf-8")
        ds = load_csv(path)
        assert len(ds) == 2


def toy_dataset(tmp_path, n_pos=20, n_neg=100, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_pos):
        rows.append("".join(rng.choice(list("ACGT"), size=8)) + ",1")
    for _ in range(n_neg):
        rows.append("".join(rng.choice(list("ACGT"), size=8)) + ",0")
    return load_csv(write_csv(tmp_path, rows))


class TestSubsampleImbalance:
    def test_counts(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=200, n_neg=5000)
        out = subsample_imbalance(ds, ratio=50, seed=7)
        assert np.sum(out.labels == 1) == 100
        assert np.sum(out.labels == 0) == 5000

    def test_negatives_untouched(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=50, n_neg=60)
        out = subsample_imbalance(ds, ratio=2, seed=1)
        neg_before = [s.tolist() for s, l in zip(ds.sequences, ds.labels) if l == 0]
        neg_after = [s.tolist() for s, l in zip(out.sequences, out.labels) if l == 0]
        assert neg_before == neg_after

    def test_deterministic(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=50, n_neg=80)
        a = subsample_imbalance(ds, ratio=4, seed=9)
        b = subsample_imbalance(ds, ratio=4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))

    def test_ratio_one_keeps_sizes(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=30, n_neg=30)
        out = subsample_imbalance(ds, ratio=1, seed=0)
        assert np.sum(out.labels == 1) == 30 and np.sum(out.labels == 0) == 30

    def test_infeasible_ratio(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=2, n_neg=10)
        with pytest.raises(ParameterError):
            subsample_imbalance(ds, ratio=1, seed=0)  # would need 10 positives
        with pytest.raises(ParameterError):
            subsample_imbalance(ds, ratio=100, seed=0)  # floor(10/100) = 0

    def test_provenance_updated(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=50, n_neg=80)
        out = subsample_imbalance(ds, ratio=4, seed=9)
        assert out.provenance.seed == 9
        assert out.provenance.imbalance_ratio == 4.0

    def test_achieved_ratio_close(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=300, n_neg=1000)
        out = subsample_imbalance(ds, ratio=7, seed=3)
        assert np.sum(out.labels == 0) / np.sum(out.labels == 1) == pytest.approx(7, rel=0.01)


class TestSplit:
    def test_even_split(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=10, n_neg=10)
        for part in split_indices(ds.labels, 0.5, seed=0):
            labels = ds.take(part).labels
            assert np.sum(labels == 1) == 5 and np.sum(labels == 0) == 5

    def test_partition_is_exhaustive_and_disjoint(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=13, n_neg=29)
        a, b = (ds.take(part) for part in split_indices(ds.labels, 0.3, seed=4))
        all_seqs = sorted(s.tolist() for s in ds.sequences)
        split_seqs = sorted(s.tolist() for s in a.sequences + b.sequences)
        assert all_seqs == split_seqs
        assert len(a) + len(b) == len(ds)

    def test_stratification_within_one(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=17, n_neg=41)
        for part in split_indices(ds.labels, 0.4, seed=1):
            frac = np.sum(ds.labels[part] == 1) / len(part)
            assert abs(frac * len(part) - np.sum(ds.labels == 1) / len(ds) * len(part)) <= 1.0

    def test_deterministic(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=12, n_neg=12)
        a1, _ = split_indices(ds.labels, 0.5, seed=2)
        a2, _ = split_indices(ds.labels, 0.5, seed=2)
        assert np.array_equal(a1, a2)

    def test_class_starvation_rejected(self, tmp_path):
        ds = toy_dataset(tmp_path, n_pos=2, n_neg=50)
        with pytest.raises(ParameterError):
            split_indices(ds.labels, 0.1, seed=0)  # round-half-up(0.2) = 0 for positives

    def test_bad_fraction(self, tmp_path):
        ds = toy_dataset(tmp_path)
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                split_indices(ds.labels, frac, seed=0)


class TestLabels:
    # rows 2, 5 and 8 are neither class, and planning and splitting would drop them unseen
    LABELS = [0, 1, 2, 0, 1, 2, 0, 1, 7, 0, 1, 0]

    def test_dataset_rejects_label_outside_0_1(self):
        with pytest.raises(DataError, match="sequence 2 has label 2"):
            LabeledDataset([np.array([0, 1])] * 12, self.LABELS, Vocabulary(["a", "b"]),
                           Provenance(source="rows"))

    def test_split_rejects_label_outside_0_1(self):
        with pytest.raises(ParameterError, match="row 2 has label 2"):
            split_indices(self.LABELS, 0.5, 0)


class TestSequenceCheck:
    # the dataset checks each sequence as scoring and training do, so a bad one
    # fails here, named by its position, instead of in a training job
    def dataset(self, sequences):
        return LabeledDataset(sequences, [0, 1, 0], Vocabulary(["a", "b"]),
                              Provenance(source="rows"))

    @pytest.mark.parametrize("bad, message", [
        (np.array([0.0, 1.0, 1.0]), "sequence 1: token ids must be integers, got dtype float64"),
        (np.array([True, False]), "sequence 1: token ids must be integers, got dtype bool"),
        (np.array([0, 2]), r"sequence 1: token id out of range \[0, 2\)"),
        (np.array([-1, 0]), r"sequence 1: token id out of range \[0, 2\)"),
        (np.array([], dtype=np.int64), "sequence 1: sequence must be a non-empty 1-D array"),
        (np.zeros((2, 2), dtype=np.int64), "sequence 1: sequence must be a non-empty 1-D array"),
    ])
    def test_bad_sequence_named(self, bad, message):
        with pytest.raises(DataError, match=message):
            self.dataset([np.array([0, 1]), bad, np.array([1])])

    def test_sequences_stored_as_int64_arrays(self):
        ds = self.dataset([[0, 1, 1], np.array([1, 0], dtype=np.int32), np.array([1])])
        for seq, want in zip(ds.sequences, [[0, 1, 1], [1, 0], [1]]):
            assert isinstance(seq, np.ndarray) and seq.dtype == np.int64
            assert seq.tolist() == want
