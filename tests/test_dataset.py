import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnsweep.dataset import (
    Dataset,
    FoldAssignment,
    generate_synthetic,
    load_csv,
    stratified_folds,
)
from knnsweep.errors import (
    BadFoldCount,
    BadParams,
    EmptyDataset,
    InconsistentFolds,
    InconsistentInputs,
    IoError,
    NonFiniteFeature,
    ParseError,
    SingleClass,
    TooManyFolds,
)
from knnsweep.oracle import cross_validate


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_first_appearance_encoding(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n1,A\n2,B\n10,B\n")
        ds = load_csv(p, "label")
        assert ds.n == 4 and ds.d == 1 and ds.s == 2
        assert ds.labels.tolist() == [0, 0, 1, 1]
        assert ds.class_names == ["A", "B"]
        np.testing.assert_array_equal(ds.features[:, 0], [0, 1, 2, 10])

    def test_label_round_trip(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,zebra\n1,ant\n2,zebra\n3,bee\n")
        ds = load_csv(p, "label")
        original = ["zebra", "ant", "zebra", "bee"]
        assert [ds.class_names[c] for c in ds.labels] == original

    def test_singleton_class_is_fine(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n1,A\n2,B\n")
        ds = load_csv(p, "label")
        assert ds.s == 2

    def test_label_column_by_index(self, tmp_path):
        p = write_csv(tmp_path, "label,x\nA,0\nB,1\n")
        ds = load_csv(p, 0)
        assert ds.class_names == ["A", "B"]
        assert ds.features[:, 0].tolist() == [0.0, 1.0]

    def test_nan_feature_rejected(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\nNaN,B\n")
        with pytest.raises(NonFiniteFeature):
            load_csv(p, "label")

    def test_inf_feature_rejected(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\ninf,B\n")
        with pytest.raises(NonFiniteFeature):
            load_csv(p, "label")

    def test_garbage_cell_reports_position(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\nabc,B\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, "label")
        assert exc.value.row == 2 and exc.value.column == "x"

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path, "x,y,label\n0,1,A\n2,B\n")
        with pytest.raises(ParseError):
            load_csv(p, "label")

    def test_too_few_rows(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n")
        with pytest.raises(EmptyDataset):
            load_csv(p, "label")

    def test_single_class(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n1,A\n")
        with pytest.raises(SingleClass):
            load_csv(p, "label")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n1,B\n")
        with pytest.raises(ParseError):
            load_csv(p, "nope")

    def test_empty_label_cell(self, tmp_path):
        p = write_csv(tmp_path, "x,label\n0,A\n1,\n")
        with pytest.raises(ParseError):
            load_csv(p, "label")

    @pytest.mark.parametrize("path", ["missing.csv", ".", "data.csv/x"])
    def test_unreadable_path_is_io_error(self, tmp_path, path):
        write_csv(tmp_path, "x,label\n0,A\n1,B\n")
        with pytest.raises(IoError):
            load_csv(tmp_path / path, "label")

    @pytest.mark.parametrize("good_rows", [0, 1, 5000])
    def test_non_utf8_bytes_report_their_row(self, tmp_path, good_rows):
        # 5000 rows put the bad byte past the first block the reader decodes
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"x,label\n" + b"0,A\n1,B\n" * good_rows + "2,\u00e9\n".encode("latin-1"))
        with pytest.raises(ParseError) as exc:
            load_csv(p, "label")
        assert exc.value.row == 2 * good_rows + 1


class TestDatasetLabels:
    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1, 1], [0, 1], [0.0, 1.0, 1.0]])
    def test_labels_outside_codes_rejected(self, labels):
        with pytest.raises(InconsistentInputs):
            Dataset(features=np.zeros((3, 1)), labels=np.array(labels), s=2,
                    class_names=["a", "b"])


class TestDatasetFeatures:
    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)])
    def test_features_not_2d_rejected(self, shape):
        with pytest.raises(InconsistentInputs):
            Dataset(features=np.zeros(shape), labels=np.array([0, 1, 1]), s=2,
                    class_names=["a", "b"])


class TestFoldAssignment:
    def test_fold_index_at_least_f_rejected(self):
        with pytest.raises(InconsistentFolds):
            FoldAssignment(fold_of=np.array([0, 1, 2, 0]), f=2)

    def test_negative_fold_index_rejected(self):
        with pytest.raises(InconsistentFolds):
            FoldAssignment(fold_of=np.array([0, 1, -1, 0]), f=2)

    def test_fold_sizes_must_match_fold_of(self):
        with pytest.raises(InconsistentFolds):
            FoldAssignment(fold_of=np.array([0, 1, 0, 1]), f=2, fold_sizes=np.array([3, 1]))
        fa = FoldAssignment(fold_of=np.array([0, 1, 0, 0]), f=2, fold_sizes=np.array([3, 1]))
        assert fa.k_max == 1


class TestStratifiedFolds:
    def test_two_by_two(self):
        ds = Dataset(features=np.arange(4, dtype=float).reshape(4, 1),
                     labels=np.array([0, 0, 1, 1]), s=2, class_names=["a", "b"])
        fa = stratified_folds(ds, 2, seed=123)
        for i in range(2):
            members = ds.labels[fa.fold_of == i]
            assert sorted(members.tolist()) == [0, 1]

    def test_round_robin_counts(self):
        ds = Dataset(features=np.arange(10, dtype=float).reshape(10, 1),
                     labels=np.array([0] * 5 + [1] * 5), s=2, class_names=["a", "b"])
        fa = stratified_folds(ds, 3, seed=9)
        counts0 = [int(np.sum((fa.fold_of == i) & (ds.labels == 0))) for i in range(3)]
        assert sorted(counts0) == [1, 2, 2]

    def test_pinned_assignment(self):
        # classes of 5, 4 and 4 rows: the deal runs on from one class to the next
        ds = generate_synthetic(13, 2, 3, 1.0, seed=5)
        fa = stratified_folds(ds, 5, seed=5)
        assert fa.fold_of.tolist() == [4, 3, 4, 2, 0, 2, 3, 2, 1, 1, 1, 0, 0]

    def test_deterministic(self):
        ds = generate_synthetic(50, 3, 3, 1.0, seed=5)
        a = stratified_folds(ds, 5, seed=77)
        b = stratified_folds(ds, 5, seed=77)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_seed_changes_assignment(self):
        ds = generate_synthetic(50, 3, 3, 1.0, seed=5)
        a = stratified_folds(ds, 5, seed=1)
        b = stratified_folds(ds, 5, seed=2)
        assert not np.array_equal(a.fold_of, b.fold_of)

    def test_bad_fold_counts(self):
        ds = generate_synthetic(10, 1, 2, 1.0, seed=0)
        with pytest.raises(BadFoldCount):
            stratified_folds(ds, 1, seed=0)
        with pytest.raises(TooManyFolds):
            stratified_folds(ds, 11, seed=0)

    def test_all_folds_nonempty_at_f_equals_n(self):
        ds = generate_synthetic(6, 1, 2, 1.0, seed=0)
        fa = stratified_folds(ds, 6, seed=3)
        assert fa.fold_sizes.tolist() == [1] * 6

    @settings(max_examples=50, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), min_size=8, max_size=60),
           f=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_stratification_property(self, labels, f, seed):
        labels = np.array(labels)
        # re-encode so codes 0..s-1 all appear
        _, labels = np.unique(labels, return_inverse=True)
        s = int(labels.max()) + 1
        if s < 2 or f > len(labels):
            return
        ds = Dataset(features=np.arange(len(labels), dtype=float).reshape(-1, 1),
                     labels=labels, s=s, class_names=[str(c) for c in range(s)])
        fa = stratified_folds(ds, f, seed)
        assert int(fa.fold_sizes.sum()) == ds.n
        assert np.all(fa.fold_sizes > 0)
        assert int(fa.fold_sizes.max() - fa.fold_sizes.min()) <= s
        for c in range(s):
            per_fold = np.bincount(fa.fold_of[labels == c], minlength=f)
            assert per_fold.max() - per_fold.min() <= 1


class TestGenerateSynthetic:
    def test_near_equal_classes(self):
        ds = generate_synthetic(10, 1, 2, 0.5, seed=0)
        assert np.bincount(ds.labels).tolist() == [5, 5]

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate_synthetic(3, 1, 4, 0.5, seed=0)  # s > n
        with pytest.raises(BadParams):
            generate_synthetic(10, 1, 2, 0.0, seed=0)
        with pytest.raises(BadParams):
            generate_synthetic(10, 0, 2, 0.5, seed=0)
        for spread in (float("inf"), float("nan")):
            with pytest.raises(BadParams):
                generate_synthetic(10, 1, 2, spread, seed=0)

    def test_deterministic(self):
        a = generate_synthetic(30, 2, 3, 0.3, seed=42)
        b = generate_synthetic(30, 2, 3, 0.3, seed=42)
        np.testing.assert_array_equal(a.features, b.features)

    def test_well_separated_classes_are_learnable(self):
        # tight clusters on distinct lattice points: 1-NN should be near perfect
        ds = generate_synthetic(100, 2, 2, 0.01, seed=11)
        fa = stratified_folds(ds, 5, seed=11)
        correct = cross_validate(ds, fa, k=1)
        accuracy = correct.sum() / ds.n
        assert accuracy >= 0.99
