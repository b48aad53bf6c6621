import math
import sys

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
    KnnSweepError,
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


def load_both_ways(path, label_column):
    """load_csv's result or error with numpy's reader, then with the per-cell loop alone."""
    dataset_module = sys.modules["knnsweep.dataset"]
    outcomes = []
    for fast in (dataset_module._parse_fast, lambda *args: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_parse_fast", fast)
            try:
                ds = load_csv(path, label_column)
                outcomes.append((ds.features.shape, ds.features.view(np.uint64).tolist(),
                                 ds.labels.tolist(), ds.class_names))
            except KnnSweepError as exc:
                outcomes.append((type(exc), getattr(exc, "row", None),
                                 getattr(exc, "column", None), str(exc)))
    return outcomes


def fast_path(path, label_idx, width):
    """_parse_fast's own answer for a file whose label column is label_idx."""
    return sys.modules["knnsweep.dataset"]._parse_fast(
        path, width, label_idx, [c for c in range(width) if c != label_idx])


def _float_cell():
    """Cells float() parses to a finite value, in the forms CSV writers use."""
    value = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too
    fmt = st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:E}".format,
                           "{:.6f}".format, lambda v: "+" + repr(abs(v))])
    formatted = st.builds(lambda f, v: f(v), fmt, value)
    leading_dot = st.integers(0, 10 ** 20).map(lambda i: f".{i}")  # .5
    trailing_dot = st.integers(-10 ** 9, 10 ** 9).map(lambda i: f"{i}.")  # 5.
    # more digits than a float holds: the rounding must agree
    long_digits = st.builds(lambda a, b, e: f"{a}.{b}e{e}", st.integers(0, 10 ** 25),
                            st.integers(0, 10 ** 25), st.integers(-340, 300))
    named = st.sampled_from(["-0.0", "0", "5e-324", "-4.9e-324", "2.2250738585072009e-308",
                             "1.7976931348623157e308", "1e-400"])
    cell = st.one_of(formatted, leading_dot, trailing_dot, long_digits, named)
    pad = st.text(st.sampled_from(" \t\xa0"), max_size=2)
    return st.builds(lambda a, c, b: a + c + b, pad, cell.filter(lambda c: math.isfinite(float(c))),
                     pad)


@st.composite
def clean_csv(draw):
    """(text, label column, width): a CSV both parsers read, with its label column."""
    d = draw(st.integers(1, 4))
    width = d + 1
    label_idx = draw(st.integers(0, d))
    names = [f"x{j}" for j in range(d)]
    names.insert(label_idx, "label")
    n = draw(st.integers(2, 8))
    # two classes at least, so every file is a valid dataset
    labels = ["A", " b "] + draw(st.lists(st.sampled_from(["A", "\tc", "A1", "\xa0d"]),
                                          min_size=n - 2, max_size=n - 2))
    lines = [",".join(names)]
    for label in labels:
        cells = [draw(_float_cell()) for _ in range(d)]
        cells.insert(label_idx, label)
        lines.append(",".join(cells))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n))
    ends.append(draw(st.sampled_from(["", "\n", "\r\n"])))  # the last line may have no end
    return "".join(line + end for line, end in zip(lines, ends)), label_idx, width


class TestCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(case=clean_csv(), by_name=st.booleans())
    def test_equals_per_cell_loop(self, tmp_path_factory, case, by_name):
        text, label_idx, width = case
        p = tmp_path_factory.mktemp("csv") / "data.csv"
        p.write_bytes(text.encode("utf-8"))
        assert fast_path(p, label_idx, width) is not None  # the fast path was taken
        fast, loop = load_both_ways(p, "label" if by_name else label_idx)
        assert fast == loop

    @pytest.mark.parametrize("text", [
        "x,label\n0,A\n\n1,B\n",  # a blank line in the middle
        "x,label\n0,A\n1,B\n\n",  # and at the end
        "x,label\n0,A,\n1,B\n",  # a trailing comma
        "x,y,label\n0,1,A\n2,B\n",  # a short row
        "x,label\n0,A\n1,\n",  # an empty label
        "x,label\n0,A\n1, \t\n",  # a blank one
        "x,y,label\n0,,A\n1,2,B\n",  # an empty cell
        "x,label\n1_0,A\n2,B\n",  # float() alone reads 10.0
        "x,label\n\u0661\u0662,A\n2,B\n",  # and 12.0
        "x,label\n0,A\nnan,B\n",
        "x,label\ninf,A\n0,B\n",
        "x,label\n0,A\n-inf,B\n",
        "x,y,label\n0,1,A\n2,1e400,B\n",
        "x,label\r0,A\r1,B\r",  # lone \r line ends
        "x,label\n0,A\r1,B\n",
        'x,label\n"1",A\n2,B\n',  # a quoted cell
        'x,label\n1,"A"\n2,B\n',  # a quoted label: csv reads A
        'x,label\n1,"A,B"\n2,C\n',  # one holding a comma
        'label,"x\ny"\nA,1\nB,2\n',  # a header spanning two lines
    ])
    def test_doubtful_files_take_the_loop(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_bytes(text.encode("utf-8"))
        header = text.replace("\r", "\n").split("\n")[0].split(",")
        assert fast_path(p, header.index("label"), len(header)) is None
        fast, loop = load_both_ways(p, "label")
        assert fast == loop

    def test_non_utf8_bytes_are_a_parse_error_at_their_line(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"x,label\n0,A\n1,B\n2,\xe9\n3,A\n")
        assert fast_path(p, 1, 2) is None
        fast, loop = load_both_ways(p, "label")
        assert fast == loop and fast[:3] == (ParseError, 3, "<file>")


class TestDatasetLabels:
    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1, 1], [0, 1], [0.0, 1.0, 1.0]])
    def test_labels_outside_codes_rejected(self, labels):
        with pytest.raises(InconsistentInputs):
            Dataset(features=np.zeros((3, 1)), labels=np.array(labels), s=2,
                    class_names=["a", "b"])


class TestDatasetArrays:
    def test_lists_rejected(self):
        with pytest.raises(InconsistentInputs):
            Dataset(features=[[0.0], [1.0], [2.0]], labels=np.array([0, 1, 1]), s=2,
                    class_names=["a", "b"])
        with pytest.raises(InconsistentInputs):
            Dataset(features=np.zeros((3, 1)), labels=[0, 1, 1], s=2, class_names=["a", "b"])

    def test_class_names_must_name_each_class(self):
        with pytest.raises(InconsistentInputs):
            Dataset(features=np.zeros((3, 1)), labels=np.array([0, 1, 1]), s=2,
                    class_names=["a"])


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

    @pytest.mark.parametrize("f", [1, 0])
    def test_fewer_than_two_folds_rejected(self, f):
        # one fold leaves a row no neighbour outside its fold
        with pytest.raises(BadFoldCount):
            FoldAssignment(fold_of=np.zeros(4, dtype=np.int64), f=f)

    @pytest.mark.parametrize("fold_of", [np.array([0., 1., 0., 1.]),
                                         np.array([[0, 1], [0, 1]]), [0, 1, 0, 1]],
                             ids=["float", "2d", "list"])
    def test_fold_of_not_1d_integer_array_rejected(self, fold_of):
        with pytest.raises(InconsistentFolds):
            FoldAssignment(fold_of=fold_of, f=2)

    def test_fold_sizes_must_match_fold_of(self):
        with pytest.raises(TypeError):  # derived from fold_of, never passed
            FoldAssignment(fold_of=np.array([0, 1, 0, 1]), f=2, fold_sizes=np.array([2, 2]))
        fa = FoldAssignment(fold_of=np.array([0, 1, 0, 0]), f=2)
        assert fa.fold_sizes.tolist() == [3, 1] and fa.k_max == 1


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

    def test_negative_seed_rejected(self):
        ds = generate_synthetic(10, 1, 2, 1.0, seed=0)
        with pytest.raises(BadParams):
            stratified_folds(ds, 5, seed=-1)

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
            generate_synthetic(30, 2, 3, 1.0, seed=-1)
        with pytest.raises(BadParams):
            generate_synthetic(10, 1, 2, 0.0, seed=0)
        with pytest.raises(BadParams):
            generate_synthetic(10, 0, 2, 0.5, seed=0)
        for spread in (float("inf"), float("nan")):
            with pytest.raises(BadParams):
                generate_synthetic(10, 1, 2, spread, seed=0)

    @pytest.mark.parametrize("d,s", [(1, 17), (3, 27), (2, 40), (6, 64), (512, 2)])
    def test_centres_are_lattice_digits(self, d, s):
        # one row per class, almost no noise: row c sits on the base-`base`
        # digits of c (at d=512, wide_d's width, base ** j overflows int64)
        ds = generate_synthetic(s, d, s, 1e-9, seed=0)
        base = 2
        while base ** d < s:
            base += 1
        expected = np.zeros((s, d))
        for c in range(s):
            v = c
            for j in range(d):
                expected[c, j], v = v % base, v // base
        np.testing.assert_allclose(ds.features, expected, atol=1e-6)

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
