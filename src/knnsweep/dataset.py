"""Dataset loading, label encoding, synthetic generation and stratified folds.

All randomness goes through one PCG64 generator, `_generator`, so that fold
assignments and synthetic datasets are reproducible from one seed >= 0.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with integer-encoded labels.

    features: (n, d) float64, labels: (n,) int codes in 0..s-1 encoded by
    first appearance, class_names: original label strings per code. Features
    that are not a 2-D array, labels that are not an array of n integers in
    0..s-1, or class_names that are not s names raise InconsistentInputs.
    """

    features: np.ndarray
    labels: np.ndarray
    s: int
    class_names: list

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def __post_init__(self):
        if not isinstance(self.features, np.ndarray) or self.features.ndim != 2:
            raise InconsistentInputs("features must be a 2-D numpy array")
        if self.n < 2:
            raise EmptyDataset(f"need at least 2 rows, got {self.n}")
        if self.d < 1:
            raise EmptyDataset("need at least 1 feature column")
        if self.s < 2:
            raise SingleClass(f"need at least 2 classes, got {self.s}")
        if not np.all(np.isfinite(self.features)):
            r, c = np.argwhere(~np.isfinite(self.features))[0]
            raise NonFiniteFeature(int(r), int(c))
        labels = self.labels
        if (not isinstance(labels, np.ndarray) or labels.shape != (self.n,)
                or not np.issubdtype(labels.dtype, np.integer)
                or labels.min() < 0 or labels.max() >= self.s):
            raise InconsistentInputs(
                f"labels must be an array of {self.n} integer codes in 0..{self.s - 1}")
        if len(self.class_names) != self.s:
            raise InconsistentInputs(
                f"class_names holds {len(self.class_names)} names for {self.s} classes")
        counts = np.bincount(labels, minlength=self.s)
        if np.any(counts == 0):
            raise SingleClass("some class code in 0..s-1 never appears")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)


@dataclass(frozen=True)
class FoldAssignment:
    """Per-row fold index in 0..f-1, stratified by class.

    fold_sizes is derived: the count of each fold index. f < 2 or an empty
    fold raises BadFoldCount; a fold_of that is not a 1-D integer array, or
    holds indices outside 0..f-1, raises InconsistentFolds.
    So every row has a neighbour outside its fold, and k_max >= 1.
    """

    fold_of: np.ndarray
    f: int
    fold_sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.f < 2:
            raise BadFoldCount(f"fold count must be >= 2, got {self.f}")
        fold_of = self.fold_of
        if not (isinstance(fold_of, np.ndarray) and fold_of.ndim == 1
                and np.issubdtype(fold_of.dtype, np.integer)):
            raise InconsistentFolds("fold_of must be a 1-D integer array")
        if fold_of.size and (fold_of.min() < 0 or fold_of.max() >= self.f):
            raise InconsistentFolds(f"fold indices must lie in 0..{self.f - 1}")
        object.__setattr__(self, "fold_sizes", np.bincount(fold_of, minlength=self.f))
        if np.any(self.fold_sizes == 0):
            raise BadFoldCount("every fold must be non-empty")
        self.fold_of.setflags(write=False)
        self.fold_sizes.setflags(write=False)

    @property
    def n(self):
        return self.fold_of.shape[0]

    @property
    def k_max(self):
        """Largest neighbor depth evaluable for every row."""
        return self.n - int(self.fold_sizes.max())


def load_csv(path, label_column):
    """Load a headered CSV into a Dataset.

    label_column is a header name or a 0-based column index. Labels are
    integer-encoded in order of first appearance; feature cells must parse
    as finite floats. Unreadable paths raise IoError, non-UTF-8 bytes ParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDataset(f"{path}: no header row")
            header = [h.strip() for h in header]

            if isinstance(label_column, int) or (
                isinstance(label_column, str) and label_column not in header
                and label_column.lstrip("-").isdigit()
            ):
                label_idx = int(label_column)
                if label_idx < 0 or label_idx >= len(header):
                    raise ParseError(0, label_column, "label column index out of range")
            else:
                if label_column not in header:
                    raise ParseError(0, label_column, "label column not found in header")
                label_idx = header.index(label_column)

            feature_cols = [i for i in range(len(header)) if i != label_idx]
            if not feature_cols:
                raise EmptyDataset(f"{path}: no feature columns")

            rows = []
            raw_labels = []
            for rownum, record in enumerate(reader, start=1):
                if len(record) != len(header):
                    raise ParseError(rownum, "<row>", f"expected {len(header)} fields, got {len(record)}")
                label = record[label_idx].strip()
                if not label:
                    raise ParseError(rownum, header[label_idx], "empty label")
                vals = []
                for c in feature_cols:
                    cell = record[c].strip()
                    try:
                        v = float(cell)
                    except ValueError:
                        raise ParseError(rownum, header[c], f"cannot parse {cell!r} as a real number")
                    if not math.isfinite(v):
                        raise NonFiniteFeature(rownum, header[c])
                    vals.append(v)
                rows.append(np.array(vals))  # 8 bytes a cell, not a Python float's 32
                raw_labels.append(label)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(_undecodable_line(path), "<file>", f"not UTF-8 ({exc.reason})") from exc

    if len(rows) < 2:
        raise EmptyDataset(f"{path}: need at least 2 data rows, got {len(rows)}")

    code_of = {}  # label -> code, in order of first appearance
    codes = np.array([code_of.setdefault(name, len(code_of)) for name in raw_labels],
                     dtype=np.int64)
    class_names = list(code_of)
    if len(class_names) < 2:
        raise SingleClass(f"{path}: only one distinct label {class_names[0]!r}")

    features = np.asarray(rows, dtype=np.float64)
    return Dataset(features=features, labels=codes, s=len(class_names),
                   class_names=class_names)


def _undecodable_line(path):
    """Line (0 = header) holding the first bytes of path that are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start)


def _generator(seed):
    """The PCG64 generator behind every random draw; a seed below 0 is BadParams."""
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def stratified_folds(dataset, f, seed):
    """Deterministic stratified fold assignment.

    Rows of each class (code ascending) are shuffled with PCG64(seed) and
    dealt round-robin onto folds in one deal over all classes, so all folds
    are non-empty whenever f <= n.
    """
    n = dataset.n
    if f < 2:
        raise BadFoldCount(f"fold count must be >= 2, got {f}")
    if f > n:
        raise TooManyFolds(f"fold count {f} exceeds dataset size {n}")

    rng = _generator(seed)
    dealt = np.concatenate([rng.permutation(np.flatnonzero(dataset.labels == c))
                            for c in range(dataset.s)])
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[dealt] = np.arange(n) % f
    return FoldAssignment(fold_of=fold_of, f=f)


def generate_synthetic(n, d, s, spread, seed):
    """Gaussian-mixture dataset: class c centered on a distinct lattice point.

    Class centers sit on an integer grid with unit spacing; each point is its
    class center plus isotropic N(0, spread^2) noise. Class sizes differ by
    at most one. Deterministic given seed (PCG64).
    """
    if s < 2 or n < s or d < 1 or not (0 < spread < math.inf):
        raise BadParams(f"need n >= s >= 2, d >= 1, 0 < spread < inf; "
                        f"got n={n}, d={d}, s={s}, spread={spread}")

    # class c -> lattice point: digits of c in base ceil(s**(1/d))
    base = max(2, math.ceil(s ** (1.0 / d)))
    while base ** d < s:
        base += 1
    # Python ints: a numpy base ** j overflows int64 at large d
    centers = np.array([[c // base ** j % base for j in range(d)] for c in range(s)],
                       dtype=np.float64)

    labels = np.arange(n, dtype=np.int64) % s
    rng = _generator(seed)
    features = centers[labels] + rng.normal(0.0, spread, size=(n, d))
    class_names = [f"c{c}" for c in range(s)]
    return Dataset(features=features, labels=labels, s=s, class_names=class_names)
