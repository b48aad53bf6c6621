import numpy as np
import pytest

from knnsweep.dataset import Dataset, FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import build_sorted_matrix
from knnsweep.sweep import LabelPanel, row_blocks


@pytest.fixture
def toy():
    """4-point 1-D instance: features 0,1,2,10; labels 0,0,1,1; folds 0,1,0,1."""
    ds = Dataset(features=np.array([[0.0], [1.0], [2.0], [10.0]]),
                 labels=np.array([0, 0, 1, 1]), s=2, class_names=["A", "B"])
    fa = FoldAssignment(fold_of=np.array([0, 1, 0, 1]), f=2)
    return ds, fa


def random_instance(rng, n_range=(10, 200), d_range=(1, 5), s_range=(2, 4),
                    f_choices=(3, 5)):
    """Seeded random dataset + folds for property-style tests."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d = int(rng.integers(d_range[0], d_range[1] + 1))
    s = int(rng.integers(s_range[0], s_range[1] + 1))
    f = int(rng.choice(f_choices))
    ds = generate_synthetic(n, d, s, float(rng.uniform(0.2, 2.0)),
                            int(rng.integers(2**32)))
    fa = stratified_folds(ds, f, int(rng.integers(2**32)))
    return ds, fa


def sorted_rows(ds, fa, metric="euclidean"):
    """(row, distances, labels, sources) of every row's sorted neighbour list,
    built block by block over row_blocks as the CLI builds them."""
    for rows in row_blocks(ds, fa):
        block = build_sorted_matrix(ds, fa, metric, rows=rows)
        for j, r in enumerate(block.rows.tolist()):
            yield r, block.distances[j], block.labels[j], block.sources[j]


def panel_of(fa, s, *blocks, policy="smallest_code"):
    """A LabelPanel just wide enough for the built blocks, packed in order."""
    panel = LabelPanel(sum(b.rows.size for b in blocks), fa.k_max, s, policy)
    for block in blocks:
        panel.pack(block, panel.reserve(block.rows))
    return panel
