"""Memory guard for the credit-card path: load a CSV, run the baseline scenario.

tracemalloc sees numpy's buffers as well as Python objects, so the traced
peak is the most the path holds at once. With 40,000 rows of 30 features it
reads 3.38 times the feature bytes. Copying every matrix a dataset is handed
and counting cross-split duplicates with a Counter of row bytes read 4.24
times; holding one provenance object per row and the raw partitions through
training as well read 5.11 times.
"""

import tracemalloc

import numpy as np

from leakguard import dataset
from leakguard.boosting import GbdtParams
from leakguard.experiment import Placement, ScenarioSpec, run_scenario

PEAK_OVER_FEATURE_BYTES = 3.5


def creditcard_like(n_rows, n_positive, seed=0):
    rng = np.random.default_rng(seed)
    time_s = np.sort(rng.integers(0, 2 * 86400, size=n_rows)).astype(np.float64)
    labels = np.zeros(n_rows, dtype=np.int64)
    labels[rng.choice(n_rows, size=n_positive, replace=False)] = 1
    v = rng.standard_normal((n_rows, 28))
    v[labels == 1, :14] += 1.0
    amount = np.round(rng.lognormal(3.0, 1.6, size=n_rows), 2)
    return dataset.TabularDataset(
        features=np.column_stack([time_s, v, amount]),
        feature_names=dataset.CREDITCARD_SCHEMA[:-1],
        labels=labels,
        provenance=np.zeros(n_rows, np.int8),
    )


def test_creditcard_path_stays_within_its_memory_bound(tmp_path, monkeypatch):
    source = creditcard_like(40_000, 70)
    feature_bytes = source.features.nbytes
    path = tmp_path / "creditcard.csv"
    dataset.save_csv(source, path)
    del source

    constructed = []
    check = dataset.RowProvenance.__post_init__

    def counting(self):
        constructed.append(self.kind)
        check(self)

    monkeypatch.setattr(dataset.RowProvenance, "__post_init__", counting)
    spec = ScenarioSpec(
        name="creditcard-baseline",
        placement=Placement.NO_SAMPLING,
        split=dataset.SplitSpec(0.2, 42, True),
        model=GbdtParams(learning_rate=0.4, n_estimators=3, max_depth=2),
    )

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(dataset.load_csv(path, schema=dataset.CREDITCARD_SCHEMA), spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()

    assert result.leakage.synthetic_rows_in_test == 0
    assert constructed == []
    assert peak < PEAK_OVER_FEATURE_BYTES * feature_bytes, peak / feature_bytes
