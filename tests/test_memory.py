"""Memory guards for the credit-card path: load a CSV and run the baseline
scenario, and sample, split, audit and preprocess under every placement.

tracemalloc sees numpy's buffers as well as Python objects, so the traced
peak, with training's shared mappings added (tracemalloc does not see
them), is the most the path holds at once. With 40,000 rows of 30
features the whole run reads 2.95 times the feature bytes, 0.12 of it
those mappings. Preparing every side from its whole raw partition, while
both raw partitions were alive, read 3.32; copying every matrix a dataset
is handed and counting cross-split duplicates with a Counter of row bytes
read 4.24 times; holding one provenance object per row and the raw
partitions through training as well read 5.11 times.
"""

import tracemalloc

import numpy as np
import pytest

from leakguard import boosting, dataset, experiment
from leakguard.boosting import GbdtParams
from leakguard.experiment import Placement, Preprocessing, ScenarioSpec, run_scenario
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec

PEAK_OVER_FEATURE_BYTES = 3.2

# _prepared_partitions' traced peak over the loaded feature bytes, at
# 40,000 rows with a 10% random oversample. no_sampling reads 1.42 and must
# stay below 1.7. The sampled placements read 2.21 (after the split) and
# 2.44 (before it); each bound is 5% above its figure when every side was
# prepared from its whole raw partition, 2.41 and 2.46.
PREPARED_PEAK_BOUNDS = {
    Placement.NO_SAMPLING: 1.7,
    Placement.SAMPLING_AFTER_SPLIT: 2.41 * 1.05,
    Placement.SAMPLING_BEFORE_SPLIT: 2.46 * 1.05,
}


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
    """Training's shared mappings (gradients, keys and histogram cells,
    which its helper processes write) are outside tracemalloc's view, so
    their bytes are added to the traced peak; they are all alive at once
    while training runs."""
    shared_bytes = []
    shared = boosting._shared

    def counted_shared(size, dtype):
        array = shared(size, dtype)
        shared_bytes.append(array.nbytes)
        return array

    monkeypatch.setattr(boosting, "_shared", counted_shared)
    source = creditcard_like(40_000, 70)
    feature_bytes = source.features.nbytes
    path = tmp_path / "creditcard.csv"
    dataset.save_csv(source, path)
    del source
    spec = ScenarioSpec(
        name="creditcard-baseline",
        placement=Placement.NO_SAMPLING,
        split=dataset.SplitSpec(0.2, 42, True),
        model=GbdtParams(learning_rate=0.4, n_estimators=3, max_depth=2),
    )

    result, peak = traced_peak(
        lambda: run_scenario(dataset.load_csv(path, schema=dataset.CREDITCARD_SCHEMA), spec)
    )

    assert result.leakage.synthetic_rows_in_test == 0
    assert len(shared_bytes) == 3
    peak += sum(shared_bytes)
    assert peak < PEAK_OVER_FEATURE_BYTES * feature_bytes, peak / feature_bytes


def traced_peak(fn):
    """(fn's result, the most it held at once beyond what was live before)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_load_csv_holds_its_result_and_a_few_chunk_buffers(tmp_path, monkeypatch, workers):
    """load_csv's traced peak beyond the dataset it returns is bounded in
    chunk buffers of _CSV_CHUNK_BYTES, not in the file's size.

    A cell of this file takes about 18 bytes of text with its comma and 8
    parsed, so a chunk's cells fill under half a chunk buffer. In the
    calling process the parse holds one chunk's cells twice, loadtxt's and
    their feature copy: one buffer. With a pool the parent holds at most
    two results per worker in flight and the one it copies, under
    ``workers + 1`` buffers. Finding the chunks holds two buffers, before
    the result exists. Parsing the whole file in one call and deleting its
    label column read 2.08 times the feature bytes here.
    """
    source = creditcard_like(40_000, 70)
    path = tmp_path / "creditcard.csv"
    dataset.save_csv(source, path)
    del source
    monkeypatch.setattr(dataset, "_parallelism", lambda n_tasks: workers)

    loaded, peak = traced_peak(lambda: dataset.load_csv(path))

    result = loaded.features.nbytes + loaded.labels.nbytes + loaded.provenance.nbytes
    buffers = 1 if workers == 1 else workers + 1
    extra = (peak - result) / dataset._CSV_CHUNK_BYTES
    assert extra < buffers, extra


@pytest.fixture(scope="module")
def creditcard_40k():
    return creditcard_like(40_000, 70)


@pytest.mark.parametrize("preprocessing", list(Preprocessing))
@pytest.mark.parametrize("placement", list(Placement))
def test_prepared_partitions_stay_within_their_memory_bound(
    creditcard_40k, placement, preprocessing
):
    """No side is held raw and prepared whole at once where its rows are
    rows of the loaded data, and no sampled placement holds more than when
    each side was prepared from its whole partition."""
    over = SamplerPipeline(steps=(SamplerSpec(SamplerKind.RANDOM_OVER, 0.1, seed=1),))
    spec = ScenarioSpec(
        name="memory",
        placement=placement,
        split=dataset.SplitSpec(0.2, 42, True),
        model=GbdtParams(),
        pipeline=None if placement == Placement.NO_SAMPLING else over,
        preprocessing=preprocessing,
    )
    _, peak = traced_peak(lambda: experiment._prepared_partitions(creditcard_40k, spec))
    ratio = peak / creditcard_40k.features.nbytes
    assert ratio < PREPARED_PEAK_BOUNDS[placement], ratio
