"""The verdict against a multiset oracle, over generated data and pipelines.

A split of the loaded data partitions its rows; anything before the split
that adds or removes a row makes train ⊎ test differ from the loaded rows
as multisets of (feature bytes, label). So the verdict must be LEAKY
exactly when a Counter finds such a difference, or the scaler was fitted
on the full data, whatever the data, the pipeline or the placement. The
expected verdict compares multisets, not configurations: a pre-split step
at its fixed point is CLEAN, and one that moves a single row is LEAKY.

The draws include integer-valued columns with few distinct values, rows
copied within and across classes and -0.0 cells, so exact duplicates
straddle most splits, and sampler strategies around the current ratio:
the fixed point, one or two rows either way, and up to 1.0. A draw that a
stage refuses must fail in that stage, by name. A split that succeeds
leaves both classes on each side, and no sampler removes a class, so no
draw reaches training or scoring with one class missing.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from leakguard.boosting import GbdtParams
from leakguard.dataset import SplitSpec, TabularDataset, stratified_split
from leakguard.experiment import (
    Placement,
    Preprocessing,
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    run_scenario,
)
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec, resample

MODEL = GbdtParams(learning_rate=0.3, n_estimators=1, max_depth=1)
SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)


@st.composite
def loaded_data(draw):
    """60-400 rows of 1-4 columns, each normal or integer-valued with 2-4
    distinct values; some zeros are -0.0, and some rows are overwritten by
    copies of other rows of the same or of the other class."""
    n_rows = draw(st.integers(60, 400))
    n_pos = draw(st.one_of(st.integers(1, n_rows // 5), st.integers(1, n_rows - 1)))
    integer_columns = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n_within, n_across = draw(st.integers(0, n_rows // 10)), draw(st.integers(0, n_rows // 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    labels = np.zeros(n_rows, dtype=np.int64)
    labels[rng.choice(n_rows, n_pos, replace=False)] = 1
    columns = []
    for integer in integer_columns:
        if integer:
            column = rng.integers(0, rng.integers(2, 5), n_rows) + labels * rng.integers(0, 2)
        else:
            column = rng.standard_normal(n_rows) + labels
            column[rng.random(n_rows) < 0.05] = 0.0
        columns.append(column.astype(np.float64))
    features = np.column_stack(columns)
    features[(features == 0.0) & (rng.random(features.shape) < 0.5)] = -0.0

    for same_class, n_copies in ((True, n_within), (False, n_across)):
        for _ in range(n_copies):
            target = rng.integers(n_rows)
            pool = np.flatnonzero((labels == labels[target]) == same_class)
            if pool.size:
                features[target] = features[rng.choice(pool)]
    names = tuple(f"f{i}" for i in range(features.shape[1]))
    return TabularDataset(features, names, labels, np.zeros(n_rows, np.int8))


@st.composite
def pipelines(draw, source):
    """1-3 steps drawn around the ratio of the data each step will see, and
    the pipeline's output, or None if a step refuses that data."""
    steps, current = [], source
    for _ in range(draw(st.integers(1, 3))):
        positives = int(current.labels.sum())
        minority, majority = sorted((positives, current.n_rows - positives))
        kind = draw(st.sampled_from(SamplerKind))
        rows = draw(st.none() | st.integers(-2, 2))  # None: up to 1.0
        if rows is None:
            strategy = draw(st.floats(min(minority / max(majority, 1), 1.0), 1.0))
        elif kind == SamplerKind.RANDOM_UNDER:  # remove `rows` majority rows
            strategy = minority / (majority - rows) if majority > rows else 1.0
        else:  # add `rows` minority rows
            strategy = (minority + rows) / max(majority, 1)
        strategy = min(max(strategy, 1e-3), 1.0)
        step = SamplerSpec(kind, strategy, draw(st.integers(1, 5)), draw(st.integers(0, 999)))
        steps.append(step)
        try:
            current = resample(current, step)
        except ValueError:
            return SamplerPipeline(tuple(steps)), None
    return SamplerPipeline(tuple(steps)), current


def row_multiset(*datasets):
    return Counter(
        (row.tobytes(), label)
        for d in datasets
        for row, label in zip(d.features, d.labels.tolist())
    )


def check_one(draws):
    """Draw one scenario, replay its stages, and check run_scenario against
    the replay: the same failing stage, or the oracle's verdict and count."""
    draw = draws.draw
    data = draw(loaded_data())
    placement = draw(st.sampled_from(Placement))
    preprocessing = draw(st.sampled_from(Preprocessing))
    split = SplitSpec(draw(st.floats(0.1, 0.5)), draw(st.integers(0, 999)), draw(st.booleans()))

    stage, pipeline, working = None, None, data
    if placement == Placement.SAMPLING_BEFORE_SPLIT:
        pipeline, working = draw(pipelines(data))
        stage = "sampling before split" if working is None else None
    if stage is None:
        try:
            train, test = stratified_split(working, split)
        except ValueError:
            stage = "train/test split"
        else:
            assert set(test.labels.tolist()) == {0, 1}
    if placement == Placement.SAMPLING_AFTER_SPLIT:
        pipeline, fitted = draw(pipelines(data if stage else train))
        stage = stage or ("sampling after split" if fitted is None else None)
    elif stage is None:
        fitted = train
    if stage is None:
        assert set(fitted.labels.tolist()) == {0, 1}

    spec = ScenarioSpec("draw", placement, split, MODEL, pipeline, preprocessing)
    if stage is not None:
        event(f"refused in {stage}")
        with pytest.raises(ScenarioError, match=f"^stage '{stage}': "):
            run_scenario(data, spec)
        return

    result = run_scenario(data, spec)
    loaded, parts = row_multiset(data), row_multiset(train, test)
    changed = sum((parts - loaded).values()) + sum((loaded - parts).values())
    faithful = preprocessing == Preprocessing.PAPER_FAITHFUL
    expected = Verdict.LEAKY if changed or faithful else Verdict.CLEAN
    leakage = result.leakage
    event(f"{placement.value}: {expected.value}, rows changed: {changed > 0}")
    event(f"duplicate pairs across split: {leakage.duplicate_pairs_across_split > 0}")
    assert leakage.verdict == expected, leakage
    assert leakage.class_count_change == changed, leakage
    doc = result.to_dict()
    assert ScenarioResult.from_dict(json.loads(json.dumps(doc))).to_dict() == doc


@SETTINGS
@given(st.data())
def test_verdict_is_leaky_exactly_when_the_rows_differ_from_the_loaded_multiset(draws):
    check_one(draws)
