"""Unit tests for work items and the merge."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.par import WorkItem, merge_results, work_list


def _items(n):
    return work_list("t", "repro.par.testing:square_cell",
                     [(seed, {}) for seed in range(n)])


def test_work_list_indexes_in_order():
    items = work_list("t", "m:f", [(5, {"a": 1}), (9, {"b": 2})])
    assert [item.index for item in items] == [0, 1]
    assert [item.seed for item in items] == [5, 9]
    assert items[0].experiment == "t"


def test_spec_is_primitive():
    item = WorkItem("t", "m:f", seed=3, config={"x": 1}, index=7)
    spec = item.spec()
    assert spec == {"experiment": "t", "runner": "m:f", "seed": 3,
                    "config": {"x": 1}, "index": 7}
    # a copy, not a view
    spec["config"]["x"] = 99
    assert item.config["x"] == 1


def test_work_item_rejects_nan_and_infinity_configs():
    """NaN/Infinity serialise as non-RFC repr tokens that would silently
    fork cache keys; the error must carry the cell identity."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"\('t', seed=3\)"):
            WorkItem("t", "m:f", seed=3, config={"x": bad})
    with pytest.raises(ValueError, match="strict JSON"):
        WorkItem("t", "m:f", seed=0, config={"nested": {"y": [math.nan]}})


def test_work_item_rejects_non_json_configs():
    with pytest.raises(ValueError, match="strict JSON"):
        WorkItem("t", "m:f", seed=0, config={"obj": object()})


def test_merge_orders_by_index_not_arrival():
    merged = merge_results([(2, "c"), (0, "a"), (1, "b")], 3)
    assert merged == ["a", "b", "c"]


def test_merge_rejects_missing_duplicate_and_stray():
    with pytest.raises(ValueError, match="missing"):
        merge_results([(0, "a")], 2)
    with pytest.raises(ValueError, match="duplicate"):
        merge_results([(0, "a"), (0, "b")], 1)
    with pytest.raises(ValueError, match="outside"):
        merge_results([(5, "a")], 2)


@given(st.lists(st.integers(), min_size=0, max_size=64), st.randoms())
def test_property_steal_order_never_leaks_through_merge(payloads, rng):
    """The spawn pool completes cells in an arbitrary order (worker
    speed, boot skew, host load); whatever permutation arrives, the
    merge must return exactly the work-list order."""
    indexed = list(enumerate(payloads))
    rng.shuffle(indexed)
    assert merge_results(indexed, len(payloads)) == payloads
