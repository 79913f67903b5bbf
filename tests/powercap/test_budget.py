"""Budget tree tests: water-filling, oversubscription, borrowing, slack."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.powercap.budget import BudgetNode, BudgetTree, waterfill

EPS = 1e-9


# -- waterfill ---------------------------------------------------------------------


def test_waterfill_grants_everything_when_it_fits():
    assert waterfill([1.0, 2.0], [1.0, 1.0], 4.0) == [1.0, 2.0]


def test_waterfill_splits_evenly_under_pressure():
    assert waterfill([5.0, 5.0], [1.0, 1.0], 4.0) == [2.0, 2.0]


def test_waterfill_short_requests_fully_met():
    grants = waterfill([0.5, 9.0], [1.0, 1.0], 4.0)
    assert grants[0] == 0.5
    assert grants[1] == pytest.approx(3.5)


def test_waterfill_respects_weights():
    grants = waterfill([9.0, 9.0], [1.0, 3.0], 4.0)
    assert grants[0] == pytest.approx(1.0)
    assert grants[1] == pytest.approx(3.0)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill([1.0], [1.0, 1.0], 4.0)
    with pytest.raises(ValueError):
        waterfill([1.0], [1.0], -1.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
             max_size=8),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_waterfill_properties(requests, capacity):
    weights = [1.0] * len(requests)
    grants = waterfill(requests, weights, capacity)
    # Never over-grants a request, never exceeds capacity, and leaves no
    # capacity unused while some request is unmet.
    assert all(g <= r + EPS for g, r in zip(grants, requests))
    assert sum(grants) <= capacity + EPS
    if sum(requests) >= capacity:
        assert sum(grants) == pytest.approx(capacity)
    else:
        assert grants == requests


# -- tree construction -------------------------------------------------------------


def test_node_validation():
    with pytest.raises(ValueError):
        BudgetNode("x", cap_w=-1.0)
    with pytest.raises(ValueError):
        BudgetNode("x", weight=0.0)
    root = BudgetNode("root")
    child = root.child("a")
    with pytest.raises(ValueError):
        root.add_child(child)      # already attached


def test_tree_rejects_duplicate_names():
    root = BudgetNode("root")
    root.child("a")
    root.child("a")
    with pytest.raises(ValueError):
        BudgetTree(root)


def test_from_spec_builds_the_hierarchy():
    tree = BudgetTree.from_spec({
        "name": "platform", "cap_w": 3.0, "children": [
            {"name": "t-a", "cap_w": 2.0,
             "children": [{"name": "app1"}, {"name": "app2", "weight": 2.0}]},
            {"name": "t-b", "borrowable": False},
        ],
    })
    assert tree.node("platform").cap_w == 3.0
    assert tree.node("app2").weight == 2.0
    assert not tree.node("t-b").borrowable
    assert tree.node("app1").path() == "platform/t-a/app1"
    assert {leaf.name for leaf in tree.leaves()} == {"app1", "app2", "t-b"}
    assert "app1" in tree and "nope" not in tree
    with pytest.raises(KeyError):
        tree.node("nope")


# -- allocation --------------------------------------------------------------------


def two_tenant_tree(cap=3.0, tenant_cap=2.25):
    """Oversubscribed: the tenant caps sum to 1.5x the platform cap."""
    return BudgetTree.from_spec({
        "name": "platform", "cap_w": cap, "children": [
            {"name": "t-a", "cap_w": tenant_cap,
             "children": [{"name": "a1"}, {"name": "a2"}]},
            {"name": "t-b", "cap_w": tenant_cap,
             "children": [{"name": "b1"}, {"name": "b2"}]},
        ],
    })


def test_oversubscribed_tenants_split_the_platform_cap():
    tree = two_tenant_tree()
    grants = tree.allocate({"a1": 5.0, "a2": 5.0, "b1": 5.0, "b2": 5.0})
    assert grants["platform"] == pytest.approx(3.0)
    assert grants["t-a"] == pytest.approx(1.5)
    assert grants["t-b"] == pytest.approx(1.5)


def test_idle_tenant_slack_flows_to_the_busy_sibling():
    tree = two_tenant_tree()
    grants = tree.allocate({"a1": 5.0, "a2": 5.0, "b1": 0.1, "b2": 0.0})
    # t-b only needs 0.1; t-a soaks the rest up to its own cap and then —
    # borrowable — beyond it, up to the platform budget.
    assert grants["t-a"] >= 2.25 - EPS
    assert grants["t-a"] + grants["t-b"] == pytest.approx(3.0)
    assert grants["a1"] + grants["a2"] == pytest.approx(grants["t-a"])


def test_non_borrowable_tenant_never_exceeds_its_cap():
    tree = BudgetTree.from_spec({
        "name": "platform", "cap_w": 3.0, "children": [
            {"name": "t-a", "cap_w": 1.0, "borrowable": False,
             "children": [{"name": "a1"}]},
            {"name": "t-b", "cap_w": 2.0, "children": [{"name": "b1"}]},
        ],
    })
    grants = tree.allocate({"a1": 5.0, "b1": 0.0})
    assert grants["t-a"] <= 1.0 + EPS


def test_grants_sum_to_available_when_someone_can_borrow():
    tree = two_tenant_tree()
    # Demands far below the cap: the bonus pass still hands out the whole
    # budget so lagging demand estimates do not starve anyone.
    grants = tree.allocate({"a1": 0.2, "a2": 0.2, "b1": 0.2, "b2": 0.2})
    assert grants["t-a"] + grants["t-b"] == pytest.approx(3.0)


def test_available_override_charges_unmanaged_draw():
    tree = two_tenant_tree()
    grants = tree.allocate({"a1": 5.0, "a2": 5.0, "b1": 5.0, "b2": 5.0},
                           available=2.0)
    assert grants["platform"] == pytest.approx(2.0)
    assert grants["t-a"] == pytest.approx(1.0)


def test_uncapped_root_grants_total_demand():
    tree = BudgetTree.from_spec({
        "name": "root", "children": [{"name": "x"}, {"name": "y"}],
    })
    grants = tree.allocate({"x": 1.0, "y": 2.0})
    assert grants["x"] == pytest.approx(1.0)
    assert grants["y"] == pytest.approx(2.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=4,
             max_size=4),
    st.floats(min_value=0.5, max_value=6.0),
)
def test_allocation_conserves_the_budget(demands, cap):
    tree = two_tenant_tree(cap=cap, tenant_cap=0.75 * cap)
    leaf_demand = dict(zip(["a1", "a2", "b1", "b2"], demands))
    grants = tree.allocate(leaf_demand)
    # The root grant equals the cap; every parent's grant equals the sum
    # of its children's grants (nothing lost, nothing invented).
    assert grants["platform"] == pytest.approx(cap)
    assert grants["t-a"] + grants["t-b"] == pytest.approx(cap)
    assert grants["a1"] + grants["a2"] == pytest.approx(grants["t-a"])
    assert grants["b1"] + grants["b2"] == pytest.approx(grants["t-b"])


# -- edge cases shared with the cluster allocators ---------------------------------


def test_zero_budget_children_get_nothing_everywhere():
    tree = two_tenant_tree(cap=0.0, tenant_cap=0.0)
    grants = tree.allocate({"a1": 5.0, "a2": 5.0, "b1": 5.0, "b2": 5.0})
    assert all(g == 0.0 for g in grants.values())


def test_all_children_saturated_split_by_weight():
    tree = BudgetTree.from_spec({
        "name": "root", "cap_w": 3.0, "children": [
            {"name": "x", "cap_w": 1.0, "weight": 1.0},
            {"name": "y", "cap_w": 1.0, "weight": 2.0},
        ],
    })
    # Both children demand far beyond their caps: entitled grants clip to
    # the caps, and the leftover budget flows back by weight (borrowing).
    grants = tree.allocate({"x": 10.0, "y": 10.0})
    assert grants["x"] + grants["y"] == pytest.approx(3.0)
    assert grants["y"] > grants["x"]


def test_single_child_tree_passes_the_budget_through():
    tree = BudgetTree.from_spec({
        "name": "root", "cap_w": 2.0,
        "children": [{"name": "only", "children": [{"name": "leaf"}]}],
    })
    grants = tree.allocate({"leaf": 9.0})
    assert grants["only"] == pytest.approx(2.0)
    assert grants["leaf"] == pytest.approx(2.0)


def test_waterfill_leaves_caller_lists_untouched():
    requests = [5.0, 5.0]
    weights = [1.0, 1.0]
    waterfill(requests, weights, 4.0)
    assert requests == [5.0, 5.0]
    assert weights == [1.0, 1.0]
    # Iterators are materialized, not consumed half-way into garbage.
    grants = waterfill(iter([1.0, 2.0]), iter([1.0, 1.0]), 4.0)
    assert grants == [1.0, 2.0]
