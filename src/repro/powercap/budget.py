"""Hierarchical power budgets: platform -> tenant -> app.

The tree follows the nvPAX shape: every node may carry its own cap, sibling
caps may *oversubscribe* their parent (sum of child caps exceeding the
parent's), and at allocation time the parent's actual budget is divided by
weighted water-filling over the children's demands.  Two redistribution
mechanisms fall out of the same pass:

* **slack redistribution** — a child demanding less than its fair share
  frees the difference for its busier siblings (the water level rises);
* **borrowing** — a child whose demand exceeds its *own* cap may soak up
  whatever budget its siblings leave unused, up to the parent's budget.

Allocation is pure arithmetic over the demand vector — no simulator state —
so the controller can call it every tick and tests can probe it directly.
"""

_INF = float("inf")


def waterfill(requests, weights, capacity):
    """Weighted water-filling: grants ``g_i <= r_i`` summing to at most
    ``capacity``, short requests fully met, the rest filled to a common
    weighted level.

    Returns a list aligned with ``requests``.  When the requests fit, each
    is granted outright; otherwise the water level is raised progressively,
    so a request below its weighted share frees the difference for the
    others (slack redistribution).
    """
    # Defensive copies: callers may pass iterators or live lists they keep
    # mutating; the fill below indexes repeatedly and must see one stable
    # snapshot (and must never write through to the caller's list).
    requests = [float(r) for r in requests]
    weights = [float(w) for w in weights]
    if len(requests) != len(weights):
        raise ValueError("requests and weights must align")
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if sum(requests) <= capacity:
        return list(requests)
    # Fill in order of normalized request: once the smallest consumers are
    # satisfied, the remaining capacity is re-shared among the rest.
    order = sorted(
        range(len(requests)), key=lambda i: (requests[i] / weights[i], i)
    )
    grants = [0.0] * len(requests)
    remaining = capacity
    active_weight = sum(weights)
    for i in order:
        share = remaining * weights[i] / active_weight if active_weight else 0.0
        grants[i] = min(requests[i], share)
        remaining -= grants[i]
        active_weight -= weights[i]
    return grants


class BudgetNode:
    """One node of the budget tree.

    ``cap_w=None`` means uncapped (bounded only by ancestors).  ``weight``
    sets the node's share in its siblings' water-filling.  ``borrowable``
    marks whether the node may exceed its own cap by borrowing budget its
    siblings leave unused.
    """

    def __init__(self, name, cap_w=None, weight=1.0, borrowable=True):
        if cap_w is not None and cap_w < 0:
            raise ValueError("cap must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.name = name
        self.cap_w = cap_w
        self.weight = float(weight)
        self.borrowable = borrowable
        self.parent = None
        self.children = []

    @property
    def is_leaf(self):
        return not self.children

    def add_child(self, node):
        """Attach ``node`` beneath this one; returns ``node``."""
        if node.parent is not None:
            raise ValueError("node {!r} already has a parent".format(node.name))
        node.parent = self
        self.children.append(node)
        return node

    def child(self, name, cap_w=None, weight=1.0, borrowable=True):
        """Create and attach a child in one step; returns the child."""
        return self.add_child(
            BudgetNode(name, cap_w=cap_w, weight=weight, borrowable=borrowable)
        )

    def walk(self):
        """This node and every descendant, depth first."""
        yield self
        for child in self.children:
            for node in child.walk():
                yield node

    def leaves(self):
        return [node for node in self.walk() if node.is_leaf]

    def path(self):
        """'platform/tenant/app'-style slash path from the root."""
        parts = []
        node = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self):
        cap = "uncapped" if self.cap_w is None else "{:.2f}W".format(self.cap_w)
        return "BudgetNode({!r}, {}, {} children)".format(
            self.name, cap, len(self.children)
        )


def _node_from_spec(entry):
    """One :class:`BudgetNode` and its subtree, from a nested-dict spec.

    A module function, not a local one: a self-recursive closure is a
    reference cycle (function -> cell -> function) left by every call.
    """
    node = BudgetNode(
        entry["name"],
        cap_w=entry.get("cap_w"),
        weight=entry.get("weight", 1.0),
        borrowable=entry.get("borrowable", True),
    )
    for child in entry.get("children", ()):
        node.add_child(_node_from_spec(child))
    return node


class BudgetTree:
    """The budget hierarchy plus its allocation pass."""

    def __init__(self, root):
        self.root = root
        self._nodes = {}
        for node in root.walk():
            if node.name in self._nodes:
                raise ValueError("duplicate node name {!r}".format(node.name))
            self._nodes[node.name] = node

    @classmethod
    def from_spec(cls, spec):
        """Build a tree from nested dicts::

            BudgetTree.from_spec({
                "name": "platform", "cap_w": 3.0, "children": [
                    {"name": "tenant-a", "cap_w": 2.0, "children": [...]},
                    {"name": "tenant-b", "weight": 2.0},
                ],
            })
        """
        return cls(_node_from_spec(spec))

    def node(self, name):
        if name not in self._nodes:
            raise KeyError("no budget node {!r}".format(name))
        return self._nodes[name]

    def __contains__(self, name):
        return name in self._nodes

    def leaves(self):
        return self.root.leaves()

    def demand_of(self, node, demands):
        """A node's aggregate demand: its own entry for leaves, the sum of
        the children's demands otherwise."""
        if node.is_leaf:
            return max(0.0, demands.get(node.name, 0.0))
        return sum(self.demand_of(child, demands) for child in node.children)

    def allocate(self, demands, available=None):
        """Divide the root budget over the tree for one demand vector.

        ``demands`` maps leaf names to watts of estimated demand (leaves
        absent from the mapping demand nothing).  ``available`` overrides
        the root's budget for this pass — the controller uses it to charge
        unmanaged draw (idle floors, world activity) against the cap.

        Returns ``{node name: granted watts}`` for every node.  A grant is
        the power the node may spend; leaf grants are the controller's
        per-app targets.
        """
        grants = {}
        if available is None:
            root_demand = self.demand_of(self.root, demands)
            available = self.root.cap_w if self.root.cap_w is not None \
                else root_demand
        self._distribute(self.root, max(0.0, float(available)), demands, grants)
        return grants

    def _distribute(self, node, available, demands, grants):
        grants[node.name] = available
        if node.is_leaf:
            return
        children = node.children
        child_demand = [self.demand_of(child, demands) for child in children]
        weights = [child.weight for child in children]
        # Pass 1: every child asks for its demand clipped to its own cap;
        # water-filling divides the parent budget (oversubscribed caps are
        # simply clipped here, and slack from quiet children raises the
        # level for busy ones).
        entitled = [
            min(d, child.cap_w if child.cap_w is not None else _INF)
            for d, child in zip(child_demand, children)
        ]
        base = waterfill(entitled, weights, available)
        slack = available - sum(base)
        # Pass 2: borrowing.  Children still demanding beyond their own cap
        # split the leftover budget, again by water-filling.
        extra = [0.0] * len(children)
        if slack > 0:
            overflow = [
                d - e if child.borrowable and child.cap_w is not None else 0.0
                for d, e, child in zip(child_demand, entitled, children)
            ]
            extra = waterfill(overflow, weights, slack)
            slack -= sum(extra)
        # Pass 3: whatever budget demand left unclaimed is granted anyway,
        # weight-proportionally, to the children allowed to exceed their
        # request (grants are *permissions*, not obligations — a leaf that
        # cannot use its bonus simply leaves it on the table, while one
        # whose demand estimate lagged ramps up without waiting a tick).
        if slack > 0:
            takers = [
                i for i, child in enumerate(children) if child.borrowable
            ]
            taker_weight = sum(weights[i] for i in takers)
            for i in takers:
                extra[i] += slack * weights[i] / taker_weight
        for child, b, e in zip(children, base, extra):
            self._distribute(child, b + e, demands, grants)
