"""Model-based property test for the simulator's event queue.

The reference model is the naive structure ``Simulator`` must be
indistinguishable from: a plain list of ``(time, push_index, child)``
kept in push order, where each step of a run scans for the live entry
with the smallest ``(time, push_index)``.  Hypothesis drives both through
random interleavings of ``at``, ``call_later``, ``call_soon``, cancels
(of any handle, already-fired ones included) and ``run(until=)``, with a
tiny time domain so same-instant ties are common.  A scheduled handler
may itself schedule a child at ``now + dt`` when it fires, so pushes also
land mid-run, behind and ahead of the head.  After every operation the
fired handles, ``now`` and ``pending()`` must agree; at the end both
drain, and ``shutdown()`` leaves nothing pending.

This is the harness that guards the queue's two delicate tricks: the
head slot, whose displaced owner enters the heap with sequence ``-1``,
and lazy corpse pruning.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

_DT = st.integers(min_value=0, max_value=4)
#: a pushed handler's child delay, or None for a handler with no child
_CHILD = st.none() | _DT

#: one op: ("at" | "later", dt, child) | ("soon", child) | ("cancel", k)
#: | ("run", dt); cancel picks modulo the handles pushed so far.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("at", "later")), _DT, _CHILD),
        st.tuples(st.just("soon"), _CHILD),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=300)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=6)),
    ),
    max_size=200,
)


class _Reference:
    """The obviously-correct model: a scan over a push-ordered list."""

    def __init__(self):
        self.now = 0
        self.entries = []         # (time, push_index, child), push order
        self.cancelled = set()    # push indices
        self.fired = []           # push indices, in firing order
        self.pushes = 0

    def push(self, time, child):
        self.entries.append((time, self.pushes, child))
        self.pushes += 1

    def pending(self):
        return sum(1 for e in self.entries if e[1] not in self.cancelled)

    def run(self, until=None):
        while True:
            live = [e for e in self.entries if e[1] not in self.cancelled]
            if not live:
                break
            best = min(live, key=lambda e: (e[0], e[1]))
            if until is not None and best[0] > until:
                break
            self.entries.remove(best)
            self.now = best[0]
            self.fired.append(best[1])
            if best[2] is not None:
                self.push(self.now + best[2], None)
        if until is not None and until > self.now:
            self.now = until


@given(_OPS)
@settings(max_examples=500, deadline=None)
def test_queue_matches_sorted_list_reference(ops):
    sim = Simulator()
    model = _Reference()
    fired = []
    handles = []

    def fire(index, child):
        fired.append(index)
        if child is not None:
            handles.append(sim.at(sim.now + child, fire, len(handles), None))

    def check():
        assert fired == model.fired
        assert sim.now == model.now
        assert sim.pending() == model.pending()

    for op in ops:
        kind = op[0]
        if kind == "at":
            handles.append(sim.at(sim.now + op[1], fire, len(handles), op[2]))
            model.push(model.now + op[1], op[2])
        elif kind == "later":
            handles.append(sim.call_later(op[1], fire, len(handles), op[2]))
            model.push(model.now + op[1], op[2])
        elif kind == "soon":
            handles.append(sim.call_soon(fire, len(handles), op[1]))
            model.push(model.now, op[1])
        elif kind == "cancel":
            if handles:
                index = op[1] % len(handles)
                handles[index].cancel()
                model.cancelled.add(index)
        else:
            sim.run(until=sim.now + op[1])
            model.run(until=model.now + op[1])
        check()
    sim.run()
    model.run()
    check()
    sim.shutdown()
    assert sim.pending() == 0
