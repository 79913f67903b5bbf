"""Model-based property test for one CFS runqueue (``CoreScheduler``).

The reference model is the naive structure the runqueue must be
indistinguishable from: a list of entities in enqueue order, where a pick
scans for the first non-throttled entity with the smallest vruntime.
Hypothesis drives one real :class:`~repro.kernel.cfs.CoreScheduler` (over
a fake smp and clock, so no hardware or events are involved) and the
model through random interleavings of enqueue (with and without wakeup),
dequeue, run-then-settle, throttle toggles and pick-then-dispatch.
Weights and deltas are tiny integers, so equal vruntimes are common.

After every op both must agree on:

* ``pick_next`` — the first non-throttled entity with minimal vruntime,
  so ties go to whichever current member joined the runqueue first;
* ``min_vruntime`` — updated only by ``settle``, to
  ``max(old, min(rq vruntimes ∪ current's))``, so it never goes back;
* every entity's vruntime — billing adds ``delta / weight`` to the
  occupying entity, and a wakeup clamps to at least
  ``min_vruntime - wakeup_grace``;
* runqueue membership;
* ``waiting_count()`` — equal to ``len(waiting_tasks())``.  Each entity
  carries stub member tasks whose READY flag the ``wake`` op toggles, and
  every pick or run makes one member the running task, so the census sees
  runnable and blocked members and the current task's exclusion.

This pins the pick order a faster runqueue (or a tickless CFS) must keep.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.cfs import CoreScheduler, GroupEntity

#: small enough that a wakeup clamp binds often
WAKEUP_GRACE = 2

#: one op: ("enqueue", i, wakeup) | ("dequeue", i) | ("run", i, delta)
#: | ("throttle", i) | ("wake", i, j) | ("pick",); entity and member
#: indices are taken modulo their counts
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("dequeue"), st.integers(0, 7)),
        st.tuples(st.just("run"), st.integers(0, 7), st.integers(0, 6)),
        st.tuples(st.just("throttle"), st.integers(0, 7)),
        st.tuples(st.just("wake"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("pick"),),
    ),
    max_size=60,
)


class _FakeSmp:
    """The two things a runqueue reads from its smp layer."""

    def __init__(self):
        self.sim = SimpleNamespace(now=0)

    def balloon_admissible(self, entity):
        raise AssertionError("no group here is sandboxed")


class _ReferenceRunqueue:
    """The obviously-correct model: a scan over an enqueue-ordered list."""

    def __init__(self, weights):
        self.weights = weights
        self.vruntime = [0.0] * len(weights)
        self.throttled = [False] * len(weights)
        self.rq = []              # entity indices, enqueue order
        self.min_vruntime = 0.0
        self.current = None

    def enqueue(self, i, wakeup):
        if i in self.rq:
            return
        if wakeup:
            self.vruntime[i] = max(self.vruntime[i],
                                   self.min_vruntime - WAKEUP_GRACE)
        self.rq.append(i)

    def dequeue(self, i):
        if i in self.rq:
            self.rq.remove(i)

    def settle(self, delta):
        if self.current is not None and delta > 0:
            self.vruntime[self.current] += delta / self.weights[self.current]
        members = list(self.rq)
        if self.current is not None:
            members.append(self.current)
        if members:
            self.min_vruntime = max(
                self.min_vruntime, min(self.vruntime[i] for i in members))

    def pick(self):
        eligible = [i for i in self.rq if not self.throttled[i]]
        if not eligible:
            return None
        lowest = min(self.vruntime[i] for i in eligible)
        return next(i for i in eligible if self.vruntime[i] == lowest)


def _member(runnable):
    """A stub task: what billing, member picks and the census read."""
    return SimpleNamespace(runnable=runnable, member_vruntime=0.0,
                           weight=1.0)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.lists(st.booleans(), max_size=3), min_size=4,
                max_size=4),
       _OPS)
@settings(max_examples=200, deadline=None)
def test_runqueue_matches_enqueue_ordered_reference(weights, members, ops):
    smp = _FakeSmp()
    sched = CoreScheduler(smp, core=None, wakeup_grace=WAKEUP_GRACE)
    entities = [
        GroupEntity(SimpleNamespace(weight=w, throttled=False,
                                    sandboxed=False), core_id=0)
        for w in weights
    ]
    for entity, flags in zip(entities, members):
        entity.members = [_member(flag) for flag in flags]
    model = _ReferenceRunqueue(weights)
    index = {entity: i for i, entity in enumerate(entities)}

    def settle(delta):
        sched.current_since = smp.sim.now
        smp.sim.now += delta
        sched.settle()
        model.settle(delta)

    for op in ops:
        kind = op[0]
        if kind == "pick":
            # reschedule's core: settle, pick, dispatch (no hardware here)
            settle(0)
            picked = sched.pick_next()
            sched.current = picked
            sched.current_task = (None if picked is None
                                  else picked.pick_member())
            model.current = None if picked is None else index[picked]
        else:
            i = op[1] % len(entities)
            entity = entities[i]
            if kind == "enqueue":
                sched.enqueue(entity, wakeup=op[2])
                model.enqueue(i, op[2])
            elif kind == "dequeue":
                sched.dequeue(entity)
                model.dequeue(i)
            elif kind == "run":
                # the entity occupies the core for ``delta`` ns, on the
                # runqueue or not (dequeued while running)
                sched.current = entity
                sched.current_task = entity.pick_member()
                model.current = i
                settle(op[2])
            elif kind == "wake":
                if entity.members:
                    task = entity.members[op[2] % len(entity.members)]
                    task.runnable = not task.runnable
            else:
                entity.group.throttled = not entity.group.throttled
                model.throttled[i] = entity.group.throttled
        picked = sched.pick_next()
        assert (None if picked is None else index[picked]) == model.pick()
        assert sched.min_vruntime == model.min_vruntime
        assert [entity.vruntime for entity in entities] == model.vruntime
        assert sorted(index[e] for e in sched.rq) == sorted(model.rq)
        assert [entity.on_rq for entity in entities] == [
            i in model.rq for i in range(len(entities))]
        assert sched.waiting_count() == len(sched.waiting_tasks())
