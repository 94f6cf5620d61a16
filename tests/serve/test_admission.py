"""Unit tests for the admission controller's three decisions.

The controller is driven with an explicit clock (every entry point
takes ``now``), so shed ordering, deadline expiry and aging are tested
deterministically — no sleeps, no wall-clock races.
"""

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    DeadlineExceeded,
    Ticket,
    TransformRequest,
)


def mk(rid, priority=1, deadline=None, n=64, t=0.0):
    """A synthetic dft request; vary ``n`` to vary the batch key."""
    return TransformRequest(
        rid=rid,
        payload=np.zeros(n, dtype=np.complex128),
        n=n,
        direction="forward",
        backend="dft",
        library="numpy",
        priority=priority,
        deadline=deadline,
        params={},
        ticket=Ticket(rid, priority),
        t_submit=t,
    )


def strict():
    """A controller with aging disabled: pure strict priority."""
    return AdmissionController(max_queue=16, age_promote_s=0.0)


class TestValidation:
    def test_max_queue_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionController(max_queue=0)

    def test_age_promote_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="age_promote_s"):
            AdmissionController(max_queue=4, age_promote_s=-1.0)


class TestSelection:
    def test_fifo_within_one_key(self):
        ctrl = strict()
        for rid in (1, 2, 3):
            ctrl.offer(mk(rid), now=0.0)
        batch = ctrl.select(now=0.0, max_batch=8)
        assert [r.rid for r in batch] == [1, 2, 3]
        assert len(ctrl) == 0

    def test_select_coalesces_only_the_head_key(self):
        ctrl = strict()
        ctrl.offer(mk(1, n=64), now=0.0)
        ctrl.offer(mk(2, n=128), now=0.0)
        ctrl.offer(mk(3, n=64), now=0.0)
        first = ctrl.select(now=0.0, max_batch=8)
        assert [r.rid for r in first] == [1, 3]  # head's key, oldest first
        second = ctrl.select(now=0.0, max_batch=8)
        assert [r.rid for r in second] == [2]

    def test_max_batch_caps_the_batch(self):
        ctrl = strict()
        for rid in range(1, 6):
            ctrl.offer(mk(rid), now=0.0)
        assert len(ctrl.select(now=0.0, max_batch=2)) == 2
        assert len(ctrl) == 3

    def test_best_priority_class_forms_the_batch(self):
        ctrl = strict()
        ctrl.offer(mk(1, priority=1, n=64), now=0.0)
        ctrl.offer(mk(2, priority=0, n=128), now=0.0)
        batch = ctrl.select(now=0.0, max_batch=8)
        assert [r.rid for r in batch] == [2]  # interactive key wins

    def test_selected_requests_get_t_select_stamped(self):
        ctrl = strict()
        ctrl.offer(mk(1), now=1.0)
        (req,) = ctrl.select(now=2.5, max_batch=1)
        assert req.t_select == 2.5
        assert req.t_admit == 1.0

    def test_empty_queue_selects_nothing(self):
        assert strict().select(now=0.0, max_batch=8) == []


class TestSheddingOrder:
    def test_lower_class_is_shed_first(self):
        ctrl = AdmissionController(max_queue=2, age_promote_s=0.0)
        victim = mk(1, priority=2)
        keeper = mk(2, priority=1)
        ctrl.offer(victim, now=0.0)
        ctrl.offer(keeper, now=0.0)
        ctrl.offer(mk(3, priority=0), now=0.0)  # sheds the best_effort one
        with pytest.raises(AdmissionRejected) as exc:
            victim.ticket.result(timeout=0.0)
        assert exc.value.shed is True
        assert exc.value.priority == 2
        assert keeper.ticket.exception() is None
        counters = ctrl.counters()
        assert counters["shed_capacity"] == 1
        assert counters["admitted"] == 3
        assert counters["queued"] == 2

    def test_within_class_no_deadline_is_shed_before_deadlines(self):
        ctrl = AdmissionController(max_queue=2, age_promote_s=0.0)
        lax = mk(1, priority=1, deadline=None)
        tight = mk(2, priority=1, deadline=5.0)
        ctrl.offer(lax, now=0.0)
        ctrl.offer(tight, now=0.0)
        ctrl.offer(mk(3, priority=1, deadline=1.0), now=0.0)
        assert isinstance(lax.ticket.exception(), AdmissionRejected)
        assert tight.ticket.exception() is None

    def test_within_class_latest_deadline_is_shed_first(self):
        ctrl = AdmissionController(max_queue=2, age_promote_s=0.0)
        late = mk(1, priority=1, deadline=10.0)
        soon = mk(2, priority=1, deadline=5.0)
        ctrl.offer(late, now=0.0)
        ctrl.offer(soon, now=0.0)
        ctrl.offer(mk(3, priority=1, deadline=1.0), now=0.0)
        assert isinstance(late.ticket.exception(), AdmissionRejected)
        assert soon.ticket.exception() is None

    def test_full_of_more_urgent_work_rejects_synchronously(self):
        ctrl = AdmissionController(max_queue=1, age_promote_s=0.0)
        queued = mk(1, priority=0)
        ctrl.offer(queued, now=0.0)
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.offer(mk(2, priority=1), now=0.0)
        assert exc.value.shed is False
        assert exc.value.priority == 1
        assert exc.value.queue_depth == 1
        assert exc.value.max_queue == 1
        assert exc.value.load == 1.0
        assert queued.ticket.exception() is None  # untouched
        assert ctrl.counters()["rejected"] == 1

    def test_equal_urgency_rejects_the_newcomer(self):
        # FIFO fairness: an equally-urgent newcomer never churns out
        # an already-queued request.
        ctrl = AdmissionController(max_queue=1, age_promote_s=0.0)
        ctrl.offer(mk(1, priority=1), now=0.0)
        with pytest.raises(AdmissionRejected):
            ctrl.offer(mk(2, priority=1), now=0.0)

    def test_on_shed_callback_fires(self):
        seen = []
        ctrl = AdmissionController(
            max_queue=1, age_promote_s=0.0,
            on_shed=lambda req, err: seen.append((req.rid, type(err))),
        )
        ctrl.offer(mk(1, priority=2), now=0.0)
        ctrl.offer(mk(2, priority=0), now=0.0)
        assert seen == [(1, AdmissionRejected)]


class TestDeadlines:
    def test_expired_requests_are_failed_at_select(self):
        ctrl = strict()
        doomed = mk(1, deadline=5.0)
        alive = mk(2, deadline=50.0)
        ctrl.offer(doomed, now=1.0)
        ctrl.offer(alive, now=1.0)
        batch = ctrl.select(now=6.0, max_batch=8)
        assert [r.rid for r in batch] == [2]
        err = doomed.ticket.exception()
        assert isinstance(err, DeadlineExceeded)
        assert err.waited_s == pytest.approx(5.0)
        assert ctrl.counters()["shed_deadline"] == 1

    def test_expired_request_never_occupies_a_batch_slot(self):
        ctrl = strict()
        ctrl.offer(mk(1, deadline=2.0), now=0.0)
        assert ctrl.select(now=3.0, max_batch=8) == []
        assert len(ctrl) == 0

    def test_next_deadline_tracks_the_earliest_live_one(self):
        ctrl = strict()
        assert ctrl.next_deadline() is None
        ctrl.offer(mk(1, deadline=7.0), now=0.0)
        ctrl.offer(mk(2, deadline=3.0), now=0.0)
        ctrl.offer(mk(3), now=0.0)
        assert ctrl.next_deadline() == 3.0
        ctrl.select(now=4.0, max_batch=8)  # rid 2 expires, rest selected
        assert ctrl.next_deadline() is None


class TestAging:
    def test_aged_best_effort_beats_fresh_interactive(self):
        ctrl = AdmissionController(max_queue=16, age_promote_s=1.0)
        ctrl.offer(mk(1, priority=2, n=64), now=0.0)
        ctrl.offer(mk(2, priority=0, n=128), now=2.0)
        # At now=2.5 the best_effort request has aged two classes:
        # effective priority 0, and it is older — it goes first.
        batch = ctrl.select(now=2.5, max_batch=8)
        assert [r.rid for r in batch] == [1]

    def test_without_aging_interactive_always_wins(self):
        ctrl = strict()
        ctrl.offer(mk(1, priority=2, n=64), now=0.0)
        ctrl.offer(mk(2, priority=0, n=128), now=2.0)
        batch = ctrl.select(now=1000.0, max_batch=8)
        assert [r.rid for r in batch] == [2]


class TestDrainAndCounters:
    def test_drain_fails_everything_in_rid_order(self):
        ctrl = strict()
        for rid, prio in ((1, 2), (2, 0), (3, 1)):
            ctrl.offer(mk(rid, priority=prio), now=0.0)
        failed = []
        assert ctrl.drain(lambda req: failed.append(req.rid)) == 3
        assert failed == [1, 2, 3]
        assert len(ctrl) == 0
        assert ctrl.select(now=0.0, max_batch=8) == []

    def test_load_is_the_occupancy_fraction(self):
        ctrl = AdmissionController(max_queue=4, age_promote_s=0.0)
        assert ctrl.load() == 0.0
        ctrl.offer(mk(1), now=0.0)
        assert ctrl.load() == 0.25

    def test_counters_keys_are_stable(self):
        assert set(strict().counters()) == {
            "admitted", "rejected", "shed_capacity", "shed_deadline", "queued",
        }

    def test_interleaved_shed_and_select_keep_indexes_consistent(self):
        # Lazy deletion stress: shed/expire/select interleaved must
        # never surface a stale request or miscount the queue.
        ctrl = AdmissionController(max_queue=4, age_promote_s=0.0)
        reqs = [mk(rid, priority=rid % 3, deadline=10.0 + rid) for rid in range(1, 5)]
        for req in reqs:
            ctrl.offer(req, now=0.0)
        ctrl.offer(mk(9, priority=0), now=0.0)  # sheds the worst victim
        assert len(ctrl) == 4
        selected = []
        while True:
            batch = ctrl.select(now=1.0, max_batch=1)
            if not batch:
                break
            selected.extend(r.rid for r in batch)
        assert len(selected) == 4
        assert len(set(selected)) == 4
        shed = [r for r in reqs if isinstance(r.ticket.exception(), AdmissionRejected)]
        assert len(shed) == 1
        assert shed[0].rid not in selected
