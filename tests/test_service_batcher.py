"""Tests for the dynamic batcher (idle/size/deadline flush, backpressure)."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.batcher import (
    TRIGGER_DEADLINE,
    TRIGGER_IDLE,
    TRIGGER_SHUTDOWN,
    TRIGGER_SIZE,
    BatcherConfig,
    DynamicBatcher,
)


class FlushRecorder:
    """Collects (kernel_id, payloads, trigger) flushes thread-safely."""

    def __init__(self):
        self.flushes = []
        self._lock = threading.Lock()
        self._event = threading.Event()

    def __call__(self, kernel_id, entries, trigger):
        with self._lock:
            self.flushes.append(
                (kernel_id, [e.payload for e in entries], trigger)
            )
        self._event.set()

    def wait(self, count=1, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.flushes) >= count:
                    return True
            time.sleep(0.005)
        return False

    @property
    def triggers(self):
        with self._lock:
            return [t for _, _, t in self.flushes]


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            BatcherConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatcherConfig(max_delay_ms=0)
        with pytest.raises(ValueError):
            BatcherConfig(max_queue_depth=0)


class TestSizeTrigger:
    def test_full_batch_flushes_immediately(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=3, max_delay_ms=10_000.0), recorder
        )
        for k in range(3):
            assert batcher.offer(1, payload=k)
        assert recorder.flushes == [(1, [0, 1, 2], TRIGGER_SIZE)]
        assert batcher.depth(1) == 0

    def test_priority_boards_first_when_oversubscribed(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=4, max_delay_ms=10_000.0), recorder
        )
        # Three low-priority, then one urgent: the urgent request must be
        # in the size-triggered batch ahead of the FIFO tail.
        for k in range(3):
            batcher.offer(1, payload=f"low{k}", priority=0)
        batcher.offer(1, payload="urgent", priority=5)
        (kernel_id, payloads, trigger), = recorder.flushes
        assert trigger == TRIGGER_SIZE
        assert payloads[0] == "urgent"
        assert set(payloads) == {"urgent", "low0", "low1", "low2"}

    def test_queues_are_per_kernel(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=2, max_delay_ms=10_000.0), recorder
        )
        batcher.offer(1, payload="a")
        batcher.offer(2, payload="b")
        assert recorder.flushes == []  # neither kernel reached max_batch
        batcher.offer(1, payload="c")
        assert recorder.flushes == [(1, ["a", "c"], TRIGGER_SIZE)]
        assert batcher.depth(2) == 1


class TestDeadlineTrigger:
    def test_partial_batch_flushes_on_linger(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=64, max_delay_ms=30.0), recorder
        )
        batcher.start()
        try:
            batcher.offer(1, payload="solo")
            assert recorder.wait(1), "deadline flush never fired"
            assert recorder.flushes[0] == (1, ["solo"], TRIGGER_DEADLINE)
        finally:
            batcher.stop()

    def test_request_deadline_tightens_linger(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=64, max_delay_ms=10_000.0), recorder
        )
        batcher.start()
        try:
            started = time.monotonic()
            batcher.offer(1, payload="urgent", deadline_ms=60.0)
            assert recorder.wait(1), "deadline flush never fired"
            # Queue budget is half the 60 ms deadline, far below the
            # 10 s linger bound.
            assert time.monotonic() - started < 5.0
        finally:
            batcher.stop()


class TestIdleTrigger:
    """With ``slots``, a queue boards whenever a runtime is free."""

    @staticmethod
    def make(recorder, slots=1, **config):
        config.setdefault("max_delay_ms", 10_000.0)
        config.setdefault("max_batch", 4)
        count = slots if callable(slots) else (lambda _kernel_id: slots)
        return DynamicBatcher(BatcherConfig(**config), recorder, slots=count)

    def test_lone_offer_flushes_without_the_flusher(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder)  # never started: no timer can fire
        assert batcher.offer(1, payload="solo")
        assert recorder.flushes == [(1, ["solo"], TRIGGER_IDLE)]
        assert batcher.depth(1) == 0

    def test_offers_behind_a_busy_slot_leave_together_on_done(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder)
        batcher.offer(1, payload="first")
        batcher.offer(1, payload="a")
        batcher.offer(1, payload="b", priority=3)
        batcher.offer(2, payload="other kernel")  # its own slot is free
        assert recorder.flushes == [
            (1, ["first"], TRIGGER_IDLE), (2, ["other kernel"], TRIGGER_IDLE),
        ]
        batcher.done(1)
        assert recorder.flushes[2:] == [(1, ["b", "a"], TRIGGER_IDLE)]
        batcher.done(1)  # nothing queued: nothing boards
        assert len(recorder.flushes) == 3

    def test_full_queue_flushes_size_while_busy(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder, max_batch=3)
        batcher.offer(1, payload="first")
        for k in range(4):
            batcher.offer(1, payload=k)
        assert recorder.flushes[1:] == [(1, [0, 1, 2], TRIGGER_SIZE)]
        batcher.done(1)  # one of two batches still in flight: 3 waits
        assert batcher.depth(1) == 1
        batcher.done(1)
        assert recorder.flushes[2:] == [(1, [3], TRIGGER_IDLE)]

    def test_max_delay_caps_the_wait_behind_a_busy_slot(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder, max_delay_ms=30.0)
        batcher.start()
        try:
            batcher.offer(1, payload="first")
            batcher.offer(1, payload="waiting")
            assert recorder.wait(2), "deadline flush never fired"
            assert recorder.flushes[1] == (1, ["waiting"], TRIGGER_DEADLINE)
        finally:
            batcher.stop()

    def test_slots_follow_pool_membership(self):
        recorder = FlushRecorder()
        members = {1: 2}
        batcher = self.make(recorder, slots=lambda k: members[k])
        for payload in "abc":
            batcher.offer(1, payload=payload)
        assert recorder.flushes == [
            (1, ["a"], TRIGGER_IDLE), (1, ["b"], TRIGGER_IDLE),
        ]
        members[1] = 1  # a member retired: one batch in flight is busy
        batcher.done(1)
        assert batcher.depth(1) == 1
        batcher.done(1)
        assert recorder.flushes[2:] == [(1, ["c"], TRIGGER_IDLE)]

    def test_every_trigger_counts_in_flight_and_done_returns_it(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder, max_batch=2)
        batcher.start()
        batcher.offer(1, payload="idle")
        batcher.offer(1, payload="s0")
        batcher.offer(1, payload="s1")          # size, while busy
        batcher.offer(1, payload="late", deadline_ms=40.0)  # deadline, busy
        assert recorder.wait(3)
        assert recorder.triggers == [TRIGGER_IDLE, TRIGGER_SIZE, TRIGGER_DEADLINE]
        batcher.offer(1, payload="residual")
        batcher.stop()                          # shutdown flush
        assert recorder.triggers[3:] == [TRIGGER_SHUTDOWN]
        assert batcher._in_flight == {1: 4}
        for _ in range(4):
            batcher.done(1)
        assert batcher._in_flight == {1: 0}

    def test_done_after_stop_boards_nothing(self):
        recorder = FlushRecorder()
        batcher = self.make(recorder)
        batcher.offer(1, payload="in flight")
        batcher.stop()
        batcher.offer(1, payload="stray")  # after stop: only size or stop()
        batcher.done(1)
        assert recorder.triggers == [TRIGGER_IDLE]
        batcher.stop()
        assert recorder.flushes[1:] == [(1, ["stray"], TRIGGER_SHUTDOWN)]

    def test_flusher_is_woken_only_for_an_earlier_deadline(self):
        batcher = self.make(FlushRecorder(), max_batch=64)
        wakeups = []
        batcher._wakeup.notify_all = lambda: wakeups.append(1)
        batcher.offer(1, payload="first")  # idle: no timer involved
        for k in range(10):                 # FIFO, one linger: one wake-up
            batcher.offer(1, payload=k)
        assert len(wakeups) == 1
        batcher.offer(1, payload="urgent", deadline_ms=50.0)
        assert len(wakeups) == 2

    def test_concurrent_offers_and_completions_lose_nothing(self):
        """More threads than cores, a 10 us switch interval, no timer:
        a lost done() or a double boarding strands or repeats a payload."""
        n_threads, per_thread = 8, 250
        flushed, lock = [], threading.Lock()
        executor = ThreadPoolExecutor(max_workers=2)

        def run(kernel_id, payloads):
            with lock:
                flushed.extend(payloads)
            batcher.done(kernel_id)

        def flush(kernel_id, entries, _trigger):
            executor.submit(run, kernel_id, [e.payload for e in entries])

        batcher = self.make(flush, slots=2, max_batch=16, max_queue_depth=10**6)

        def offerer(t):
            for k in range(per_thread):
                assert batcher.offer(1 + t % 2, payload=(t, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=offerer, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            deadline = time.monotonic() + 60.0
            while any(batcher._in_flight.values()) and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown(wait=True)
        assert batcher._in_flight == {1: 0, 2: 0}
        assert batcher.depth(1) == batcher.depth(2) == 0
        assert sorted(flushed) == [
            (t, k) for t in range(n_threads) for k in range(per_thread)
        ]


class TestBackpressure:
    def test_offers_refused_at_bound(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=100, max_delay_ms=10_000.0,
                          max_queue_depth=3),
            recorder,
        )
        assert all(batcher.offer(1, payload=k) for k in range(3))
        assert not batcher.offer(1, payload="overflow")
        # Other kernels are unaffected: the bound is per kernel.
        assert batcher.offer(2, payload="fine")


class TestShutdown:
    def test_stop_flushes_every_residual_entry(self):
        recorder = FlushRecorder()
        batcher = DynamicBatcher(
            BatcherConfig(max_batch=4, max_delay_ms=10_000.0), recorder
        )
        batcher.start()
        for k in range(10):  # two size flushes + 2 residual
            batcher.offer(1, payload=k)
        batcher.offer(2, payload="other")
        batcher.stop()
        flushed = [
            payload
            for kernel_id, payloads, _t in recorder.flushes
            if kernel_id == 1
            for payload in payloads
        ]
        assert sorted(flushed) == list(range(10))
        assert recorder.triggers.count(TRIGGER_SIZE) == 2
        assert TRIGGER_SHUTDOWN in recorder.triggers

    def test_stop_is_idempotent(self):
        batcher = DynamicBatcher(BatcherConfig(), FlushRecorder())
        batcher.start()
        batcher.stop()
        batcher.stop()
