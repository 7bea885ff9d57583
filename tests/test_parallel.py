"""Tests for the process-pool batch execution layer (repro.parallel)."""

import pytest

from repro.parallel import BatchError, ParallelExecutor, derive_seed


def _double(item, _seed):
    return item * 2


def _echo_seed(item, seed):
    return (item, seed)


def _poison_13(item, _seed):
    if item == 13:
        raise ValueError("poisoned item")
    return item + 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 9) == derive_seed(5, 9)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(b, i) for b in range(4) for i in range(64)}
        assert len(seeds) == 4 * 64

    def test_not_symmetric(self):
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_fits_numpy_seed_after_mod(self):
        assert 0 <= derive_seed(123, 456) % (2 ** 32) < 2 ** 32

    def test_golden_values_pinned(self):
        """Recorded reproducer seeds must stay valid across releases."""
        assert derive_seed(0, 0) == 7689419447139100721
        assert derive_seed(0, 1) == 8724540124617128742
        assert derive_seed(42, 7) == 7041254291183900872


class TestSerialPath:
    def test_maps_in_order(self):
        result = ParallelExecutor(workers=1).map(_double, [1, 2, 3])
        assert result.ok
        assert result.values() == [2, 4, 6]

    def test_empty_batch(self):
        result = ParallelExecutor(workers=1).map(_double, [])
        assert result.ok and len(result) == 0 and result.values() == []

    def test_seeds_passed_per_item(self):
        result = ParallelExecutor(workers=1).map(
            _echo_seed, ["a", "b"], seed=3
        )
        assert result.values() == [
            ("a", derive_seed(3, 0)), ("b", derive_seed(3, 1))
        ]


class TestPooledPath:
    def test_matches_serial_bit_for_bit(self):
        items = list(range(17))
        serial = ParallelExecutor(workers=1).map(_double, items, seed=9)
        pooled = ParallelExecutor(workers=3).map(_double, items, seed=9)
        assert serial.outcomes == pooled.outcomes

    def test_order_preserved_with_tiny_chunks(self):
        # 11 items over 2 workers split into 6 chunks of at most 2
        result = ParallelExecutor(workers=2).map(_double, list(range(11)))
        assert result.values() == [2 * k for k in range(11)]

    def test_chunk_count_amortizes_dispatch(self):
        executor = ParallelExecutor(workers=2)
        entries = [(i, 0, i) for i in range(100)]
        chunks = executor._chunks(entries)
        assert 2 <= len(chunks) <= 100
        assert sum(len(c) for c in chunks) == 100


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_poisoned_item_does_not_kill_batch(self, workers):
        items = [10, 13, 20, 30]
        result = ParallelExecutor(workers=workers).map(_poison_13, items)
        assert not result.ok
        assert len(result.errors) == 1
        error = result.errors[0]
        assert error.index == 1
        assert error.error_type == "ValueError"
        assert "poisoned" in error.message
        assert result.values(strict=False) == [11, None, 21, 31]

    def test_strict_values_raise_batch_error(self):
        result = ParallelExecutor(workers=1).map(_poison_13, [13])
        with pytest.raises(BatchError, match="poisoned"):
            result.values()

    def test_serial_and_pooled_errors_compare_equal(self):
        """Tracebacks differ between processes; structured records don't."""
        serial = ParallelExecutor(workers=1).map(_poison_13, [13, 1])
        pooled = ParallelExecutor(workers=2).map(_poison_13, [13, 1])
        assert serial.outcomes == pooled.outcomes


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=0)

    def test_default_workers_positive(self):
        assert ParallelExecutor().workers >= 1


class TestBatchErrorTraceback:
    def test_worker_traceback_text_survives_reraise(self):
        """The BatchError message must carry the worker-side traceback —
        the original raise site, not just the exception repr — so a
        failure inside a pooled work function stays debuggable."""
        result = ParallelExecutor(workers=2).map(_poison_13, [1, 13, 2])
        with pytest.raises(BatchError) as excinfo:
            result.values()
        message = str(excinfo.value)
        assert "poisoned item" in message
        assert "worker traceback of item 1" in message
        assert "Traceback (most recent call last)" in message
        assert "_poison_13" in message  # the actual raising frame

    def test_serial_path_traceback_preserved_too(self):
        result = ParallelExecutor(workers=1).map(_poison_13, [13])
        with pytest.raises(BatchError, match="in _poison_13"):
            result.values()

    def test_no_traceback_degrades_gracefully(self):
        from repro.parallel import WorkError

        error = WorkError(0, "ValueError", "no tb captured")
        message = str(BatchError([error]))
        assert "worker traceback" not in message
        assert "1 work item(s) failed" in message
