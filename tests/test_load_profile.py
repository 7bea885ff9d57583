"""Tests for shifting-load profiles and duration-bounded load runs."""

import sys
import threading

import pytest

from repro.host import DeviceRuntime
from repro.kernels import get_kernel
from repro.service import (
    BatcherConfig,
    DevicePool,
    InProcClient,
    LoadGenerator,
    LoadProfile,
    LoadReport,
    ServiceCore,
)
from repro.synth import LaunchConfig
from tests.conftest import mutated_copy, random_dna


def small_config():
    return LaunchConfig(n_pe=8, n_b=4, n_k=1,
                        max_query_len=64, max_ref_len=64)


def make_workload(n, length=16):
    out = []
    for k in range(n):
        ref = random_dna(length, seed=500 + k)
        out.append((1, mutated_copy(ref, 900 + k)[:length], ref))
    return out


class TestLoadProfileParsing:
    def test_const_default(self):
        profile = LoadProfile.parse("const")
        assert profile.at(0.0) == 1.0
        assert profile.at(100.0) == 1.0
        assert profile.phase_bounds() == []

    def test_step(self):
        profile = LoadProfile.parse("step:10:4")
        assert profile.at(9.99) == 1.0
        assert profile.at(10.0) == 4.0
        assert profile.at(60.0) == 4.0
        assert profile.phase_bounds() == [10.0]
        assert profile.describe() == "step:10:4"

    def test_ramp(self):
        profile = LoadProfile.parse("ramp:10:20:3")
        assert profile.at(5.0) == 1.0
        assert profile.at(15.0) == pytest.approx(2.0)
        assert profile.at(25.0) == 3.0
        assert profile.phase_bounds() == [10.0, 20.0]

    def test_roundtrip_through_describe(self):
        for text in ("const:2", "step:5:3.5", "ramp:1:4:0.5"):
            profile = LoadProfile.parse(text)
            again = LoadProfile.parse(profile.describe())
            assert again == profile

    def test_invalid_specs_rejected(self):
        for bad in ("", "step:10", "ramp:5:1:2", "wiggle:1:2",
                    "step:-1:2", "step:1:0"):
            with pytest.raises(ValueError):
                LoadProfile.parse(bad)


class TestWindowPercentiles:
    def test_window_selects_completions(self):
        report = LoadReport(
            offered_rps=1.0, sent=4, ok=4, rejected=0, errors=0,
            elapsed_s=4.0,
            samples=[(0.5, 10.0), (1.5, 20.0), (2.5, 30.0), (3.5, 40.0)],
        )
        assert report.window_latencies_ms(1.0, 3.0) == [20.0, 30.0]
        assert report.window_percentile_ms(1.0, 3.0, 0.99) == \
            pytest.approx(30.0, rel=0.01)
        assert report.window_percentile_ms(10.0, 20.0, 0.5) is None

    def test_merge_pools_samples(self):
        a = LoadReport(
            offered_rps=1.0, sent=1, ok=1, rejected=0, errors=0,
            elapsed_s=1.0, samples=[(0.9, 5.0)],
        )
        b = LoadReport(
            offered_rps=1.0, sent=1, ok=1, rejected=0, errors=0,
            elapsed_s=1.0, samples=[(0.1, 7.0)],
        )
        merged = LoadReport.merge([a, b])
        assert merged.samples == [(0.1, 7.0), (0.9, 5.0)]


class TestDurationAndProfileRuns:
    @pytest.fixture
    def core(self):
        core = ServiceCore(
            DevicePool([DeviceRuntime(get_kernel(1), small_config())]),
            BatcherConfig(max_batch=8, max_delay_ms=5.0,
                          max_queue_depth=256),
        ).start()
        yield core
        core.stop()

    def test_duration_bounds_the_run(self, core):
        generator = LoadGenerator(InProcClient(core), make_workload(8),
                                  seed=3)
        report = generator.run(200.0, duration_s=0.5)
        assert report.sent > 0
        assert report.ok == report.sent
        assert report.errors == 0
        # Samples stamp completion offsets for phase-wise analysis.
        assert len(report.samples) == report.ok
        assert all(offset >= 0.0 for offset, _ in report.samples)

    def test_requires_some_bound(self, core):
        generator = LoadGenerator(InProcClient(core), make_workload(4))
        with pytest.raises(ValueError):
            generator.run(10.0)

    def test_step_profile_shifts_offered_load(self, core):
        generator = LoadGenerator(InProcClient(core), make_workload(8),
                                  seed=11)
        profile = LoadProfile.parse("step:0.5:6")
        report = generator.run(60.0, duration_s=1.0, profile=profile)
        early = len(report.window_latencies_ms(0.0, 0.5))
        late = len(report.window_latencies_ms(0.5, 10.0))
        # The step multiplies arrivals 6x; completions follow.
        assert late > early
        assert report.ok == report.sent

    def test_profile_threads_through_run_concurrent(self, core):
        generator = LoadGenerator(InProcClient(core), make_workload(8),
                                  seed=5)
        profile = LoadProfile.parse("step:0.2:4")
        report = generator.run(
            100.0, n_requests=60, concurrency=2, profile=profile
        )
        assert report.sent == 60
        assert len(report.samples) == report.ok

    def test_duration_composes_with_concurrency(self, core):
        # Every firing thread runs for the whole duration; none raises
        # for want of a request count.
        generator = LoadGenerator(InProcClient(core), make_workload(8),
                                  seed=9)
        one = generator.run(200.0, duration_s=0.4)
        both = generator.run(200.0, duration_s=0.4, concurrency=2)
        assert both.offered_rps == one.offered_rps == 200.0
        assert both.sent > 0 and both.ok == both.sent
        assert both.errors == 0
        assert len(both.samples) == both.ok
        assert all(offset >= 0.0 for offset, _ in both.samples)

    def test_concurrent_threads_fire_in_parallel(self, core):
        # More firing threads than cores, switching often: every request
        # of the split count is fired once, by its own thread, and tallied.
        fired = []
        client = InProcClient(core)
        submit = client.submit

        def tagged(*args, **kwargs):
            slot = submit(*args, **kwargs)
            fired.append((threading.current_thread().name,
                          slot.request.request_id))
            return slot

        client.submit = tagged
        generator = LoadGenerator(client, make_workload(8), seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = generator.run(400.0, n_requests=41, concurrency=4)
        finally:
            sys.setswitchinterval(interval)
        assert report.sent == report.ok == len(report.samples) == 41
        assert len({request_id for _, request_id in fired}) == 41
        assert len({name for name, _ in fired}) == 4

    def test_replay_stamps_completion_samples(self, core):
        generator = LoadGenerator(InProcClient(core), make_workload(8))
        report = generator.replay(window=3)
        assert report.sent == report.ok == 8
        assert len(report.samples) == report.ok
        assert report.window_percentile_ms(0.0, 60.0, 0.99) is not None
