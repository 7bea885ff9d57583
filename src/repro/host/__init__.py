"""Host-side program model (Section 4, step 6).

The paper's host is an OpenCL program that batches sequence pairs, feeds
``N_K`` independent device channels from CPU threads, and lets the
``N_B`` blocks behind each channel's arbiter drain the batch.
:mod:`repro.host.scheduler` reproduces that dispatch structure so device
utilization and batch makespan can be studied without real hardware.
"""

from repro.host.runtime import BatchOutcome, DeviceRuntime
from repro.host.scheduler import AlignmentBatch, HostScheduler, ScheduleResult

__all__ = [
    "AlignmentBatch",
    "HostScheduler",
    "ScheduleResult",
    "DeviceRuntime",
    "BatchOutcome",
]
