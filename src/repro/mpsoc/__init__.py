"""MPSoC design-flow substrate (the paper's downstream consumer [9]):
platform model, communication/load metrics and static scheduling.

The multithreaded C for the CAAM is printed by
:func:`repro.codegen.cemit.generate_threaded_c` from the verified static
schedule."""

from .metrics import (
    CommunicationCost,
    IterationEstimate,
    LoadReport,
    communication_cost,
    functional_blocks,
    iteration_estimate,
    load_report,
)
from .platform import Bus, Platform, PlatformError, Processor, platform_for_caam
from .schedule import (
    Schedule,
    steady_state_interval,
    ScheduleError,
    ScheduledTask,
    schedule_caam,
)

__all__ = [
    "Bus",
    "CommunicationCost",
    "IterationEstimate",
    "LoadReport",
    "Platform",
    "PlatformError",
    "Processor",
    "Schedule",
    "ScheduleError",
    "ScheduledTask",
    "communication_cost",
    "functional_blocks",
    "iteration_estimate",
    "load_report",
    "platform_for_caam",
    "schedule_caam",
    "steady_state_interval",
]
