"""repro.testing — deterministic fault injection for chaos testing.

The serving and storage stacks expose thin hook points
(:func:`repro.testing.faults.check`) that are no-ops until a
:class:`~repro.testing.faults.FaultPlan` is armed.  Tests arm a seeded,
trigger-counted plan and the stack under test starts failing exactly
where the plan says: WAL appends raise ``EIO`` or tear mid-record,
worker processes die or hang mid-chunk, image attaches fail.
"""

from .faults import (
    SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    arm,
    check,
    disarm,
    injected,
)

__all__ = [
    "SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "arm",
    "check",
    "disarm",
    "injected",
]
