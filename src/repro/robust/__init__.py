"""Resilience subsystem: checkpoints, budgets, guards, and the engine ladder.

Long fault-simulation campaigns fail in boring ways — out of time, out of
memory, Ctrl-C, a corrupted state — and the cost of a failure is the whole
campaign unless progress is durable and the failure is detected.  This
package makes campaigns resumable (:mod:`repro.robust.checkpoint`,
:mod:`repro.robust.runner`), bounded (:mod:`repro.robust.budget`),
self-auditing (:mod:`repro.robust.guards`, :mod:`repro.robust.ladder`),
and testable under injected failure (:mod:`repro.robust.chaos`).
"""

from repro.robust.budget import Budget, BudgetBreach, BudgetClock
from repro.robust.checkpoint import (
    CampaignInterrupted,
    Checkpoint,
    CheckpointError,
    circuit_fingerprint,
    config_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.robust.guards import (
    FaultListSanitizer,
    SanitizerError,
    invariant_violations,
)
from repro.robust.ladder import (
    DEFAULT_LADDER,
    VECTOR_LADDER,
    oracle_spot_check,
    run_with_ladder,
)
from repro.robust.runner import (
    DEFAULT_CHECKPOINT_EVERY,
    TableCampaign,
    run_checkpointed,
    run_fingerprint,
)

__all__ = [
    "Budget",
    "BudgetBreach",
    "BudgetClock",
    "CampaignInterrupted",
    "Checkpoint",
    "CheckpointError",
    "FaultListSanitizer",
    "SanitizerError",
    "TableCampaign",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_LADDER",
    "VECTOR_LADDER",
    "circuit_fingerprint",
    "config_fingerprint",
    "invariant_violations",
    "oracle_spot_check",
    "read_checkpoint",
    "run_checkpointed",
    "run_fingerprint",
    "run_with_ladder",
    "write_checkpoint",
]
