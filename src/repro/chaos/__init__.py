"""Chaos harness: deterministic fault-injection campaigns over the
example corpus, with bit-for-bit schedule replay (``repro chaos``)."""

from ..faults import replay_schedule
from .driver import (ChaosOutcome, campaign_telemetry, run_chaos,
                     run_one, verify_replay)

__all__ = ["ChaosOutcome", "campaign_telemetry", "replay_schedule",
           "run_chaos", "run_one", "verify_replay"]
