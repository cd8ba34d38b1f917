"""Wall-clock phase timing shared by :func:`repro.core.api.analyze` and
:class:`repro.core.checker.Checker`.

Both halves of the frontend (parse/infer/tables in ``analyze``,
wellformed/region-kinds/classes/main-block inside the checker) record
their phases through one :class:`PhaseClock`, so ``analyze`` can hand
callers one merged ``phase_seconds`` dict (exported as the
``repro_frontend_phase_seconds`` histogram).
"""

from __future__ import annotations

import time
from typing import Dict


class PhaseClock:
    """Accumulates named wall-clock phases.

    ``lap(name)`` charges the time since the previous lap (or
    construction/``restart``) to ``name``; repeated laps with the same
    name accumulate.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def restart(self) -> None:
        """Reset the lap start without charging anybody."""
        self._mark = time.perf_counter()

    def lap(self, name: str) -> float:
        now = time.perf_counter()
        delta = now - self._mark
        self.seconds[name] = self.seconds.get(name, 0.0) + delta
        self._mark = now
        return now
