"""Instrumented pass counters for the ensemble-economics checks.

Counts are in per-query units: a batched call over Q condition vectors adds
Q, so one query through the Fourier feature ensemble costs 1 conditioner and
1 flow pass while the four-neighbor blending path costs 4 of each.
"""

from dataclasses import dataclass


@dataclass
class PassCounters:
    conditioner: int = 0
    flow_forward: int = 0
    flow_inverse: int = 0

    def reset(self) -> None:
        self.conditioner = 0
        self.flow_forward = 0
        self.flow_inverse = 0


counters = PassCounters()
