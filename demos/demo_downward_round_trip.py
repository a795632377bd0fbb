"""Conditioning the conditioned process back down recovers the base law.

The drift-1/y process never hits 0, but conditioning it to reach 1/2
(weighting by the reciprocal of the stopped value) reproduces plain
Brownian motion stopped at 1/2, both in the sampled functional and in the
drift arithmetic: the added drifts a*s'/s and a*t'/t with t = -1/s cancel.
"""

import numpy as np

from condflow import (
    GridConfig,
    Normalization,
    SimConfig,
    StoppedValueAt,
    bessel3,
    bm,
    compare_reports,
    compute_scale,
    condition_downward,
    direct_sample,
    downward_scale,
    transform,
)

# path-space round trip: weighted downward sample vs the base dynamics
cfg = SimConfig(dt=1e-3, horizon=10_000.0, cap=100.0, seed=7, n_paths=10_000,
                dt_schedule=((1.0, 1e-3), (10.0, 1e-2), (10_000.0, 0.25)))
rejection, weighted = condition_downward(bessel3(), 1.0, 0.5, StoppedValueAt(0.1), cfg)
reference = direct_sample(bm(), 1.0, StoppedValueAt(0.1),
                          SimConfig(dt=1e-3, horizon=0.2, seed=8, n_paths=10_000),
                          stop_level=0.5)
ks = compare_reports(weighted, reference)
print(f"acceptance fraction:   {rejection.acceptance.value:.4f} (target 1/2)")
print(f"weighted sample vs base dynamics: KS {ks.statistic:.4f} "
      f"(critical {ks.critical_1pct:.4f}, pass={ks.passed})")
print(f"horizon-truncated fraction: {weighted.truncated_fraction:.4f}")

# coefficient-level round trip: up then down restores the drift exactly
s = compute_scale(bm(), 1.0, GridConfig(y_min=0.01, y_max=10.0), Normalization.L)
down = transform(transform(bm(), s), downward_scale(s))
probe = s.grid[(s.grid >= 0.2) & (s.grid <= 5.0)]
print(f"\nup-then-down drift residual (sup over grid): "
      f"{np.max(np.abs(down.drift(probe))):.2e}")
