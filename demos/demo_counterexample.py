"""Conditioning on a nullset depends on how the nullset is approximated.

The transformed path moves twice as much as the base path until it hits
3/4, then half as much until the two merge at 1/4, and hits zero exactly
when the base path does.  Conditioning "the transformed path reaches a
before 0" approximates the same limiting event as the plain construction,
yet the induced measures differ, because the recipe's weight (the base
value at the stop) is not constant on the new acceptance event.

Writes one illustrative trajectory pair to demos/output/tilde_path.csv.
"""

import math
import pathlib

from condflow import SimConfig, bm, build_tilde, compare_conditionings, simulate_path

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

# one trajectory with its transformed twin, for plotting
path_cfg = SimConfig(dt=1e-3, horizon=20.0, seed=12, n_paths=1,
                     watch_levels=(0.75, 0.25))
for index in range(20):
    path = simulate_path(bm(), 1.0, path_cfg, index)
    if math.isfinite(path.hit_times[0.25]):
        break
tilde = build_tilde(path)
with open(out_dir / "tilde_path.csv", "w") as fh:
    fh.write("t,x,x_tilde\n")
    for t, x, v in zip(path.times[::10], path.values[::10], tilde[::10]):
        fh.write(f"{float(t)!r},{float(x)!r},{float(v)!r}\n")
print(f"sample trajectory written to {out_dir}/tilde_path.csv "
      f"(path {index}, both regime switches crossed)")

# the two conditional samples disagree
cfg = SimConfig(dt=1e-3, horizon=60.0, seed=13, n_paths=10_000,
                dt_schedule=((2.0, 1e-3), (60.0, 1e-2)))
report = compare_conditionings(cfg)
print(f"\nstop values differ on {100 * report['freq_stop_value_differs']:.1f}% of paths")
print(f"KS between the two conditional samples: {report['ks']['stat']:.4f} "
      f"(critical {report['ks']['critical_1pct']:.4f})")
print(f"measures differ: {not report['ks']['pass']}")
print(f"transformed path stays a martingale: mean "
      f"{report['martingale_mean']['value']:.4f} "
      f"+- {report['martingale_mean']['stderr']:.4f}")
