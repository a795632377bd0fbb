"""Golden outputs: `condflow` runs whose bytes must not change.

The counter-based noise makes every run a pure function of its config and
seed, so byte identity is an exact oracle for refactors.  The files in
tests/golden/ hold the stdout of each run (CSV tables, condition and verify
JSON) and, in status.txt, the exit code and stderr lines of each scale,
transform and verify run; the condition run must exit 0 with nothing on
stderr.  A change that moves output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

which prints the names of the files whose bytes changed and, for a JSON
file, each value that moved as `path: old → new`; the change then says
which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from condflow.cli import main
from condflow.model import bm
from condflow.scale import GridConfig, Normalization, compute_scale
from condflow.simulate import SimConfig

GOLDEN = Path(__file__).parent / "golden"

# (name, b, a, l, r, y_max): custom-expression configs with textbook scales
SCALE_CONFIGS = (
    ("bm-drift-down", "-0.5", "1", 0.0, math.inf, None),
    ("bm-drift-up", "0.5", "1", 0.0, math.inf, None),
    ("gbm-mu-neg", "-0.5*y", "y^2", 0.0, math.inf, None),
    ("gbm-mu-quarter", "0.25*y", "y^2", 0.001, 100.0, None),
    ("attract-2y", "2*y", "1", 0.0, math.inf, 10.0),
)
# default bm conditioned upward
CONDITION_ARGV = ["condition", "--seed", "2", "--n", "2000"]
VERIFY_BUNDLES = (("roundtrip", None), ("jumpwalk", 500), ("stopped-bm", 500), ("gbm", 500),
                  ("bm-bessel", 2000), ("bessel-bm", 1000), ("counterexample", 800))


def _write_config(workdir: Path, name: str, b: str, a: str, l: float, r: float,
                  y_max: float | None) -> Path:
    lines = ["[spec]", "family = custom", f'b = "{b}"', f'a = "{a}"',
             f"l = {l!r}", f"r = {r!r}", "[scenario]"]
    if y_max is not None:
        lines.append(f"y_max = {y_max!r}")
    path = workdir / f"{name}.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def golden_outputs() -> dict[str, str]:
    """File name -> content, freshly computed."""
    files = {}
    status = []

    def record(run: str, argv: list[str], stdout_name: str) -> None:
        rc, out, err = _run(argv)
        if out:
            files[stdout_name] = out
        status.append(f"{run}\texit {rc}\t{' | '.join(err.splitlines())}\n")

    with tempfile.TemporaryDirectory() as tmp:
        for name, *config in SCALE_CONFIGS:
            path = str(_write_config(Path(tmp), name, *config))
            for command in ("scale", "transform"):
                record(f"{command} {name}", [command, "--config", path],
                       f"{command}-{name}.csv")
    rc, files["condition-bm.json"], err = _run(CONDITION_ARGV)
    assert (rc, err) == (0, ""), err
    for bundle, n in VERIFY_BUNDLES:
        argv = ["verify", bundle] + ([] if n is None else ["--n", str(n)])
        record(" ".join(argv[1:]), argv, f"verify-{bundle}.json")
    files["status.txt"] = "".join(status)
    return files


def test_outputs_match_golden_files():
    fresh = golden_outputs()
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(fresh)
    changed = [name for name, text in fresh.items()
               if (GOLDEN / name).read_bytes() != text.encode("utf-8")]
    assert not changed, f"outputs differ from tests/golden/: {changed}"


def test_benchmark_traced_names_resolve(monkeypatch):
    # perfbench/tracing.py looks every traced function up by name in its
    # module, so moving or deleting one breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    import condflow.simulate

    original = condflow.simulate.simulate_ensemble
    with tracing.instrument(tracing.Tracer()):
        assert condflow.simulate.simulate_ensemble is not original
    assert condflow.simulate.simulate_ensemble is original


def test_benchmark_tracer_reads_the_conditioning_calls(monkeypatch):
    # the tracer reads the identity routine's cfg as its second argument and
    # condition_upward's result as a report pair; a signature or return
    # type that breaks those reads breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    from condflow import conditioning

    base = bm(0.0, 2.0)
    s = compute_scale(base, 1.0, GridConfig(y_min=1e-4, y_max=2.0 - 1e-4), Normalization.L)
    cfg = SimConfig(dt=1e-2, horizon=30.0, seed=5, n_paths=200)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        ident = conditioning.verify_identity_of_measures(
            base, cfg, s, conditioning.TimeAverageUntilStop())
        rejection, _ = conditioning.condition_upward(
            bm(), 1.0, 2.0, conditioning.StoppedValueAt(0.25), cfg)
    spans = {span.name: span.counts for span in tracer.spans}
    identity = spans["conditioning.verify_identity_of_measures"]
    assert identity == {"accepted": round(ident["acceptance"]["value"] * 200), "simulated": 200}
    assert 0 < identity["accepted"] < 200
    upward = spans["conditioning.condition_upward"]
    assert (upward["accepted"], upward["simulated"]) == (rejection.n_accepted, 200)


def test_benchmark_horizon_refusal_matches_condition(monkeypatch, tmp_path):
    # verify-mix counts a bessel-bm run refused for its horizon as unsolved
    # only while `workloads.HORIZON_REFUSAL` matches the message in full, so
    # a horizon too short for the event must read that way in both directions
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import workloads

    refusal = workloads.HORIZON_REFUSAL
    for family, direction, level, cap in (("bm", "upward", 2.0, 1e8),
                                          ("bessel3", "downward", 0.5, 5.0)):
        config = tmp_path / f"{family}.ini"
        config.write_text(f"[spec]\nfamily = {family}\n[scenario]\ndirection = {direction}\n"
                          f"level = {level}\nt = 0.005\ny_max = 5\n"
                          f"[sim]\ndt = 1e-3\nhorizon = 0.01\ncap = {cap}\nn_paths = 300\n",
                          encoding="utf-8")
        rc, _out, err = _run(["condition", "--config", str(config)])
        assert rc == refusal.rc == 3
        assert re.fullmatch(refusal.message, err.splitlines()[-1]), err
        assert err.startswith(f"numeric failure: condition_{direction}: ")


def moved_values(old, new, path: str = ""):
    """(path, old, new) for each value that differs between two JSON
    documents, with paths like `checks[0].detail.max_error`; a key on one
    side only reads as absent on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved_values(old.get(key, "(absent)"), new.get(key, "(absent)"),
                                    f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (before, after) in enumerate(zip(old, new)):
            yield from moved_values(before, after, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):
        yield path, old, new


if __name__ == "__main__":
    # regenerate, and print the names of the files whose bytes changed and
    # the JSON values that moved
    fresh = {name: text.encode("utf-8") for name, text in golden_outputs().items()}
    GOLDEN.mkdir(exist_ok=True)
    old = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    for stale in old.keys() - fresh.keys():
        (GOLDEN / stale).unlink()
    for name, data in fresh.items():
        (GOLDEN / name).write_bytes(data)
    for name in sorted(old.keys() | fresh.keys()):
        if old.get(name) != fresh.get(name):
            print(name)
            if name.endswith(".json") and name in old and name in fresh:
                for path, before, after in moved_values(json.loads(old[name]),
                                                        json.loads(fresh[name])):
                    print(f"  {path}: {json.dumps(before)} → {json.dumps(after)}")
