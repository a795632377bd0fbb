"""The benchmark's workloads: operations on condflow and their checks.

Each operation calls the program once and returns an `Outcome`:

* solved: the program gave an answer and the answer matches its reference
  (a closed form, a known probability, or the verify bundle's own PASS);
* unsolved: the program ended in one of its documented verdicts instead:
  a verify bundle reporting FAIL, or a refusal that the operation names in
  advance (exit code and message, see `Refusal`);
* wrong: the program raised, refused in a way its operation does not
  expect, or its output misses the reference or is malformed.  A wrong
  outcome makes the run incorrect.

`output` feeds the run's digest, so it holds everything the program wrote.
condflow is imported inside functions because run.py puts the checkout's
src/ on the path only after importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import erf

WORKLOADS = ("hitting-tail", "verify-mix", "scale-table")

# hitting-tail: bm-bessel's hitting identity at a tenth of its time steps.
# Brownian motion's bridge crossing test is exact, so dt = 1e-2 leaves the
# estimate unbiased, and the share of kernel iterations spent in the
# sparse tail (the thing this workload exists to measure) does not depend
# on dt.  20,000 paths are one full 16,384-path chunk plus a second chunk
# with its own tail.
HITTING_PATHS = 20_000
HITTING_DT = 1e-2
HITTING_LEVELS = ((2.0, 20.0), (4.0, 40.0))   # (upper level a, horizon)

# verify-mix: `condflow verify` at a tenth of the acceptance path count,
# with two exceptions.  counterexample's measures-differ check needs the
# power: at 1,000 paths it misses the difference for 2 of 10 seeds.
# bessel-bm's downward run leaves close to its 1% limit of paths unresolved
# at the horizon, and refuses (exit 3) when the sample goes over; at 1,000
# paths that happens for about one seed in five, at 3,000 about half as
# often.  Its cost is set by its time grid, not its path count.
# roundtrip takes no n.
VERIFY_BUNDLES = ("stopped-bm", "gbm", "bessel-bm", "counterexample", "jumpwalk", "roundtrip")
VERIFY_PATHS = {"stopped-bm": 1_000, "gbm": 1_000, "bessel-bm": 3_000,
                "counterexample": 4_000, "jumpwalk": 1_000}


@dataclass(frozen=True)
class Refusal:
    """A documented refusal: `condflow` exits with `rc` and writes a line
    on stderr that matches `message` in full."""

    rc: int
    message: str


# bessel-bm's downward conditioning sits at its 1% unresolved limit, so some
# seeds are refused with exit 3 (NeedLongerHorizonError)
HORIZON_REFUSAL = Refusal(3, r"numeric failure: (condition_downward|condition_upward|direct_sample): "
                             r"[0-9.]+% of paths resolved neither level before the horizon")
# attract-2y: s' underflows the grid, and ScaleFunction's invariant check
# turns that into exit 2.  A deliberate numeric refusal (exit 3, condflow's
# own NumericFailure) is the fast, specific error ROADMAP item 3 asks for.
UNDERFLOW_REFUSALS = (Refusal(2, r"config error: scale values must be strictly increasing"),
                      Refusal(3, r"numeric failure: .+"))


@dataclass
class Outcome:
    solved: bool
    wrong: str | None = None
    output: str = ""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Sizes:
    hitting_paths: int = HITTING_PATHS
    verify_paths: dict = field(default_factory=lambda: VERIFY_PATHS)
    scale_cases: tuple[str, ...] | None = None   # None: every case


# counterexample's weighted KS needs 50 effective samples per side, which
# 200 paths do not always give
TINY = Sizes(hitting_paths=2_000,
             verify_paths={**{bundle: 200 for bundle in VERIFY_PATHS}, "counterexample": 800},
             scale_cases=("bm-drift-down",))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from condflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _refusal(what: str, rc: int, err: str, output: str, expected: tuple[Refusal, ...]) -> Outcome:
    """Exit 2 or 3: unsolved if `expected` names it, wrong otherwise."""
    lines = err.strip().splitlines()
    if lines and any(r.rc == rc and re.fullmatch(r.message, lines[-1]) for r in expected):
        return Outcome(False, output=output)
    return Outcome(False, f"{what}: unexpected exit {rc}: {lines[-1] if lines else '(no message)'}",
                   output)


# --- hitting-tail ------------------------------------------------------------


def _hitting_op(a: float, horizon: float, seed: int, n_paths: int) -> Op:
    import condflow

    spec = condflow.bm()
    cfg = condflow.SimConfig(dt=HITTING_DT, horizon=horizon, seed=seed, n_paths=n_paths,
                             n_threads=1)

    def run() -> Outcome:
        # looked up at call time, so a traced pass goes through the span
        est, report = condflow.estimate_hitting_prob(spec, 1.0, a, 0.0, cfg)
        output = json.dumps({"estimate": est.value, "stderr": est.stderr, **report},
                            sort_keys=True)
        if abs(est.value - 1.0 / a) > 4.0 * est.stderr:
            return Outcome(False, f"P(hit {a} before 0) = {est.value} +- {est.stderr}, "
                                  f"more than 4 stderr from {1.0 / a}", output)
        return Outcome(True, output=output)

    return Op(f"hitting-a{a:g}", run)


# --- verify-mix --------------------------------------------------------------


def _verify_op(bundle: str, seed: int, n_paths: int | None) -> Op:
    argv = ["verify", bundle, "--seed", str(seed), "--threads", "1"]
    if n_paths is not None:
        argv += ["--n", str(n_paths)]

    expected = (HORIZON_REFUSAL,) if bundle == "bessel-bm" else ()

    def run() -> Outcome:
        rc, out, err = _cli(argv)
        output = out + err
        if rc in (2, 3):
            return _refusal(f"verify {bundle}", rc, err, output, expected)
        try:
            report = json.loads(out)
            passed = report["pass"]
            consistent = (report["scenario"] == bundle
                          and passed == all(c["pass"] for c in report["checks"])
                          and rc == (0 if passed else 1))
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"verify {bundle}: malformed report ({exc}), exit {rc}", output)
        if not consistent:
            return Outcome(False, f"verify {bundle}: pass flags disagree with exit {rc}", output)
        return Outcome(bool(passed), output=output)

    return Op(f"verify-{bundle}", run)


# --- scale-table -------------------------------------------------------------


@dataclass(frozen=True)
class ScaleCase:
    """A custom-expression config with its textbook scale and class.

    s and ds are the L-normalized scale (s(l) = 0) and its derivative,
    drift the upward-conditioned drift b + a s'/s.
    """

    name: str
    b: str
    a: str
    l: float
    r: float
    cls: str
    s: Callable
    ds: Callable
    drift: Callable | None = None   # set for the cases also run through `transform`
    y_max: float | None = None
    refusals: tuple[Refusal, ...] = ()   # the known ways this case is refused today


_E = math.e

SCALE_CASES = (
    # BM with drift -1/2: s' = e^(y-1)
    ScaleCase("bm-drift-down", "-0.5", "1", 0.0, math.inf, "HITS_L_ONLY",
              s=lambda y: np.exp(y - 1.0) - math.exp(-1.0), ds=lambda y: np.exp(y - 1.0),
              drift=lambda y: -0.5 + 1.0 / (1.0 - np.exp(-y))),
    # BM with drift +1/2: s' = e^(1-y), both limits finite
    ScaleCase("bm-drift-up", "0.5", "1", 0.0, math.inf, "HITS_BOTH",
              s=lambda y: _E - np.exp(1.0 - y), ds=lambda y: np.exp(1.0 - y)),
    # GBM with drift -y/2 and a = y^2: s' = y
    ScaleCase("gbm-mu-neg", "-0.5*y", "y^2", 0.0, math.inf, "HITS_L_ONLY",
              s=lambda y: 0.5 * y * y, ds=lambda y: y, drift=lambda y: 1.5 * y),
    # GBM with drift y/4 on (0.001, 100): s' = y^(-1/2)
    ScaleCase("gbm-mu-quarter", "0.25*y", "y^2", 0.001, 100.0, "HITS_BOTH",
              s=lambda y: 2.0 * np.sqrt(y) - 2.0 * math.sqrt(0.001), ds=lambda y: 1.0 / np.sqrt(y)),
    # strongly attracting drift: s' = e^(2 - 2y^2) underflows the grid's
    # resolution before y_max = 10; refused today
    ScaleCase("attract-2y", "2*y", "1", 0.0, math.inf, "HITS_BOTH",
              s=lambda y: _E**2 * math.sqrt(math.pi / 8.0) * erf(math.sqrt(2.0) * y),
              ds=lambda y: np.exp(2.0 - 2.0 * y * y), y_max=10.0, refusals=UNDERFLOW_REFUSALS),
)

# relative tolerance against the closed forms; the quadrature aims at 1e-10
# per panel and the transform table interpolates monotone cubics between
# grid points
S_RTOL = 1e-9
DRIFT_RTOL = 1e-5


def _write_config(case: ScaleCase, workdir: Path) -> Path:
    lines = ["[spec]", "family = custom", f'b = "{case.b}"', f'a = "{case.a}"',
             f"l = {case.l!r}", f"r = {case.r!r}", "[scenario]"]
    if case.y_max is not None:
        lines.append(f"y_max = {case.y_max!r}")
    path = workdir / f"{case.name}.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _table(text: str, n_cols: int) -> np.ndarray:
    rows = text.strip().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in rows], dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != n_cols or not len(data):
        raise ValueError(f"expected {n_cols} columns")
    return data


def _misses(got: np.ndarray, want: np.ndarray) -> float:
    """Worst relative error; inf when the reference is not finite."""
    want = np.asarray(want, dtype=np.float64)
    if not np.all(np.isfinite(want)) or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def _scale_op(case: ScaleCase, command: str, config: Path) -> Op:
    argv = [command, "--config", str(config), "--threads", "1"]

    def run() -> Outcome:
        rc, out, err = _cli(argv)
        output = out + err
        if rc in (2, 3):
            return _refusal(f"{command} {case.name}", rc, err, output, case.refusals)
        if rc != 0:
            return Outcome(False, f"{case.name}: unexpected exit {rc}", output)
        try:
            if command == "scale":
                y, s, ds = _table(out, 3).T
                worst = max(_misses(s, case.s(y)), _misses(ds, case.ds(y)))
                tol = S_RTOL
                cls = err.strip().removeprefix("classification: ")
                if cls != case.cls:
                    return Outcome(False, f"{case.name}: class {cls}, textbook {case.cls}", output)
            else:
                y, base, drift = _table(out, 3).T
                worst = _misses(drift, case.drift(y))
                tol = DRIFT_RTOL
        except ValueError as exc:
            return Outcome(False, f"{case.name}: malformed {command} table ({exc})", output)
        if worst > tol:
            return Outcome(False, f"{case.name} {command}: relative error {worst:.3g} > {tol}",
                           output)
        return Outcome(True, output=output)

    return Op(f"{command}-{case.name}", run)


# --- building ----------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path, sizes: Sizes = Sizes()) -> list[Op]:
    """The workload's operations for `seed`; config files go to `workdir`."""
    if workload == "hitting-tail":
        return [_hitting_op(a, horizon, seed, sizes.hitting_paths)
                for a, horizon in HITTING_LEVELS]
    if workload == "verify-mix":
        return [_verify_op(bundle, seed, sizes.verify_paths.get(bundle))
                for bundle in VERIFY_BUNDLES]
    if workload == "scale-table":
        # no randomness in the scale layer: every seed gives the same table
        ops = []
        for case in SCALE_CASES:
            if sizes.scale_cases is not None and case.name not in sizes.scale_cases:
                continue
            config = _write_config(case, workdir)
            ops.append(_scale_op(case, "scale", config))
            if case.drift is not None:
                ops.append(_scale_op(case, "transform", config))
        return ops
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
