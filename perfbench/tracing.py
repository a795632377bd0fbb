"""Spans and counters around the calls into condflow's public functions.

Nothing here edits condflow: `instrument` rebinds module attributes and
class methods for the duration of a `with` block and restores them after.
Callers that bound a function with `from .x import y` hold their own
reference, so every condflow module that holds the original object is
rebound, not only the defining one.

Two kinds of wrapper:

* a span (name, layer, start, end, parent) for calls that do real work and
  are called a bounded number of times per operation;
* a leaf counter for the hot, tiny calls (rng draws, coefficient and scale
  evaluations).  A leaf adds its calls, items and seconds to the span that
  called it, so millions of scalar evaluations cost no memory.  A leaf
  called inside another leaf passes straight through: `rng.normals` draws
  its uniforms through `rng.uniforms`, and those draws belong to the normal
  draw, not to the uniform count.

Self time of a span is its duration minus its child spans and leaves.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import VERIFY_BUNDLES

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    # leaf name -> [calls, items, seconds]
    leaves: dict = field(default_factory=dict)
    # layer-specific counts taken from arguments or results
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        leaf_s = sum(v[2] for v in self.leaves.values())
        return self.duration - self.child_s - leaf_s

    def as_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "error": self.error, "leaves": self.leaves, "counts": self.counts}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._in_leaf = False

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, _clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def leaf(self, fn, name: str, items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                self._in_leaf = False
            agg = self.spans[self._stack[-1]].leaves.setdefault(name, [0, 0, 0.0])
            agg[0] += 1
            agg[1] += items(args, kwargs, result)
            agg[2] += elapsed
            return result
        return wrapper

    def span(self, fn, name: str, layer: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        return wrapper


# --- rebinding ---------------------------------------------------------------


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper) -> None:
        """Replace every module-level reference to `original` in condflow."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "condflow" or name.startswith("condflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _size(y) -> int:
    return int(np.size(y))


def _arg_size(args, kwargs, result) -> int:
    return _size(args[1] if len(args) > 1 else kwargs.get("y", 0))


def _result_size(args, kwargs, result) -> int:
    return _size(result)


def _on_ensemble(span, args, kwargs, res) -> None:
    span.counts.update(n=res.n, truncated=int(np.sum(res.truncated)), ties=res.tie_count)


def _on_condition(span, args, kwargs, result) -> None:
    rejection, weighted = result
    span.counts.update(accepted=rejection.n_accepted, simulated=rejection.n_total,
                       ess=weighted.ess, weighted_n=weighted.n_total)


def _on_identity(span, args, kwargs, result) -> None:
    if "acceptance" in result:
        n = args[1].n_paths if len(args) > 1 else kwargs["cfg"].n_paths
        span.counts.update(accepted=round(result["acceptance"]["value"] * n), simulated=n)


def _on_ks(span, args, kwargs, result) -> None:
    span.counts["ks_samples"] = _size(args[0]) + _size(args[-1])


def _on_scenario(span, args, kwargs, result) -> None:
    span.counts["bundle"] = args[0] if args else kwargs["name"]


# condflow module (the layer) -> [(function, on_result)]
_SPANS = {
    "simulate": [("simulate_ensemble", _on_ensemble), ("simulate_path", None),
                 ("estimate_hitting_prob", None)],
    "scale": [("compute_scale", None)],
    "conditioning": [("condition_upward", _on_condition), ("condition_downward", _on_condition),
                     ("direct_sample", None), ("compare_reports", None),
                     ("verify_identity_of_measures", _on_identity),
                     ("verify_local_martingality_of_reciprocal", None)],
    "stats": [("ks_two_sample", _on_ks), ("ks_weighted", _on_ks),
              ("effective_sample_size", None), ("ecdf", None), ("weighted_ecdf", None)],
    "counterexample": [("run_tilde_ensemble", None), ("compare_conditionings", None),
                       ("build_tilde", None)],
    "jumpwalk": [("simulate_walk", None), ("walk_vs_bessel", None), ("walk_vs_bm", None),
                 ("discrete_generator", None), ("step_distribution", None),
                 ("verify_generator_limit", None), ("verify_reciprocal_supermartingale", None)],
    "scenarios": [("run_scenario", _on_scenario)],
    "cli": [("main", None)],
}


class instrument:
    """Context manager: wrap condflow's functions with `tracer`'s spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches = _Patches()

    def __enter__(self):
        modules = {layer: importlib.import_module(f"condflow.{layer}") for layer in _SPANS}
        from condflow import exprparse, rng, scale

        p = self._patches
        tr = self.tracer
        p.rebind(rng.normals, tr.leaf(rng.normals, "rng.normals", _result_size))
        p.rebind(rng.uniforms, tr.leaf(rng.uniforms, "rng.uniforms", _result_size))

        for method in ("eval", "__call__"):
            p.set(exprparse.CoeffExpr, method,
                  tr.leaf(exprparse.CoeffExpr.__dict__[method], "exprparse.eval", _arg_size))
        for method in ("__call__", "deriv"):
            p.set(scale.ScaleFunction, method,
                  tr.leaf(scale.ScaleFunction.__dict__[method], "scale.eval", _arg_size))

        for layer, entries in _SPANS.items():
            for fname, on_result in entries:
                original = modules[layer].__dict__[fname]
                p.rebind(original, tr.span(original, f"{layer}.{fname}", layer, on_result))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


# --- per-layer metrics ---------------------------------------------------------

# (name, unit, better), in BENCHMARK.json order
PER_LAYER = [
    ("rng.calls", "count", "lower"),
    ("rng.normal_draws", "count", "lower"),
    ("rng.uniform_draws", "count", "lower"),
    ("rng.self_s", "s", "lower"),
    ("rng.ns_per_draw", "ns", "lower"),
    ("simulate.calls", "count", "lower"),
    ("simulate.path_steps", "count", "lower"),
    ("simulate.step_calls", "count", "lower"),
    ("simulate.mean_active", "count", "higher"),
    ("simulate.us_per_step_call", "us", "lower"),
    ("simulate.ns_per_path_step", "ns", "lower"),
    ("simulate.uniforms_per_path_step", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.truncated_frac", "frac", "lower"),
    ("simulate.ties", "count", "lower"),
    ("scale.compute_calls", "count", "lower"),
    ("scale.compute_s", "s", "lower"),
    ("scale.compute_failures", "count", "lower"),
    ("scale.eval_points", "count", "lower"),
    ("scale.eval_s", "s", "lower"),
    ("scale.eval_us_per_10k", "us", "lower"),
    ("exprparse.eval_calls", "count", "lower"),
    ("exprparse.eval_points", "count", "lower"),
    ("exprparse.self_s", "s", "lower"),
    ("conditioning.calls", "count", "lower"),
    ("conditioning.self_s", "s", "lower"),
    ("conditioning.acceptance", "frac", "higher"),
    ("conditioning.ess_frac", "frac", "higher"),
    ("stats.ks_calls", "count", "lower"),
    ("stats.ks_samples", "count", "lower"),
    ("stats.self_s", "s", "lower"),
    ("counterexample.path_steps", "count", "lower"),
    ("counterexample.self_s", "s", "lower"),
    ("jumpwalk.walk_steps", "count", "lower"),
    ("jumpwalk.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *[(f"scenarios.{bundle}_s", "s", "lower") for bundle in VERIFY_BUNDLES],
    ("trace.overhead_frac", "frac", "lower"),
]

# counts that must repeat exactly from one traced pass to the next
EXACT_COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    m: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    sim_total = sim_uniforms = sim_n = 0
    rng_draw_s = 0.0
    accepted = simulated = ess = weighted_n = 0.0
    for span in spans:
        parent_layer = spans[span.parent].layer if span.parent is not None else None
        normal = span.leaves.get("rng.normals", (0, 0, 0.0))
        uniform = span.leaves.get("rng.uniforms", (0, 0, 0.0))
        expr = span.leaves.get("exprparse.eval", (0, 0, 0.0))
        seval = span.leaves.get("scale.eval", (0, 0, 0.0))
        m["rng.calls"] += normal[0] + uniform[0]
        m["rng.normal_draws"] += normal[1]
        m["rng.uniform_draws"] += uniform[1]
        rng_draw_s += normal[2] + uniform[2]
        m["exprparse.eval_calls"] += expr[0]
        m["exprparse.eval_points"] += expr[1]
        m["exprparse.self_s"] += expr[2]
        m["scale.eval_points"] += seval[1]
        m["scale.eval_s"] += seval[2]
        self_key = f"{span.layer}.self_s"
        if self_key in m:
            m[self_key] += span.self_s
        c = span.counts
        if span.layer == "simulate":
            m["simulate.path_steps"] += normal[1]
            m["simulate.step_calls"] += normal[0]
            sim_uniforms += uniform[1]
            if span.name != "simulate.estimate_hitting_prob":
                m["simulate.calls"] += 1
            if "n" in c:
                sim_n += c["n"]
                m["simulate.truncated_frac"] += c["truncated"]
                m["simulate.ties"] += c["ties"]
            if parent_layer != "simulate":
                sim_total += span.duration
        elif span.layer == "counterexample":
            m["counterexample.path_steps"] += normal[1]
        elif span.layer == "jumpwalk":
            m["jumpwalk.walk_steps"] += uniform[1]
        elif span.layer == "scale":
            m["scale.compute_calls"] += 1
            m["scale.compute_s"] += span.duration
            m["scale.compute_failures"] += span.error is not None
        elif span.layer == "conditioning":
            m["conditioning.calls"] += 1
            accepted += c.get("accepted", 0)
            simulated += c.get("simulated", 0)
            ess += c.get("ess", 0.0)
            weighted_n += c.get("weighted_n", 0)
        elif span.layer == "stats" and "ks_samples" in c:
            m["stats.ks_calls"] += 1
            m["stats.ks_samples"] += c["ks_samples"]
        elif span.layer == "scenarios":
            key = f"scenarios.{c.get('bundle')}_s"
            if key in m:
                m[key] += span.duration
    m["rng.self_s"] = rng_draw_s
    m["rng.ns_per_draw"] = _ratio(rng_draw_s, m["rng.normal_draws"] + m["rng.uniform_draws"], 1e9)
    steps = m["simulate.path_steps"]
    m["simulate.mean_active"] = _ratio(steps, m["simulate.step_calls"])
    m["simulate.us_per_step_call"] = _ratio(sim_total, m["simulate.step_calls"], 1e6)
    m["simulate.ns_per_path_step"] = _ratio(sim_total, steps, 1e9)
    m["simulate.uniforms_per_path_step"] = _ratio(sim_uniforms, steps)
    m["simulate.truncated_frac"] = _ratio(m["simulate.truncated_frac"], sim_n)
    m["scale.eval_us_per_10k"] = _ratio(m["scale.eval_s"], m["scale.eval_points"], 1e10)
    m["conditioning.acceptance"] = _ratio(accepted, simulated)
    m["conditioning.ess_frac"] = _ratio(ess, weighted_n)
    del m["trace.overhead_frac"]
    return m
