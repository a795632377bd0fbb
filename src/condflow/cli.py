"""Command-line front end: config parsing, scenario orchestration, reports.

Subcommands: scale, transform, simulate, hitting, condition, verify.
Configuration is flat `key = value` text in INI sections ([spec], [sim],
[scenario], [output]); expression values may be quoted.  A JSON file with
the same section/key layout is accepted as well.  `_SECTIONS` lists every
key of every section once; any other section or key is a configuration
error, as is a value its key cannot read, and so is `[spec] b`, `a`, `l` or
`r` beside a named family (bm by default).  `[scenario] x0` is the start of
a simulation and the anchor of a scale; `direction` (upward or downward)
picks the side for scale, transform and condition, and without it the
scale is normalized at l when s(l) is finite, else at r.  `condition`
weighs every path by that scale, s(X_stop)/s(x0), so it reads s up to the
level upward and from the level up to `[sim] cap` downward; a stop beyond
`[scenario] y_max`, or a downward level below `y_min`, where s is
extrapolated, is a configuration error.
Command-line flags (--seed, --n, --out) override the file; --threads is
accepted and changes nothing, because every run uses one thread.

Exit codes: 0 success, 1 verify reported a failing check, 2 configuration
error (an output that cannot be written is one), 3 numeric failure.  JSON
reports are UTF-8 with sorted keys and carry "schema": 1 (condition:
"schema": 3, with its three reports and one KS); CSV output is
comma-separated with a header row and '.' as the decimal mark.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .conditioning import StoppedValueAt, compare_reports, condition, direct_sample
from .errors import ConfigError, NumericFailure
from .exprparse import ParseError, parse_expr
from .htransform import transform
from .model import Const, DiffusionSpec, Interval, named_family
from .scale import GridConfig, Normalization, ScaleFunction, classify_boundaries, compute_scale
from .scenarios import SCENARIOS, run_scenario
from .simulate import SimConfig, estimate_hitting_prob, simulate_ensemble, simulate_path

__all__ = ["main"]

# every key each section takes; any other key is a configuration error
_SECTIONS = {
    "spec": ("family", "b", "a", "l", "r"),
    "sim": ("dt", "horizon", "cap", "bridge", "watch_levels", "seed", "n_paths"),
    "scenario": ("x0", "up", "down", "direction", "level", "t",
                 "y_min", "y_max", "n_grid", "n_table"),
    "output": ("dump_paths", "downsample", "paths_csv"),
}


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    conf = {name: {} for name in _SECTIONS}
    if path is not None:
        _read_config(path, conf)
    for section, entries in conf.items():
        for key in entries:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key [{section}] {key!r}; "
                                  f"known: {', '.join(_SECTIONS[section])}")
    return conf


def _read_config(path: str, conf: dict[str, dict[str, str]]) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from exc
        for section, entries in data.items():
            if section not in conf:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(entries, dict):
                raise ConfigError(f"config section {section!r} must be a JSON object of "
                                  f"key/value pairs, got {type(entries).__name__}")
            conf[section].update({str(k): str(v) for k, v in entries.items()})
        return
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    for section in parser.sections():
        if section not in conf:
            raise ConfigError(f"unknown config section {section!r}")
        for key, value in parser.items(section):
            conf[section][key] = value.strip()


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _get(conf, section: str, key: str, default=None, cast=str):
    raw = conf[section].get(key)
    if raw is None:
        return default
    raw = _unquote(raw)
    try:
        if cast is bool:
            if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError("must be one of 1, yes, true, on, 0, no, false, off")
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _seed(raw) -> int:
    """A seed: an integer in [0, 2**64), which the generator takes as one 64-bit word."""
    seed = int(raw)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _levels(raw: str) -> tuple[float, ...]:
    """A comma-separated list of numbers; empty items are skipped."""
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _direction(conf) -> Normalization | None:
    """[scenario] direction (upward or downward, any case) as the scale
    normalization that conditions that way: L upward, R downward.  None
    when absent: compute_scale then picks L where s(l) is finite, else R."""
    name = _get(conf, "scenario", "direction")
    if name is None:
        return None
    name = name.upper()
    if name not in ("UPWARD", "DOWNWARD"):
        raise ConfigError(f"[scenario] direction = {name!r}: must be one of UPWARD, DOWNWARD")
    return Normalization.L if name == "UPWARD" else Normalization.R


def _probe_point(l: float, r: float) -> float:
    """Where a custom spec's coefficients are first evaluated: the middle of
    (l, r) clipped to [-10, 10] when that lies inside (l, r), else the
    midpoint of a finite interval, or one unit inside its one finite end."""
    probe = 0.5 * (max(l, -10.0) + min(r, 10.0))
    if l < probe < r:
        return probe
    if math.isfinite(l) and math.isfinite(r):
        return 0.5 * (l + r)
    return l + 1.0 if math.isfinite(l) else r - 1.0


def _build_spec(conf) -> DiffusionSpec:
    family = _get(conf, "spec", "family", default="bm")
    if family != "custom":
        try:
            spec = named_family(family)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        for key in ("b", "a", "l", "r"):
            if key in conf["spec"]:
                raise ConfigError(f"[spec] {key} is read only by family = custom, "
                                  f"not by family = {family}")
        return spec
    b_src = _get(conf, "spec", "b")
    a_src = _get(conf, "spec", "a")
    if b_src is None or a_src is None:
        raise ConfigError("custom spec needs [spec] b and a expressions")
    l = _get(conf, "spec", "l", default=0.0, cast=float)
    r = _get(conf, "spec", "r", default=math.inf, cast=float)
    try:
        b_expr = parse_expr(b_src)
        a_expr = parse_expr(a_src)
        probe = _probe_point(l, r)
        b_at, a_at = b_expr.eval(probe), a_expr.eval(probe)
        if a_at <= 0:
            raise ConfigError(f"diffusion coefficient not positive at y={probe}")
    except ParseError as exc:
        raise ConfigError(f"bad coefficient expression: {exc}") from exc
    except NumericFailure as exc:
        raise ConfigError(f"coefficients not evaluable at the probe point: {exc}") from exc
    # an expression without y is a Const, which the kernel reads once per run
    return DiffusionSpec(interval=Interval(l, r),
                         drift=b_expr.eval if b_expr.uses_y else Const(b_at),
                         diffusion=a_expr.eval if a_expr.uses_y else Const(a_at),
                         label="custom")


def _build_sim(conf, args) -> SimConfig:
    seed = args.seed if args.seed is not None else _get(conf, "sim", "seed", 0, _seed)
    n = args.n if args.n is not None else _get(conf, "sim", "n_paths", 10_000, int)
    try:
        return SimConfig(
            dt=_get(conf, "sim", "dt", 1e-3, float),
            horizon=_get(conf, "sim", "horizon", 20.0, float),
            cap=_get(conf, "sim", "cap", 1e8, float),
            bridge_correction=_get(conf, "sim", "bridge", True, bool),
            watch_levels=_get(conf, "sim", "watch_levels", (), _levels),
            seed=seed,
            n_paths=n,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_bounds(conf, spec: DiffusionSpec, x0: float) -> tuple[float, float]:
    l, r = spec.interval.l, spec.interval.r
    y_min = _get(conf, "scenario", "y_min", cast=float,
                 default=(l + min(1e-2, (x0 - l) / 100.0)) if math.isfinite(l) else x0 - 10.0)
    y_max = _get(conf, "scenario", "y_max", cast=float,
                 default=(r - (r - x0) / 100.0) if math.isfinite(r) else 10.0 * max(1.0, x0))
    return y_min, y_max


def _scale(conf, spec: DiffusionSpec, x0: float) -> ScaleFunction:
    """The scale of `spec` anchored at x0, on the [scenario] grid, normalized
    on the side `direction` names (or the side compute_scale picks)."""
    y_min, y_max = _grid_bounds(conf, spec, x0)
    grid = GridConfig(y_min=y_min, y_max=y_max, n=_get(conf, "scenario", "n_grid", 257, int))
    return compute_scale(spec, x0, grid, _direction(conf))


def _open_out(path: str):
    """`path` opened for writing; one that cannot be opened is a config error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


def cmd_scale(conf, args) -> int:
    s = _scale(conf, _build_spec(conf), _get(conf, "scenario", "x0", 1.0, float))
    table = io.StringIO()
    s.to_csv(table)
    _emit(table.getvalue(), args.out)
    sys.stderr.write(f"classification: {classify_boundaries(s).value}\n")
    return 0


def cmd_transform(conf, args) -> int:
    spec = _build_spec(conf)
    x0 = _get(conf, "scenario", "x0", 1.0, float)
    y_min, y_max = _grid_bounds(conf, spec, x0)
    result = transform(spec, _scale(conf, spec, x0))
    grid = np.linspace(y_min, y_max, _get(conf, "scenario", "n_table", 101, int))
    base_b = np.asarray(spec.drift(grid), dtype=float)
    new_b = np.asarray(result.drift(grid), dtype=float)
    lines = ["y,base_drift,transformed_drift"]
    lines += [f"{float(y)!r},{float(b0)!r},{float(b1)!r}"
              for y, b0, b1 in zip(grid, base_b, new_b)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(conf, args) -> int:
    spec = _build_spec(conf)
    cfg = _build_sim(conf, args)
    x0 = _get(conf, "scenario", "x0", 1.0, float)
    dump = _get(conf, "output", "dump_paths", 0, int)
    # the dump opens first: a path that cannot be written fails before any run
    with (_open_out(_get(conf, "output", "paths_csv", "paths.csv")) if dump > 0
          else contextlib.nullcontext()) as fh:
        res = simulate_ensemble(spec, x0, cfg)
        _emit(_json_report({"schema": 1, **res.summary()}), args.out)
        if dump > 0:
            stride = max(1, _get(conf, "output", "downsample", 10, int))
            fh.write("path,t,x\n")
            for index in range(min(dump, cfg.n_paths)):
                sample = simulate_path(spec, x0, cfg, index)
                for t, x in zip(sample.times[::stride], sample.values[::stride]):
                    fh.write(f"{index},{float(t)!r},{float(x)!r}\n")
    return 0


def cmd_hitting(conf, args) -> int:
    spec = _build_spec(conf)
    cfg = _build_sim(conf, args)
    x0 = _get(conf, "scenario", "x0", 1.0, float)
    up = _get(conf, "scenario", "up", 2.0, float)
    down = _get(conf, "scenario", "down", 0.0, float)
    est, rep = estimate_hitting_prob(spec, x0, up, down, cfg)
    payload = {"schema": 1, "estimate": est.value, "stderr": est.stderr, **rep}
    _emit(_json_report(payload), args.out)
    return 0


def cmd_condition(conf, args) -> int:
    spec = _build_spec(conf)
    cfg = _build_sim(conf, args)
    x0 = _get(conf, "scenario", "x0", 1.0, float)
    functional = StoppedValueAt(_get(conf, "scenario", "t", 0.25, float))
    # the h-transformed dynamics, simulated on their own noise, are the
    # independent reference for the weighted sample; building them first
    # refuses a spec that cannot be normalized before any simulation
    s = _scale(conf, spec, x0)
    transformed = transform(spec, s)
    upward = s.normalization is Normalization.L
    level = _get(conf, "scenario", "level", 2.0 if upward else 0.5, float)
    # the weights and the transformed drift read s up to the highest stop,
    # the level upward and the cap downward, and down to the level downward;
    # off the grid s is extrapolated
    top, name = (level, "[scenario] level") if upward else (cfg.cap, "[sim] cap")
    if top > s.grid[-1]:
        raise ConfigError(f"{name} = {top:g} lies beyond [scenario] y_max = {s.grid[-1]:g}, "
                          f"past which the scale is extrapolated: the level upward and "
                          f"[sim] cap downward must lie within it")
    if not upward and level < s.grid[0]:
        raise ConfigError(f"[scenario] level = {level:g} lies below [scenario] y_min = "
                          f"{s.grid[0]:g}, past which the scale is extrapolated: the level "
                          f"downward must lie within it")
    rejection, weighted = condition(spec, s, x0, level, functional, cfg)
    direct = direct_sample(transformed, x0, functional, replace(cfg, seed=cfg.seed + 1),
                           stop_level=level)
    ks = compare_reports(weighted, direct)
    payload = {
        "schema": 3,
        "reports": [rejection.as_dict(), weighted.as_dict(), direct.as_dict()],
        "ks": ks.as_dict(),
        "acceptance": rejection.acceptance.value,
    }
    _emit(_json_report(payload), args.out)
    return 0


def cmd_verify(conf, args) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; known: {sorted(SCENARIOS)}")
    # roundtrip draws nothing: it takes no seed or n
    flags = {} if args.scenario == "roundtrip" else {"seed": args.seed, "n": args.n}
    report = run_scenario(args.scenario, **{k: v for k, v in flags.items() if v is not None})
    for check in report["checks"]:
        flag = "PASS" if check["pass"] else "FAIL"
        sys.stderr.write(f"[{flag}] {report['scenario']}/{check['name']}\n")
    _emit(_json_report(report), args.out)
    return 0 if report["pass"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condflow",
        description="Conditioned diffusions and lattice walks: simulate, transform, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in (
        ("scale", cmd_scale),
        ("transform", cmd_transform),
        ("simulate", cmd_simulate),
        ("hitting", cmd_hitting),
        ("condition", cmd_condition),
        ("verify", cmd_verify),
    ):
        cmd = sub.add_parser(name)
        cmd.set_defaults(runner=runner)
        cmd.add_argument("--config", default=None, metavar="PATH")
        cmd.add_argument("--seed", type=int, default=None, metavar="U64")
        cmd.add_argument("--n", type=int, default=None, metavar="INT")
        cmd.add_argument("--out", default=None, metavar="PATH")
        cmd.add_argument("--threads", type=int, default=None, metavar="INT",
                         help="accepted and ignored: every run uses one thread")
        if name == "verify":
            cmd.add_argument("scenario", choices=sorted(SCENARIOS))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed is not None:
            _seed(args.seed)
        conf = _load_config(args.config)
        return args.runner(conf, args)
    except (ConfigError, ParseError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NumericFailure as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
