"""Reproducible experiment driver.

Five subcommands wrap the library pipelines: `class` (induction-move
closure of a permutation), `lyapunov` (exponent spectrum), `deviation`
(growth of orbit sums of a centered indicator), `cocycle` (scaling
exponents and the approximation quality of the finitely-additive
functional), and `limit` (distances from normalized integral laws to
their limit processes).

Configuration comes from defaults, an optional flat key=value file, an
optional JSON override, and command-line flags, in that order of
precedence; a key that no command reads is a configuration error.
Artifacts are canonical JSON (sorted keys) plus CSV tables; every artifact
embeds the resolved configuration, its hash, and the package version, so
identical configurations reproduce identical bytes.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
diagnostic failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from . import __version__
from .errors import IetLabError
from .rauzy import (IetData, Permutation, parse_permutation, rauzy_class,
                    running_sup_profile)
from .cocycle import (induction_path, lyapunov_spectrum, origin_frame,
                      symplectic_data)
from .finadd import (build_phi_from_vector, evaluate_on_flow_arc,
                     holder_exponents)
from .zippered import SurfacePoint, random_surface
from .limitlab import default_tau_grid, limit_decay_report

STOCHASTIC_COMMANDS = ("lyapunov", "deviation", "cocycle", "limit")

class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one command invocation."""

    command: str
    perm: tuple | None = None
    seed: int | None = None
    steps: int | None = None
    samples: int = 2000
    s_grid: tuple = (2.0, 4.0, 6.0, 8.0)
    tau_points: int = 17
    window: int = 80
    out: str = "."

    def payload(self) -> dict:
        data = asdict(self)
        data.pop("out")  # artifact content is location-independent
        return data

    def config_hash(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# Every setting but the command, at its default.
DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)
            if f.name != "command"}


def _parse_float_list(value) -> tuple:
    """Numbers from a comma-separated string or a JSON list."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        if any(isinstance(part, bool) for part in parts):
            raise TypeError("a boolean is not a number")
        return tuple(float(part) for part in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse number list {value!r}: {exc}") \
            from exc


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    if args.set:
        try:
            override = json.loads(args.set)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--set is not valid JSON: {exc}") from exc
        if not isinstance(override, dict):
            raise ConfigError("--set must hold a JSON object")
        merged.update(override)
    unknown = sorted(set(merged) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    for key in ("perm", "seed", "steps", "samples", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if args.s_grid is not None:
        merged["s_grid"] = args.s_grid
    if args.tau_grid is not None:
        merged["tau_points"] = args.tau_grid

    perm = merged.get("perm")
    if perm is not None:
        if isinstance(perm, list):
            perm = ",".join(str(v) for v in perm)
        try:
            perm = parse_permutation(str(perm)).images
        except (ValueError, IetLabError) as exc:
            raise ConfigError(str(exc)) from exc

    def as_int(key):
        value = merged.get(key)
        if value is None:
            return None
        # JSON true is not the integer 1
        if isinstance(value, bool):
            raise ConfigError(f"{key} must be an integer, not a boolean")
        try:
            number = int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} must be an integer") from exc
        # a fractional JSON number must not be truncated
        if isinstance(value, float) and number != value:
            raise ConfigError(f"{key} must be an integer")
        return number

    def at_least(key, low):
        value = as_int(key)
        if value is None or value < low:
            raise ConfigError(f"{key} must be an integer of at least {low}")
        return value

    cfg = ExperimentConfig(
        command=args.command,
        perm=perm,
        seed=as_int("seed"),
        steps=None if merged.get("steps") is None else at_least("steps", 1),
        samples=at_least("samples", 1),
        s_grid=_parse_float_list(merged["s_grid"]),
        tau_points=at_least("tau_points", 2),
        window=at_least("window", 1),
        out=str(merged["out"]),
    )
    if cfg.command in STOCHASTIC_COMMANDS and cfg.seed is None:
        raise ConfigError(f"--seed is required for '{cfg.command}'")
    if cfg.perm is None:
        raise ConfigError(f"--perm is required for '{cfg.command}'")
    return cfg


def _write_json(cfg: ExperimentConfig, name: str, results: dict) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = {
        "config": cfg.payload(),
        "config_hash": cfg.config_hash(),
        "versions": {"ietlab": __version__},
        "results": results,
    }
    target = out_dir / name
    target.write_text(json.dumps(artifact, sort_keys=True, indent=1) + "\n")
    return target


def _write_csv(cfg: ExperimentConfig, name: str, header, rows) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# config_hash", cfg.config_hash()])
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    return target


def _surface_from_config(cfg: ExperimentConfig):
    perm = Permutation(cfg.perm)
    rng = default_rng(cfg.seed)
    lengths = rng.random(len(cfg.perm)) + 0.05
    lengths = lengths / lengths.sum()
    iet = IetData(tuple(float(l) for l in lengths), perm)
    zr = random_surface(iet, default_rng(cfg.seed + 1))
    return iet, zr


def cmd_class(cfg: ExperimentConfig) -> int:
    diagram = rauzy_class(Permutation(cfg.perm))
    results = {
        "size": len(diagram),
        "permutations": [list(p.images) for p in diagram.members],
        "edges": [list(e) for e in diagram.edges],
    }
    target = _write_json(cfg, "class.json", results)
    print(f"class size {len(diagram)} -> {target}")
    return 0


def cmd_lyapunov(cfg: ExperimentConfig) -> int:
    iet, _ = _surface_from_config(cfg)
    steps = cfg.steps if cfg.steps is not None else 10000
    k = min(3, 2 * symplectic_data(iet.perm).genus)
    est = lyapunov_spectrum(iet, steps, k)
    results = {
        "exponents": [float(v) for v in est.exponents],
        "stderr": [float(v) for v in est.stderr],
        "n_steps": est.n_steps,
        "teichmuller_time": float(est.teich_time),
    }
    target = _write_json(cfg, "lyapunov.json", results)
    print(f"exponents {results['exponents']} -> {target}")
    return 0


def cmd_deviation(cfg: ExperimentConfig) -> int:
    iet, _ = _surface_from_config(cfg)
    steps = cfg.steps if cfg.steps is not None else 10 ** 6
    if steps < 1000:  # the checkpoints span 100..steps: one decade at least
        raise IetLabError("orbit too short for a growth regression")
    # indicator of the first interval centered for the base measure
    share = float(iet.lengths[0]) / float(iet.total)
    values = [-share] * iet.m
    values[0] += 1.0
    checkpoints = sorted({int(round(10 ** e))
                          for e in np.linspace(2, math.log10(steps), 10)})
    rng = default_rng(cfg.seed + 3)
    x = float(rng.random() * float(iet.total))
    sups = running_sup_profile(iet, values, x, checkpoints)
    logs_n = np.log(checkpoints)
    logs_s = np.log(np.maximum(sups, 1e-12))
    slope = float(np.polyfit(logs_n, logs_s, 1)[0])
    results = {
        "slope": slope,
        "checkpoints": checkpoints,
        "sup_abs_sums": [float(v) for v in sups],
        "base_point": x,
    }
    _write_csv(cfg, "deviation.csv", ["n_steps", "sup_abs_sum"],
               zip(checkpoints, sups))
    target = _write_json(cfg, "deviation.json", results)
    print(f"growth slope {slope:.4f} -> {target}")
    return 0


def cmd_cocycle(cfg: ExperimentConfig) -> int:
    iet, zr = _surface_from_config(cfg)
    steps = cfg.steps if cfg.steps is not None else 400
    path = induction_path(iet, steps)
    h0 = np.array([float(h) for h in zr.heights])
    frame = origin_frame(path, h0, 2 * cfg.window)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    rng = default_rng(cfg.seed + 4)
    x = float(rng.random() * float(iet.total))
    scaling = holder_exponents(phi, x, [10.0 ** e
                                        for e in np.linspace(1, 4.5, 8)])
    top = scaling["top"]
    lower = scaling["lower"]
    arc_values = []
    for expo in np.linspace(1, 4.5, 8):
        value, bound = evaluate_on_flow_arc(phi, SurfacePoint(x, 0.0),
                                            10.0 ** expo)
        arc_values.append({"duration": float(10.0 ** expo),
                           "value": float(value),
                           "interpolation_bound": float(bound)})
    results = {
        "second_direction": [float(v) for v in v2],
        "scaling_exponent_top": float(top),
        "scaling_exponent_lower": float(lower),
        "arc_values": arc_values,
    }
    target = _write_json(cfg, "cocycle.json", results)
    print(f"scaling exponents top {top:.3f} lower {lower:.3f} -> {target}")
    return 0


def cmd_limit(cfg: ExperimentConfig) -> int:
    _, zr = _surface_from_config(cfg)
    grid = default_tau_grid(cfg.tau_points)
    report = limit_decay_report(zr, s_values=cfg.s_grid, tau_grid=grid,
                                n_samples=cfg.samples,
                                rng=default_rng(cfg.seed + 5))
    rows = [(r["s"], r["distance"], r["refined_distance"],
             r["refinement_change"]) for r in report["rows"]]
    _write_csv(cfg, "limit.csv",
               ["s", "distance", "refined_distance", "refinement_change"],
               rows)
    results = {k: v for k, v in report.items() if k != "rows"}
    target = _write_json(cfg, "limit.json", results)
    print("distances " +
          " ".join(f"{d:.4f}" for d in report["distances"]) +
          f" (final {report['final_distance']:.4f}) -> {target}")
    return 0


HANDLERS = {
    "class": cmd_class,
    "lyapunov": cmd_lyapunov,
    "deviation": cmd_deviation,
    "cocycle": cmd_cocycle,
    "limit": cmd_limit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietlab",
        description="experiment driver for the interval-exchange laboratory")
    parser.add_argument("command", choices=sorted(HANDLERS))
    parser.add_argument("--perm", help="permutation image list, e.g. 4,3,2,1")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--steps", type=int,
                        help="induction/orbit step count")
    parser.add_argument("--samples", type=int,
                        help="Monte Carlo sample count")
    parser.add_argument("--s-grid", dest="s_grid",
                        help="comma-separated stretch times")
    parser.add_argument("--tau-grid", dest="tau_grid", type=int,
                        help="number of time-grid points on [0, 1]")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config",
                        help="flat key=value configuration file")
    parser.add_argument("--set", dest="set",
                        help="JSON object overriding config-file values")
    return parser


def write_error(cfg_out: str, kind: str, message: str) -> None:
    try:
        out_dir = Path(cfg_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(json.dumps(
            {"error": kind, "message": message}, sort_keys=True,
            indent=1) + "\n")
    except OSError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        write_error(getattr(args, "out", None) or ".", "config", str(exc))
        return 2
    try:
        return HANDLERS[cfg.command](cfg)
    except IetLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        write_error(cfg.out, type(exc).__name__, str(exc))
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        write_error(cfg.out, "config", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
