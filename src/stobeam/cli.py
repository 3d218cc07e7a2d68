"""Command line front end.

Subcommands:

* ``simulate``    run the configured paths; write trajectory.csv,
  observables.csv and manifest.json into the output directory
* ``verify``      run the structural check suite; print a defect table;
  exit 0 exactly when nothing failed; write manifest.json only when
  --out is given
* ``covariance``  Monte Carlo variance of one observable against the
  deterministic quadrature; write covariance.csv
* ``trace-check`` covariance trace integral against its growth bound

Shared flags: --config PATH (required), --out DIR (default: the current
directory), --paths N (overrides run.N), --seed U64 (overrides
noise.seed).

All CSV numbers use 17-significant-digit formatting, and path blocks
merge in a fixed order, so outputs are byte-stable across repeated runs
and across thread counts.  manifest.json records the resolved config,
version, seed, wall-clock and the SHA-256 of every file written next to
it (the wall-clock field is the only part that varies between identical
runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .config import (SimulationConfig, parse_config, parse_observable_spec,
                     serialize_config)
from .errors import ConfigError, StobeamError
from .noise import ito_variance, trace_condition, trace_q, trace_tail
from .solver import build_scene, ensemble_run, sine_mode_state
from .verify import run_checks


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(cfg: SimulationConfig, wall_s: float, outputs: dict,
              checks: Optional[dict] = None) -> dict:
    return {
        "version": __version__,
        "seed": cfg.seed,
        "config": serialize_config(cfg),
        "wall_clock_s": wall_s,
        "outputs": outputs,
        "checks": checks if checks is not None else {},
    }


def _emit_manifest(out: Path, manifest: dict):
    _write_text(out / "manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_simulate(cfg: SimulationConfig, out_dir: str) -> int:
    """Run the ensemble and write per-path CSV output.

    trajectory.csv has one row per (path, step time, node, channel) with
    the displacement and velocity components; the initial state is not
    re-emitted (it is implied by the config), so the row count is
    N * n_steps * (n+2) * 3.  observables.csv holds the per-path
    H-pairings at the sampled times.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    stats = ensemble_run(cfg, keep_paths=True)

    grid = stats.trajectories[0].g.grid
    nodes = grid.nodes
    lines = ["path,t,s,channel,u,v"]
    for traj in stats.trajectories:
        p = traj.path_index
        for k in range(1, len(traj.times)):
            t_txt = _fmt(traj.times[k])
            st = traj.states[k]
            for i in range(grid.n + 2):
                s_txt = _fmt(nodes[i])
                for c in range(3):
                    lines.append(
                        f"{p},{t_txt},{s_txt},{c + 1},"
                        f"{_fmt(st.u[i, c])},{_fmt(st.v[i, c])}")
    _write_text(out / "trajectory.csv", "\n".join(lines) + "\n")

    lines = ["path,t,observable_id,value"]
    for p in range(cfg.n_paths):
        for ti, t in enumerate(stats.times):
            t_txt = _fmt(t)
            for oi, oid in enumerate(stats.observable_ids):
                lines.append(
                    f"{p},{t_txt},{oid},{_fmt(stats.values[oi, ti, p])}")
    _write_text(out / "observables.csv", "\n".join(lines) + "\n")

    wall = time.monotonic() - t_start
    outputs = {name: _sha256(out / name)
               for name in ("trajectory.csv", "observables.csv")}
    _emit_manifest(out, _manifest(cfg, wall, outputs))
    return 0


def cmd_verify(cfg: SimulationConfig, out_dir: Optional[str] = None) -> int:
    """Run the check suite and print one line per check."""
    t_start = time.monotonic()
    results = run_checks(cfg)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        if r.status == "skip":
            print(f"SKIP {r.name:<{width}}  ({r.note})")
            continue
        tag = "PASS" if r.status == "pass" else "FAIL"
        defect = "-" if r.defect is None else f"{r.defect:.3e}"
        thresh = "-" if r.threshold is None else f"{r.threshold:.3e}"
        note = f"  ({r.note})" if r.note else ""
        print(f"{tag} {r.name:<{width}}  defect {defect}  threshold "
              f"{thresh}{note}")
        if r.status == "fail":
            failed.append(r.name)
    n_pass = sum(1 for r in results if r.status == "pass")
    n_skip = sum(1 for r in results if r.status == "skip")
    print(f"{n_pass} passed, {len(failed)} failed, {n_skip} skipped")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        checks = {r.name: {"status": r.status, "defect": r.defect,
                           "threshold": r.threshold, "note": r.note}
                  for r in results}
        _emit_manifest(out, _manifest(cfg, time.monotonic() - t_start,
                                      {}, checks))
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_covariance(cfg: SimulationConfig, h_spec: str, out_dir: str) -> int:
    """Monte Carlo vs quadrature variance for one observable.

    covariance.csv columns: t, mc_variance, quadrature_variance, stderr.
    stderr is the Gaussian-theory standard error of the sample variance,
    mc_variance * sqrt(2/(N-1)).
    """
    try:
        parse_observable_spec(h_spec)
    except ValueError as exc:
        raise ConfigError(str(exc), key="observable") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    stats = ensemble_run(cfg, observables=[h_spec])
    scene = build_scene(cfg)
    mode, channel, part = parse_observable_spec(h_spec)
    h = sine_mode_state(scene.grid, mode, channel, part)
    lines = ["t,mc_variance,quadrature_variance,stderr"]
    n_within = 0
    for ti, t in enumerate(stats.times):
        mc = float(stats.variance[0, ti])
        if scene.model is None or t == 0.0:
            quad = 0.0
        else:
            quad = ito_variance(scene.P, scene.model, h, t0=0.0, t=float(t))
        se = mc * np.sqrt(2.0 / (stats.count - 1)) if stats.count > 1 else 0.0
        if abs(mc - quad) <= 3.0 * se or mc == quad:
            n_within += 1
        lines.append(f"{_fmt(t)},{_fmt(mc)},{_fmt(quad)},{_fmt(se)}")
    _write_text(out / "covariance.csv", "\n".join(lines) + "\n")
    wall = time.monotonic() - t_start
    outputs = {"covariance.csv": _sha256(out / "covariance.csv")}
    _emit_manifest(out, _manifest(cfg, wall, outputs))
    print(f"observable {h_spec}: {n_within}/{len(stats.times)} time points "
          f"within 3 standard errors (N={stats.count})")
    return 0


def cmd_trace_check(cfg: SimulationConfig) -> int:
    scene = build_scene(cfg)
    if scene.model is None:
        print("sigma = 0: no stochastic convolution, trace check skipped")
        return 0
    chk = trace_condition(scene.P, scene.model)
    tail = trace_tail(scene.model)
    print(f"trace integral     {chk.value:.12g}")
    print(f"growth bound       {chk.bound:.12g}")
    print(f"trQ (retained)     {trace_q(scene.model):.12g}")
    print(f"trQ tail estimate  {tail:.12g}")
    if not np.isfinite(chk.value) or chk.value > chk.bound:
        print("trace condition violated", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stobeam",
        description="Structure-preserving simulator for the stochastic "
                    "clamped-free beam")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None,
                       help="output directory (default: current directory; "
                            "verify writes no manifest without it)")
        p.add_argument("--paths", type=int, default=None,
                       help="override run.N")
        p.add_argument("--seed", type=int, default=None,
                       help="override noise.seed")

    common(sub.add_parser("simulate", help="run paths, write CSV output"))
    common(sub.add_parser("verify", help="run the structural check suite"))
    pc = sub.add_parser("covariance",
                        help="Monte Carlo vs quadrature variance")
    common(pc)
    pc.add_argument("--observable", default=None,
                    help="test function spec mode:channel:u|v "
                         "(default: first configured observable)")
    common(sub.add_parser("trace-check",
                          help="trace integral vs growth bound"))
    return ap


def _load_config(args) -> SimulationConfig:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    cfg = parse_config(text)
    if args.paths is not None:
        if args.paths < 1:
            raise ConfigError("--paths must be >= 1")
        cfg = replace(cfg, n_paths=args.paths)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must be in [0, 2^64)")
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        out = args.out if args.out is not None else "."
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "covariance":
            spec = args.observable or cfg.observables[0]
            return cmd_covariance(cfg, spec, out)
        return cmd_trace_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StobeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
