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
noise.seed); covariance also takes --observable SPEC (overrides
run.observables with that one spec).  The config's own rules read and
check each override, and a refused value exits 2 with a short message
naming the flag.

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
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import (SimulationConfig, parse_config, parse_int,
                     parse_observable_spec, serialize_config)
from .errors import ConfigError, StobeamError
from .noise import ito_variance, trace_condition, trace_q, trace_tail
from .solver import (build_scene, ensemble_blocks, ensemble_run,
                     sine_mode_state)
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


def _rows(row: str, cols: np.ndarray) -> bytes:
    """One copy of the row template per leading index of `cols`, filled
    with the values along its other axes.  '%.17g' % x equals _fmt(x)."""
    text = (row * cols.shape[0]) % tuple(cols.ravel().tolist())
    return text.encode("ascii")


def _baked(text: str) -> str:
    """`text` as a literal inside a %-template."""
    return text.replace("%", "%%")


def cmd_simulate(cfg: SimulationConfig, out_dir: str) -> int:
    """Run the ensemble and write per-path CSV output.

    trajectory.csv has one row per (path, step time, node, channel) with
    the displacement and velocity components; the initial state is not
    re-emitted (it is implied by the config), so the row count is
    N * n_steps * (n+2) * 3.  observables.csv holds the per-path
    H-pairings at the sampled times.

    Each block of `ensemble_blocks` is written as it arrives, in path
    order, so memory does not grow with N.  Both files are written under a
    '.part' name and renamed when the run has finished, so a failed run
    leaves earlier output in place.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    scene = build_scene(cfg)
    m = scene.grid.n_free

    # one row template per path: the t, s, channel and observable texts
    # are baked in once; the path index and the values are slots
    s_txt = [_baked(_fmt(s)) for s in scene.grid.nodes]
    traj_row = "".join(
        f"%d,{_baked(_fmt(t))},{s},{c},%.17g,%.17g\n"
        for t in (cfg.dt * np.arange(cfg.n_steps + 1))[1:]
        for s in s_txt for c in (1, 2, 3))
    obs_row = "".join(f"%d,{_baked(_fmt(t))},{_baked(oid)},%.17g\n"
                      for t in cfg.dt * scene.obs_steps
                      for oid in cfg.observables)

    traj_path, obs_path = out / "trajectory.csv", out / "observables.csv"
    parts = [p.with_name(p.name + ".part") for p in (traj_path, obs_path)]
    traj_sha, obs_sha = hashlib.sha256(), hashlib.sha256()

    def write(fh, sha, data: bytes):
        sha.update(data)
        fh.write(data)

    try:
        with open(parts[0], "wb") as traj_fh, open(parts[1], "wb") as obs_fh:
            write(traj_fh, traj_sha, b"path,t,s,channel,u,v\n")
            write(obs_fh, obs_sha, b"path,t,observable_id,value\n")
            for p0, p1, vals, history, _ in ensemble_blocks(
                    scene, keep_history=True):
                paths = np.arange(p0, p1, dtype=float)
                # (path, step, node, channel, [path, u, v]); the node at
                # s = l is eliminated and written as 0 (plus the lift)
                cols = np.zeros((p1 - p0, cfg.n_steps, scene.grid.n + 2, 3, 3))
                cols[..., 0] = paths[:, None, None, None]
                hist = history[1:].transpose(3, 0, 1, 2)
                cols[:, :, :m, :, 1] = hist[:, :, :m]
                cols[:, :, :m, :, 2] = hist[:, :, m:]
                if scene.shift is not None:
                    cols[..., 1] += scene.shift
                write(traj_fh, traj_sha, _rows(traj_row, cols))
                # (path, time, observable, [path, value])
                cols = np.empty((p1 - p0, len(scene.obs_steps),
                                 len(cfg.observables), 2))
                cols[..., 0] = paths[:, None, None]
                cols[..., 1] = vals.transpose(2, 1, 0)
                write(obs_fh, obs_sha, _rows(obs_row, cols))
        os.replace(parts[0], traj_path)
        os.replace(parts[1], obs_path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)

    wall = time.monotonic() - t_start
    outputs = {"trajectory.csv": traj_sha.hexdigest(),
               "observables.csv": obs_sha.hexdigest()}
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


def cmd_covariance(cfg: SimulationConfig, out_dir: str) -> int:
    """Monte Carlo vs quadrature variance for the first configured
    observable; the ensemble runs on that observable alone.

    covariance.csv columns: t, mc_variance, quadrature_variance, stderr.
    stderr is the Gaussian-theory standard error of the sample variance,
    mc_variance * sqrt(2/(N-1)).
    """
    spec = cfg.observables[0]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    stats = ensemble_run(replace(cfg, observables=(spec,)))
    scene = stats.scene
    h = sine_mode_state(scene.grid, *parse_observable_spec(spec))
    lines = ["t,mc_variance,quadrature_variance,stderr"]
    n_within = 0
    for ti, t in enumerate(stats.times):
        mc = float(stats.variance[0, ti])
        if scene.model is None:
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
    print(f"observable {spec}: {n_within}/{len(stats.times)} time points "
          f"within 3 standard errors (N={stats.count})")
    return 0


def cmd_trace_check(cfg: SimulationConfig) -> int:
    scene = build_scene(cfg)
    if scene.model is None:
        print("sigma = 0: no stochastic convolution, trace check skipped")
        return 0
    chk = trace_condition(scene.P, scene.model, scene.constants)
    tail = trace_tail(scene.model)
    print(f"trace integral     {chk.value:.12g}")
    print(f"growth bound       {chk.bound:.12g}")
    print(f"trQ (retained)     {trace_q(scene.model):.12g}")
    print(f"trQ tail estimate  {tail:.12g}")
    if chk.excess != 0.0:  # nan for a non-finite value
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
        # read as text by the config's integer rule, which quotes a
        # refused value short
        p.add_argument("--paths", default=None, help="override run.N")
        p.add_argument("--seed", default=None, help="override noise.seed")

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
    observable = getattr(args, "observable", None)
    for flag, attr, text, read in (
            ("--paths", "n_paths", args.paths, parse_int),
            ("--seed", "seed", args.seed, parse_int),
            ("--observable", "observables", observable, lambda s: (s,))):
        if text is not None:
            try:
                cfg = replace(cfg, **{attr: read(text)})
            except ConfigError as exc:
                raise ConfigError(f"{flag}: {exc.message}") from None
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
            return cmd_covariance(cfg, out)
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
