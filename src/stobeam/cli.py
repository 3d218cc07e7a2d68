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

All CSV numbers are '%.17g' text, and path blocks merge in a fixed
order, so outputs are byte-stable across repeated runs and identical for
any `run.threads`, which counts the forked worker processes that step
the blocks (capped at the usable CPUs); `simulate` computes its digits
in numpy (`_g17`), byte for byte as '%.17g', into NUL-padded byte
matrices, and a writer thread, started after the workers, drops each
slice's padding, hashes it and writes it while the next is formatted.
manifest.json records the resolved config, version, seed, wall-clock
and the SHA-256 of every file written next to it (the wall-clock field
is the only part that varies between identical runs).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
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

#: CSV rows that `simulate` formats and writes at once, in whole paths.
#: Peak RSS of the simulate-csv bench workload on a 2-CPU host: 1024 to
#: 65536 rows gave 64, 64, 65, 69, 75, 112 MiB (whole blocks: 157 MiB)
ROWS = 4096

_W = 28  # bytes of one value's text in `_g17`
#: the doubles nearest 10**k, k = -6..22: exact for k >= 0, and the least
#: double above 10**k for k = -5..-1 (1e-6 is below 10**-6, and below
#: every |v| whose digits `_g17` computes)
_TEN = np.array([float(f"1e{k}") for k in range(-6, 23)])


def _halves(a):  # Veltkamp's split into 26-bit halves h + l = a
    t = 134217729.0 * a  # 2**27 + 1
    return t - (t - a), a - (t - (t - a))


@functools.cache
def _tables():
    """`_g17`'s tables, built by its first call: the 4-digit groups
    0000-9999, then the same with trailing zeros blank; bytes 0-7 of the
    text by sign, e, blank (every later digit is 0) and first digit d
    (0: v = 0), right-aligned: sign, "0.000" if -4 <= e < 0, d, point;
    bytes 24-27, the exponent, by e; and the halves of `_TEN`."""
    quads = np.strings.zfill(np.arange(10000).astype("S4"), 4)
    quads = np.concatenate([quads, np.strings.rstrip(quads, b"0")])
    heads = np.frombuffer(b"".join(
        ("-" * neg + ("0." + "0" * (-e - 1)) * (-4 <= e < 0) + str(d)
         + "." * (not blank and e in (0, -5, -6)) if d else "-" * neg + "0")
        .encode().rjust(8, b"\0") for neg in (0, 1) for e in range(-6, 17)
        for blank in (0, 1) for d in range(10)), np.uint64)
    tails = np.frombuffer(b"e-06e-05".ljust(4 * 23, b"\0"), np.uint32)
    return np.frombuffer(quads.tobytes(), "u4"), heads, tails, *_halves(_TEN)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


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


def _g17(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for every v of `x`, as rows of _W bytes: the text with
    NUL bytes around and inside it, which the caller drops.

    For 1e-6 < |v| < 1e16 the digits are exact: e = floor(log10|v|),
    moved by one where |v| is outside [10**e, 10**(e+1)), which `_TEN`
    tells exactly, and |v| * 10**(16 - e) = hi + lo exactly, by Dekker's
    product of 26-bit halves (10**(16 - e) is exact for 16 - e <= 22).
    hi is in [1e16, 1e17], above 2**53, so an even integer, and
    |lo| <= 8: hi + rint(lo) rounds hi + lo half to even, as '%.17g'
    does.  No carry to 10**17 occurs: every double below a power of ten
    1e-5 .. 1e16 is over 8e-17 below it, relatively, and a carry needs
    5e-18.  The layout is '%g''s: fixed for -4 <= e < 17, else
    d.ddde-0X, with no trailing fraction zeros or bare point.  0 and -0
    give '0' and '-0', the rest Python's '%.17g'.
    """
    quads, heads, tails, ten_h, ten_l = _tables()
    x = x.ravel()
    ax = np.abs(x)
    fast = (ax > 1e-6) & (ax < 1e16)
    a = np.where(fast, ax, 0.5)  # 0.5: e = -1; their text is set below
    e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.intp)
    e += a >= _TEN[e + 7]
    e -= a < _TEN[e + 6]
    k = 22 - e  # 10**(16 - e)
    ah, al = _halves(a)
    hi = a * _TEN[k]
    lo = ((ah * ten_h[k] - hi) + ah * ten_l[k] + al * ten_h[k]) \
        + al * ten_l[k]
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    top, rest = np.divmod(n, 10 ** 16)
    # the four 4-digit groups of rest, by int32 divisions by a scalar; a
    # group + 10000 (trailing zeros blank) where every later one is 0,
    # that is, where the next is 10000 by now
    g = np.empty((4, x.size), np.int32)
    upper, lower = np.divmod(rest, 10 ** 8)
    g[0], g[1] = np.divmod(upper.astype(np.int32), 10000)
    g[2], g[3] = np.divmod(lower.astype(np.int32), 10000)
    g[3] += 10000
    for i in (2, 1, 0):
        g[i] += 10000 * (g[i + 1] == 10000)
    # bytes 0-7 sign, "0.000" and the first digit, right-aligned (blank:
    # rest = 0); 8-23 the four groups; 24-27 the exponent
    out = np.zeros((x.size, _W), np.uint8)
    cells = out.view(np.uint32)
    cells[:, 2:6] = quads[g].T
    cells[:, :2] = heads[((np.signbit(x) * 23 + e + 6) * 2 + (g[0] == 10000))
                         * 10 + top * (x != 0)].view(np.uint32).reshape(-1, 2)
    cells[:, 6] = tails[e + 6]
    # e >= 1: the point goes after digit e, and the integer digits stay
    big = np.flatnonzero(e > 0)
    ep = e[big, None]
    d = out[big, 7:25]
    whole = np.arange(18) <= ep
    d[(d == 0) & whole] = 48
    text = np.where(whole, d, np.roll(d, 1, axis=1))
    text[np.arange(big.size), ep[:, 0] + 1] = \
        46 * (d[np.arange(big.size), ep[:, 0] + 1] != 0)
    out[big, 7:25] = text
    rare = np.flatnonzero(~fast & (x != 0))
    out[rare] = np.array([b"%.17g" % v for v in x[rare].tolist()],
                         f"S{_W}").view(np.uint8).reshape(-1, _W)
    return out


def _rows(a: int, pre: np.ndarray, values: np.ndarray) -> np.ndarray:
    """CSV rows of paths a, a+1, ...: each row is the path index, its
    text `pre` (a bytes array of one item per row), and the last axis of
    `values` (paths, rows, k) in '%.17g', joined by ','.  They come as a
    uint8 array (paths, rows, bytes) of fixed-width fields, with NUL bytes
    around and inside the text: its nonzero bytes in order are the rows."""
    n, rows, k = values.shape
    path = np.array([str(p) for p in range(a, a + n)], "S")
    buf = np.zeros((n, rows, path.itemsize + pre.itemsize + k * (_W + 1)),
                   np.uint8)
    buf[..., :path.itemsize] = path.view(np.uint8).reshape(n, 1, -1)
    buf[..., path.itemsize:-k * (_W + 1)] = pre.view(np.uint8).reshape(rows, -1)
    cells = buf[..., -k * (_W + 1):].reshape(n, rows, k, _W + 1)
    cells[..., :_W] = _g17(values).reshape(n, rows, k, _W)
    cells[..., _W] = np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)
    return buf


def _slices(p0: int, p1: int, rows: int):
    """(a, b) ranges of whole paths of `rows` rows: ROWS rows or one path."""
    width = max(1, ROWS // rows)
    return ((a, min(p1, a + width)) for a in range(p0, p1, width))


def cmd_simulate(cfg: SimulationConfig, out_dir: str) -> int:
    """Run the ensemble and write per-path CSV output.

    trajectory.csv has one row per (path, step time, node, channel) with
    the displacement and velocity components; the initial state is not
    re-emitted (it is implied by the config), so the row count is
    N * n_steps * (n+2) * 3.  observables.csv holds the per-path
    H-pairings at the sampled times.

    Each block of `ensemble_blocks` is formatted as it arrives, in path
    order, in slices of whole paths of at most ROWS rows (or one path),
    and released before the next block is stepped.  One writer thread
    takes each slice's byte matrix from `_rows`, in order, drops its NUL
    padding (a numpy mask, which runs without the GIL) and hashes and
    writes the rest, while the main thread formats the next slice: the
    run holds the history of each block in flight, one slice being
    formatted and one being written, whatever N.  Both files are written
    under a '.part' name and renamed when the run has finished, so a
    failed run leaves earlier output in place.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    scene = build_scene(cfg)
    m = scene.grid.n_free

    # the text of each row after its path index, up to its values
    traj_pre = np.array([f",{_fmt(t)},{_fmt(s)},{c},"
                         for t in scene.P.times[1:]
                         for s in scene.grid.nodes for c in (1, 2, 3)], "S")
    obs_pre = np.array([f",{_fmt(t)},{oid},"
                        for t in scene.P.times[scene.obs_steps]
                        for oid in cfg.observables], "S")

    def texts(blocks):
        """(file index, uint8 text with NUL padding): the header line and
        every slice of both files, in order."""
        yield 0, np.frombuffer(b"path,t,s,channel,u,v\n", np.uint8)
        yield 1, np.frombuffer(b"path,t,observable_id,value\n", np.uint8)
        for p0, p1, vals, history in blocks:
            for a, b in _slices(p0, p1, len(traj_pre)):
                # (path, step, node, channel, [u, v]); the clamped last
                # node s = l stays at 0, 0, as does the lift
                hist = history[1:, ..., a - p0:b - p0]
                cols = np.zeros((b - a, cfg.n_steps, m + 1, 3, 2))
                cols[:, :, :m] = hist.reshape(-1, 2, m, 3, b - a)\
                    .transpose(4, 0, 2, 3, 1)
                if scene.shift is not None:
                    cols[:, :, :m, :, 0] += scene.shift[:m]
                yield 0, _rows(a, traj_pre, cols.reshape(b - a, -1, 2))
            for a, b in _slices(p0, p1, len(obs_pre)):
                # (path, time, observable)
                cols = vals[..., a - p0:b - p0].transpose(2, 1, 0)
                yield 1, _rows(a, obs_pre, cols.reshape(b - a, -1, 1))
            del vals, history, hist, cols  # before the next block

    paths = out / "trajectory.csv", out / "observables.csv"
    parts = [p.with_name(p.name + ".part") for p in paths]
    shas = hashlib.sha256(), hashlib.sha256()
    try:
        # the block workers are forked before the writer thread starts; on
        # leaving, the text stops, the writer finishes, the files close and
        # the workers stop
        with closing(ensemble_blocks(scene, keep_history=True)) as blocks, \
                open(parts[0], "wb") as traj_fh, \
                open(parts[1], "wb") as obs_fh, \
                ThreadPoolExecutor(1) as writer, \
                closing(texts(blocks)) as text:
            def write(f, data: np.ndarray):  # on the writer thread
                data = data[data != 0]
                shas[f].update(data)
                (traj_fh, obs_fh)[f].write(data)

            done = writer.submit(int)  # a no-op to wait on first
            # the writer holds one slice while `text` formats the next
            for f, data in text:
                done.result()  # raises the writer's error
                done = writer.submit(write, f, data)
            done.result()
        for part, path in zip(parts, paths):
            os.replace(part, path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)

    wall = time.monotonic() - t_start
    outputs = {p.name: sha.hexdigest() for p, sha in zip(paths, shas)}
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
    observable; the ensemble runs on that observable alone.  The backward
    sweep that gives the ensemble its mild sum gives the quadrature at
    every sampled time too (`solver.mild_sum`); where the ensemble steps
    its paths instead, one `ito_variance` sweep gives it, so a run with
    noise makes n_steps transposed steps either way.

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
    if scene.model is None:
        quads = np.zeros(len(stats.times))
    elif scene.mild is not None:
        quads = scene.mild.variance[0]
    else:
        quads = ito_variance(scene.P, scene.model, h, scene.obs_steps)
    lines = ["t,mc_variance,quadrature_variance,stderr"]
    n_within = 0
    for ti, (t, quad) in enumerate(zip(stats.times, quads)):
        mc = float(stats.variance[0, ti])
        se = mc * np.sqrt(2.0 / (stats.count - 1)) if stats.count > 1 else 0.0
        if abs(mc - quad) <= 3.0 * se or mc == quad:
            n_within += 1
        lines.append(f"{_fmt(t)},{_fmt(mc)},{_fmt(quad)},{_fmt(se)}")
    text = "\n".join(lines) + "\n"
    _write_text(out / "covariance.csv", text)
    wall = time.monotonic() - t_start
    outputs = {"covariance.csv": hashlib.sha256(text.encode()).hexdigest()}
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
