"""One measured stobeam CLI command, run in a fresh process.

`run.py` starts this script once per sample with a JSON job description as
its only argument.  The script imports stobeam from the checkout's `src/`,
times `stobeam.cli.main([...])`, then times standalone `solver.build_scene`
calls on the same config (repeated for SETUP_REPEAT_S), checks the
command's outputs and prints one JSON report as its last stdout line.
With `"trace": true` it first wraps the public functions of every stobeam
module in span recorders (see `Tracer`) and reports per-layer figures.

Exit codes: 0 with a report (even when the command itself failed, which the
report records), 3 when stobeam cannot be imported or the job is malformed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

MIB = 2.0 ** 20
#: standalone scene builds repeat until they have taken this long
SETUP_REPEAT_S = 0.3
#: covariance gate allowance in standard errors of the quadrature
GATE_SE = 4.0


class Tracer:
    """Spans around calls into stobeam's public functions.

    Each span is (name, start, end, id, parent id).  The parent is the
    innermost open span of the calling thread; a worker thread with no open
    span of its own takes the innermost open span of the thread that
    installed the tracer (the ensemble pool's submitter), so per-path noise
    draws nest under `ensemble_run`.  Spans stay in memory until the report.
    """

    def __init__(self):
        self.spans = []
        self.work = {}
        self.enabled = True
        self._local = threading.local()
        self._main_stack = self._stack()
        self._main_thread = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_work(self, key, amount):
        with self._lock:
            self.work[key] = self.work.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        """Return `fn` recording a span `name`; `count(args, kwargs, result)`
        may add exact work counts derived from argument and result shapes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_thread:
                top = self._main_stack[-1:]
                parent = top[0] if top else None
            else:
                parent = None
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((name, start, end, span_id, parent))
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.add_work(key, amount)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace `owner.attr` and every stobeam module binding of the same
        object (names imported with `from .x import y`)."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, count)
        setattr(owner, attr, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "stobeam" or mod_name.startswith("stobeam."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def durations(self):
        out = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self):
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def self_time(self, name):
        """Summed duration of spans `name` minus the part of each interval
        that the union of its child spans covers."""
        children = {}
        for _, start, end, _, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for span_name, start, end, span_id, _ in self.spans:
            if span_name != name:
                continue
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            total += (end - start) - covered
        return total


def _ensemble_work(args, kwargs, result):
    """Exact flop and byte counts of one `ensemble_run` call, from shapes.

    Per path-step the noise projection is a (m x K) by (K x 3) product and
    the step a (2m x 2m) by (2m x 3) product, 2 flops per multiply-add.
    """
    cfg = args[0]
    m = cfg.n + 1
    path_steps = cfg.n_paths * cfg.n_steps
    k = cfg.K if cfg.sigma > 0 else 0
    kept = cfg.n_paths if kwargs.get("keep_paths", False) else 0
    return {"project_flop": path_steps * 2 * m * k * 3,
            "step_flop": path_steps * 2 * (2 * m) ** 2 * 3,
            "history_bytes": kept * (cfg.n_steps + 1) * 2 * m * 3 * 8}


def install_tracer():
    from stobeam import cli, grid, noise, operators, propagator, solver, verify

    tracer = Tracer()
    for owner, attr, name in (
            (grid, "build_grams", "grid.build_grams"),
            (operators, "estimate_constants", "operators.estimate_constants"),
            (propagator, "build_propagator", "propagator.build_propagator"),
            (propagator, "picard_evolution", "propagator.picard_evolution"),
            (noise, "ito_variance", "noise.ito_variance"),
            (noise, "trace_condition", "noise.trace_condition"),
            (solver, "build_scene", "solver.build_scene"),
            (cli, "cmd_simulate", "cli.command"),
            (cli, "cmd_covariance", "cli.command"),
            (cli, "cmd_verify", "cli.command")):
        tracer.patch(owner, attr, name)
    tracer.patch(noise.NoiseModel, "draw_xi", "noise.draw_xi",
                 lambda a, k, r: {"normals": int(r.size)})
    tracer.patch(solver, "ensemble_run", "solver.ensemble_run", _ensemble_work)
    verify._CHECKS[:] = [
        tracer.wrap("verify." + check.__name__[len("check_"):], check)
        for check in verify._CHECKS]
    return tracer


def layer_metrics(tracer, check_names, verify_failed, step_maps_mib,
                  bytes_written):
    dur, calls, work = tracer.durations(), tracer.calls(), tracer.work
    out = {
        "noise.draw_s": dur.get("noise.draw_xi", 0.0),
        "noise.normals": work.get("normals", 0),
        "solver.ensemble_self_s": tracer.self_time("solver.ensemble_run"),
        "solver.project_gflop": work.get("project_flop", 0) / 1e9,
        "solver.step_gflop": work.get("step_flop", 0) / 1e9,
        "solver.history_mib": work.get("history_bytes", 0) / MIB,
        "solver.build_scene_s": dur.get("solver.build_scene", 0.0),
        "solver.build_scene_calls": calls.get("solver.build_scene", 0),
        "propagator.build_s": dur.get("propagator.build_propagator", 0.0),
        "propagator.build_calls": calls.get("propagator.build_propagator", 0),
        "propagator.picard_s": dur.get("propagator.picard_evolution", 0.0),
        "grid.build_grams_s": dur.get("grid.build_grams", 0.0),
        "noise.ito_variance_s": dur.get("noise.ito_variance", 0.0),
        "noise.trace_condition_s": dur.get("noise.trace_condition", 0.0),
        "operators.estimate_constants_s":
            dur.get("operators.estimate_constants", 0.0),
        "operators.estimate_constants_calls":
            calls.get("operators.estimate_constants", 0),
        "cli.write_s": tracer.self_time("cli.command"),
        "cli.bytes_written": bytes_written,
        "propagator.step_maps_mib": step_maps_mib,
        "verify.checks_failed": verify_failed,
    }
    for name in check_names:
        out[f"verify.{name}_s"] = dur.get(f"verify.{name}", 0.0)
    return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def gate_covariance(cfg, out, rc):
    """Acceptance criterion 10's rule at 4 standard errors: at least
    ceil(0.95 points) sampled times have the Monte Carlo variance within
    GATE_SE standard errors of the quadrature (or equal to it, as at t = 0).

    The standard error is the quadrature's, quad * sqrt(2/(N-1)), so the
    allowance is symmetric.  The 3-standard-error count of the criterion
    itself, with the CSV's own stderr column, is reported but not gated:
    on one observable its 10 correlated points allow no miss, and it fails
    on a few percent of seeds with correct code (see README.md).
    """
    rows = [[float(x) for x in row.split(",")]
            for row in (out / "covariance.csv").read_text().splitlines()[1:]]
    rel_se = math.sqrt(2.0 / (cfg.n_paths - 1))
    within = within_3se = 0
    worst = 0.0
    for _, mc, quad, se in rows:
        within_3se += abs(mc - quad) <= 3.0 * se or mc == quad
        if mc == quad:
            within += 1
            continue
        z = abs(mc - quad) / (quad * rel_se) if quad > 0 else math.inf
        worst = max(worst, z)
        within += z <= GATE_SE
    need = math.ceil(0.95 * len(rows))
    return (rc == 0 and len(rows) > 0 and within >= need,
            {"points": len(rows), "needed": need, "within_gate": within,
             "worst_se": worst, "within_3se_csv": within_3se})


def gate_simulate(cfg, out, rc):
    """Row count N * n_steps * (n+2) * 3, and path 0 equal to the single-path
    solver to 1e-12 relative (per field, against its largest magnitude)."""
    import numpy as np
    from stobeam import solver

    traj_path = out / "trajectory.csv"
    with open(traj_path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in
                   iter(lambda: fh.read(1 << 20), b"")) - 1
    expected = cfg.n_paths * cfg.n_steps * (cfg.n + 2) * 3
    n_path0 = cfg.n_steps * (cfg.n + 2) * 3
    with open(traj_path) as fh:
        fh.readline()
        got = np.array([[float(x) for x in fh.readline().split(",")[4:6]]
                        for _ in range(n_path0)])
    ref = solver.solve_homogeneous(cfg, 0)
    want = np.array([[st.u[i, c], st.v[i, c]]
                     for st in ref.states[1:]
                     for i in range(cfg.n + 2) for c in range(3)])
    scale = np.max(np.abs(want), axis=0)
    rel = np.max(np.abs(got - want), axis=0) / np.where(scale > 0, scale, 1.0)
    worst = float(np.max(rel))
    ok = rc == 0 and rows == expected and worst <= 1e-12
    return ok, {"rows": rows, "rows_expected": expected,
                "path0_rel_diff": worst,
                "sha256": {name: _sha256(out / name) for name in
                           ("trajectory.csv", "observables.csv")}}


def gate_verify(cfg, out, rc):
    """Exit code 0 and no failed check in the written manifest."""
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    failed = sorted(k for k, v in checks.items() if v["status"] == "fail")
    return rc == 0 and not failed, {"checks": len(checks), "failed": failed}


GATES = {"covariance": gate_covariance, "simulate": gate_simulate,
         "verify": gate_verify}


def versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(job):
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    try:
        from stobeam import cli, config, solver, verify
    except ImportError as exc:
        print(f"cannot import stobeam from {root / 'src'}: {exc}",
              file=sys.stderr)
        return 3

    tracer = install_tracer() if job["trace"] else None
    cfg_path, out = Path(job["config"]), Path(job["out"])
    argv = [job["command"], "--config", str(cfg_path), "--out", str(out),
            "--seed", str(job["seed"])]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    except Exception:  # a crash of the command is a failed run, not ours
        traceback.print_exc()
        rc = -1
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    cfg = config.parse_config(cfg_path.read_text())
    cfg = dataclasses.replace(cfg, seed=job["seed"])
    setups = []
    while not setups or (sum(setups) < SETUP_REPEAT_S and len(setups) < 25):
        start = time.perf_counter()
        scene = solver.build_scene(cfg)
        setups.append(time.perf_counter() - start)
    distinct = {id(a): a for a in scene.P.steps}.values()
    step_maps_mib = sum(a.nbytes for a in distinct) / MIB
    del scene, distinct

    try:
        ok, detail = GATES[job["command"]](cfg, out, rc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
    bytes_written = sum(p.stat().st_size for p in out.rglob("*")
                        if p.is_file())
    report = {"rc": rc, "ok": bool(ok), "gate": detail, "wall_s": wall_s,
              "setup_s": setups, "peak_rss_mib": peak_rss_mib,
              "path_steps": (cfg.n_paths * cfg.n_steps
                             if job["command"] != "verify" else 0),
              "versions": versions()}
    if tracer is not None:
        check_names = [c.__name__[len("check_"):] for c in verify._CHECKS]
        failed = len(detail.get("failed", ())) \
            if job["command"] == "verify" else 0
        report["layers"] = layer_metrics(tracer, check_names, failed,
                                         step_maps_mib, bytes_written)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        job_spec = json.loads(sys.argv[1])
    except (IndexError, ValueError) as exc:
        print(f"usage: child.py '<job json>' ({exc})", file=sys.stderr)
        sys.exit(3)
    sys.exit(main(job_spec))
