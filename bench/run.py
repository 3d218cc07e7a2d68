"""stobeam benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from anywhere; paths are resolved from this file):

    python3 bench/run.py --workload mc-covariance --seed 1 --trace 0
    python3 bench/run.py --smoke

Each sample is a fresh `python3 bench/child.py` process that runs one
`stobeam.cli.main([...])` command in-process on a generated config, with
`--seed` and an `--out` directory under `bench/.work/`.  Samples repeat
until `--seconds` have passed (and at least MIN_SAMPLES untraced ones
exist).  Every figure is the mean over the run's samples; the median
wall time and the sample count are reported next to it.  The mean is used
because the reference host alternates between a fast state and one about
1.6x slower, in phases of several seconds to a minute (see README.md): the
mean moves in proportion to the time spent in each state, while the
median and the fastest sample jump between the two.

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
alternates an untraced sample, a traced sample and an untraced sample at
the other worker-thread count, and reports the per-layer metrics (see
README.md for which end-to-end metric each one should move).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it are a readable table plus the provenance.
A run that fails a correctness gate counts as failed.  The full result,
with every sample and the provenance, goes to `bench/results/`.

`--smoke` runs every workload once at tiny sizes in both trace modes and
checks that every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Dict, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: BLAS threads per process; worker threads x BLAS threads stays <= 2 cores
BLAS_THREADS = 1
#: a run stops sampling, and kills a late sample, this long after it starts;
#: runs must end within 180 s
RUN_DEADLINE_S = 170.0
#: untraced samples per run at least, even past --seconds (wide-grid
#: samples take 13-17 s)
MIN_SAMPLES = 2

# Acceptance Monte Carlo config of the test suite (ROADMAP W1), 2 workers.
MC_COVARIANCE = """\
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.25
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.N = 8192
run.threads = 2
run.observables = 1:3:v,2:1:v
run.obs_stride = 25
"""

# ROADMAP W4: n = 256 with modulated tension, so each of the 100 steps has
# its own dense LU; the step maps (about 200 MiB) exceed the L3 cache.
WIDE_GRID = """\
beam.l = 1.0
beam.b = 1.0
grid.n = 256
time.T = 0.1
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.N = 256
run.threads = 1
run.observables = 1:3:v
run.obs_stride = 25
"""

# Byte-identity config of the test suite (ROADMAP W2).
SIMULATE_CSV = """\
beam.l = 1.0
beam.b = 1.0
grid.n = 8
time.T = 0.05
time.dt = 0.0025
noise.sigma = 1.0
noise.K = 6
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.N = 2000
run.threads = 1
run.observables = 1:3:v,2:1:v
run.obs_stride = 5
"""


@dataclass(frozen=True)
class Workload:
    command: str
    #: config text, or None to read configs/default.cfg from the checkout
    config: Optional[str]
    #: run.threads of the measured samples
    threads: int
    #: key overrides that shrink the workload for --smoke
    smoke: Dict[str, str]


WORKLOADS = {
    "mc-covariance": Workload("covariance", MC_COVARIANCE, 2,
                              {"run.N": "64", "time.T": "0.05"}),
    "wide-grid": Workload("covariance", WIDE_GRID, 1,
                          {"grid.n": "32", "run.N": "32"}),
    "simulate-csv": Workload("simulate", SIMULATE_CSV, 1, {"run.N": "8"}),
    "verify-suite": Workload("verify", None, 1, {"time.T": "0.05"}),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: per-layer metrics with units; COMPUTED ones come from array shapes or
#: call counts and must repeat exactly between runs of the same source
PER_LAYER_FIXED = {
    "noise.draw_s": "s",
    "noise.normals": "count",
    "solver.ensemble_self_s": "s",
    "solver.project_gflop": "GFLOP",
    "solver.step_gflop": "GFLOP",
    "solver.thread_speedup": "ratio",
    "propagator.build_s": "s",
    "propagator.build_calls": "count",
    "solver.build_scene_s": "s",
    "solver.build_scene_calls": "count",
    "grid.build_grams_s": "s",
    "propagator.step_maps_mib": "MiB",
    "noise.ito_variance_s": "s",
    "solver.history_mib": "MiB",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "operators.estimate_constants_s": "s",
    "operators.estimate_constants_calls": "count",
    "propagator.picard_s": "s",
    "noise.trace_condition_s": "s",
    "verify.checks_failed": "count",
    "trace.overhead_frac": "frac",
}
COMPUTED = ("noise.normals", "solver.project_gflop", "solver.step_gflop",
            "solver.history_mib", "propagator.step_maps_mib",
            "propagator.build_calls", "solver.build_scene_calls",
            "operators.estimate_constants_calls")


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of stobeam)."""


def render_config(base: str, overrides: Dict[str, str]) -> str:
    """`base` with each overridden key's value replaced, or appended."""
    lines, seen = [], set()
    for raw in base.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            lines.append(raw)
    lines += [f"{k} = {v}" for k, v in overrides.items() if k not in seen]
    return "\n".join(lines) + "\n"


def workload_config(wl: Workload, seed: int, threads: int,
                    smoke: bool) -> str:
    base = wl.config
    if base is None:
        base = (ROOT / "configs" / "default.cfg").read_text()
    overrides = {"noise.seed": str(seed), "run.threads": str(threads)}
    if smoke:
        overrides.update(wl.smoke)
    return render_config(base, overrides)


def run_child(wl: Workload, seed: int, threads: int, trace: bool,
              smoke: bool, work: Path, index: int, deadline: float) -> dict:
    cfg_path = work / f"sample{index}.cfg"
    cfg_path.write_text(workload_config(wl, seed, threads, smoke))
    out = work / f"sample{index}"
    job = {"root": str(ROOT), "command": wl.command, "config": str(cfg_path),
           "out": str(out), "seed": seed, "trace": trace}
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the first sample finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, cwd=str(work),
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample {index} did not finish in time") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
        cfg_path.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sample {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["threads"] = threads
    report["traced"] = trace
    if not report["ok"]:
        report["stderr"] = proc.stderr[-4000:]
    return report


def source_provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def git(*args: str) -> Optional[str]:
    """Output of a git command in the checkout, or None outside a work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def layer_metrics(samples: dict, problems: list) -> dict:
    traced = [s["layers"] for s in samples["traced"]]
    out = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name in COMPUTED:
            if any(v != values[0] for v in values):
                problems.append(f"computed count {name} differs between "
                                f"samples of one run: {values}")
            out[name] = values[0]
        else:
            out[name] = mean(values)
    walls = {kind: mean(s["wall_s"] for s in samples[kind])
             for kind in samples}
    threads = {samples[kind][0]["threads"]: walls[kind]
               for kind in ("plain", "alt")}
    out["solver.thread_speedup"] = threads[1] / threads[2]
    out["trace.overhead_frac"] = walls["traced"] / walls["plain"] - 1.0
    return out


def check_repeats(name: str, smoke: bool, prov: dict, layers: dict):
    """Computed counts must equal those of every earlier traced result of
    the same workload and source; returns the list of mismatches."""
    mismatches = []
    if not RESULTS_DIR.is_dir():
        return mismatches
    for path in sorted(RESULTS_DIR.glob(f"{name}-trace1-*.json")):
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (old.get("smoke") != smoke or old["provenance"].get("src_sha256")
                != prov["src_sha256"]):
            continue
        for key in COMPUTED:
            if old["metrics"].get(key, {}).get("value") != layers[key]:
                mismatches.append(f"{key}: {path.name} has "
                                  f"{old['metrics'].get(key)}, now "
                                  f"{layers[key]}")
    return mismatches


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    if not (ROOT / "src" / "stobeam" / "__init__.py").is_file():
        raise BenchError(f"no stobeam sources under {ROOT / 'src'}")
    wl = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    variants = [("plain", wl.threads, False)]
    if trace:
        variants += [("traced", wl.threads, True),
                     ("alt", 3 - wl.threads, False)]
    samples = {kind: [] for kind, _, _ in variants}
    status_before = git("status", "--porcelain", "--untracked-files=all")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    index, longest = 0, 0.0
    try:
        while True:
            round_start = time.monotonic()
            for kind, threads, traced in variants:
                samples[kind].append(run_child(wl, seed, threads, traced,
                                               smoke, work, index, deadline))
                index += 1
            now = time.monotonic()
            longest = max(longest, now - round_start)
            enough = trace or len(samples["plain"]) >= MIN_SAMPLES
            if (smoke or (enough and now - started >= seconds)
                    or now + longest > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    status_after = git("status", "--porcelain", "--untracked-files=all")

    every = [s for kind in samples for s in samples[kind]]
    failed = sum(not s["ok"] for s in every)
    plain = samples["plain"]
    prov = {"git_commit": (git("rev-parse", "HEAD") or "").strip() or None,
            **source_provenance(), **plain[0]["versions"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "workload_seed": seed,
            "run_seconds": seconds, "samples": len(every)}
    problems = []
    if status_before is not None and status_after is not None:
        new = sorted(set(status_after.splitlines())
                     - set(status_before.splitlines()))
        if new:
            problems.append("the run changed the repository: "
                            + "; ".join(new))
    hashes = {json.dumps(s["gate"]["sha256"], sort_keys=True)
              for s in every if "sha256" in s["gate"]}
    if len(hashes) > 1:
        problems.append("CSV SHA-256s differ between samples of one seed")
    if trace:
        values = layer_metrics(samples, problems)
        units = dict(PER_LAYER_FIXED)
        units.update({k: "s" for k in values if k.startswith("verify.")
                      and k.endswith("_s")})
        problems += check_repeats(name, smoke, prov, values)
    else:
        values = {"wall_s": mean(s["wall_s"] for s in plain),
                  "setup_s": mean(t for s in plain for t in s["setup_s"]),
                  "peak_rss_mib": mean(s["peak_rss_mib"] for s in plain)}
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    wall_median = median([s["wall_s"] for s in plain])
    extra = {"ops_failed_frac": {"value": failed / len(every),
                                 "unit": "frac"},
             "wall_s.median": {"value": wall_median, "unit": "s"},
             "wall_s.samples": {"value": len(plain), "unit": "count"}}
    path_steps = plain[0]["path_steps"]
    if path_steps:
        extra["path_steps_per_s"] = {
            "value": path_steps / mean(s["wall_s"] for s in plain),
            "unit": "1/s"}
    result = {"workload": name, "trace": trace, "smoke": smoke,
              "correct": failed == 0 and not problems,
              "attempted": len(every), "failed": failed,
              "metrics": metrics, "reported_only": extra,
              "problems": problems, "provenance": prov,
              "samples": samples}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    out = RESULTS_DIR / f"{name}-trace{int(trace)}-seed{seed}{suffix}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def print_table(result: dict):
    print(f"# workload {result['workload']}  trace {int(result['trace'])}  "
          f"samples {result['attempted']}  failed {result['failed']}")
    rows = {**result["metrics"], **result["reported_only"]}
    for name, m in rows.items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{tag}")
    prov = result["provenance"]
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for problem in result["problems"]:
        print(f"# problem: {problem}")


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    missing = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=0, trace=bool(trace),
                                  smoke=True)
            print_table(result)
            got = result["metrics"]
            for metric, unit in want[trace].items():
                if got.get(metric, {}).get("unit") != unit:
                    missing.append(f"{name} trace {trace}: {metric} [{unit}]"
                                   f" got {got.get(metric)}")
            missing += [f"{name} trace {trace}: {p}"
                        for p in result["problems"]]
            missing += [f"{name} trace {trace}: sample exit code {s['rc']}"
                        for kind in result["samples"]
                        for s in result["samples"][kind] if s["rc"] != 0]
    for line in missing:
        print(f"# smoke: {line}")
    print(f"smoke {'failed' if missing else 'ok'}: {len(WORKLOADS)} "
          f"workloads, {len(want[0])} end-to-end and {len(want[1])} "
          f"per-layer metrics checked")
    return 1 if missing else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, both trace modes")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must be in [0, 2^63)")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required without --smoke")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_table(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
