"""Command-line entry points and output file contracts."""

import json
import hashlib
import os
import re
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from stobeam import cli, propagator, solver
from stobeam.cli import main
from stobeam.config import parse_config
from stobeam.errors import BlowupError
from stobeam.grid import BeamState
from stobeam.noise import TraceCheck
from stobeam.solver import build_scene, ensemble_blocks
from stobeam.verify import free_variance_closed_form

TINY = """
beam.l = 1.0
beam.b = 1.0
grid.n = 8
time.T = 0.02
time.dt = 0.005
noise.sigma = 1.0
noise.K = 6
noise.seed = 3
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.2
init.family = zero
bc.kind = homogeneous
run.N = 2
run.observables = 1:3:v
run.obs_stride = 2
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_writes_documented_rows(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "path,t,s,channel,u,v"
    # 2 paths, 4 steps (t0 implied by the config), 10 nodes, 3 channels
    assert len(traj) - 1 == 2 * 4 * 10 * 3
    first = traj[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.005)

    obs = (out / "observables.csv").read_text().splitlines()
    assert obs[0] == "path,t,observable_id,value"
    # sampled times 0, 0.01, 0.02 for each of 2 paths
    assert len(obs) - 1 == 2 * 3 * 1
    assert obs[1].split(",")[1] == "0"

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"version", "seed", "config", "wall_clock_s",
                             "outputs", "checks"}
    assert manifest["seed"] == 3
    assert parse_config(manifest["config"]) == parse_config(TINY)
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_simulate_repeat_runs_are_byte_identical(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(b)]) == 0
    for name in ("trajectory.csv", "observables.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_paths_and_seed_overrides(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--paths", "3", "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    cfg = parse_config(manifest["config"])
    assert cfg.n_paths == 3
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert len(traj) - 1 == 3 * 4 * 10 * 3


def test_verify_exit_zero_and_report(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    out = tmp_path / "v"
    code = main(["verify", "--config", cfg_path, "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in text
    assert "PASS skew_adjoint" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["skew_adjoint"]["status"] == "pass"
    # exit code mirrors the absence of FAIL lines
    assert "FAIL" not in text


def test_verify_failure_sets_exit_code(tmp_path, capsys):
    table = ",".join(["0.5"] + ["0.1"] * 8 + ["0.0"])
    broken = TINY.replace(
        "lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.2",
        f"lambda.family = tabulated\nlambda.table = {table}")
    cfg_path = _write_cfg(tmp_path, broken)
    with pytest.warns(UserWarning):
        code = main(["verify", "--config", cfg_path])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "tractive_invariants" in captured.err


def test_verify_skips_noise_checks_without_noise(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path,
                          TINY.replace("noise.sigma = 1.0", "noise.sigma = 0.0"))
    assert main(["verify", "--config", cfg_path]) == 0
    text = capsys.readouterr().out
    assert "SKIP" in text
    assert "0 failed" in text


def test_covariance_quadrature_column_tracks_closed_form(tmp_path, capsys):
    free = TINY.replace("lambda.family = bump", "lambda.family = zero") \
               .replace("run.N = 2", "run.N = 200")
    cfg_path = _write_cfg(tmp_path, free)
    out = tmp_path / "c"
    assert main(["covariance", "--config", cfg_path, "--out", str(out),
                 "--observable", "1:3:v"]) == 0
    lines = (out / "covariance.csv").read_text().splitlines()
    assert lines[0] == "t,mc_variance,quadrature_variance,stderr"
    cfg = parse_config(free)
    sc = build_scene(cfg)
    from stobeam.solver import sine_mode_state
    h = sine_mode_state(sc.grid, 1, 3, "v")
    for k, row in zip(sc.obs_steps, lines[1:], strict=True):
        t, mc, quad, se = (float(v) for v in row.split(","))
        if k == 0:
            assert quad == 0.0
            continue
        closed = free_variance_closed_form(sc, h, k, cfg.dt)
        assert quad == pytest.approx(closed, rel=1e-8, abs=1e-12)
    assert "within 3 standard errors" in capsys.readouterr().out


def test_covariance_without_noise_emits_zero_columns(tmp_path, capsys):
    quiet = TINY.replace("noise.sigma = 1.0", "noise.sigma = 0.0")
    cfg_path = _write_cfg(tmp_path, quiet)
    out = tmp_path / "c0"
    assert main(["covariance", "--config", cfg_path, "--out", str(out)]) == 0
    for row in (out / "covariance.csv").read_text().splitlines()[1:]:
        _, mc, quad, se = (float(v) for v in row.split(","))
        assert mc == 0.0 and quad == 0.0 and se == 0.0


def test_covariance_rejects_bad_observable(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    # a bad channel, and a mode above the grid.n = 8 sine modes
    for spec in ("1:9:v", "30:3:v"):
        code = main(["covariance", "--config", cfg_path,
                     "--out", str(tmp_path / "o"), "--observable", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--observable" in err
    assert not (tmp_path / "o").exists()


def test_long_observable_spec_is_quoted_short(tmp_path, capsys):
    """A 5000-character spec is refused in an error line under 200
    characters, from `--observable` and from a config line alike."""
    spec = "x" * 5000
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["covariance", "--config", cfg_path, "--out",
                 str(tmp_path / "o"), "--observable", spec]) == 2
    err = capsys.readouterr().err
    assert "--observable" in err and len(err) < 200
    long_cfg = _write_cfg(tmp_path, TINY.replace(
        "run.observables = 1:3:v", f"run.observables = {spec}"), "long.cfg")
    assert main(["covariance", "--config", long_cfg, "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "run.observables" in err and len(err) < 200
    assert not (tmp_path / "o").exists()


def test_covariance_manifest_records_the_observable_override(tmp_path,
                                                             capsys):
    two = TINY.replace("run.observables = 1:3:v",
                       "run.observables = 1:3:v,2:1:v")
    out = tmp_path / "o"
    assert main(["covariance", "--config", _write_cfg(tmp_path, two),
                 "--out", str(out), "--observable", "2:1:v"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert parse_config(manifest["config"]).observables == ("2:1:v",)
    # the recorded config alone reproduces the curve
    again = tmp_path / "again"
    assert main(["covariance", "--config",
                 _write_cfg(tmp_path, manifest["config"], "again.cfg"),
                 "--out", str(again)]) == 0
    assert (again / "covariance.csv").read_bytes() == \
        (out / "covariance.csv").read_bytes()
    assert manifest["outputs"]["covariance.csv"] == hashlib.sha256(
        (out / "covariance.csv").read_bytes()).hexdigest()
    capsys.readouterr()


def test_tabulated_spectrum_equal_to_k2_gives_the_same_bytes(tmp_path,
                                                              capsys):
    """noise.spectrum = tabulated with the six values of k^-2 as its table
    writes the same simulate and covariance CSVs as k^-2 itself."""
    k2 = TINY.replace("run.N = 2", "run.N = 40")
    table = k2.replace("noise.seed = 3", "noise.seed = 3\n"
                       "noise.spectrum = tabulated\nnoise.table = 1.0,0.25,"
                       "0.1111111111111111,0.0625,0.04,0.027777777777777776")
    outs = {}
    for tag, text in (("k2", k2), ("table", table)):
        cfg_path = _write_cfg(tmp_path, text, f"{tag}.cfg")
        for command in ("simulate", "covariance"):
            assert main([command, "--config", cfg_path,
                         "--out", str(tmp_path / tag)]) == 0
        outs[tag] = [(tmp_path / tag / name).read_bytes() for name in
                     ("trajectory.csv", "observables.csv", "covariance.csv")]
    assert outs["table"] == outs["k2"]
    capsys.readouterr()


def test_default_noise_modes_follow_the_grid(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY.replace("noise.K = 6\n", ""))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "noise.K = 8\n" in manifest["config"]  # min(64, grid.n)


def test_trace_check_reports_and_passes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["trace-check", "--config", cfg_path]) == 0
    text = capsys.readouterr().out
    assert "trace integral" in text
    assert "growth bound" in text
    assert "trQ" in text


# healthy but strongly modulated tension: the trace integral exceeds the
# C4 = 0 value span sigma^2 tr Q by about 14 %
STRONG = """
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 1.0
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
lambda.family = bump
lambda.c0 = 200.0
lambda.c1 = 200.0
lambda.freq = 20.0
init.family = zero
bc.kind = homogeneous
"""


def test_trace_check_bound_carries_the_growth_constant(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, STRONG)
    assert main(["trace-check", "--config", cfg_path]) == 0
    rows = dict(line.rsplit(None, 1) for line in
                capsys.readouterr().out.splitlines())
    value, bound = float(rows["trace integral"]), float(rows["growth bound"])
    trq = float(rows["trQ (retained)"])
    assert value > trq  # the C4 = 0 value
    assert value <= bound
    # T = 1, sigma = 1: the bound is exp(2 C4) trQ, with C4 at least the
    # closed form at sup c = 400 (the crest t = 1/80), not at c = 200
    assert bound / trq >= np.exp(2 * 400 * np.sqrt(8 / 105)) * (1 - 1e-9)


def test_covariance_builds_the_scene_once(tmp_path, monkeypatch, capsys):
    """One scene and one chain: on the mild route the banded chain, which
    its sweep walks, and no dense chain; on the stepped route
    (MC_COVARIANCE sampled at every step, whose weights outgrow the
    chain) the dense chain and no banded one.  No run builds both."""
    scenes, chains = [], []

    def counted(calls, build):
        return lambda *a: calls.append(build(*a)) or calls[-1]

    for owner, name, calls in ((solver, "build_scene", scenes),
                               (cli, "build_scene", scenes),
                               (solver, "build_propagator", chains)):
        monkeypatch.setattr(owner, name, counted(calls, getattr(owner, name)))
    stepped = MC_COVARIANCE.replace("run.obs_stride = 25", "run.obs_stride = 1")
    for text, chain in ((TINY, "bands"), (stepped, "P")):
        scenes.clear()
        chains.clear()
        cfg_path = _write_cfg(tmp_path, text)
        assert main(["covariance", "--config", cfg_path,
                     "--out", str(tmp_path / chain)]) == 0
        assert len(scenes) == 1
        assert len(chains) == (chain == "P")
        assert {name for name in ("P", "bands")
                if name in vars(scenes[0])} == {chain}
    capsys.readouterr()


#: the acceptance Monte Carlo config of the mc-covariance bench workload:
#: 250 steps, 11 sample times
MC_COVARIANCE = """
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
run.N = 16
run.threads = 2
run.observables = 1:3:v,2:1:v
run.obs_stride = 25
"""


def test_covariance_quadrature_is_one_backward_walk(tmp_path, monkeypatch,
                                                    capsys):
    """All sample times share one walk back from t = T: n_steps transposed
    steps, not one walk per sample time (1 375 steps here).  That walk
    also gives the ensemble its mild sum, so no path is stepped forward."""
    calls = []
    rule = propagator.step_rule

    def counted(d, dt, buf, out, transpose=False):
        calls.append(transpose)
        rule(d, dt, buf, out, transpose)

    monkeypatch.setattr(propagator, "step_rule", counted)
    cfg_path = _write_cfg(tmp_path, MC_COVARIANCE)
    assert main(["covariance", "--config", cfg_path,
                 "--out", str(tmp_path / "c")]) == 0
    assert sum(calls) == 250
    assert calls.count(False) == 0
    rows = (tmp_path / "c" / "covariance.csv").read_text().splitlines()
    assert len(rows) == 1 + 11
    capsys.readouterr()


def test_trace_check_skips_without_noise(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path,
                          TINY.replace("noise.sigma = 1.0", "noise.sigma = 0.0"))
    assert main(["trace-check", "--config", cfg_path]) == 0
    assert "skipped" in capsys.readouterr().out


@pytest.mark.parametrize("value", [2.0, float("nan")], ids=["above", "nan"])
def test_trace_check_refuses_a_violated_condition(tmp_path, monkeypatch,
                                                  capsys, value):
    """A trace integral above its bound, or one that is not finite, is
    reported on stderr and exits 1, after the figures are printed."""
    monkeypatch.setattr(cli, "trace_condition",
                        lambda P, model, constants: TraceCheck(value, 1.0))
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["trace-check", "--config", cfg_path]) == 1
    captured = capsys.readouterr()
    assert f"trace integral     {value:.12g}" in captured.out.splitlines()
    assert captured.err == "trace condition violated\n"


def test_output_directory_that_is_a_file_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    code = main(["simulate", "--config", _write_cfg(tmp_path, TINY),
                 "--out", str(taken)])
    assert code == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert taken.read_text() == "kept"


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "beam.l = 1\ntime.dt = 0.3\ntime.T = 1\n"
                                    "beam.b = 1\ngrid.n = 8\n")
    code = main(["verify", "--config", cfg_path])
    assert code == 2
    assert "dt must divide T" in capsys.readouterr().err


def test_override_validation(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    for flag, value in (("--paths", "0"), ("--seed", "-1")):
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                     flag, value]) == 2
        assert f"config error: {flag}: bad value '{value}'" in \
            capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--seed", "5" + "0" * 5000),
    ("--paths", "5" + "0" * 5000),
    ("--seed", "x" * 5000),
])
def test_long_integer_flag_is_a_short_config_error(tmp_path, capsys, flag,
                                                   value):
    """A 5001-digit or a 5000-letter value is refused by the config's
    integer rule, not echoed whole by the argument parser."""
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["verify", "--config", cfg_path, flag, value]) == 2
    err = capsys.readouterr().err
    assert len(err) < 200, len(err)
    assert err.startswith(f"config error: {flag}: bad value '{value[:20]}")


def test_verify_without_out_writes_no_manifest(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path, TINY, name="tiny.cfg")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_verify_stops_on_a_chain_that_cannot_be_built(tmp_path, capsys):
    """configs/default.cfg with a finite lambda.c0 whose tension bands
    overflow: `verify` exits 1 with the chain's error, once, before any
    check runs, and prints no table and writes no manifest."""
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    text, count = re.subn(r"^lambda\.c0 = .*$", "lambda.c0 = 1e308",
                          default.read_text(), flags=re.M)
    assert count == 1
    cfg_path = _write_cfg(tmp_path, text)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["verify", "--config", cfg_path,
                     "--out", str(tmp_path / "v")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cayley resolvent has non-finite entries\n"
    assert not (tmp_path / "v").exists()


def test_seed_beyond_u64_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                 "--seed", "18446744073709551616"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, TINY.replace(
        "noise.seed = 3", "noise.seed = 18446744073709551616"))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "noise.seed" in capsys.readouterr().err


# a short grid with mode initial data changes three lines of TINY, so its
# edit replaces the stretch from grid.n to init.family
_SHORT = TINY[TINY.index("grid.n"):TINY.index("bc.kind")]


@pytest.mark.parametrize("edit,key", [
    (("noise.K = 6", "noise.K = 9"), "noise.K"),
    (("init.family = zero", "fdet.family = tabulated\nfdet.table = "
      + ",".join(["0.0"] * 9) + "\ninit.family = zero"), "fdet.table"),
    (("lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.2",
      "lambda.family = tabulated\nlambda.table = "
      + ",".join(["0.0"] * 11)), "lambda.table"),
    (("noise.seed = 3", "noise.seed = 3\nnoise.spectrum = tabulated\n"
      "noise.table = 3,2,1"), "noise.table"),
    (("noise.seed = 3", "noise.seed = 3\nnoise.spectrum = tabulated\n"
      "noise.table = 1,2,3,4,5,6"), "noise.table"),   # increasing
    (("init.family = zero", "init.family = mode\ninit.mode = 10"),
     "init.mode"),                                    # above grid.n + 1
    (("run.observables = 1:3:v", "run.observables = 1:3:v,9:3:v"),
     "run.observables"),                              # mode above grid.n
    (("init.family = zero", "fdet.family = tabulated\nfdet.table = nan"
      + ",0" * 9 + "\ninit.family = zero"), "fdet.table"),  # not finite
    (("lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.2",
      "lambda.family = tabulated\nlambda.table = 0,inf" + ",0" * 8),
     "lambda.table"),                                 # not finite
    (("noise.K = 6", "noise.K = 2\nnoise.spectrum = tabulated\n"
      "noise.table = 1, 0"), "noise.table"),          # not positive
    ((_SHORT, _SHORT.replace("grid.n = 8", "grid.n = 4").replace(
        "noise.K = 6", "noise.K = 4").replace("init.family = zero",
                                              "init.family = mode")),
     "grid.n"),                                       # h6bc needs 7 nodes
    ((_SHORT, _SHORT.replace("grid.n = 8", "grid.n = 6").replace(
        "noise.K = 6", "noise.K = 4").replace("init.family = zero",
                                              "init.family = mode")),
     "grid.n"),                                       # d5_at_l unresolved
])
def test_cross_key_errors_exit_two_at_parse_time(tmp_path, capsys, edit, key):
    text = TINY.replace(*edit)
    assert text != TINY
    line = next(i for i, t in enumerate(text.splitlines(), start=1)
                if t.startswith(key + " ="))
    cfg_path = _write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and f"line {line}" in err
    assert not (tmp_path / "o").exists()


def test_mode_data_run_from_the_least_grid_the_parser_accepts(tmp_path):
    """grid.n = 7 is the least grid that mode initial data pass parsing
    on, and the first bending mode meets the h6bc conditions there."""
    text = TINY.replace(_SHORT, _SHORT.replace("grid.n = 8", "grid.n = 7")
                        .replace("noise.K = 6", "noise.K = 4")
                        .replace("init.family = zero", "init.family = mode"))
    cfg_path = _write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 0


def _doubles_for_g17(rng):
    """1.2 million doubles for `cli._g17`: random bit patterns (every
    exponent, subnormals, inf and nan included), random mantissas at
    decimal exponents 1e-320 to 1e308 and, more densely, 1e-7 to 1e17,
    dyadic rationals: m / 2**(17 - e) with m odd in each decade
    e = -6..15, whose 17-digit decimal is an exact tie, and k * 2**j,
    then the powers of ten 1e-8 to 1e17, the %g
    switch points 1e-5, 1e-4, 1e16 and 1e17 and the fast range's ends,
    each with its neighbours, and the special values; then, with both
    signs, doubles of each decade e = -6..15 whose 16 digits after the
    first take each of the 16 zero/nonzero patterns of their four
    groups of 4."""
    decade = 10.0 ** np.concatenate([rng.integers(-320, 309, 150_000),
                                     rng.integers(-7, 18, 450_000)])
    with np.errstate(over="ignore"):
        mantissas = rng.uniform(1.0, 10.0, decade.size) * decade
    ties = [rng.integers(max(1, int(10.0 ** e * 2 ** (17 - e))),
                         min(2 ** 53, int(10.0 ** (e + 1) * 2 ** (17 - e))),
                         10_000) // 2 * 2 + 1 for e in range(-6, 16)]
    ties = [t / 2.0 ** (17 - e) for e, t in zip(range(-6, 16), ties)]
    scaled = (rng.integers(1, 2 ** 53, 180_000).astype(float)
              * 2.0 ** rng.integers(-80, 40, 180_000))
    points = np.array([10.0 ** k for k in range(-8, 18)]
                      + [1e-6, 1e-5, 1e-4, 1e16, 1e17])
    special = [0.0, -0.0, 5e-324, np.finfo(float).max, np.inf, -np.inf,
               np.nan]
    x = np.concatenate([np.frombuffer(rng.bytes(8 * 200_000), float),
                        mantissas, *ties, scaled, points,
                        np.nextafter(points, 0), np.nextafter(points, np.inf),
                        special])
    flip = rng.integers(0, 2, x.size, dtype=np.uint64) << np.uint64(63)
    groups = _doubles_by_group_pattern(rng)
    return np.concatenate([(x.view(np.uint64) ^ flip).view(float),
                           groups, -groups])


def _doubles_by_group_pattern(rng):
    """Doubles of each decade e = -6..15 whose '%.17g' digits after the
    first take each zero/nonzero pattern of their four groups of 4: the
    doubles nearest 40 random 17-digit decimals of each pattern (all nine
    d * 10**e for the all-zero one), kept where they print as that
    decimal.  Every (e, pattern) is covered except the all-zero one at
    e = -6 and -5, which no double has."""
    picked, missing = [], []
    for e in range(-6, 16):
        for pattern in range(16):
            nonzero = [(pattern >> (3 - i)) & 1 for i in range(4)]
            lead = rng.integers(1, 10, 40) if pattern else np.arange(1, 10)
            digits = (lead.astype(object) * 10 ** 16
                      + rng.integers(1, 10000, (lead.size, 4)) * nonzero
                      @ 10 ** np.arange(12, -1, -4))
            same = [v for v, d in zip((float(f"{d}e{e - 16}")
                                       for d in digits), map(str, digits))
                    if "%.16e" % v == f"{d[0]}.{d[1:]}e{e:+03d}"]
            picked += same
            missing += [] if same else [(e, pattern)]
    assert missing == [(-6, 0), (-5, 0)], missing
    return np.array(picked)


def test_value_text_equals_percent_17g():
    """`cli._g17` writes '%.17g' % x byte for byte, in and out of the
    range whose digits it computes itself."""
    x = _doubles_for_g17(np.random.default_rng(29))
    assert x.size >= 10 ** 6
    text = np.concatenate([cli._g17(part) for part in np.array_split(x, 32)])
    got = np.concatenate([text, np.full((x.size, 1), ord("\n"), np.uint8)],
                         axis=1).tobytes().translate(None, b"\0")
    want = ("%.17g\n" * x.size % tuple(x.tolist())).encode()
    if got != want:
        pairs = zip(x.tolist(), got.split(b"\n"), want.split(b"\n"))
        bad = [(v, g, w) for v, g, w in pairs if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:5]}")


def _oracle_csvs(cfg):
    """trajectory.csv and observables.csv text built value by value with
    format(x, '.17g') from the kept histories of `ensemble_blocks`."""
    sc = build_scene(cfg)

    def fmt(x):
        return format(float(x), ".17g")

    times = cfg.dt * np.arange(cfg.n_steps + 1)
    nodes = sc.grid.nodes
    traj_lines = ["path,t,s,channel,u,v"]
    obs_lines = ["path,t,observable_id,value"]
    for p0, p1, vals, history in ensemble_blocks(sc, keep_history=True):
        for i, p in enumerate(range(p0, p1)):
            for k in range(1, len(times)):
                st = BeamState.from_packed(sc.grid, history[k, ..., i])
                if sc.shift is not None:
                    st = BeamState(sc.grid, st.u + sc.shift, st.v)
                for j in range(len(nodes)):
                    for c in range(3):
                        traj_lines.append(
                            f"{p},{fmt(times[k])},{fmt(nodes[j])},{c + 1},"
                            f"{fmt(st.u[j, c])},{fmt(st.v[j, c])}")
            for ti, t in enumerate(cfg.dt * sc.obs_steps):
                for oi, oid in enumerate(cfg.observables):
                    obs_lines.append(f"{p},{fmt(t)},{oid},"
                                     f"{fmt(vals[oi, ti, i])}")
    return "\n".join(traj_lines) + "\n", "\n".join(obs_lines) + "\n"


def _two_block_text(kind, threads):
    # 300 paths: one full block of 256 and a partial one; the
    # nonhomogeneous run adds the lift to u and its pairing to observables
    return (TINY.replace("bc.kind = homogeneous", f"bc.kind = {kind}")
            .replace("run.N = 2", f"run.N = 300\nrun.threads = {threads}")
            .replace("run.observables = 1:3:v",
                     "run.observables = 1:3:v,2:3:u"))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("kind", ["homogeneous", "nonhomogeneous"])
def test_simulate_matches_per_value_writer(tmp_path, kind, threads):
    text = _two_block_text(kind, threads)
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    traj_text, obs_text = _oracle_csvs(parse_config(text))
    assert (out / "trajectory.csv").read_bytes() == traj_text.encode()
    assert (out / "observables.csv").read_bytes() == obs_text.encode()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "observables.csv", "trajectory.csv"]


def test_simulate_matches_per_value_writer_off_unit_length(tmp_path):
    """At l = 0.7 the nonhomogeneous lift (s - l) e3 differs from the unit
    length's, and it is exactly zero at the last node, s = l, whose rows
    the template writes as a literal u, v = 0, 0."""
    text = _two_block_text("nonhomogeneous", 1).replace("beam.l = 1.0",
                                                        "beam.l = 0.7")
    cfg = parse_config(text)
    sc = build_scene(cfg)
    assert cfg.l == 0.7 and sc.grid.nodes[-1] == cfg.l
    assert np.all(sc.shift[-1] == 0.0) and sc.shift[0, 2] == -cfg.l
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    traj_text, obs_text = _oracle_csvs(cfg)
    assert (out / "trajectory.csv").read_bytes() == traj_text.encode()
    assert (out / "observables.csv").read_bytes() == obs_text.encode()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("kind", ["homogeneous", "nonhomogeneous"])
def test_simulate_slices_match_per_value_writer(tmp_path, monkeypatch,
                                                kind, threads):
    """The CSVs do not depend on how the blocks are cut into slices of
    whole paths.  A path has 4 * 10 * 3 = 120 trajectory rows and
    3 * 2 = 6 observable rows."""
    text = _two_block_text(kind, threads)
    cfg_path = _write_cfg(tmp_path, text)
    traj_text, obs_text = _oracle_csvs(parse_config(text))
    real, cut = cli._slices, {}

    def slices(p0, p1, rows):
        ranges = list(real(p0, p1, rows))
        cut.setdefault(rows, []).extend(ranges)
        return ranges

    monkeypatch.setattr(cli, "_slices", slices)
    # 600 rows: 5 trajectory paths a slice, so block 0 ends in a slice of
    # 1 and block 1 in one of 4; 100 observable paths a slice, so the
    # blocks end in slices of 56 and 44.  5 rows: less than one path of
    # either file, so every slice holds one path.
    for budget, widths in ((600, {120: {5, 1, 4}, 6: {100, 56, 44}}),
                           (5, {120: {1}, 6: {1}})):
        monkeypatch.setattr(cli, "ROWS", budget)
        cut.clear()
        out = tmp_path / f"out{budget}"
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == traj_text.encode()
        assert (out / "observables.csv").read_bytes() == obs_text.encode()
        assert set(cut) == {120, 6}
        for rows, ranges in cut.items():
            starts = [a for a, _ in ranges]
            assert starts == [0] + [b for _, b in ranges[:-1]]
            assert 256 in starts and ranges[-1][1] == 300
            assert {b - a for a, b in ranges} == widths[rows]


class _StaleEmpty(types.ModuleType):
    """numpy, but `empty` fills its arrays with the byte 'Z' (0x5a), which
    no CSV holds: a byte that no step writes shows in the output."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        a = np.empty(shape, dtype)
        a.view(np.uint8)[...] = ord("Z")
        return a


@pytest.mark.parametrize("empty", ["fresh", "stale"])
def test_simulate_matches_per_value_writer_across_path_widths(
        tmp_path, monkeypatch, empty):
    """1001 paths of one step: the slice of block 3 from path 904 holds
    paths 999 and 1000, whose path fields of 3 and 4 digits share one
    NUL-padded width, and so does the one observables slice of that
    block.  With 'stale', every array that `cli` takes from `np.empty`
    starts filled with a non-NUL byte, so the CSVs show any element
    that no step writes."""
    text = (TINY.replace("time.T = 0.02", "time.T = 0.005")
            .replace("run.N = 2", "run.N = 1001"))
    assert solver.BLOCK_PATHS == 256
    assert (904, 1001) in cli._slices(768, 1001, 30)
    if empty == "stale":
        monkeypatch.setattr(cli, "np", _StaleEmpty("numpy"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    traj_text, obs_text = _oracle_csvs(parse_config(text))
    assert "\n999,0.0050000000000000001,0," in traj_text
    assert "\n1000,0.0050000000000000001,0," in traj_text
    assert (out / "trajectory.csv").read_bytes() == traj_text.encode()
    assert (out / "observables.csv").read_bytes() == obs_text.encode()


def _simulate_peaks(tmp_path, cfg_path, sizes):
    """tracemalloc peak of one `simulate` run at each path count."""
    peaks = []
    for n in sizes:
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg_path,
                         "--out", str(tmp_path / f"o{n}"),
                         "--paths", str(n)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_memory_does_not_grow_with_paths(tmp_path, threads):
    # both sizes fill the pipeline: 2 * threads blocks in flight and one
    # being written, which at two threads outweighs two slices of text
    cfg_path = _write_cfg(tmp_path, TINY + f"run.threads = {threads}\n")
    n = (2 * threads + 1) * solver.BLOCK_PATHS
    peaks = _simulate_peaks(tmp_path, cfg_path, (n, 2 * n))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_simulate_holds_one_block_and_a_slice_of_text(tmp_path):
    """At the simulate-csv bench sizes (n = 8, 20 steps, K = 6) the
    traced peak stays within a small multiple of one block's history
    (2.21 MiB), and does not grow from one block to two: the text is held
    as one slice being formatted and one being written, a finished block
    is released before the next one is stepped, and no block stores its
    Wiener increments."""
    text = (TINY.replace("time.T = 0.02", "time.T = 0.05")
            .replace("time.dt = 0.005", "time.dt = 0.0025")
            .replace("run.observables = 1:3:v",
                     "run.observables = 1:3:v,2:1:v")
            .replace("run.obs_stride = 2", "run.obs_stride = 5"))
    cfg_path = _write_cfg(tmp_path, text)
    cfg = parse_config(text)
    m = build_scene(cfg).grid.n_free
    block = 8 * solver.BLOCK_PATHS * 3 * m * 2 * (cfg.n_steps + 1)  # history
    peaks = _simulate_peaks(tmp_path, cfg_path, (256, 512))
    assert peaks[0] < 3 * block, (peaks, block)
    assert peaks[1] < 1.1 * peaks[0], peaks


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_simulate_keeps_earlier_output(tmp_path, monkeypatch, capsys,
                                              threads):
    # at two workers the patched `_block_worker` is the one the forked
    # workers inherit, and its error comes back at block 1's turn
    text = TINY.replace("run.N = 2", f"run.N = 300\nrun.threads = {threads}")
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    alive = threading.active_count()
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert threading.active_count() == alive
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real = solver._block_worker

    def fail_second_block(scene, p0, p1, keep_history):
        if p0 > 0:
            raise BlowupError(f"path {p0} became non-finite")
        return real(scene, p0, p1, keep_history)

    monkeypatch.setattr(solver, "_block_worker", fail_second_block)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert threading.active_count() == alive
    assert "path 256 became non-finite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("call", ["update", "write"])
def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, capsys,
                                           call, threads):
    """A hash update or a file write that raises OSError on the writer
    thread, at its third call (the first trajectory slice, after both
    header lines), ends `simulate` with exit 2: no '.part' file is left,
    the earlier output stays, and every thread of the run has ended (the
    conftest fixture checks that the block workers have too)."""
    text = TINY.replace("run.N = 2", f"run.N = 300\nrun.threads = {threads}")
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    alive = threading.active_count()
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert threading.active_count() == alive
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = []

    class FailsThird:
        """`inner`, whose third `call` of all raises OSError."""

        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            if name != call:
                return getattr(self.inner, name)

            def counted(data):
                calls.append(len(data))
                if len(calls) == 3:
                    raise OSError(28, "No space left on device")
                return getattr(self.inner, name)(data)
            return counted

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.inner.__exit__(*exc)

    if call == "update":
        sha256 = cli.hashlib.sha256
        monkeypatch.setattr(cli, "hashlib", types.SimpleNamespace(
            sha256=lambda: FailsThird(sha256())))
    else:
        monkeypatch.setattr(cli, "open", lambda path, mode:
                            FailsThird(open(path, mode)), raising=False)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert threading.active_count() == alive
    assert len(calls) == 3
    assert "i/o error: [Errno 28] No space left on device" in \
        capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_only_stepping_builds_the_initial_state(tmp_path, capsys):
    """A rough initial mode fails `simulate`, which steps paths from it,
    as a config error naming `init.mode`, and not `verify`, none of whose
    checks reads the configured initial state: the scene builds that
    state only when a stepper asks."""
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    text = default.read_text().replace("init.family = zero",
                                       "init.family = mode\ninit.mode = 5")
    cfg_path = _write_cfg(tmp_path, text)
    assert main(["verify", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "19 passed, 0 failed, 0 skipped"
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "initial displacement fails discrete h6bc membership" in err
    assert "key 'init.mode'" in err


@pytest.mark.parametrize("edit", ["beam.l = 1e-300", "beam.l = 1e300",
                                  "beam.l = 1e-100", "beam.b = 1e200",
                                  "beam.b = 1e-300", "noise.sigma = 1e300",
                                  "noise.sigma = 1e-300"])
def test_a_value_whose_power_leaves_the_doubles_is_a_config_error(
        tmp_path, capsys, edit):
    """configs/default.cfg with one key set where its power in the run
    (l**4, b**2, sigma**2) leaves the normal doubles: every command exits
    2 naming the key and its line, before any ZeroDivisionError or
    OverflowError of the run (or, at l = 1e-100, a non-finite
    resolvent)."""
    key = edit.split(" =")[0]
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    text, count = re.subn(rf"^{re.escape(key)} = .*$", edit,
                          default.read_text(), flags=re.M)
    assert count == 1
    line = text.splitlines().index(edit) + 1
    cfg_path = _write_cfg(tmp_path, text)
    for command in ("simulate", "covariance", "verify", "trace-check"):
        assert main([command, "--config", cfg_path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and f"line {line}" in err
        assert "normal double" in err
    assert not (tmp_path / "o").exists()


def test_a_beam_too_short_for_its_bending_modes_exits_one(tmp_path, capsys):
    """configs/default.cfg at beam.l = 2e-77 parses, but the bending
    modes' eigenvalues (about b/h^4) leave the doubles and their
    eigensolver fails: `verify` reports the checks that need them as FAIL,
    and `simulate` from a bending mode prints one `error:` line naming
    the grid spacing and beam.l; both exit 1, with no traceback."""
    default = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    text, count = re.subn(r"^beam\.l = .*$", "beam.l = 2e-77",
                          default.read_text(), flags=re.M)
    assert count == 1
    with np.errstate(all="ignore"):
        assert main(["verify", "--config", _write_cfg(tmp_path, text)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL generator_integral .*bending modes of \(B, M\) "
                     r"failed at grid spacing h = 1\.18e-78 \(beam\.l = "
                     r"2e-77\)", out, flags=re.M)
    mode = _write_cfg(tmp_path, text.replace("init.family = zero",
                                             "init.family = mode"))
    assert main(["simulate", "--config", mode,
                 "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bending modes of (B, M) failed at grid "
                          "spacing h = 1.18e-78 (beam.l = 2e-77)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("n, mode", [(8, 2), (16, 3)])
def test_a_mode_too_rough_for_the_grid_is_a_config_error(tmp_path, capsys,
                                                         n, mode):
    """A bending mode that parses (mode <= grid.n + 1, grid.n >= 7) but
    fails the h6bc stencils on its grid exits 2 naming `init.mode`, in
    both commands that step from it; one mode lower runs."""
    text = TINY.replace("grid.n = 8", f"grid.n = {n}").replace(
        "init.family = zero", f"init.family = mode\ninit.mode = {mode}")
    for command in ("simulate", "covariance"):
        assert main([command, "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "key 'init.mode'" in err
    lower = text.replace(f"init.mode = {mode}", f"init.mode = {mode - 1}")
    assert main(["simulate", "--config", _write_cfg(tmp_path, lower),
                 "--out", str(tmp_path / "lower")]) == 0


#: threading.active_count() at each fork of this process, while a test
#: sets it to a list
_fork_threads = None
#: the scenes a test has built; at each fork, while a test sets it to a
#: list, whether the newest of them holds its dense chain
_scenes = []
_fork_chains = None


def _note_fork():
    if _fork_threads is not None:
        _fork_threads.append(threading.active_count())
    if _fork_chains is not None:
        _fork_chains.append("P" in vars(_scenes[-1]))


os.register_at_fork(before=_note_fork)


def test_block_workers_fork_before_any_thread(tmp_path, monkeypatch):
    """`simulate` and `covariance` at two workers fork both workers while
    the calling thread is the only one: `simulate`'s writer thread starts
    after them."""
    global _fork_threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg_path = _write_cfg(tmp_path, TINY.replace(
        "run.N = 2", "run.N = 600\nrun.threads = 2"))
    _fork_threads = []
    try:
        for command in ("simulate", "covariance"):
            assert main([command, "--config", cfg_path,
                         "--out", str(tmp_path / command)]) == 0
        assert _fork_threads == [1, 1, 1, 1]
    finally:
        _fork_threads = None


def test_stepped_blocks_fork_with_the_dense_chain_built(tmp_path,
                                                        monkeypatch):
    """At two workers the parent builds the dense chain before it forks
    where the blocks are stepped, so the workers share it: `simulate`,
    and `covariance` where its weights outgrow the one factor of an
    autonomous tension (1 x 5 x 6 > 81 per step at obs_stride 1).  A
    `covariance` run on the mild route forks without it."""
    global _fork_chains
    text = TINY.replace("run.N = 2", "run.N = 600\nrun.threads = 2")
    stepped = text.replace("lambda.family = bump", "lambda.family = zero") \
        .replace("run.obs_stride = 2", "run.obs_stride = 1")
    assert build_scene(parse_config(text)).mild is not None
    assert build_scene(parse_config(stepped)).mild is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    build = solver.build_scene
    monkeypatch.setattr(solver, "build_scene",
                        lambda cfg: _scenes.append(build(cfg)) or _scenes[-1])
    monkeypatch.setattr(cli, "build_scene", solver.build_scene)
    _fork_chains = []
    try:
        for command, cfg_text, built in (("simulate", text, True),
                                         ("covariance", stepped, True),
                                         ("covariance", text, False)):
            _fork_chains.clear()
            assert main([command, "--config", _write_cfg(tmp_path, cfg_text),
                         "--out", str(tmp_path / command)]) == 0
            assert _fork_chains == [built, built]
    finally:
        _fork_chains = None
        _scenes.clear()
