"""Command-line entry points and output file contracts."""

import json
import hashlib
import tracemalloc

import numpy as np
import pytest

from stobeam import solver
from stobeam.cli import main
from stobeam.config import parse_config
from stobeam.errors import BlowupError
from stobeam.solver import build_scene, ensemble_run
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
    for row in lines[1:]:
        t, mc, quad, se = (float(v) for v in row.split(","))
        if t == 0.0:
            assert quad == 0.0
            continue
        closed = free_variance_closed_form(sc, h, t, cfg.dt)
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
    code = main(["covariance", "--config", cfg_path, "--out", str(tmp_path),
                 "--observable", "1:9:v"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_trace_check_reports_and_passes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["trace-check", "--config", cfg_path]) == 0
    text = capsys.readouterr().out
    assert "trace integral" in text
    assert "growth bound" in text
    assert "trQ" in text


def test_trace_check_skips_without_noise(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path,
                          TINY.replace("noise.sigma = 1.0", "noise.sigma = 0.0"))
    assert main(["trace-check", "--config", cfg_path]) == 0
    assert "skipped" in capsys.readouterr().out


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
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                 "--paths", "0"]) == 2
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                 "--seed", "-1"]) == 2
    capsys.readouterr()


def test_verify_without_out_writes_no_manifest(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path, TINY, name="tiny.cfg")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]


def test_seed_beyond_u64_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, TINY)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path),
                 "--seed", "18446744073709551616"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg_path = _write_cfg(tmp_path, TINY.replace(
        "noise.seed = 3", "noise.seed = 18446744073709551616"))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "noise.seed" in capsys.readouterr().err


@pytest.mark.parametrize("edit,key", [
    (("noise.K = 6", "noise.K = 9"), "noise.K"),
    (("init.family = zero", "fdet.family = tabulated\nfdet.table = "
      + ",".join(["0.0"] * 9) + "\ninit.family = zero"), "fdet.table"),
    (("lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.2",
      "lambda.family = tabulated\nlambda.table = "
      + ",".join(["0.0"] * 11)), "lambda.table"),
    (("noise.seed = 3", "noise.seed = 3\nnoise.spectrum = tabulated\n"
      "noise.table = 3,2,1"), "noise.table"),
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


def _oracle_csvs(cfg):
    """trajectory.csv and observables.csv text built value by value with
    format(x, '.17g') from the kept trajectories of `ensemble_run`."""
    stats = ensemble_run(cfg, keep_paths=True)

    def fmt(x):
        return format(float(x), ".17g")

    nodes = stats.trajectories[0].g.grid.nodes
    lines = ["path,t,s,channel,u,v"]
    for traj in stats.trajectories:
        for k in range(1, len(traj.times)):
            st = traj.states[k]
            for i in range(len(nodes)):
                for c in range(3):
                    lines.append(
                        f"{traj.path_index},{fmt(traj.times[k])},"
                        f"{fmt(nodes[i])},{c + 1},"
                        f"{fmt(st.u[i, c])},{fmt(st.v[i, c])}")
    traj_text = "\n".join(lines) + "\n"
    lines = ["path,t,observable_id,value"]
    for p in range(cfg.n_paths):
        for ti, t in enumerate(stats.times):
            for oi, oid in enumerate(stats.observable_ids):
                lines.append(f"{p},{fmt(t)},{oid},"
                             f"{fmt(stats.values[oi, ti, p])}")
    return traj_text, "\n".join(lines) + "\n"


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("kind", ["homogeneous", "nonhomogeneous"])
def test_simulate_matches_per_value_writer(tmp_path, kind, threads):
    # 300 paths: one full block of 256 and a partial one; the
    # nonhomogeneous run adds the lift to u and its pairing to observables
    text = (TINY.replace("bc.kind = homogeneous", f"bc.kind = {kind}")
            .replace("run.N = 2", f"run.N = 300\nrun.threads = {threads}")
            .replace("run.observables = 1:3:v",
                     "run.observables = 1:3:v,2:3:u"))
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    traj_text, obs_text = _oracle_csvs(parse_config(text))
    assert (out / "trajectory.csv").read_bytes() == traj_text.encode()
    assert (out / "observables.csv").read_bytes() == obs_text.encode()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "observables.csv", "trajectory.csv"]


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_memory_does_not_grow_with_paths(tmp_path, threads):
    cfg_path = _write_cfg(tmp_path, TINY + f"run.threads = {threads}\n")
    peaks = []
    for n in (256, 1024):
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg_path,
                         "--out", str(tmp_path / f"o{n}"),
                         "--paths", str(n)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_failed_simulate_keeps_earlier_output(tmp_path, monkeypatch, capsys):
    text = TINY.replace("run.N = 2", "run.N = 300")
    cfg_path = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real = solver._block_worker

    def fail_second_block(scene, forces, x0p, p0, p1, *args):
        if p0 > 0:
            raise BlowupError(f"path {p0} became non-finite")
        return real(scene, forces, x0p, p0, p1, *args)

    monkeypatch.setattr(solver, "_block_worker", fail_second_block)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
    assert "path 256 became non-finite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
