"""Mild-solution stepping, single paths, and the path ensemble."""

import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest

from stobeam.config import parse_config
from stobeam.errors import (BlowupError, InvalidArgumentError,
                            PreconditionError, ShapeError)
from stobeam.grid import (BeamState, bc_value_defect, build_grid, h_inner,
                         h_norm, packed_h_norm)
from stobeam import solver
from stobeam.noise import sample_increments
from stobeam.solver import (_block_worker, bending_mode_state, build_forces,
                            build_scene, ensemble_blocks, ensemble_run,
                            initial_state, mild_step, plan_ensemble,
                            sine_mode_state, solve_homogeneous,
                            solve_nonhomogeneous, tractive_from_config,
                            weak_residual)

FREE = """
beam.l = 1.0
beam.b = 1.0
beam.g = 0.0
grid.n = 16
time.T = 0.1
time.dt = 0.001
noise.sigma = 0.0
lambda.family = zero
init.family = mode
init.mode = 1
bc.kind = homogeneous
"""

LOADED = """
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.05
time.dt = 0.001
noise.sigma = 0.0
lambda.family = zero
init.family = zero
bc.kind = homogeneous
"""

STOCH = """
beam.l = 1.0
beam.b = 1.0
grid.n = 8
time.T = 0.05
time.dt = 0.0025
noise.sigma = 1.0
noise.K = 6
noise.seed = 11
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.observables = 1:3:v,2:1:v
run.obs_stride = 5
"""

# 4 steps on n = 8, K = 6: per-block work is small next to what an
# ensemble would keep per block
SHORT = """
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
run.observables = 1:3:v
run.obs_stride = 2
"""


def test_tractive_from_config_families():
    assert tractive_from_config(parse_config(LOADED)).family == "zero"
    cfg = parse_config(STOCH)
    lam = tractive_from_config(cfg)
    assert lam.family == "bump"
    assert lam.c0 == 1.0 and lam.c1 == 0.3
    assert lam.horizon == cfg.T


def test_build_scene_wiring():
    cfg = parse_config(STOCH)
    sc = build_scene(cfg)
    assert sc.grid.n == 8
    assert sc.P.n_steps == cfg.n_steps
    assert sc.model is not None and sc.model.K == 6
    assert sc.shift is None
    det = build_scene(parse_config(LOADED))
    assert det.model is None


def test_forces_default_to_gravity():
    cfg = parse_config(LOADED)
    sc = build_scene(cfg)
    forces = build_forces(sc)
    m = sc.g.m
    assert forces.shape == (cfg.n_steps + 1, 2 * m, 3)
    # velocity rows carry -g in the third channel, nothing else
    assert np.all(forces[:, :m, :] == 0.0)
    assert np.all(forces[:, m:, 2] == -9.81)
    assert np.all(forces[:, m:, :2] == 0.0)


def test_forces_from_expression():
    cfg = parse_config(LOADED + "fdet.family = expression\n"
                                "fdet.expr1 = s*(1-s)\n"
                                "fdet.expr3 = t\n")
    sc = build_scene(cfg)
    forces = build_forces(sc)
    m = sc.g.m
    s = sc.grid.nodes[:m]
    k = 13
    t = k * cfg.dt
    assert np.allclose(forces[k, m:, 0], s * (1.0 - s))
    assert np.allclose(forces[k, m:, 2], t - 9.81)


def test_sine_mode_state_shapes(grid16):
    h = sine_mode_state(grid16, 2, 1, "u")
    assert h.u[-1, 0] == 0.0
    assert np.all(h.v == 0.0)
    assert np.all(h.u[:, 1:] == 0.0)
    with pytest.raises(InvalidArgumentError):
        sine_mode_state(grid16, 0, 1, "u")
    with pytest.raises(InvalidArgumentError):
        sine_mode_state(grid16, 17, 1, "u")
    with pytest.raises(InvalidArgumentError):
        sine_mode_state(grid16, 1, 4, "u")
    with pytest.raises(InvalidArgumentError):
        sine_mode_state(grid16, 1, 1, "w")


def test_bending_mode_state_normalized(g16):
    x = bending_mode_state(g16, 1)
    assert x.u[0, 2] > 0.0  # deterministic sign at the free end
    q = x.u[:g16.m, 2]
    assert float(q @ (g16.M * q)) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(InvalidArgumentError):
        bending_mode_state(g16, 0)
    with pytest.raises(InvalidArgumentError):
        bending_mode_state(g16, g16.m + 1)


def test_initial_state_families(g16):
    cfg = parse_config(FREE)
    x = initial_state(cfg, g16)
    assert h_norm(x, g16) > 0
    zero = initial_state(parse_config(LOADED), g16)
    assert h_norm(zero, g16) == 0.0


def test_mild_step_is_the_documented_update(g16, grid16):
    cfg = parse_config(STOCH.replace("grid.n = 8", "grid.n = 16"))
    sc = build_scene(cfg)
    rng = np.random.default_rng(20)
    x = BeamState.from_packed(grid16, rng.standard_normal((2 * g16.m, 3)))
    f = BeamState.from_packed(grid16, rng.standard_normal((2 * g16.m, 3)))
    dw = rng.standard_normal((grid16.n + 2, 3))
    out = mild_step(sc.P.steps[0], x, f, cfg.dt, dw, cfg.sigma, sc.bc)
    y = sc.P.steps[0] @ (x.packed() + cfg.dt * f.packed())
    ref = BeamState.from_packed(grid16, y)
    ref.v += cfg.sigma * dw
    assert np.array_equal(out.u[:-1], ref.u[:-1])
    assert np.array_equal(out.v[:-1], ref.v[:-1])
    assert bc_value_defect(out, sc.bc) == 0.0


def test_mild_step_flags_blowup(g16, grid16):
    cfg = parse_config(LOADED)
    sc = build_scene(cfg)
    x = BeamState.zero(grid16)
    huge = np.full((grid16.n + 2, 3), 1e308)
    huge[-1] = 0.0
    f = BeamState(grid16, huge, huge.copy())
    step = np.full_like(sc.P.steps[0], 1e6)
    with np.errstate(over="ignore"), pytest.raises(BlowupError):
        mild_step(step, x, f, cfg.dt, None, 0.0, sc.bc)


def test_kernel_blowup_names_path_step_and_last_norm():
    cfg = parse_config(LOADED)
    sc = build_scene(cfg)
    forces = build_forces(sc)
    # step 1 lands near 1e158, beyond a plain squared norm; step 2 overflows
    last = 1e160 * packed_h_norm(sc.P.steps[0] @ (cfg.dt * forces[0]), sc.g)
    big = [1e160 * s for s in sc.P.steps]
    sc = dataclasses.replace(sc, P=dataclasses.replace(sc.P, steps=big))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BlowupError) as err:
        _block_worker(sc, forces, np.zeros((2 * sc.g.m, 3)), 5, 8,
                      keep_paths=False)
    msg = str(err.value)
    assert msg.startswith("path 5 became non-finite at step 2;")
    norm = re.search(r"last finite H-norm (\S+) at step 1;", msg)
    assert float(norm.group(1)) == pytest.approx(last, rel=1e-6)


def test_energy_conserved_without_forcing():
    cfg = parse_config(FREE)
    traj = solve_homogeneous(cfg)
    g = traj.g
    base = h_norm(traj.states[0], g)
    drift = max(abs(h_norm(x, g) - base) for x in traj.states) / base
    assert drift < 1e-10
    assert traj.increments is None
    assert traj.sigma == 0.0
    assert len(traj.states) == cfg.n_steps + 1
    assert traj.times[-1] == pytest.approx(cfg.T)


def test_solver_rejects_mismatched_bc_kind():
    flipped = LOADED.replace("bc.kind = homogeneous",
                             "bc.kind = nonhomogeneous")
    with pytest.raises(PreconditionError):
        solve_homogeneous(parse_config(flipped))
    with pytest.raises(PreconditionError):
        solve_nonhomogeneous(parse_config(LOADED))


def test_solver_rejects_rough_initial_mode():
    # high bending modes fail the free-end stencil checks on a coarse grid
    cfg = parse_config(FREE.replace("init.mode = 1", "init.mode = 5"))
    with pytest.raises(PreconditionError):
        solve_homogeneous(cfg)


def test_weak_identity_exact_for_velocity_test_functions():
    """With an autonomous generator the one-step map satisfies the
    trapezoid form of the weak identity exactly, so pairing against a
    velocity-only test function leaves pure roundoff."""
    cfg = parse_config(LOADED)
    traj = solve_homogeneous(cfg)
    sc = build_scene(cfg)
    h = sine_mode_state(sc.grid, 1, 3, "v")
    r = weak_residual(traj, h, sc.lam)
    assert r.max_value < 1e-12


def test_weak_residual_guards():
    cfg = parse_config(LOADED)
    traj = solve_homogeneous(cfg)
    sc = build_scene(cfg)
    other = build_grid(1.0, 8)
    with pytest.raises(ShapeError):
        weak_residual(traj, sine_mode_state(other, 1, 3, "v"), sc.lam)
    # displacement parts must satisfy the free-end stencils; a raw sine
    # does not (its third derivative survives at s = 0)
    with pytest.raises(PreconditionError):
        weak_residual(traj, sine_mode_state(sc.grid, 1, 3, "u"), sc.lam)
    ncfg = parse_config(LOADED.replace("bc.kind = homogeneous",
                                       "bc.kind = nonhomogeneous"))
    ntraj = solve_nonhomogeneous(ncfg)
    with pytest.raises(PreconditionError):
        weak_residual(ntraj, sine_mode_state(sc.grid, 1, 3, "v"), sc.lam)


def test_stochastic_path_carries_increments():
    cfg = parse_config(STOCH)
    traj = solve_homogeneous(cfg, path_index=4)
    assert traj.increments is not None
    assert traj.increments.path_index == 4
    assert traj.sigma == 1.0
    # the stochastic weak residual is small but not zero at finite dt
    sc = build_scene(cfg)
    h = sine_mode_state(sc.grid, 1, 3, "v")
    r = weak_residual(traj, h, sc.lam)
    assert 0.0 < r.max_value < 0.1


def test_ensemble_matches_single_path_solver():
    cfg = parse_config(STOCH)  # run.N defaults to 1
    stats = ensemble_run(cfg, keep_paths=True)
    ref = solve_homogeneous(cfg, 0)
    got = stats.trajectories[0]
    # N = 1: both sides are the same width-one block, so bitwise equal
    assert len(ref.states) == len(got.states)
    assert all(np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
               for a, b in zip(ref.states, got.states))
    assert np.array_equal(ref.increments.increments, got.increments.increments)
    assert np.array_equal(ref.increments.xi, got.increments.xi)


def test_nonhomogeneous_path_matches_ensemble_bitwise():
    cfg = parse_config(STOCH.replace("bc.kind = homogeneous",
                                     "bc.kind = nonhomogeneous"))
    got = ensemble_run(cfg, keep_paths=True).trajectories[0]
    ref = solve_nonhomogeneous(cfg, 0)
    assert ref.shift is not None
    for a_list, b_list in ((ref.states, got.states),
                           (ref.homogeneous_states, got.homogeneous_states)):
        assert len(a_list) == cfg.n_steps + 1 == len(b_list)
        assert all(np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
                   for a, b in zip(a_list, b_list))
    assert np.array_equal(ref.increments.increments, got.increments.increments)


def test_sampled_increments_are_the_kernel_kicks():
    """The kernel's velocity kick for a path inside a wide block equals
    sigma times that path's sampled increments, bit for bit."""
    cfg = parse_config(STOCH.replace("lambda.family = bump",
                                     "lambda.family = zero")
                       .replace("noise.sigma = 1.0", "noise.sigma = 0.5"))
    sc = build_scene(cfg)
    zero = [np.zeros_like(s) for s in sc.P.steps]
    sc = dataclasses.replace(sc, P=dataclasses.replace(sc.P, steps=zero))
    forces = np.zeros_like(build_forces(sc))
    x0p = np.zeros((2 * sc.g.m, 3))
    _, history, _ = _block_worker(sc, forces, x0p, 0, 5, keep_paths=True)
    m = sc.g.m
    for p in (0, 3):
        inc = sample_increments(sc.model, cfg.dt, cfg.n_steps, p)
        # with zero step maps each state is exactly the last kick
        kicks = history[1:, m:, :, p]
        assert np.array_equal(kicks, cfg.sigma * inc.increments[:, :m])


def test_ensemble_moments_match_stored_values():
    cfg = parse_config(STOCH + "run.N = 40\n")
    stats = ensemble_run(cfg)
    assert stats.count == 40
    assert stats.values.shape == (2, len(stats.times), 40)
    mean = stats.values.mean(axis=2)
    m2 = ((stats.values - mean[:, :, None]) ** 2).sum(axis=2)
    assert np.max(np.abs(stats.mean - mean)) < 1e-14
    assert np.max(np.abs(stats.m2 - m2)) < 1e-12 * max(1.0, np.max(m2))
    assert stats.variance_defined
    assert np.allclose(stats.variance, m2 / 39, atol=1e-15)
    assert np.all(stats.stderr_mean >= 0.0)


def test_ensemble_thread_count_does_not_change_results():
    base = parse_config(STOCH + "run.N = 600\n")
    threaded = parse_config(STOCH + "run.N = 600\nrun.threads = 4\n")
    s1 = ensemble_run(base)
    s4 = ensemble_run(threaded)
    assert np.array_equal(s1.mean, s4.mean)
    assert np.array_equal(s1.m2, s4.m2)
    assert np.array_equal(s1.values, s4.values)


def test_ensemble_observable_times_include_endpoint():
    # 20 steps, stride 3: 0, 3, ..., 18 plus the forced endpoint
    cfg = parse_config(STOCH.replace("run.obs_stride = 5",
                                     "run.obs_stride = 3"))
    stats = ensemble_run(cfg)
    assert stats.times[0] == 0.0
    assert stats.times[-1] == pytest.approx(0.05)
    assert stats.observable_ids == ("1:3:v", "2:1:v")


def test_ensemble_single_path_has_undefined_variance():
    stats = ensemble_run(parse_config(STOCH))
    assert stats.count == 1
    assert not stats.variance_defined
    assert np.all(stats.variance == 0.0)


def test_nonhomogeneous_ensemble_reports_lifted_observable():
    cfg = parse_config(LOADED
                       .replace("bc.kind = homogeneous",
                                "bc.kind = nonhomogeneous")
                       .replace("lambda.family = zero",
                                "lambda.family = bump\nlambda.c0 = 1.0"))
    sc = build_scene(cfg)
    stats = ensemble_run(cfg, observables=["1:3:u"])
    traj = solve_nonhomogeneous(cfg)
    h = sine_mode_state(sc.grid, 1, 3, "u")
    want = h_inner(traj.states[-1], h, sc.g)
    assert stats.values[0, -1, 0] == pytest.approx(want, rel=1e-10)


def test_ensemble_memory_does_not_grow_with_paths():
    peaks = []
    for n in (256, 1024):
        cfg = parse_config(SHORT + f"run.N = {n}\n")
        tracemalloc.start()
        try:
            ensemble_run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_ensemble_blocks_arrive_in_order_from_a_bounded_window(monkeypatch):
    threads = 2
    plan = plan_ensemble(parse_config(SHORT + "run.N = 2600\n"))
    started = []
    real = solver._block_worker

    def counting(scene, forces, x0p, p0, p1, *args):
        started.append(p0)
        return real(scene, forces, x0p, p0, p1, *args)

    monkeypatch.setattr(solver, "_block_worker", counting)
    handed = []
    for p0, p1, vals, history, xi in ensemble_blocks(plan, threads):
        # a slow consumer: workers may run ahead by 2 * threads blocks only
        time.sleep(0.02)
        assert len(started) <= len(handed) + 1 + 2 * threads
        assert history is None and xi is None
        assert vals.shape == (1, len(plan.idx), p1 - p0)
        handed.append((p0, p1))
    assert handed == [(p0, min(2600, p0 + 256)) for p0 in range(0, 2600, 256)]
    assert sorted(started) == [p0 for p0, _ in handed]
