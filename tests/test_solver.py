"""Mild-solution stepping, single paths, and the path ensemble."""

import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from stobeam.config import parse_config
from stobeam.errors import (BlowupError, ConfigError, InvalidArgumentError,
                            PreconditionError, ShapeError)
from stobeam.grid import (BeamState, build_grid, h_inner, h_norm,
                         packed_h_norm)
from stobeam import noise, propagator, solver
from stobeam.noise import project_increments
from stobeam.operators import TractiveForce
from stobeam.propagator import step_rule
from stobeam.solver import (_block_worker, bending_mode_state, build_forces,
                            build_scene, ensemble_blocks, ensemble_run,
                            initial_state, sine_mode_state,
                            solve_homogeneous, weak_residual)

from test_digests import FORCED_CFG, MC_CFG

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

# n = 64, K = 4: a chunk of kicks outweighs the draws and the block state
WIDE = (SHORT.replace("grid.n = 8", "grid.n = 64")
        .replace("noise.K = 6", "noise.K = 4"))


def test_scene_tension_families():
    assert build_scene(parse_config(LOADED)).lam.family == "zero"
    cfg = parse_config(STOCH)
    lam = build_scene(cfg).lam
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


def _substitute_rule(monkeypatch, rule):
    """Step the kernel with `rule(k, buf, out)` in place of the step rule
    of step k of each chain walk (the rule's k-th call in that walk).  A
    block walks its chain once, and once more over all three channels
    when a block of fewer channels blows up."""
    walk = propagator.PropagatorFactorization.walk

    def counted_walk(self, *args, **kwargs):
        calls = itertools.count()

        def substitute(d, dt, buf, out, transpose=False):
            rule(next(calls), buf, out)

        monkeypatch.setattr(propagator, "step_rule", substitute)
        yield from walk(self, *args, **kwargs)

    monkeypatch.setattr(propagator.PropagatorFactorization, "walk",
                        counted_walk)


def _blowup_message(monkeypatch, sc, p0, p1, first_big):
    """The BlowupError text of paths p0..p1-1 when every step from index
    `first_big` on is scaled by 1e160."""
    steps, dt = sc.P.steps, sc.cfg.dt

    def big(k, buf, out):
        step_rule(steps[k], dt, buf, out)
        if k >= first_big:
            out *= 1e160

    with monkeypatch.context() as mp:
        _substitute_rule(mp, big)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowupError) as err:
            _block_worker(sc, p0, p1, False)
    return str(err.value)


def test_kernel_blowup_names_path_step_and_last_norm(monkeypatch):
    cfg = parse_config(LOADED)
    sc = build_scene(cfg)
    forces = build_forces(sc)
    # step 1 lands near 1e158, beyond a plain squared norm; step 2 overflows
    last = 1e160 * packed_h_norm(
        sc.P.apply(cfg.dt * forces[0], 0, 1), sc.g)
    msg = _blowup_message(monkeypatch, sc, 5, 8, 0)
    assert msg.startswith("path 5 became non-finite at step 2;")
    norm = re.search(r"last finite H-norm (\S+) at step 1;", msg)
    assert float(norm.group(1)) == pytest.approx(last, rel=1e-6)
    # with noise, past the first chunk: maps from index 130 on blow up, so
    # step 131 lands near 1e158 and step 132, in the second chunk, overflows
    cfg = parse_config(LOADED.replace("noise.sigma = 0.0", "noise.sigma = 1.0")
                       .replace("time.T = 0.05", "time.T = 0.15"))
    sc = build_scene(cfg)
    assert noise.CHUNK_STEPS < 131 < cfg.n_steps
    _, history = _block_worker(sc, 5, 8, True)
    y = history[130][..., 0] + cfg.dt * sc.forces[130]
    kick = np.zeros_like(y)
    kick[sc.g.m:] = cfg.sigma * project_increments(
        sc.model, sc.model.path_xi(cfg.n_steps, 5), cfg.dt)[130]
    last = 1e160 * packed_h_norm(
        sc.P.apply(y, 130, 131) + 1e-160 * kick, sc.g)
    msg = _blowup_message(monkeypatch, sc, 5, 8, 130)
    assert msg.startswith("path 5 became non-finite at step 132;")
    norm = re.search(r"last finite H-norm (\S+) at step 131;", msg)
    assert float(norm.group(1)) == pytest.approx(last, rel=1e-6)


def test_energy_conserved_without_forcing():
    cfg = parse_config(FREE)
    traj = solve_homogeneous(cfg)
    g = traj.scene.g
    base = h_norm(traj.states[0], g)
    drift = max(abs(h_norm(x, g) - base) for x in traj.states) / base
    assert drift < 1e-10
    assert len(traj.states) == cfg.n_steps + 1


def test_solver_rejects_mismatched_bc_kind():
    flipped = LOADED.replace("bc.kind = homogeneous",
                             "bc.kind = nonhomogeneous")
    with pytest.raises(PreconditionError):
        solve_homogeneous(parse_config(flipped))


def test_solver_rejects_rough_initial_mode():
    # high bending modes fail the free-end stencil checks on a coarse grid,
    # a config error that names the key
    cfg = parse_config(FREE.replace("init.mode = 1", "init.mode = 5"))
    with pytest.raises(ConfigError) as err:
        solve_homogeneous(cfg)
    assert err.value.key == "init.mode"


def _history(sc, p):
    """Path p's packed history (n_steps+1, 2m, 3), run as a block of width
    one."""
    return _block_worker(sc, p, p + 1, True)[1][..., 0]


def test_weak_identity_exact_for_velocity_test_functions():
    """With an autonomous generator the one-step map satisfies the
    trapezoid form of the weak identity exactly, so pairing against a
    velocity-only test function leaves pure roundoff."""
    sc = build_scene(parse_config(LOADED))
    h = sine_mode_state(sc.grid, 1, 3, "v")
    r = weak_residual(sc, _history(sc, 0), None, h)
    assert np.max(np.abs(r)) < 1e-12


# the summed-table twin of a nonhomogeneous run: noisy, with a tension
# gradient, constant in time, that the lift turns into a load
SLOPE = """
beam.l = 1.0
beam.b = 1.0
grid.n = 8
time.T = 0.05
time.dt = 0.0025
noise.sigma = 1.0
noise.K = 6
noise.seed = 5
lambda.family = bump
lambda.c0 = 1.0
fdet.family = tabulated
fdet.table = %s
init.family = zero
bc.kind = %s
"""


def test_weak_residual_guards():
    cfg = parse_config(LOADED)
    sc = build_scene(cfg)
    history = _history(sc, 0)
    other = build_grid(1.0, 8)
    with pytest.raises(ShapeError):
        weak_residual(sc, history, None, sine_mode_state(other, 1, 3, "v"))
    # displacement parts must satisfy the free-end stencils; a raw sine
    # does not (its third derivative survives at s = 0)
    with pytest.raises(PreconditionError):
        weak_residual(sc, history, None, sine_mode_state(sc.grid, 1, 3, "u"))
    # a nonhomogeneous history is the remainder, and its residual is that
    # of the homogeneous run whose table adds the lift's tension term
    ds = TractiveForce(family="bump", c0=1.0).ds_node_values(0.0, other)
    lifted = build_scene(parse_config(SLOPE % (",".join(["0.0"] * 10),
                                               "nonhomogeneous")))
    twin = build_scene(parse_config(SLOPE % (
        ",".join(repr(float(v)) for v in ds), "homogeneous")))
    assert lifted.shift is not None
    inc = project_increments(lifted.model, lifted.model.path_xi(
        lifted.cfg.n_steps, 3), lifted.cfg.dt)
    h = BeamState(other, bending_mode_state(lifted.g, 1).u,
                  sine_mode_state(other, 1, 3, "v").v)
    a, b = _history(lifted, 3), _history(twin, 3)
    assert np.array_equal(a, b)
    assert np.array_equal(weak_residual(lifted, a, inc, h),
                          weak_residual(twin, b, inc, h))


def test_weak_residual_refuses_histories_of_another_run():
    """A history or increments that do not fit the scene are refused, not
    paired against the wrong loads."""
    sc = build_scene(parse_config(STOCH))
    n, m = sc.cfg.n_steps, sc.g.m
    history = _history(sc, 0)
    inc = project_increments(sc.model, sc.model.path_xi(n, 0), sc.cfg.dt)
    h = sine_mode_state(sc.grid, 1, 3, "v")
    fine = build_scene(parse_config(STOCH.replace("grid.n = 8",
                                                  "grid.n = 16")))
    for bad_history, bad_inc in ((history[:-1], inc),
                                 (_history(fine, 0), inc),
                                 (history, inc[:-1]),
                                 (history, inc[:, :m - 1])):
        with pytest.raises(ShapeError):
            weak_residual(sc, bad_history, bad_inc, h)
    assert weak_residual(sc, history, inc, h).shape == (n + 1,)


def test_stochastic_path_carries_increments():
    cfg = parse_config(STOCH)
    sc = build_scene(cfg)
    inc = project_increments(sc.model, sc.model.path_xi(cfg.n_steps, 4),
                             cfg.dt)
    assert inc.shape == (cfg.n_steps, sc.g.m, 3)
    # the stochastic weak residual is small but not zero at finite dt
    h = sine_mode_state(sc.grid, 1, 3, "v")
    r = weak_residual(sc, _history(sc, 4), inc, h)
    assert 0.0 < np.max(np.abs(r)) < 0.1


def test_ensemble_matches_single_path_solver():
    """A single path is the ensemble's path: at N = 1 the same width-one
    block, bitwise; at N = 8, paths 0 and 3 of one 8-wide block, to the
    1e-12 relative (per field, against its largest magnitude) that the
    simulate gate of the benchmark allows."""
    cfg = parse_config(STOCH)  # run.N defaults to 1
    _, _, _, history = next(ensemble_blocks(build_scene(cfg),
                                            keep_history=True))
    ref = solve_homogeneous(cfg, 0)
    assert len(ref.states) == len(history)
    assert all(np.array_equal(a.packed(), y)
               for a, y in zip(ref.states, history[..., 0]))
    wide = dataclasses.replace(cfg, n_paths=8)
    p0, p1, _, history = next(ensemble_blocks(build_scene(wide),
                                              keep_history=True))
    assert (p0, p1) == (0, 8)
    m = ref.scene.g.m
    for p in (0, 3):
        want = np.stack([x.packed() for x in
                         solve_homogeneous(wide, p).states])
        got = history[..., p]
        for rows in (slice(0, m), slice(m, 2 * m)):
            scale = np.max(np.abs(want[:, rows]))
            assert np.max(np.abs(got[:, rows] - want[:, rows])) <= \
                1e-12 * scale


def test_width_one_block_is_the_mild_recursion():
    """A path run as a block of width one is, bit for bit, the recursion
    y <- U(t_{k+1}, t_k)(y + dt F_k), then y_v += sigma dW_k, with dW the
    path's whole-horizon draws projected alone: loaded (gravity and a
    time-dependent load), noisy and modulated, over 262 steps, past two
    noise chunks."""
    cfg = parse_config(STOCH.replace("time.T = 0.05", "time.T = 0.655")
                       .replace("init.family = zero",
                                "init.family = mode\ninit.mode = 1")
                       + "fdet.family = expression\nfdet.expr3 = 10*t\n")
    sc = build_scene(cfg)
    n, m, p = cfg.n_steps, sc.g.m, 3
    assert n > 2 * noise.CHUNK_STEPS and not sc.lam.autonomous
    _, history = _block_worker(sc, p, p + 1, True)
    dw = project_increments(sc.model, sc.model.path_xi(n, p), cfg.dt)
    y = sc.x0p
    assert np.array_equal(history[0, ..., 0], y)
    for k in range(n):
        y = sc.P.apply(y + cfg.dt * sc.forces[k], k, k + 1)
        y[m:] += cfg.sigma * dw[k]
        assert np.array_equal(history[k + 1, ..., 0], y), k


def _zero(k, buf, out):
    out.fill(0.0)


def test_sampled_increments_are_the_kernel_kicks(monkeypatch):
    """The velocity kick the kernel adds to a path inside a wide block is
    sigma times that path's whole-horizon draws projected alone, bit for
    bit: at 20 steps, one chunk, and at 262 steps, two full chunks and a
    partial one."""
    for T in ("0.05", "0.655"):
        cfg = parse_config(STOCH.replace("lambda.family = bump",
                                         "lambda.family = zero")
                           .replace("noise.sigma = 1.0", "noise.sigma = 0.5")
                           .replace("time.T = 0.05", f"time.T = {T}"))
        sc = build_scene(cfg)
        _substitute_rule(monkeypatch, _zero)
        _, history = _block_worker(sc, 0, 5, True)
        m = sc.g.m
        for p in (0, 4):
            alone = project_increments(
                sc.model, sc.model.path_xi(cfg.n_steps, p), cfg.dt)
            # with a zero step each state is exactly the last kick
            kicks = history[1:, m:, :, p]
            assert np.array_equal(kicks, cfg.sigma * alone)
    assert 2 * noise.CHUNK_STEPS < cfg.n_steps < 3 * noise.CHUNK_STEPS


def test_full_block_increments_cross_chunks_bitwise(monkeypatch):
    """In a block of BLOCK_PATHS paths over 262 steps (two full chunks and
    a partial one), each step projects every path's draws in one product;
    the kicks of the first, a middle and the last path are still sigma
    times each path's own draws projected alone, bit for bit."""
    cfg = parse_config(STOCH.replace("lambda.family = bump",
                                     "lambda.family = zero")
                       .replace("noise.sigma = 1.0", "noise.sigma = 0.5")
                       .replace("time.T = 0.05", "time.T = 0.655"))
    sc = build_scene(cfg)
    _substitute_rule(monkeypatch, _zero)
    pb = solver.BLOCK_PATHS
    _, history = _block_worker(sc, 0, pb, True)
    assert 2 * noise.CHUNK_STEPS < cfg.n_steps < 3 * noise.CHUNK_STEPS
    m = sc.g.m
    for p in (0, pb // 2, pb - 1):
        alone = project_increments(
            sc.model, sc.model.path_xi(cfg.n_steps, p), cfg.dt)
        assert np.array_equal(history[1:, m:, :, p], cfg.sigma * alone)


def test_finite_block_with_overflowing_sum_steps_on(monkeypatch):
    """A block whose entries are finite but whose sum overflows is not a
    blow-up: the per-path test runs and finds every path finite."""
    cfg = parse_config(FREE)
    sc = build_scene(cfg)

    def identity(k, buf, out):
        out[...] = buf[:2]

    _substitute_rule(monkeypatch, identity)
    big = np.full_like(sc.x0p, 1e308)
    big[::2] = -1e308
    sc.__dict__["x0p"] = big  # the cached initial state
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.repeat(big[..., None], 4, axis=2).sum())
        _, history = _block_worker(sc, 0, 4, True)
    assert np.array_equal(history[-1], history[0])
    assert np.array_equal(history[0][..., 3], big)


def _block_values(cfg):
    """Every path's observables (n_obs, n_times, N), concatenated from the
    blocks of `ensemble_blocks` in the order they are handed out."""
    return np.concatenate([vals for _, _, vals, _ in
                           ensemble_blocks(build_scene(cfg))], axis=2)


def test_ensemble_moments_match_stored_values():
    # 600 paths: blocks of 256, 256 and 88, so the cross-block merge runs
    cfg = parse_config(STOCH + "run.N = 600\n")
    stats = ensemble_run(cfg)
    values = _block_values(cfg)
    assert stats.count == 600
    assert values.shape == (2, len(stats.times), 600)
    mean = values.mean(axis=2)
    m2 = ((values - mean[:, :, None]) ** 2).sum(axis=2)
    assert np.max(np.abs(stats.mean - mean)) < 1e-14
    assert np.max(np.abs(stats.m2 - m2)) < 1e-12 * max(1.0, np.max(m2))
    assert stats.variance_defined
    assert np.allclose(stats.variance, m2 / 599, atol=1e-15)
    assert np.all(stats.variance >= 0.0)


def test_ensemble_thread_count_does_not_change_results():
    base = parse_config(STOCH + "run.N = 600\n")
    threaded = parse_config(STOCH + "run.N = 600\nrun.threads = 4\n")
    s1 = ensemble_run(base)
    s4 = ensemble_run(threaded)
    assert np.array_equal(s1.mean, s4.mean)
    assert np.array_equal(s1.m2, s4.m2)
    assert np.array_equal(_block_values(base), _block_values(threaded))


#: the configs whose observables a run takes from the mild sum, and the
#: channels they read: one channel-3 observable, one channel-2 observable,
#: the digest test's forced config (nonhomogeneous, loads on channels 1
#: and 3, observables in channels 3 and 1), and bending-mode initial data
#: with noise under the bump tension
OBSERVED = {"channel-3": (STOCH.replace("1:3:v,2:1:v", "1:3:v"), 1),
            "channel-2": (STOCH.replace("1:3:v,2:1:v", "2:2:u"), 1),
            "forced": (FORCED_CFG.replace("run.N = 300\n", ""), 2),
            "mode-data": (STOCH.replace("1:3:v,2:1:v", "1:3:v")
                          .replace("init.family = zero",
                                   "init.family = mode\ninit.mode = 1"), 1)}


def _paired_histories(sc, p0, p1):
    """The observables of paths p0..p1-1, lift included, paired from their
    full three-channel histories."""
    lift = np.zeros((2 * sc.g.m, 3))
    if sc.shift is not None:
        lift[:sc.g.m] = sc.shift[:sc.g.m]
    history = _block_worker(sc, p0, p1, True)[1]
    want = np.stack([np.einsum("oic,icp->op", sc.obs_mh, history[j])
                     for j in sc.obs_steps], axis=1)
    return want + np.einsum("oic,ic->o", sc.obs_mh, lift)[:, None, None]


@pytest.mark.parametrize("name", ["channel-3", "channel-2", "forced"])
def test_observed_channel_blocks_pair_like_full_histories(name,
                                                          monkeypatch):
    """Without history a stepped block (`_block_worker`, the route of
    scenes whose mild sum would be too large, and of a mild block that
    is not finite) steps only the channels its observables read, and its
    values are, bit for bit, the pairings of the full three-channel
    histories with the observables, lift included.  A block of pb paths
    steps nc pb columns for the nc channels read, and 3 pb with history.
    The ensemble blocks of these configs, whichever route they take, are
    with the forced config's own two workers those of one worker, bit
    for bit."""
    text, nc = OBSERVED[name]
    cfg = parse_config(text + "run.N = 300\n")
    sc = build_scene(dataclasses.replace(cfg, threads=1))
    widths = []

    def recording(d, dt, buf, out, transpose=False):
        widths.append(buf.shape[-1])
        step_rule(d, dt, buf, out, transpose)

    monkeypatch.setattr(propagator, "step_rule", recording)
    spans = [(0, 256), (256, 300)]
    blocks = [_block_worker(sc, p0, p1, False)[0] for p0, p1 in spans]
    narrow, widths[:] = set(widths), []
    for vals, (p0, p1) in zip(blocks, spans):
        assert np.array_equal(vals, _paired_histories(sc, p0, p1))
    assert narrow == {nc * 256, nc * 44}
    assert set(widths) == {3 * 256, 3 * 44}
    inline = list(ensemble_blocks(sc))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = list(ensemble_blocks(build_scene(cfg)))
    assert len(pooled) == len(inline) == 2
    for (p0, p1, vals, _), (q0, q1, pooled_vals, _) in zip(inline, pooled):
        assert (p0, p1) == (q0, q1)
        assert np.array_equal(vals, pooled_vals)


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_mild_blocks_pair_like_full_histories(name):
    """Without history an ensemble block of these configs is the mild
    sum, which equals the pairings of the stepped full histories to
    rounding.  The forced config is sampled every 10 steps: every 5, the
    weights of its two channels (2 x 2 x 5 x 6 per step) outnumber its
    81-entry factors, and its run steps.  In each (observable, time) row
    the worst difference, relative to the row's largest |value|, measured
    1.1e-15 on the first three configs and 2.0e-14 with mode data, where
    the initial state's pairing, carried by the adjoint chain, dominates
    the values; the bound leaves a factor of about 50 for other BLAS
    kernels."""
    text = OBSERVED[name][0].replace("run.obs_stride = 5",
                                     "run.obs_stride = 10")
    cfg = parse_config(text + "run.N = 300\n")
    sc = build_scene(dataclasses.replace(cfg, threads=1))
    blocks = list(ensemble_blocks(sc))
    assert sc.mild is not None
    for p0, p1, vals, _ in blocks:
        want = _paired_histories(sc, p0, p1)
        scale = np.max(np.abs(want), axis=2, keepdims=True)
        err = np.abs(vals - want) / np.where(scale > 0, scale, 1.0)
        assert np.max(err) < 1e-12


def test_mild_route_is_taken_where_its_weights_fit_the_chain():
    """The route is computed: a run takes the mild sum when its weights,
    nc n_steps K n_obs n_times numbers, are no more than the entries of
    the chain's distinct m x m factors.  Under the bump tension every
    step has its own, so the bench's mc-covariance config as `covariance`
    runs it (1 x 11 x 12 = 132 <= 289 per step at n = 16) and wide-grid
    (1 x 5 x 12 = 60 <= 66 049 at n = 256) take it; both observables, as
    in the 20 000-path acceptance run (2 channels x 264 = 528), and
    sampling at every step (1 x 251 x 12) step their paths.  An
    autonomous tension holds one factor, so the same run steps its paths
    under it, and a run without noise, here sampled at every step, has no
    draws to weigh and makes no sweep."""
    mc = parse_config(MC_CFG)
    first = dataclasses.replace(mc, observables=mc.observables[:1])
    assert build_scene(first).mild is not None
    assert build_scene(mc).mild is None
    wide = dataclasses.replace(first, n=256, T=0.1, n_paths=256, threads=1)
    sc = build_scene(wide)
    assert len(sc.obs_mh) * len(sc.obs_steps) * wide.K == 60
    assert sc.mild is not None
    assert build_scene(dataclasses.replace(first, obs_stride=1)).mild is None
    auto = build_scene(parse_config(MC_CFG.replace(
        "lambda.family = bump", "lambda.family = zero")))
    assert len({id(d) for d in auto.P.steps}) == 1 and auto.mild is None
    quiet = build_scene(parse_config(
        MC_CFG.replace("noise.sigma = 1.0", "noise.sigma = 0.0")
        .replace("run.obs_stride = 25", "run.obs_stride = 1")))
    assert quiet.model is None and quiet.mild is None


def test_stepped_route_builds_no_weights():
    """Where the weights would outgrow a factor (mc-covariance sampled at
    every step: 251 x 250 x 12 of them, 6.0 MB), the paths are stepped and
    nothing of that size is built: the traced peak of a 16-path run, its
    scene and dense chain built beforehand, stays below a tenth of it."""
    cfg = dataclasses.replace(parse_config(MC_CFG), observables=("1:3:v",),
                              obs_stride=1, n_paths=16, threads=1)
    sc = build_scene(cfg)
    sc.P
    weights = len(sc.obs_steps) * cfg.n_steps * cfg.K * 8
    tracemalloc.start()
    try:
        for _ in ensemble_blocks(sc):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sc.mild is None
    assert peak < weights / 10, (peak, weights)


def _mild_blowup(monkeypatch, threads):
    """An infinite draw of path 5 at a step of the second chunk leaves
    the mild sum of its block non-finite; the block is then stepped, so
    `ensemble_run` raises the stepped route's BlowupError, with the same
    path, step and last finite H-norm.  The stepped block builds the
    dense chain in the scene it runs on: the parent's inline, and a
    worker's own at two workers, which the parent's does not see."""
    cfg = parse_config(STOCH.replace("time.T = 0.05", "time.T = 0.4")
                       .replace("run.obs_stride = 5", "run.obs_stride = 40")
                       .replace("1:3:v,2:1:v", "1:3:v")
                       + f"run.N = {8 if threads == 1 else 300}\n")
    cfg = dataclasses.replace(cfg, threads=threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert solver.block_workers(threads, 1 + cfg.n_paths // 256) == threads
    assert cfg.n_steps > noise.CHUNK_STEPS + 3
    assert build_scene(cfg).mild is not None
    draw = noise.NoiseModel.draw_xi

    def poisoned(self, gen, paths, channels, k0, out):
        draw(self, gen, paths, channels, k0, out)
        if k0 == noise.CHUNK_STEPS and 5 in paths:
            out[:, paths.index(5), 3] = np.inf
        return out

    monkeypatch.setattr(noise.NoiseModel, "draw_xi", poisoned)
    with np.errstate(invalid="ignore"), \
            pytest.raises(BlowupError) as stepped:
        _block_worker(build_scene(cfg), 0, min(cfg.n_paths, 256), False)
    assert str(stepped.value).startswith(
        "path 5 became non-finite at step 132; last finite H-norm ")
    scenes = []
    monkeypatch.setattr(solver, "build_scene",
                        lambda cfg: scenes.append(build_scene(cfg))
                        or scenes[-1])
    with np.errstate(invalid="ignore"), pytest.raises(BlowupError) as mild:
        ensemble_run(cfg)
    assert str(mild.value) == str(stepped.value)
    assert ("P" in vars(scenes[0])) == (threads == 1)


def test_mild_block_blowup_is_the_stepped_one(monkeypatch):
    _mild_blowup(monkeypatch, 1)


def test_mild_block_blowup_in_a_worker_is_the_stepped_one(monkeypatch):
    _mild_blowup(monkeypatch, 2)


@pytest.mark.parametrize("stride", [5, 1], ids=["mild", "stepped"])
def test_block_values_are_c_contiguous_on_both_routes(stride, monkeypatch):
    """Every block's values are C-contiguous, inline and from two
    workers, on both routes.  numpy sums a block's paths in an order that
    depends on the layout, and a block comes back from a worker pickled,
    so one layout keeps `_merge_moments` the same for every worker
    count, whatever the BLAS thread count."""
    cfg = parse_config(STOCH.replace("run.obs_stride = 5",
                                     f"run.obs_stride = {stride}")
                       .replace("1:3:v,2:1:v", "1:3:v") + "run.N = 300\n")
    assert (build_scene(cfg).mild is None) == (stride == 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for threads in (1, 2):
        blocks = list(ensemble_blocks(build_scene(
            dataclasses.replace(cfg, threads=threads))))
        assert len(blocks) == 2
        for _, _, vals, _ in blocks:
            assert vals.flags.c_contiguous


def test_blowup_in_a_channel_no_observable_reads_goes_unseen(monkeypatch):
    """A non-finite channel 1 ends a block that keeps its history, which
    steps all three channels, and not one that steps the channel-3
    observable's channel alone."""
    sc = build_scene(parse_config(LOADED))
    assert sc.cfg.observables == ("1:3:v",)
    steps, dt = sc.P.steps, sc.cfg.dt
    clean, _ = _block_worker(sc, 0, 4, False)

    def poison(k, buf, out):
        step_rule(steps[k], dt, buf, out)
        if out.shape[-1] == 3 * 4:
            out[..., 0] = np.nan  # column 0: channel 1 of path 0

    _substitute_rule(monkeypatch, poison)
    vals, _ = _block_worker(sc, 0, 4, False)
    assert np.array_equal(vals, clean)
    with pytest.raises(BlowupError, match="path 0 became non-finite at "
                                          "step 1;"):
        _block_worker(sc, 0, 4, True)


def test_ensemble_observable_times_include_endpoint():
    # 20 steps, stride 3: 0, 3, ..., 18 plus the forced endpoint
    cfg = parse_config(STOCH.replace("run.obs_stride = 5",
                                     "run.obs_stride = 3"))
    stats = ensemble_run(cfg)
    assert stats.times[0] == 0.0
    assert stats.times[-1] == pytest.approx(0.05)
    assert stats.scene.cfg.observables == ("1:3:v", "2:1:v")


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
    _, _, vals, _ = next(ensemble_blocks(build_scene(
        dataclasses.replace(cfg, observables=("1:3:u",)))))
    last = BeamState.from_packed(sc.grid, _history(sc, 0)[-1])
    h = sine_mode_state(sc.grid, 1, 3, "u")
    want = h_inner(BeamState(sc.grid, last.u + sc.shift, last.v), h, sc.g)
    assert vals[0, -1, 0] == pytest.approx(want, rel=1e-10)


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


def test_block_workers_are_capped_by_blocks_and_cpus(monkeypatch):
    """The worker count is computed, never tried: `run.threads`, at most
    one per block and per usable CPU, and 1 without fork."""
    cpus = len(os.sched_getaffinity(0))
    assert solver.block_workers(1, 32) == 1
    assert solver.block_workers(10 ** 6, 1) == 1
    assert solver.block_workers(10 ** 6, 3) == min(3, cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert solver.block_workers(10 ** 6, 3) == 3
    assert solver.block_workers(4, 32) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert solver.block_workers(4, 32) == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert solver.block_workers(4, 32) == 1


def test_ensemble_blocks_arrive_in_order_from_a_bounded_window(monkeypatch):
    threads = 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = parse_config(SHORT + "run.N = 2600\n")
    sc = build_scene(dataclasses.replace(cfg, threads=threads))
    started = []
    pool = concurrent.futures.ProcessPoolExecutor
    real = pool.submit

    def counting(self, fn, p0, p1, keep_history):
        started.append(p0)
        return real(self, fn, p0, p1, keep_history)

    monkeypatch.setattr(pool, "submit", counting)
    handed = []
    for p0, p1, vals, history in ensemble_blocks(sc):
        # a slow consumer: workers may run ahead by 2 * threads blocks only
        time.sleep(0.02)
        assert len(started) <= len(handed) + 1 + 2 * threads
        assert history is None
        assert vals.shape == (1, len(sc.obs_steps), p1 - p0)
        handed.append((p0, p1))
    assert handed == [(p0, min(2600, p0 + 256)) for p0 in range(0, 2600, 256)]
    assert started == [p0 for p0, _ in handed]


def _block_peak(cfg):
    """tracemalloc peak of one 64-path block without history, the scene's
    shared arrays, its dense chain included, built beforehand."""
    sc = build_scene(cfg)
    sc.forces, sc.x0p, sc.obs_mh, sc.obs_steps, sc.P
    tracemalloc.start()
    try:
        _block_worker(sc, 0, 64, False)
        return sc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_without_history_holds_one_step_kick():
    """Without history a block keeps its state, two step buffers, one
    chunk's draws and the kick of one step, and nothing else of their
    size: no chunk of kicks, no copy of the draws, no per-step copies of
    the state.  Its observables read all three channels, so it steps
    all three."""
    cfg = parse_config(WIDE.replace("time.T = 0.02", "time.T = 0.75")
                       .replace("1:3:v", "1:1:v,1:2:v,1:3:v"))
    sc, peak = _block_peak(cfg)
    assert cfg.n_steps > noise.CHUNK_STEPS
    state = 2 * sc.g.m * 3 * 64 * 8
    draws = 64 * noise.CHUNK_STEPS * cfg.K * 3 * 8
    kick = sc.g.m * 3 * 64 * 8
    held = 3 * state + draws + kick
    assert peak < 1.5 * held, (peak, held)


def test_one_channel_block_holds_one_channel_state():
    """A block whose observable reads one channel keeps that channel's
    state, step buffers, kick and one chunk of its draws."""
    cfg = parse_config(WIDE.replace("time.T = 0.02", "time.T = 0.75"))
    assert cfg.observables == ("1:3:v",)
    sc, peak = _block_peak(cfg)
    assert cfg.n_steps > noise.CHUNK_STEPS
    state = 2 * sc.g.m * 64 * 8
    draws = 64 * noise.CHUNK_STEPS * cfg.K * 8
    kick = sc.g.m * 64 * 8
    held = 3 * state + draws + kick
    assert peak < 1.5 * held, (peak, held)


def test_blocks_draw_only_the_channels_they_step(monkeypatch):
    """Counted from what `draw_xi` returns, a run whose observable reads
    one channel draws N n_steps K normals over two blocks and two
    chunks; with history, as `simulate` runs, it draws all three
    channels, three times as many."""
    cfg = parse_config(SHORT.replace("time.T = 0.02", "time.T = 0.655")
                       + "run.N = 300\n")
    assert cfg.n_steps > noise.CHUNK_STEPS and cfg.observables == ("1:3:v",)
    drawn = []
    draw = noise.NoiseModel.draw_xi

    def counting(self, *args):
        out = draw(self, *args)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(noise.NoiseModel, "draw_xi", counting)
    ensemble_run(cfg)
    one = cfg.n_paths * cfg.n_steps * cfg.K
    assert sum(drawn) == one
    drawn.clear()
    for _ in ensemble_blocks(build_scene(cfg), keep_history=True):
        pass
    assert sum(drawn) == 3 * one


def test_block_memory_does_not_grow_with_steps():
    # autonomous tension: one step map serves every step; observables
    # every 250 steps, as the emitted values grow with n_steps / obs_stride
    base = (WIDE.replace("lambda.family = bump", "lambda.family = zero")
            .replace("time.dt = 0.005", "time.dt = 0.001")
            .replace("run.obs_stride = 2", "run.obs_stride = 250"))
    cfgs = [parse_config(base.replace("time.T = 0.02", f"time.T = {T}"))
            for T in ("0.25", "2.5")]
    peaks = [_block_peak(cfg)[1] for cfg in cfgs]
    assert peaks[1] < 1.2 * peaks[0], peaks
    # nor does a run's: the one factor is no room for the weights of
    # 2 500 steps, so its paths are stepped
    runs = []
    for cfg in cfgs:
        tracemalloc.start()
        try:
            ensemble_run(dataclasses.replace(cfg, threads=1))
            runs.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert runs[1] < 1.2 * runs[0], runs
