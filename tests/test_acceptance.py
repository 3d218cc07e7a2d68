"""End-to-end acceptance checklist.

Each test here exercises one item of the release checklist at its stated
tolerance and reports a one-line verdict through the `acceptance`
fixture; the numbered summary is printed after the run.  The scenarios
are fixed (grids, windows, step sizes, seeds) so the measured numbers
are comparable between machines.
"""

import math

import numpy as np
import pytest

from stobeam.cli import main
from stobeam.config import parse_config
from stobeam.grid import (BeamState, bc_value_defect, build_grid, build_grams,
                          h_norm, packed_d_norm_sq, packed_h_norm)
from stobeam.noise import (build_noise_model, ito_variance, project_increments,
                           trace_condition, trace_q)
from stobeam.operators import (TractiveForce, build_L0, estimate_constants,
                               op_norm_H, skew_defect)
from stobeam.propagator import (backward_adjoint_apply, build_propagator,
                                cocycle_defect, duality_defect,
                                generator_residual, picard_evolution)
from stobeam.solver import (Trajectory, bending_mode_state,
                            build_scene, ensemble_run, sine_mode_state,
                            solve_homogeneous, solve_nonhomogeneous,
                            weak_residual)

BUMP = TractiveForce.bump(c0=1.0, c1=0.3, freq=1.0)


def _grams(n):
    return build_grams(build_grid(1.0, n), 1.0)


def test_stiff_block_skewness_across_grids(acceptance):
    worst = 0.0
    for n in (8, 16, 32, 64):
        worst = max(worst, skew_defect(_grams(n)))
    ok = worst <= 1e-12
    acceptance(1, f"max relative defect {worst:.2e} over n in 8..64 "
                  "(tol 1e-12)", ok)
    assert ok


def test_graph_norm_equals_stiff_image_norm(acceptance):
    g = _grams(16)
    l0 = build_L0(g).mat
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal((2 * g.m, 3))
        lhs = packed_h_norm(l0 @ y, g) ** 2
        rhs = packed_d_norm_sq(y, g)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    ok = worst <= 1e-10
    acceptance(2, f"worst relative defect {worst:.2e} on 100 random "
                  "states (tol 1e-10)", ok)
    assert ok


def test_tension_norm_under_analytic_bound(acceptance):
    # constant modulation c(t) = 1 at unit length/stiffness, where the
    # closed form of the bound is sqrt(8/105)
    g = _grams(16)
    lam = TractiveForce.bump(c0=1.0, c1=0.0)
    consts = estimate_constants(lam, g, np.linspace(0.0, 1.0, 11))
    exact = math.sqrt(8.0 / 105.0)
    formula_ok = abs(consts.C4_formula - exact) <= 1e-12 * exact
    numeric_ok = consts.C4_numeric <= consts.C4_formula
    ok = formula_ok and numeric_ok
    acceptance(3, f"exact norm {consts.C4_numeric:.4f} <= "
                  f"analytic {consts.C4_formula:.4f} = sqrt(8/105) "
                  "at 11 sample times", ok)
    assert ok


def test_propagator_axioms_and_generator_order(acceptance):
    g = _grams(16)
    P = build_propagator(BUMP, g, 0.0, 0.2, 2e-3)
    ident = max(np.max(np.abs(P.apply(np.eye(2 * g.m), t, t)
                              - np.eye(2 * g.m)))
                for t in (0.0, 0.1, 0.2))
    rng = np.random.default_rng(5)
    coc = 0.0
    for _ in range(5):
        i, j, k = sorted(rng.choice(P.n_steps + 1, size=3, replace=False))
        coc = max(coc, cocycle_defect(P, float(P.times[i]),
                                      float(P.times[j]), float(P.times[k])))
    w = bending_mode_state(g, 1)
    vals = []
    for dt in (4e-3, 2e-3, 1e-3):
        vals.append(generator_residual(
            build_propagator(BUMP, g, 0.0, 0.2, dt), BUMP, w).max_value)
    orders = [math.log2(vals[i] / vals[i + 1]) for i in range(2)]
    ok = ident <= 1e-12 and coc <= 1e-12 and min(orders) >= 1.8
    acceptance(4, f"identity {ident:.1e}, cocycle {coc:.1e}, "
                  f"residual orders {orders[0]:.2f}/{orders[1]:.2f} "
                  "(need >= 1.8)", ok)
    assert ok


def test_propagator_growth_bound(acceptance):
    g = _grams(16)
    P = build_propagator(BUMP, g, 0.0, 0.5, 2e-3)
    consts = estimate_constants(BUMP, g, np.linspace(0.0, 0.5, 11))
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        i0, i1 = sorted(rng.integers(0, P.n_steps + 1, size=2))
        if i0 == i1:
            i1 = min(i0 + 1, P.n_steps)
            i0 = max(0, i1 - 1)
        ta, tb = float(P.times[i0]), float(P.times[i1])
        nrm = op_norm_H(g, P.apply(np.eye(2 * g.m), ta, tb))
        worst = max(worst, nrm / math.exp((consts.C4 + 0.05) * (tb - ta)))
    ok = worst <= 1.0
    acceptance(5, f"worst norm/bound ratio {worst:.4f} over 20 random "
                  f"windows, C4 = {consts.C4:.4f}", ok)
    assert ok


def test_fixed_point_agrees_with_midpoint_stepping(acceptance):
    g = _grams(16)
    w = bending_mode_state(g, 1)
    consts = estimate_constants(BUMP, g, np.linspace(0.0, 0.5, 11))
    P = build_propagator(BUMP, g, 0.0, 0.5, 1e-3)
    pr = picard_evolution(BUMP, g, w, 0.0, 0.5, 1e-3, constants=consts)
    diff = packed_h_norm(pr.states[-1].packed() - P.apply(w.packed()), g)
    floor = 1e-8 * pr.defects[0]
    ratios = [pr.defects[i + 1] / pr.defects[i]
              for i in range(len(pr.defects) - 1) if pr.defects[i] > floor]
    bound = consts.C5 / pr.alpha + 0.1
    ok = diff <= 1e-5 and max(ratios) <= bound
    acceptance(6, f"final-state difference {diff:.2e} (tol 1e-5) after "
                  f"{pr.iterations} sweeps; contraction ratio "
                  f"{max(ratios):.3f} <= {bound:.2f}", ok)
    assert ok


def test_adjoint_duality_and_backward_order(acceptance):
    g = _grams(16)
    P = build_propagator(BUMP, g, 0.0, 0.5, 2e-3)
    rng = np.random.default_rng(3)
    dual = 0.0
    for _ in range(10):
        x = rng.standard_normal((2 * g.m, 3))
        y = rng.standard_normal((2 * g.m, 3))
        dual = max(dual, duality_defect(P, x, y))
    y = rng.standard_normal((2 * g.m, 3))
    y /= packed_h_norm(y, g)
    defects = []
    for dt in (2e-3, 1e-3):
        Pb = build_propagator(BUMP, g, 0.0, 0.1, dt)
        ref = Pb.apply_adjoint(y, 0.0, 0.1)
        bwd = backward_adjoint_apply(BUMP, g, y, 0.0, 0.1, dt)
        defects.append(packed_h_norm(ref - bwd, g))
    order = math.log2(defects[0] / defects[1])
    ok = dual <= 1e-11 and order >= 0.9
    acceptance(7, f"duality defect {dual:.1e} (tol 1e-11); backward vs "
                  f"transpose order {order:.2f} (need >= 0.9)", ok)
    assert ok


FREE_LONG = """
beam.l = 1.0
beam.b = 1.0
beam.g = 0.0
grid.n = 16
time.T = 1.0
time.dt = 0.001
noise.sigma = 0.0
lambda.family = zero
init.family = mode
init.mode = 1
bc.kind = homogeneous
"""


def test_free_flow_energy_conservation(acceptance):
    cfg = parse_config(FREE_LONG)
    sc = build_scene(cfg)
    traj = solve_homogeneous(cfg)
    e = [h_norm(x, sc.g) for x in traj.states]
    drift = max(abs(v - e[0]) for v in e) / e[0]
    ok = drift <= 1e-9
    acceptance(8, f"relative energy drift {drift:.2e} over 1000 steps "
                  "(tol 1e-9)", ok)
    assert ok


def test_noise_trace_closed_form_and_bound(acceptance):
    g = _grams(16)
    model = build_noise_model(g.grid, "k^-2", 12, 1.0, 0)
    # vanishing tension: the integrated trace is exactly linear in time
    P0 = build_propagator(TractiveForce.zero(), g, 0.0, 0.25, 1e-3)
    chk0 = trace_condition(P0, model)
    exact = 0.25 * 1.0 * trace_q(model)
    rel = abs(chk0.value - exact) / exact
    # modulated tension: finite and below the exponential growth bound
    Pb = build_propagator(BUMP, g, 0.0, 0.25, 1e-3)
    consts = estimate_constants(BUMP, g, np.linspace(0.0, 0.25, 11))
    chkb = trace_condition(Pb, model, consts)
    ok = (math.isfinite(chkb.value) and rel <= 1e-8
          and chkb.value <= chkb.bound)
    acceptance(9, f"free-flow trace defect {rel:.1e} (tol 1e-8); "
                  f"modulated value {chkb.value:.4f} <= bound "
                  f"{chkb.bound:.4f}", ok)
    assert ok


MC_CFG = """
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.25
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
noise.seed = 0
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.N = 20000
run.threads = 4
run.observables = 1:3:v,2:1:v
run.obs_stride = 25
"""


def test_monte_carlo_variance_matches_quadrature(acceptance):
    cfg = parse_config(MC_CFG)
    stats = ensemble_run(cfg)
    sc = build_scene(cfg)
    hs = [sine_mode_state(sc.grid, 1, 3, "v"),
          sine_mode_state(sc.grid, 2, 1, "v")]
    n_ok = n_tot = 0
    for oi, h in enumerate(hs):
        for t in stats.times:
            mc = float(stats.variance[oi, np.searchsorted(stats.times, t)])
            quad = 0.0 if t == 0 else ito_variance(sc.P, sc.model, h,
                                                   0.0, float(t))
            se = mc * math.sqrt(2.0 / (stats.count - 1))
            n_tot += 1
            n_ok += (abs(mc - quad) <= 3 * se or mc == quad)
    ok = n_ok >= math.ceil(0.95 * n_tot)
    acceptance(10, f"{n_ok}/{n_tot} sampled time points within 3 "
                   "standard errors at 20000 paths", ok)
    assert ok


LADDER_BASE = """
beam.l = 1.0
beam.b = 1.0
beam.g = 9.81
grid.n = 16
time.T = 0.2
time.dt = %s
noise.sigma = 1.0
noise.K = 12
noise.seed = 0
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
"""


def test_weak_residual_nested_refinement(acceptance):
    """One Wiener path drawn at the finest resolution, aggregated to the
    coarser grids, so all three runs see the same noise realization."""
    finest = parse_config(LADDER_BASE % "0.001")
    scf = build_scene(finest)
    inc_f = project_increments(
        scf.model, scf.model.path_xi(finest.n_steps, 7), finest.dt)
    res = []
    for dt, gs in ((4e-3, 4), (2e-3, 2), (1e-3, 1)):
        cfg = parse_config(LADDER_BASE % repr(dt))
        sc = build_scene(cfg)
        ks = cfg.n_steps
        m = sc.g.m
        inc = inc_f.reshape(ks, gs, m, 3).sum(axis=1)
        y = np.zeros((2 * m, 3))
        states = [BeamState.zero(sc.grid)]
        for k in range(ks):
            # the mild update at sigma = 1
            y = sc.P.apply(y + dt * sc.forces[k], k * dt, (k + 1) * dt)
            y[m:] += inc[k]
            states.append(BeamState.from_packed(sc.grid, y))
        traj = Trajectory(scene=sc, states=states, increments=inc)
        h = BeamState(sc.grid, bending_mode_state(sc.g, 1).u,
                      sine_mode_state(sc.grid, 1, 3, "v").v)
        res.append(weak_residual(traj, h).max_value)
    ratios = [res[i] / res[i + 1] for i in range(2)]
    ok = all(1.6 <= r <= 2.6 for r in ratios)
    acceptance(11, f"residual maxima {res[0]:.4f}/{res[1]:.4f}/"
                   f"{res[2]:.4f}, halving ratios {ratios[0]:.2f}/"
                   f"{ratios[1]:.2f} (need 1.6..2.6)", ok)
    assert ok


SHIFT_BASE = """
beam.l = 1.0
beam.b = 1.0
beam.g = 9.81
grid.n = 16
time.T = 0.25
time.dt = 0.001
noise.sigma = %(sigma)s
noise.K = 12
noise.seed = 0
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.0
fdet.family = tabulated
fdet.table = %(table)s
init.family = zero
bc.kind = %(bc)s
"""


def test_slope_shift_stationarity_and_consistency(acceptance):
    grid = build_grid(1.0, 16)
    lam = TractiveForce.bump(c0=1.0)
    # balance gravity against the tension gradient so the lifted state
    # should not move at all
    table = 9.81 - lam.ds_node_values(0.0, grid)
    ttxt = ",".join(repr(float(v)) for v in table)

    cfg = parse_config(SHIFT_BASE % dict(sigma="0.0", table=ttxt,
                                         bc="nonhomogeneous"))
    sc = build_scene(cfg)
    traj = solve_nonhomogeneous(cfg)
    dev = max(max(float(np.max(np.abs(x.u - sc.shift))),
                  float(np.max(np.abs(x.v)))) for x in traj.states)
    em = traj.states[-1]
    bc_def = bc_value_defect(em)
    slope = (em.u[-1, 2] - em.u[-2, 2]) / sc.grid.h
    slope_def = abs(slope - 1.0)

    # same Wiener path, shifted vs unshifted formulation
    cfgn = parse_config(SHIFT_BASE % dict(sigma="1.0", table=ttxt,
                                          bc="nonhomogeneous"))
    trn = solve_nonhomogeneous(cfgn, path_index=3)
    table2 = table + lam.ds_node_values(0.0, grid)
    t2txt = ",".join(repr(float(v)) for v in table2)
    cfgh = parse_config(SHIFT_BASE % dict(sigma="1.0", table=t2txt,
                                          bc="homogeneous"))
    trh = solve_homogeneous(cfgh, path_index=3)
    internal = all(np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
                   for a, b in zip(trn.homogeneous_states, trh.states))
    emitted = all(np.array_equal(a.u, b.u + sc.shift)
                  for a, b in zip(trn.states, trh.states))

    ok = (dev <= 1e-9 and bc_def == 0.0 and slope_def <= 1e-12
          and internal and emitted)
    acceptance(12, f"stationary deviation {dev:.1e} (tol 1e-9); boundary "
                   f"value defect {bc_def:.1e}, slope defect "
                   f"{slope_def:.1e}; shift consistency bitwise "
                   f"{internal and emitted}", ok)
    assert ok


REPRO_CFG = """
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
run.N = 600
run.threads = 1
run.observables = 1:3:v,2:1:v
run.obs_stride = 5
"""


def test_byte_identical_outputs(acceptance, tmp_path):
    cfg1 = tmp_path / "one.cfg"
    cfg1.write_text(REPRO_CFG)
    cfg4 = tmp_path / "four.cfg"
    cfg4.write_text(REPRO_CFG.replace("run.threads = 1", "run.threads = 4"))

    outs = {}
    for tag, cfg in (("a", cfg1), ("b", cfg1), ("t4", cfg4)):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs[tag] = {name: (out / name).read_bytes()
                     for name in ("trajectory.csv", "observables.csv")}

    repeat_same = outs["a"] == outs["b"]
    threads_same = outs["a"] == outs["t4"]
    ok = repeat_same and threads_same
    acceptance(13, "trajectory and observables CSVs byte-identical "
                   f"across repeat runs ({repeat_same}) and thread "
                   f"counts 1 vs 4 ({threads_same}) at 600 paths", ok)
    assert ok
