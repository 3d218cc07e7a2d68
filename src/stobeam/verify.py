"""Named structural self-checks over a run configuration.

Each check exercises one identity or bound from the discretization
(skewness, propagator laws, adjoint consistency, trace/variance
quadratures, tension invariants) on the configured grid, and reports
pass/fail plus the measured defect.  Checks that need noise are skipped
when sigma = 0; checks that need a time-varying tension degrade to their
autonomous exact-identity form when the modulation is constant.

`run_checks` is what the command line `verify` subcommand executes; the
test suite calls individual checks directly.

The identities of L(t) belong to the generator, not to the run, so one
probe rule holds for the checks that test them (generator integral,
backward adjoint, Picard agreement and contraction, trace identity, Ito
quadrature): each spans its own fixed window whatever the horizon, so
that short runs do not probe at the rounding floor, reads the tension
with its horizon lifted (`Scene.lifted`), and walks chains that
`Scene.propagator` hands out: a prefix of the scene's P or a fresh
build, freed when the check ends.  A free flow (of the zero tension) is
always a fresh one-factor build.

The identity walks run once per check: `growth_bound` takes all of its
windows from one forward walk of the identity (a window is a solve
against the LU factors of its start, kept while the window is open), and
`trace_identity` sums the free flow's trace integrand from one forward
walk of the K noise columns, since on the free flow U(t, t_j) = G^(n-j);
`trace_bound` keeps `trace_condition`'s backward walk, which any chain
needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .config import SimulationConfig
from .errors import StobeamError
from .grid import (BeamState, bc_value_defect, h_norm, packed_d_norm_sq,
                   packed_h_norm, packed_h_norm_sq)
from .noise import (TRACE_RTOL, ito_variance, project_increments,
                    trace_condition, trace_q)
from .operators import (TractiveForce, apply_L0, estimate_constants,
                        op_norm_H, skew_defect)
from .propagator import (PropagatorFactorization, backward_adjoint_apply,
                         build_propagator, cocycle_defect, duality_defect,
                         generator_residual, picard_evolution)
from . import solver as _solver
from .solver import (bending_mode_state, build_scene, sine_mode_state,
                     solve_homogeneous)

_RNG_SEED = 20240911


@dataclass
class CheckResult:
    name: str
    status: str           # "pass" | "fail" | "skip"
    defect: Optional[float]
    threshold: Optional[float]
    note: str = ""


def _result(name, defect, threshold, note="", skip=False):
    if skip:
        return CheckResult(name, "skip", None, threshold, note)
    status = "pass" if defect <= threshold else "fail"
    return CheckResult(name, status, float(defect), threshold, note)


def check_skew_adjoint(scene) -> CheckResult:
    return _result("skew_adjoint", skew_defect(scene.g), 1e-12,
                   "relative Gram-skewness of the stiff block")


def check_norm_identity(scene) -> CheckResult:
    """|<L0 x, L0 x>_H - ||x||_D^2| on random packed states, one stack of
    100, each state's norms the bits of its own."""
    g = scene.g
    l0 = apply_L0(g, np.eye(2 * g.m))
    y = np.random.default_rng(_RNG_SEED).standard_normal((100, 2 * g.m, 3))
    lhs = np.sqrt(np.maximum(packed_h_norm_sq(l0 @ y, g), 0.0)) ** 2
    rhs = packed_d_norm_sq(y, g)
    worst = np.max(np.abs(lhs - rhs) / np.maximum(lhs, rhs))
    return _result("norm_identity", worst, 1e-10,
                   "graph seminorm vs stiff-image H-norm, 100 states")


def check_tractive_invariants(scene) -> CheckResult:
    defects = scene.lam.invariant_defects(scene.grid, scene.cfg.T)
    worst = max(defects.values())
    return _result("tractive_invariants", worst, 1e-9,
                   "endpoint values/slopes and sign of the tension profile")


def check_tractive_norm_bound(scene) -> CheckResult:
    """The exact norm's excess over the analytic C4, relative to it, or
    absolute where the analytic value is 0."""
    consts = scene.constants
    slack = consts.C4_numeric - consts.C4_formula
    if consts.C4_formula > 0:
        slack /= consts.C4_formula
    return _result("tractive_norm_bound", slack, 1e-8,
                   f"numeric {consts.C4_numeric:.6g} vs analytic "
                   f"{consts.C4_formula:.6g}")


def check_propagator_identity(scene) -> CheckResult:
    P = scene.P
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = 0.0
    for i in range(0, P.n_steps + 1, max(1, P.n_steps // 4)):
        y = rng.standard_normal((2 * scene.g.m, 3))
        d = packed_h_norm(P.apply(y, i, i) - y, scene.g)
        worst = max(worst, d / packed_h_norm(y, scene.g))
    return _result("propagator_identity", worst, 1e-12, "U(t,t) = Id")


def check_propagator_cocycle(scene) -> CheckResult:
    """U(t,r)U(r,tau) vs U(t,tau) at the steps 0, n/3, 2n/3, or 0, 1, 2
    at n = 2, so that r splits the chain; one step has no such split."""
    P, n = scene.P, scene.P.n_steps
    if n < 2:
        return _result("propagator_cocycle", 0, 0,
                       "one step: no interior split of the chain", skip=True)
    d = cocycle_defect(P, 0, max(1, n // 3), max(2, 2 * n // 3))
    return _result("propagator_cocycle", d, 1e-12,
                   "U(t,r)U(r,tau) vs U(t,tau), shared factor chain")


def check_generator_integral(scene) -> CheckResult:
    """Residual of U w - w - int L U w on [0, 0.2]; order 2 when the
    tension varies."""
    g = scene.g
    lam = scene.lifted
    w = bending_mode_state(g, 1)

    def residual(n):
        return float(np.max(np.abs(generator_residual(
            scene.propagator(n, 0.2 / n), lam, w))))

    if lam.autonomous:
        return _result("generator_integral", residual(100) / h_norm(w, g),
                       1e-8, "autonomous case: trapezoid identity is exact")
    maxes = [residual(n) for n in (50, 100, 200)]
    orders = [math.log2(maxes[i] / maxes[i + 1]) for i in range(2)]
    worst = min(orders)
    return CheckResult("generator_integral",
                       "pass" if worst >= 1.8 else "fail", worst, 1.8,
                       f"Richardson orders {['%.2f' % o for o in orders]} "
                       "(threshold is a lower bound)")


def _window_norms(P: PropagatorFactorization, windows) -> List[float]:
    """||U(t_j, t_i)||_H of each window (i, j), i < j, of P's steps.

    One forward walk of the identity passes U(t_k, 0) at every window
    end, and U(t_j, t_i) = U(t_j, 0) U(t_i, 0)^-1 is one solve against the
    LU factors of U(t_i, 0).  Those are kept only while a window from t_i
    is open, so at most one per open window is held."""
    g = P.g
    last = {}  # the last window end from each start
    for i, j in windows:
        last[i] = max(j, last.get(i, j))
    norms, starts = [None] * len(windows), {}
    for k, x in enumerate(P.walk(np.eye(2 * g.m), 0, max(last.values()))):
        for w, (i, j) in enumerate(windows):
            if j == k:  # U^T solves U(t_i, 0)^T U^T = U(t_j, 0)^T
                norms[w] = op_norm_H(g, lu_solve(starts[i], x.T, trans=1).T)
        starts = {i: lu for i, lu in starts.items() if last[i] > k}
        if k in last:
            starts[k] = lu_factor(x)
    return norms


def check_growth_bound(scene) -> CheckResult:
    """||U(t,tau)||_H <= exp((C4 + margin)(t - tau)) on sampled pairs."""
    P = scene.P
    consts = scene.constants
    rng = np.random.default_rng(_RNG_SEED + 2)
    n, times = P.n_steps, P.times
    windows = []
    for _ in range(20):
        i = int(rng.integers(0, n))
        windows.append((i, int(rng.integers(i + 1, n + 1))))
    with np.errstate(over="ignore"):  # a bound beyond the doubles holds
        worst = max(nrm - np.exp((consts.C4 + 0.05) * (times[j] - times[i]))
                    for (i, j), nrm in zip(windows, _window_norms(P, windows)))
    return _result("growth_bound", max(worst, 0.0), 0.0,
                   f"C4 = {consts.C4:.5f}, margin 0.05, 20 random windows")


def check_duality(scene) -> CheckResult:
    P = scene.P
    g = scene.g
    rng = np.random.default_rng(_RNG_SEED + 3)
    pairs = [(rng.standard_normal((2 * g.m, 3)),
              rng.standard_normal((2 * g.m, 3))) for _ in range(10)]
    # the 10 pairs as one (2m, 3, 10) stack, stepped as one chain each way
    x, y = (np.stack(s, axis=2) for s in zip(*pairs))
    worst = duality_defect(P, x, y)
    return _result("duality", worst, 1e-11, "<Ux,y> vs <x,U*y>, 10 pairs")


def check_adjoint_backward(scene) -> CheckResult:
    """Backward-equation adjoint vs Gram-transpose chain.

    The two discretizations differ at O(dt^2) only through the time
    dependence of the tension; when it is constant they coincide up to
    roundoff, so the check degrades to an equality test.  The probe is
    smooth; a random one is still pre-asymptotic here on finer grids.
    """
    g = scene.g
    lam = scene.lifted
    y = bending_mode_state(g, 1).packed()
    y /= packed_h_norm(y, g)

    def defect(n):
        via_chain = scene.propagator(n, 0.1 / n).apply_adjoint(y)
        via_ode = backward_adjoint_apply(lam, g, y, n, 0.1 / n)
        return packed_h_norm(via_chain - via_ode, g)

    if lam.autonomous:
        return _result("adjoint_backward", defect(100), 1e-9,
                       "autonomous case: the two adjoint routes coincide")
    d1, d2 = defect(50), defect(100)
    order = math.log2(d1 / d2)
    return CheckResult("adjoint_backward",
                       "pass" if order >= 0.9 else "fail", order, 0.9,
                       f"defects {d1:.3e} -> {d2:.3e}, order {order:.2f} "
                       "(threshold is a lower bound)")


def check_picard_agreement(scene) -> CheckResult:
    g = scene.g
    w = bending_mode_state(g, 1)
    dt = 0.1 / 100.0
    direct = scene.propagator(100, dt).apply(w.packed())
    free = build_propagator(TractiveForce.zero(), g, 100, dt)
    pr = picard_evolution(scene.lifted, free, w)
    diff = packed_h_norm(direct - pr.final, g)
    return _result("picard_agreement", diff / packed_h_norm(direct, g), 1e-5,
                   f"fixed point vs midpoint flow after {pr.iterations} sweeps")


def check_picard_contraction(scene) -> CheckResult:
    """Picard's defect ratios against C5/alpha on [0, 0.2]; skipped where
    C5 is 0, a tension of the zero family or one with c = 0 throughout."""
    g = scene.g
    lam = scene.lifted
    consts = estimate_constants(lam, g, 0.2)
    if consts.C5 == 0:
        return _result("picard_contraction", 0, 0,
                       "no tractive term: fixed point reached in one sweep",
                       skip=True)
    free = build_propagator(TractiveForce.zero(), g, 200, 0.2 / 200.0)
    pr = picard_evolution(lam, free, bending_mode_state(g, 1),
                          alpha=2.0 * consts.C5, constants=consts)
    # only ratios well above the graph norm's rounding floor count; the
    # defects stall near 2e-10 d0 at n = 16 and 3e-7 d0 at n = 128
    floor = 1e-8 * (g.grid.n / 16) ** 3 * pr.defects[0]
    ratios = [pr.defects[i + 1] / pr.defects[i]
              for i in range(len(pr.defects) - 1) if pr.defects[i] > floor]
    if not ratios:
        return _result("picard_contraction", 0, 0,
                       "converged too fast to measure a ratio", skip=True)
    bound = consts.C5 / pr.alpha + 0.1
    return _result("picard_contraction", max(ratios), bound,
                   f"worst defect ratio over {len(ratios)} sweeps, "
                   f"alpha = {pr.alpha:.3f}")


def check_noise_orthonormality(scene) -> CheckResult:
    if scene.model is None:
        return _result("noise_orthonormality", 0, 0,
                       "sigma = 0: no noise model", skip=True)
    model = scene.model
    g = scene.g
    gram = model.e_red.T @ (g.M[:, None] * model.e_red)
    d = np.max(np.abs(gram - np.eye(model.K)))
    return _result("noise_orthonormality", d, 1e-12,
                   "mass-weighted Gram of the sine modes")


def check_increment_determinism(scene) -> CheckResult:
    if scene.model is None:
        return _result("increment_determinism", 0, 0,
                       "sigma = 0: no noise model", skip=True)
    a, b = (project_increments(scene.model, scene.model.path_xi(4, 0),
                               scene.cfg.dt) for _ in range(2))
    same = np.array_equal(a, b)
    return _result("increment_determinism", 0.0 if same else 1.0, 0.0,
                   "same (seed, path) draws are bitwise identical")


def _free_flow(scene, span: float) -> PropagatorFactorization:
    """The free flow over the whole steps of dt in span, at least one."""
    dt = scene.cfg.dt
    steps = max(1, int(math.floor(span / dt + 1e-12)))
    return build_propagator(TractiveForce.zero(), scene.g, steps, dt)


def check_trace_identity(scene) -> CheckResult:
    """Autonomous free case: the covariance trace integral is linear in t.

    The free flow's steps are one shared factor G, so U(t_n, t_j) =
    G^(n-j), and the integrand of `trace_condition` at node j,
    3 sigma^2 sum_k q_k ||G^(n-j) (0, e_k)||_H^2, is 3 sigma^2 times the
    squared H-norm of G^(n-j) on the K columns (0, sqrt(q_k) e_k): one
    forward walk of those columns passes every node, last node first."""
    if scene.model is None:
        return _result("trace_identity", 0, 0,
                       "sigma = 0: Ito checks skipped", skip=True)
    model, m = scene.model, scene.g.m
    P0 = _free_flow(scene, 0.25)
    cols = np.zeros((2 * m, model.K))
    cols[m:] = model.e_red * np.sqrt(model.q)
    norms = np.empty(P0.n_steps + 1)
    for j0, stack in P0.stacks(cols):
        norms[j0:j0 + len(stack)] = packed_h_norm_sq(stack, scene.g)
    value = 3.0 * model.sigma ** 2 * np.trapezoid(norms[::-1], dx=P0.dt)
    exact = P0.times[-1] * model.sigma ** 2 * trace_q(model)
    return _result("trace_identity", abs(value - exact) / exact,
                   TRACE_RTOL,
                   "free flow: integrated trace = span * sigma^2 * tr Q")


def check_trace_bound(scene) -> CheckResult:
    """Trace integral against span sigma^2 exp(2 C4 span) tr Q, with the
    scene's C4, to the relative tolerance of `TraceCheck.excess`; the note
    also gives its ratio to the C4 = 0 value, which only the
    norm-preserving flow is bound by."""
    if scene.model is None:
        return _result("trace_bound", 0, 0,
                       "sigma = 0: Ito checks skipped", skip=True)
    model = scene.model
    chk = trace_condition(scene.P, model, scene.constants)
    flat = scene.cfg.T * model.sigma ** 2 * trace_q(model)
    return _result("trace_bound", chk.excess, 0.0,
                   f"value {chk.value:.6g} vs growth bound {chk.bound:.6g} "
                   f"(C4 = {scene.constants.C4:.5f}); "
                   f"value / C4=0 bound {chk.value / flat:.4f}")


def check_ito_quadrature(scene) -> CheckResult:
    """Chain-based variance quadrature vs eigen-expansion closed form."""
    if scene.model is None:
        return _result("ito_quadrature", 0, 0,
                       "sigma = 0: Ito checks skipped", skip=True)
    P = _free_flow(scene, 0.1)
    h = sine_mode_state(scene.grid, 1, 3, "v")
    quad = ito_variance(P, scene.model, h, [P.n_steps])[0]
    closed = free_variance_closed_form(scene, h, P.n_steps, P.dt)
    return _result("ito_quadrature", abs(quad - closed) / max(closed, 1e-30),
                   1e-8, "backward-chain quadrature vs modal closed form")


def free_variance_closed_form(scene, h: BeamState, n_steps: int,
                              dt: float) -> float:
    """Variance of <X(t), h> at t = n_steps dt for the free flow via exact
    Cayley rotations.

    Each bending mode rotates by the exact phase 2 atan(omega dt / 2) per
    step, so the stochastic convolution variance reduces to finite
    trigonometric sums; this shares no code with `ito_variance`.
    """
    g = scene.g
    model = scene.model
    evals, evecs = g.bending_modes
    omega = np.sqrt(np.maximum(evals, 0.0))
    phi = 2.0 * np.arctan(0.5 * omega * dt)
    m = g.m
    # mass-orthonormal modal coefficients of the noise shapes and of h
    alpha = evecs.T @ (g.M[:, None] * model.e_red)          # (m, K)
    hu = evecs.T @ (g.B @ h.packed()[:m])                   # bending pairing
    hv = evecs.T @ (g.M[:, None] * h.packed()[m:])          # mass pairing
    total = 0.0
    for c in range(3):
        # per channel: integrand_j = sum_k q_k f_k(j)^2 with
        # f_k(j) = sum_i alpha_ik [hv_ic cos((n-j) phi_i)
        #                          + hu_ic sin((n-j) phi_i)/omega_i]
        # (a velocity kick rotates into displacement with positive phase)
        w = np.where(omega > 0, 1.0 / np.maximum(omega, 1e-300), 0.0)
        js = np.arange(n_steps + 1)
        ang = np.outer(n_steps - js, phi)                   # (J+1, m)
        f = (np.cos(ang) * hv[:, c][None, :]
             + np.sin(ang) * (w * hu[:, c])[None, :]) @ alpha  # (J+1, K)
        integrand = (f * f) @ model.q
        total += np.trapezoid(integrand, dx=dt)
    return float(model.sigma ** 2 * total)


def check_bc_conformity(scene) -> CheckResult:
    cfg = scene.cfg
    steps = min(cfg.n_steps, 20)
    short = replace(cfg, T=steps * cfg.dt,
                    bc_kind="homogeneous", init_family="zero")
    traj = solve_homogeneous(short)
    worst = max(bc_value_defect(s) for s in traj.states)
    return _result("bc_conformity", worst, 0.0,
                   f"stored boundary rows over {steps} steps")


def check_weak_identity_null(scene) -> CheckResult:
    """Free, noiseless, unforced, zero data: the weak residual vanishes."""
    cfg = replace(scene.cfg, T=20 * scene.cfg.dt, sigma=0.0, g_const=0.0,
                  lam_family="zero", fdet_family="zero", fdet_table=None,
                  init_family="zero", bc_kind="homogeneous", n_paths=1)
    zero = build_scene(cfg)
    _, _, _, history = next(_solver.ensemble_blocks(zero, keep_history=True))
    h = BeamState(scene.grid, bending_mode_state(scene.g, 1).u,
                  sine_mode_state(scene.grid, 1, 3, "v").v)
    r = _solver.weak_residual(zero, history[..., 0], None, h)
    return _result("weak_identity_null", float(np.max(np.abs(r))), 0.0,
                   "zero data must give an exactly zero residual")


_CHECKS: List[Callable] = [
    check_skew_adjoint,
    check_norm_identity,
    check_tractive_invariants,
    check_tractive_norm_bound,
    check_propagator_identity,
    check_propagator_cocycle,
    check_generator_integral,
    check_growth_bound,
    check_duality,
    check_adjoint_backward,
    check_picard_agreement,
    check_picard_contraction,
    check_noise_orthonormality,
    check_increment_determinism,
    check_trace_identity,
    check_trace_bound,
    check_ito_quadrature,
    check_bc_conformity,
    check_weak_identity_null,
]


def run_checks(cfg: SimulationConfig) -> List[CheckResult]:
    """Run every structural check against one configuration.

    A check that raises is reported as failed with the exception text
    rather than aborting the batch.  The scene's dense chain, which most
    checks walk, is built first, so a chain that cannot be built stops
    the batch with its error.
    """
    scene = build_scene(cfg)
    scene.P
    results = []
    for check in _CHECKS:
        try:
            results.append(check(scene))
        except StobeamError as exc:
            results.append(CheckResult(check.__name__.replace("check_", ""),
                                       "fail", None, None, str(exc)))
    return results
