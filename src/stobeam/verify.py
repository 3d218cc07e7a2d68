"""Named structural self-checks over a run configuration.

Each check exercises one identity or bound from the discretization
(skewness, propagator laws, adjoint consistency, trace/variance
quadratures, tension invariants) on the configured grid, and reports
pass/fail plus the measured defect.  Checks that need noise are skipped
when sigma = 0; checks that need a time-varying tension degrade to their
autonomous exact-identity form when the modulation is constant.

`run_checks` is what the command line `verify` subcommand executes; the
test suite calls individual checks directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np
import scipy.linalg

from .config import SimulationConfig
from .errors import StobeamError
from .grid import (BeamState, bc_value_defect, h_norm, packed_d_norm_sq,
                   packed_h_norm)
from .noise import (TRACE_RTOL, ito_variance, project_increments,
                    trace_condition, trace_q)
from .operators import (TractiveForce, build_L0, estimate_constants,
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
    """|<L0 x, L0 x>_H - ||x||_D^2| on random packed states."""
    g = scene.g
    l0 = build_L0(g).mat
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal((2 * g.m, 3))
        lhs = packed_h_norm(l0 @ y, g) ** 2
        rhs = packed_d_norm_sq(y, g)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    return _result("norm_identity", worst, 1e-10,
                   "graph seminorm vs stiff-image H-norm, 100 states")


def check_tractive_invariants(scene) -> CheckResult:
    lam = scene.lam
    t_samples = np.linspace(0.0, scene.cfg.T, 7)
    defects = lam.invariant_defects(scene.grid, t_samples)
    worst = max(defects.values())
    return _result("tractive_invariants", worst, 1e-9,
                   "endpoint values/slopes and sign of the tension profile")


def check_tractive_norm_bound(scene) -> CheckResult:
    consts = scene.constants
    slack = consts.C4_numeric - consts.C4_formula
    scale = max(consts.C4_formula, 1e-30)
    return _result("tractive_norm_bound", slack / scale, 1e-8,
                   f"numeric {consts.C4_numeric:.6g} vs analytic "
                   f"{consts.C4_formula:.6g}")


def check_propagator_identity(scene) -> CheckResult:
    P = scene.P
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = 0.0
    for t in P.times[:: max(1, P.n_steps // 4)]:
        y = rng.standard_normal((2 * scene.g.m, 3))
        d = packed_h_norm(P.apply(y, float(t), float(t)) - y, scene.g)
        worst = max(worst, d / packed_h_norm(y, scene.g))
    return _result("propagator_identity", worst, 1e-12, "U(t,t) = Id")


def check_propagator_cocycle(scene) -> CheckResult:
    P = scene.P
    t0 = P.t0
    r = t0 + P.dt * (P.n_steps // 3)
    mid = t0 + P.dt * (2 * P.n_steps // 3)
    d = cocycle_defect(P, t0, r, mid)
    return _result("propagator_cocycle", d, 1e-12,
                   "U(t,r)U(r,tau) vs U(t,tau), shared factor chain")


def check_generator_integral(scene) -> CheckResult:
    """Residual of U w - w - int L U w; order 2 when the tension varies.

    The probe window is clamped to the configured horizon so short runs
    stay verifiable; the step sizes scale with the window.
    """
    g = scene.g
    lam = scene.lam
    w = bending_mode_state(g, 1)
    span = min(0.2, scene.cfg.T)
    if lam.autonomous:
        P = build_propagator(lam, g, 0.0, span, span / 100.0)
        res = generator_residual(P, lam, w)
        return _result("generator_integral",
                       res.max_value / h_norm(w, g), 1e-8,
                       "autonomous case: trapezoid identity is exact")
    maxes = []
    for dt in (span / 50.0, span / 100.0, span / 200.0):
        P = build_propagator(lam, g, 0.0, span, dt)
        maxes.append(generator_residual(P, lam, w).max_value)
    orders = [math.log2(maxes[i] / maxes[i + 1]) for i in range(2)]
    worst = min(orders)
    return CheckResult("generator_integral",
                       "pass" if worst >= 1.8 else "fail", worst, 1.8,
                       f"Richardson orders {['%.2f' % o for o in orders]} "
                       "(threshold is a lower bound)")


def check_growth_bound(scene) -> CheckResult:
    """||U(t,tau)||_H <= exp((C4 + margin)(t - tau)) on sampled pairs."""
    P = scene.P
    consts = scene.constants
    rng = np.random.default_rng(_RNG_SEED + 2)
    worst = -np.inf
    n = P.n_steps
    for _ in range(20):
        i = int(rng.integers(0, n))
        j = int(rng.integers(i + 1, n + 1))
        tau, t = P.t0 + i * P.dt, P.t0 + j * P.dt
        nrm = op_norm_H(scene.g, P.apply(np.eye(2 * scene.g.m), tau, t))
        bound = math.exp((consts.C4 + 0.05) * (t - tau))
        worst = max(worst, nrm - bound)
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
    roundoff, so the check degrades to an equality test.
    """
    g = scene.g
    lam = scene.lam
    rng = np.random.default_rng(_RNG_SEED + 4)
    y = rng.standard_normal((2 * g.m, 3))
    y /= packed_h_norm(y, g)
    span = min(0.1, scene.cfg.T)

    def defect(dt):
        P = build_propagator(lam, g, 0.0, span, dt)
        via_chain = P.apply_adjoint(y, 0.0, span)
        via_ode = backward_adjoint_apply(lam, g, y, 0.0, span, dt)
        return packed_h_norm(via_chain - via_ode, g)

    if lam.autonomous:
        return _result("adjoint_backward", defect(span / 100.0), 1e-9,
                       "autonomous case: the two adjoint routes coincide")
    d1, d2 = defect(span / 50.0), defect(span / 100.0)
    order = math.log2(d1 / d2)
    return CheckResult("adjoint_backward",
                       "pass" if order >= 0.9 else "fail", order, 0.9,
                       f"defects {d1:.3e} -> {d2:.3e}, order {order:.2f} "
                       "(threshold is a lower bound)")


def check_picard_agreement(scene) -> CheckResult:
    g = scene.g
    lam = scene.lam
    w = bending_mode_state(g, 1)
    span = min(0.1, scene.cfg.T)
    dt = span / 100.0
    P = build_propagator(lam, g, 0.0, span, dt)
    direct = P.apply(w.packed(), 0.0, span)
    pr = picard_evolution(lam, g, w, 0.0, span, dt)
    diff = packed_h_norm(direct - pr.states[-1].packed(), g)
    return _result("picard_agreement", diff / packed_h_norm(direct, g), 1e-5,
                   f"fixed point vs midpoint flow after {pr.iterations} sweeps")


def check_picard_contraction(scene) -> CheckResult:
    g = scene.g
    lam = scene.lam
    if lam.family == "zero":
        return _result("picard_contraction", 0, 0,
                       "no tractive term: fixed point reached in one sweep",
                       skip=True)
    span = min(0.2, scene.cfg.T)
    consts = estimate_constants(lam, g, np.linspace(0.0, span, 9))
    w = bending_mode_state(g, 1)
    pr = picard_evolution(lam, g, w, 0.0, span, span / 200.0,
                          alpha=2.0 * consts.C5, constants=consts)
    # only ratios measured well above the roundoff floor are meaningful
    floor = 1e-8 * pr.defects[0]
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


def _free_flow(scene, cap: float) -> PropagatorFactorization:
    """The tension-free flow on the scene's grid over the whole steps of
    dt that fit in min(T, cap), at least one."""
    dt = scene.cfg.dt
    steps = max(1, int(math.floor(min(scene.cfg.T, cap) / dt + 1e-12)))
    return build_propagator(TractiveForce.zero(), scene.g, 0.0, steps * dt,
                            dt)


def check_trace_identity(scene) -> CheckResult:
    """Autonomous free case: the covariance trace integral is linear in t."""
    if scene.model is None:
        return _result("trace_identity", 0, 0,
                       "sigma = 0: Ito checks skipped", skip=True)
    P0 = _free_flow(scene, 0.25)
    chk = trace_condition(P0, scene.model)
    exact = P0.T * scene.model.sigma ** 2 * trace_q(scene.model)
    return _result("trace_identity", abs(chk.value - exact) / exact,
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
    flat = (scene.P.T - scene.P.t0) * model.sigma ** 2 * trace_q(model)
    return _result("trace_bound", chk.excess, 0.0,
                   f"value {chk.value:.6g} vs growth bound {chk.bound:.6g} "
                   f"(C4 = {scene.constants.C4:.5f}); "
                   f"value / C4=0 bound {chk.value / flat:.4f}")


def check_ito_quadrature(scene) -> CheckResult:
    """Chain-based variance quadrature vs eigen-expansion closed form."""
    if scene.model is None:
        return _result("ito_quadrature", 0, 0,
                       "sigma = 0: Ito checks skipped", skip=True)
    # the closed form needs the free flow, the scene's at zero tension
    P = scene.P if scene.lam.family == "zero" else _free_flow(scene, 0.1)
    t_end = P.T
    h = sine_mode_state(scene.grid, 1, 3, "v")
    quad = ito_variance(P, scene.model, h, t0=0.0, t=t_end)
    closed = free_variance_closed_form(scene, h, t_end, P.dt)
    return _result("ito_quadrature", abs(quad - closed) / max(closed, 1e-30),
                   1e-8, "backward-chain quadrature vs modal closed form")


def free_variance_closed_form(scene, h: BeamState, t_end: float,
                              dt: float) -> float:
    """Variance of <X(t), h> for the free flow via exact Cayley rotations.

    Each bending mode rotates by the exact phase 2 atan(omega dt / 2) per
    step, so the stochastic convolution variance reduces to finite
    trigonometric sums; this shares no code with `ito_variance`.
    """
    g = scene.g
    model = scene.model
    evals, evecs = scipy.linalg.eigh(g.B, np.diag(g.M))
    omega = np.sqrt(np.maximum(evals, 0.0))
    phi = 2.0 * np.arctan(0.5 * omega * dt)
    n_steps = int(round(t_end / dt))
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
                  init_family="zero", bc_kind="homogeneous")
    traj = solve_homogeneous(cfg)
    h = BeamState(scene.grid, bending_mode_state(scene.g, 1).u,
                  sine_mode_state(scene.grid, 1, 3, "v").v)
    r = _solver.weak_residual(traj, h)
    return _result("weak_identity_null", r.max_value, 0.0,
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
    rather than aborting the batch.
    """
    scene = build_scene(cfg)
    results = []
    for check in _CHECKS:
        try:
            results.append(check(scene))
        except StobeamError as exc:
            results.append(CheckResult(check.__name__.replace("check_", ""),
                                       "fail", None, None, str(exc)))
    return results
