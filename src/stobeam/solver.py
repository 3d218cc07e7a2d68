"""Path simulation for the clamped-free beam under tension and noise.

The one-step update is the mild-solution recursion

    X_{k+1} = U(t_{k+1}, t_k) (X_k + dt F(t_k)) + A dW_k

with U the Cayley midpoint factor, F = (0, -g e3 + f_det) the packed
deterministic load, and A dW the velocity-channel noise increment.  The
nonhomogeneous boundary variant evolves the homogeneous remainder u =
x - (s - l) e3 with the tension-adjusted load and adds the shift back on
emission.

One kernel, `_block_worker`, advances paths: a block of paths is one
matrix, stepped with one matrix-matrix product per step.  The single-path
solvers run it on a block of width one; `ensemble_blocks` runs fixed-size
blocks and hands them out in block order, and `ensemble_run` merges their
moment accumulators in that order, so results do not depend on the number
of worker threads.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .config import SimulationConfig, compile_expression, parse_observable_spec
from .errors import (BlowupError, InvalidArgumentError, PreconditionError,
                     ShapeError)
from .grid import (BeamGrid, BeamState, BoundaryConditionSet, GramSet,
                   build_grams, build_grid, check_membership, enforce_bc,
                   packed_h_inner, packed_h_norm)
from .noise import (NoiseModel, WienerIncrements, build_noise_model,
                    project_increments, sample_increments)
from .operators import TractiveForce, build_L
from .propagator import PropagatorFactorization, ResidualCurve, build_propagator

#: paths per vectorized block.  Fixed (not derived from the thread count)
#: so that per-block arithmetic is identical for any worker pool size.
BLOCK_PATHS = 256


@dataclass(frozen=True)
class Scene:
    """Everything assembled from a config that the steppers share."""

    cfg: SimulationConfig
    grid: BeamGrid
    g: GramSet = field(repr=False)
    lam: TractiveForce
    bc: BoundaryConditionSet
    P: PropagatorFactorization = field(repr=False)
    model: Optional[NoiseModel] = field(repr=False, default=None)
    shift: Optional[np.ndarray] = None  # (n+2, 3) slope lift, nonhomogeneous only


def tractive_from_config(cfg: SimulationConfig) -> TractiveForce:
    """Build the tension profile; it carries the run horizon T so that
    accidental evaluation outside [0, T] raises instead of extrapolating."""
    if cfg.lam_family == "zero":
        return TractiveForce.zero()
    if cfg.lam_family == "bump":
        return TractiveForce.bump(c0=cfg.lam_c0, c1=cfg.lam_c1,
                                  freq=cfg.lam_freq, horizon=cfg.T)
    return TractiveForce(family="tabulated", c0=cfg.lam_c0, c1=cfg.lam_c1,
                         freq=cfg.lam_freq, table=np.asarray(cfg.lam_table),
                         horizon=cfg.T)


def build_scene(cfg: SimulationConfig) -> Scene:
    """Assemble grid, Gram matrices, tension, propagator and noise model."""
    grid = build_grid(cfg.l, cfg.n)
    g = build_grams(grid, cfg.b)
    lam = tractive_from_config(cfg)
    bc = BoundaryConditionSet(cfg.bc_kind)
    P = build_propagator(lam, g, 0.0, cfg.T, cfg.dt)
    model = None
    if cfg.sigma > 0:
        model = build_noise_model(grid, spectrum=cfg.spectrum, K=cfg.K,
                                  sigma=cfg.sigma, seed=cfg.seed,
                                  table=None if cfg.noise_table is None
                                  else np.asarray(cfg.noise_table))
    shift = None
    if cfg.bc_kind == "nonhomogeneous":
        shift = np.zeros((grid.n + 2, 3))
        shift[:, 2] = grid.nodes - grid.l
    return Scene(cfg=cfg, grid=grid, g=g, lam=lam, bc=bc, P=P, model=model,
                 shift=shift)


def _fdet_at_nodes(cfg: SimulationConfig, grid: BeamGrid) -> Callable[[float], np.ndarray]:
    """Deterministic load sampled at all nodes, (n+2, 3), as a function of t.

    The tabulated family supplies channel-3 node values (transverse load)
    constant in time; the expression family evaluates one expression per
    channel over (s, t).
    """
    n_nodes = grid.n + 2
    if cfg.fdet_family == "zero":
        zero = np.zeros((n_nodes, 3))
        return lambda t: zero
    if cfg.fdet_family == "tabulated":
        table = np.asarray(cfg.fdet_table, dtype=float)
        if table.shape != (n_nodes,):
            raise InvalidArgumentError(
                f"fdet.table has {table.shape[0]} values, grid needs {n_nodes}")
        vals = np.zeros((n_nodes, 3))
        vals[:, 2] = table
        return lambda t: vals
    exprs = [compile_expression(e) for e in
             (cfg.fdet_expr1, cfg.fdet_expr2, cfg.fdet_expr3)]
    s = grid.nodes

    def evaluate(t):
        return np.stack([e(s, t, grid.l) for e in exprs], axis=1)

    return evaluate


def build_forces(scene: Scene) -> np.ndarray:
    """Packed velocity-channel loads F(t_k) for k = 0..n_steps, (K+1, 2m, 3).

    Gravity acts along -e3.  For nonhomogeneous runs the slope lift
    contributes the extra tension term (d lambda/ds) e3, added to f_det
    before gravity so that an equivalent homogeneous run with the summed
    table reproduces identical floats.
    """
    cfg = scene.cfg
    grid = scene.grid
    m = grid.n_free
    n_steps = cfg.n_steps
    fdet = _fdet_at_nodes(cfg, grid)
    times = cfg.dt * np.arange(n_steps + 1)
    time_dep = cfg.fdet_family == "expression" or (
        scene.shift is not None and scene.lam.family != "zero"
        and scene.lam.c1 != 0.0)

    def one(t):
        vals = fdet(t).copy()
        if scene.shift is not None:
            vals[:, 2] = vals[:, 2] + scene.lam.ds_node_values(t, grid)
        vals[:, 2] = vals[:, 2] - cfg.g_const
        out = np.zeros((2 * m, 3))
        out[m:] = vals[:m]
        return out

    if not time_dep:
        return np.broadcast_to(one(0.0), (n_steps + 1, 2 * m, 3))
    return np.stack([one(t) for t in times])


def sine_mode_state(grid: BeamGrid, mode: int, channel: int,
                    part: str) -> BeamState:
    """Test function built from one sine mode in one channel.

    The mode shape is sqrt(2/l) sin(mode pi s / l); `part` selects whether
    it lives in the displacement or velocity slot.
    """
    if mode < 1 or mode > grid.n:
        raise InvalidArgumentError(
            f"sine mode {mode} not representable on a grid with n={grid.n}")
    if channel not in (1, 2, 3) or part not in ("u", "v"):
        raise InvalidArgumentError(
            f"bad observable component ({channel}, {part})")
    shape = np.sqrt(2.0 / grid.l) * np.sin(mode * np.pi * grid.nodes / grid.l)
    shape[-1] = 0.0
    vals = np.zeros((grid.n + 2, 3))
    vals[:, channel - 1] = shape
    zero = np.zeros_like(vals)
    if part == "u":
        return BeamState(grid, vals, zero)
    return BeamState(grid, zero, vals)


def bending_mode_state(g: GramSet, mode: int, amplitude: float = 1.0,
                       channel: int = 3) -> BeamState:
    """Displacement eigenmode of the bending pencil (B, M), unit H-energy
    direction, deterministic sign (positive free-end deflection)."""
    vals, vecs = scipy.linalg.eigh(g.B, np.diag(g.M))
    if mode < 1 or mode > g.m:
        raise InvalidArgumentError(f"bending mode {mode} out of range 1..{g.m}")
    shape = vecs[:, mode - 1]
    if shape[0] < 0:
        shape = -shape
    u = np.zeros((g.grid.n + 2, 3))
    u[:g.m, channel - 1] = amplitude * shape
    return BeamState(g.grid, u, np.zeros_like(u))


def initial_state(cfg: SimulationConfig, g: GramSet) -> BeamState:
    """Initial state of every path; for nonhomogeneous runs the initial
    homogeneous remainder, which is zero (the path starts on the lift).

    Raises:
        InvalidArgumentError: custom initial data on a nonhomogeneous run.
        PreconditionError: the initial data fail the discrete smoothness
            checks (displacement must pass the h6bc stencils, velocity h4bc).
    """
    if cfg.init_family == "zero":
        return BeamState.zero(g.grid)
    if cfg.bc_kind == "nonhomogeneous":
        raise InvalidArgumentError(
            "nonhomogeneous runs start from the slope lift itself; custom "
            "initial data (init.family != zero) are not supported")
    x0 = bending_mode_state(g, cfg.init_mode, cfg.init_amplitude)
    check_membership(x0.u, "h6bc", g, what="initial displacement")
    check_membership(x0.v, "h4bc", g, what="initial velocity")
    return x0


def mild_step(step: np.ndarray, x: BeamState, f: BeamState, dt: float,
              dw: Optional[np.ndarray], sigma: float,
              bc: BoundaryConditionSet) -> BeamState:
    """One mild update: propagate state plus load, then add the noise kick.

    `dw` is the grid Wiener increment (n+2, 3) for this step, or None for
    noiseless runs.  The returned state has its constrained values reset.
    The solvers apply the same update to whole blocks of paths in
    `_block_worker`; this single-state form is for callers that bring
    their own increments.

    Raises:
        BlowupError: the step produced non-finite values.
    """
    y = step @ (x.packed() + dt * f.packed())
    out = BeamState.from_packed(x.grid, y)
    if dw is not None:
        out.v += sigma * dw
    out = enforce_bc(out, bc)
    if not (np.all(np.isfinite(out.u)) and np.all(np.isfinite(out.v))):
        raise BlowupError(
            "state became non-finite during time stepping; reduce dt or "
            "check the load")
    return out


@dataclass
class Trajectory:
    """One sample path on the uniform step grid.

    `states` are the emitted states (shift included for nonhomogeneous
    runs); `homogeneous_states` keeps the raw remainder in that case so
    the lift can be audited bitwise.  `forces` stores the packed loads
    F(t_k) for k = 0..n_steps used by the weak-form residual.
    """

    times: np.ndarray
    states: List[BeamState]
    path_index: int
    bc: BoundaryConditionSet
    g: GramSet = field(repr=False)
    forces: np.ndarray = field(repr=False)
    increments: Optional[WienerIncrements] = field(repr=False, default=None)
    sigma: float = 0.0
    shift: Optional[np.ndarray] = None
    homogeneous_states: Optional[List[BeamState]] = field(repr=False,
                                                          default=None)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _trajectory(scene: Scene, forces: np.ndarray, history: np.ndarray,
                xi: Optional[np.ndarray], path_index: int) -> Trajectory:
    """Trajectory of one path from its packed history (n_steps+1, 2m, 3)
    and its raw draws xi (n_steps, K, 3), None without noise."""
    cfg = scene.cfg
    grid = scene.grid
    states = [BeamState.from_packed(grid, y) for y in history]
    homog = None
    if scene.shift is not None:
        homog = states
        states = [BeamState(grid, x.u + scene.shift, x.v) for x in homog]
    inc = None
    if xi is not None:
        inc = sample_increments(scene.model, cfg.dt, cfg.n_steps, path_index,
                                xi=xi)
    return Trajectory(times=cfg.dt * np.arange(cfg.n_steps + 1),
                      states=states, path_index=path_index, bc=scene.bc,
                      g=scene.g, forces=forces, increments=inc,
                      sigma=cfg.sigma if inc is not None else 0.0,
                      shift=scene.shift, homogeneous_states=homog)


def _single_path(cfg: SimulationConfig, path_index: int) -> Trajectory:
    """Run path `path_index` as a block of width one, history kept."""
    scene = build_scene(cfg)
    x0 = initial_state(cfg, scene.g)
    forces = build_forces(scene)
    _, history, xi = _block_worker(scene, forces, x0.packed(), path_index,
                                   path_index + 1, keep_paths=True)
    return _trajectory(scene, forces, history[..., 0],
                       None if xi is None else xi[0], path_index)


def solve_homogeneous(cfg: SimulationConfig, path_index: int = 0) -> Trajectory:
    """Single path of the clamped-free evolution from the configured data.

    Raises:
        PreconditionError: config is not the homogeneous boundary kind, or
            the initial data fail the discrete smoothness checks (initial
            displacement must pass the h6bc stencils, velocity h4bc).
    """
    if cfg.bc_kind != "homogeneous":
        raise PreconditionError(
            "solve_homogeneous needs bc.kind = homogeneous; use "
            "solve_nonhomogeneous for the slope-driven problem")
    return _single_path(cfg, path_index)


def solve_nonhomogeneous(cfg: SimulationConfig, path_index: int = 0) -> Trajectory:
    """Single path of the slope-driven problem via the stationary lift.

    The emitted states are x = u + (s - l) e3 where the remainder u runs
    through the homogeneous stepper with the tension-adjusted load.

    Raises:
        PreconditionError: config is not the nonhomogeneous kind.
        InvalidArgumentError: custom initial data were requested; only the
            built-in lift initial condition is supported.
    """
    if cfg.bc_kind != "nonhomogeneous":
        raise PreconditionError(
            "solve_nonhomogeneous needs bc.kind = nonhomogeneous")
    return _single_path(cfg, path_index)


def weak_residual(traj: Trajectory, h: BeamState, lam: TractiveForce,
                  increments: Optional[WienerIncrements] = None) -> ResidualCurve:
    """Pathwise defect of the time-integrated weak identity.

    For each step time t_k this evaluates

        r(t_k) = <X_k, h> - <X_0, h>
                 - trapz_j { <L(t_j) X_j, h> + <F_j, h> }
                 - sigma <h_v, W(t_k) - W(t_0)>

    with all pairings in exact weak form.  The test function h must lie in
    the adjoint domain: displacement part passing the h4bc stencils,
    velocity part clamped (h2bc), both with zero stored boundary value.

    Raises:
        PreconditionError: nonhomogeneous trajectory (the identity is
            stated for the homogeneous problem) or h fails the stencils.
    """
    if traj.bc.kind != "homogeneous":
        raise PreconditionError(
            "weak residual is defined for homogeneous trajectories; pass "
            "the remainder of a nonhomogeneous run instead")
    g = traj.g
    if h.grid.n != g.grid.n or h.grid.l != g.grid.l:
        raise ShapeError("test function lives on a different grid")
    check_membership(h.u, "h4bc", g, what="test displacement")
    check_membership(h.u, "h2bc", g, what="test displacement")
    check_membership(h.v, "h2bc", g, what="test velocity")
    if increments is None:
        increments = traj.increments
    n_steps = traj.n_steps
    dt = float(traj.times[1] - traj.times[0])
    hp = h.packed()
    m = g.m

    packed = [x.packed() for x in traj.states]
    pair_vals = np.array([packed_h_inner(y, hp, g) for y in packed])
    gen = np.empty(n_steps + 1)
    for j in range(n_steps + 1):
        op = build_L(lam, float(traj.times[j]), g)
        gen[j] = op.pair(packed[j], hp) + packed_h_inner(traj.forces[j], hp, g)

    integral = np.zeros(n_steps + 1)
    integral[1:] = np.cumsum(0.5 * dt * (gen[:-1] + gen[1:]))

    stoch = np.zeros(n_steps + 1)
    if increments is not None and traj.sigma > 0:
        cum = np.cumsum(increments.increments[:, :m, :], axis=0)
        weights = g.M[:, None] * h.v[:m]
        stoch[1:] = traj.sigma * np.einsum("ic,jic->j", weights, cum)
    values = pair_vals - pair_vals[0] - integral - stoch
    return ResidualCurve(times=traj.times.copy(), values=values)


@dataclass
class EnsembleStats:
    """Streamed first/second moments of scalar observables over paths.

    `values` holds every per-path sample, shape (n_obs, n_times, N); the
    moment fields come from the ordered block merge and agree with
    recomputation from `values` to reassociation error.  With one path the
    sample variance is undefined and `variance_defined` is False.
    """

    times: np.ndarray
    observable_ids: Tuple[str, ...]
    count: int
    mean: np.ndarray
    m2: np.ndarray
    values: np.ndarray = field(repr=False)
    variance_defined: bool = True
    trajectories: Optional[List[Trajectory]] = field(repr=False, default=None)

    @property
    def variance(self) -> np.ndarray:
        """Unbiased sample variance; zeros (flagged) when N = 1."""
        if not self.variance_defined:
            return np.zeros_like(self.mean)
        return self.m2 / (self.count - 1)

    @property
    def stderr_mean(self) -> np.ndarray:
        if not self.variance_defined:
            return np.zeros_like(self.mean)
        return np.sqrt(self.variance / self.count)


def _sample_indices(n_steps: int, stride: int) -> np.ndarray:
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx, dtype=int)


def _block_worker(scene: Scene, forces: np.ndarray, x0p: np.ndarray,
                  p0: int, p1: int, keep_paths: bool, mh=(), idx=()):
    """Evolve paths p0..p1-1 as one (2m, 3, p1 - p0) block.

    Returns the pairings with the premetric observables `mh` at the step
    indices `idx`, shape (n_obs, len(idx), p1 - p0); then, when
    `keep_paths`, the packed history (n_steps+1, 2m, 3, p1 - p0) and the
    raw draws (p1 - p0, n_steps, K, 3) (None without noise), else None and
    None: the draws are only read to rebuild a path's increments.

    Raises:
        BlowupError: a path became non-finite; the message names the first
            such path, the step, and that path's last finite H-norm.
    """
    cfg = scene.cfg
    m = scene.grid.n_free
    n_steps = cfg.n_steps
    pb = p1 - p0
    X = np.repeat(x0p[:, :, None], pb, axis=2)
    xi = None
    if scene.model is not None:
        xi = np.stack([scene.model.draw_xi(n_steps, p) for p in range(p0, p1)])
        # (pb, steps, m, 3) velocity kicks A dW
        kicks = cfg.sigma * project_increments(scene.model, xi, cfg.dt)
    pos = {int(j): ti for ti, j in enumerate(idx)}
    vals = np.empty((len(mh), len(idx), pb))
    history = np.empty((n_steps + 1, 2 * m, 3, pb)) if keep_paths else None
    if keep_paths:
        history[0] = X
    if 0 in pos:
        vals[:, pos[0]] = np.einsum("oic,icp->op", mh, X)
    steps = scene.P.steps
    for k in range(n_steps):
        Y = X + cfg.dt * forces[k][:, :, None]
        X_next = (steps[k] @ Y.reshape(2 * m, -1)).reshape(2 * m, 3, pb)
        if xi is not None:
            X_next[m:] += kicks[:, k].transpose(1, 2, 0)
        if not np.all(np.isfinite(X_next)):
            i = int(np.argmin(np.isfinite(X_next).all(axis=(0, 1))))
            # scaled so that a last state near the overflow threshold
            # still has a finite norm
            scale = float(np.max(np.abs(X[:, :, i]))) or 1.0
            norm = scale * packed_h_norm(X[:, :, i] / scale, scene.g)
            raise BlowupError(
                f"path {p0 + i} became non-finite at step {k + 1}; last "
                f"finite H-norm {norm:.6e} at step {k}; reduce dt or check "
                "the load")
        X = X_next
        if keep_paths:
            history[k + 1] = X
        ti = pos.get(k + 1)
        if ti is not None:
            vals[:, ti] = np.einsum("oic,icp->op", mh, X)
    return vals, history, xi if keep_paths else None


def _merge_moments(count_a, mean_a, m2_a, vals_b):
    """Fold one block of samples into running (count, mean, M2)."""
    nb = vals_b.shape[-1]
    mean_b = vals_b.mean(axis=-1)
    m2_b = ((vals_b - mean_b[..., None]) ** 2).sum(axis=-1)
    if count_a == 0:
        return nb, mean_b, m2_b
    n_ab = count_a + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n_ab)
    m2 = m2_a + m2_b + delta * delta * (count_a * nb / n_ab)
    return n_ab, mean, m2


def observable_states(cfg: SimulationConfig, grid: BeamGrid,
                      specs: Optional[Sequence[str]] = None) -> Tuple[Tuple[str, ...], List[BeamState]]:
    specs = tuple(specs if specs is not None else cfg.observables)
    states = []
    for spec in specs:
        mode, channel, part = parse_observable_spec(spec)
        states.append(sine_mode_state(grid, mode, channel, part))
    return specs, states


@dataclass(frozen=True)
class EnsemblePlan:
    """What every block of an ensemble run shares: the scene, the packed
    loads and initial state, the premetric observables `mh` (n_obs, 2m, 3)
    sampled at step indices `idx`, and `shift_term`, the pairing of each
    observable with the nonhomogeneous lift (zeros for homogeneous runs)."""

    scene: Scene
    forces: np.ndarray = field(repr=False)
    x0p: np.ndarray = field(repr=False)
    observable_ids: Tuple[str, ...]
    mh: np.ndarray = field(repr=False)
    idx: np.ndarray
    shift_term: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.scene.cfg.dt * self.idx


def plan_ensemble(cfg: SimulationConfig,
                  observables: Optional[Sequence[str]] = None) -> EnsemblePlan:
    """Build the scene and everything the blocks of a run share."""
    scene = build_scene(cfg)
    x0p = initial_state(cfg, scene.g).packed()
    forces = build_forces(scene)
    ids, h_states = observable_states(cfg, scene.grid, observables)
    mh = np.stack([scene.g.mh_apply(h.packed()) for h in h_states])
    idx = _sample_indices(cfg.n_steps, cfg.obs_stride)

    # observables are taken on the emitted states; for nonhomogeneous runs
    # the constant shift moves the mean but not the fluctuations, so add
    # its pairing once per observable
    shift_term = np.zeros(len(ids))
    if scene.shift is not None:
        m = scene.grid.n_free
        shift_packed = np.zeros((2 * m, 3))
        shift_packed[:m] = scene.shift[:m]
        shift_term = np.einsum("oic,ic->o", mh, shift_packed)
    return EnsemblePlan(scene=scene, forces=forces, x0p=x0p,
                        observable_ids=ids, mh=mh, idx=idx,
                        shift_term=shift_term)


def ensemble_blocks(plan: EnsemblePlan, threads: int,
                    keep_history: bool = False) -> Iterator[tuple]:
    """Run the plan's paths in blocks of BLOCK_PATHS and yield
    (p0, p1, vals, history, xi) per block, in block-index order.

    `vals` (n_obs, n_times, p1 - p0) are the emitted observables (shift
    term included); `history` and `xi` are `_block_worker`'s, None unless
    `keep_history`.  With `threads > 1` at most 2 * threads blocks are in
    flight, and the next one is submitted only when the oldest is handed
    out, so a slow consumer holds memory for a bounded number of blocks.
    A failing block raises when its turn comes, so the error is the same
    for every thread count.
    """
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    n = plan.scene.cfg.n_paths
    blocks = iter([(p0, min(n, p0 + BLOCK_PATHS))
                   for p0 in range(0, n, BLOCK_PATHS)])
    shift = plan.shift_term[:, None, None]

    def run(p0, p1):
        return _block_worker(plan.scene, plan.forces, plan.x0p, p0, p1,
                             keep_history, plan.mh, plan.idx)

    if threads == 1:
        for p0, p1 in blocks:
            vals, history, xi = run(p0, p1)
            yield p0, p1, vals + shift, history, xi
        return
    ex = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
    try:
        pending = collections.deque(
            (p0, p1, ex.submit(run, p0, p1))
            for p0, p1 in itertools.islice(blocks, 2 * threads))
        while pending:
            p0, p1, fut = pending.popleft()
            vals, history, xi = fut.result()
            nxt = next(blocks, None)
            if nxt is not None:
                pending.append((*nxt, ex.submit(run, *nxt)))
            yield p0, p1, vals + shift, history, xi
    finally:
        ex.shutdown(wait=True, cancel_futures=True)


def ensemble_run(cfg: SimulationConfig, observables: Optional[Sequence[str]] = None,
                 threads: Optional[int] = None,
                 keep_paths: bool = False) -> EnsembleStats:
    """Monte Carlo over N independent paths with streamed moments.

    Observables are H-inner products against sine-mode test functions,
    given as 'mode:channel:u|v' specs (default from the config), sampled
    every `obs_stride` steps plus the final time.  Paths are evolved in
    fixed-size blocks; block results merge in index order, so the output
    is independent of `threads`.  With `keep_paths` the full state history
    of every path is retained (memory scales with N * n_steps); it is for
    library callers that want `Trajectory` objects: `stobeam simulate`
    streams the blocks of `ensemble_blocks` to its CSVs instead.
    """
    plan = plan_ensemble(cfg, observables)
    n = cfg.n_paths
    threads = cfg.threads if threads is None else int(threads)
    values = np.empty((len(plan.observable_ids), len(plan.idx), n))
    count, mean, m2 = 0, None, None
    trajectories: Optional[List[Trajectory]] = [] if keep_paths else None
    for p0, p1, vals, history, xi in ensemble_blocks(plan, threads,
                                                     keep_paths):
        values[:, :, p0:p1] = vals
        count, mean, m2 = _merge_moments(count, mean, m2, vals)
        if keep_paths:
            trajectories.extend(
                _trajectory(plan.scene, plan.forces, history[..., i],
                            None if xi is None else xi[i], p)
                for i, p in enumerate(range(p0, p1)))
    return EnsembleStats(times=plan.times, observable_ids=plan.observable_ids,
                         count=count, mean=mean, m2=m2, values=values,
                         variance_defined=(n > 1),
                         trajectories=trajectories)
