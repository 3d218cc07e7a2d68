"""Path simulation for the clamped-free beam under tension and noise.

The one-step update is the mild-solution recursion

    X_{k+1} = U(t_{k+1}, t_k) (X_k + dt F(t_k)) + A dW_k

with U the Cayley midpoint factor, F = (0, -g e3 + f_det) the packed
deterministic load, and A dW the velocity-channel noise increment.  The
nonhomogeneous boundary variant evolves the homogeneous remainder u =
x - (s - l) e3 with the tension-adjusted load and adds the shift back on
emission.

A run is one `Scene`: what `build_scene` assembles from the config, plus
the loads, initial state and observables it builds on first use.  One
kernel, `_block_worker`, advances the scene's paths: a block of paths is
one matrix, stepped with one `step_rule` call per step, whose one large
product is the (m x m) step factor times the block's (m x 3 pb) sums.  The
single-path solvers run it on a block of width one and keep the path's
history and the Wiener increments the kernel projected; `ensemble_blocks`
runs fixed-size blocks and hands them out in block order, and
`ensemble_run`, the one moment fold, merges their accumulators in that
order, so results do not depend on the number of worker threads.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

import numpy as np
import scipy.linalg

from .config import SimulationConfig, compile_expression, parse_observable_spec
from .errors import (BlowupError, InvalidArgumentError, PreconditionError,
                     ShapeError)
from .grid import (BeamGrid, BeamState, GramSet, build_grams, build_grid,
                   check_membership, packed_h_inner, packed_h_norm)
from .noise import NoiseModel, build_noise_model, project_increments
from .operators import (StabilityConstants, TractiveForce, build_L,
                        estimate_constants)
from .propagator import (PropagatorFactorization, ResidualCurve,
                         build_propagator, step_rule)

#: paths per vectorized block.  Fixed (not derived from the thread count)
#: so that per-block arithmetic is identical for any worker pool size.
BLOCK_PATHS = 256

#: time steps per noise chunk: a block draws and holds the draws of this
#: many steps at a time.  Below 16 the per-call cost of the draws shows in
#: the wall time.
CHUNK_STEPS = 32


@dataclass(frozen=True)
class Scene:
    """Everything a run shares.

    The fields are assembled by `build_scene`; the cached properties are
    built on first use and then kept, so a command that never steps a
    path builds no loads, initial state or observables.
    """

    cfg: SimulationConfig
    grid: BeamGrid
    g: GramSet = field(repr=False)
    lam: TractiveForce
    P: PropagatorFactorization = field(repr=False)
    model: Optional[NoiseModel] = field(repr=False, default=None)
    shift: Optional[np.ndarray] = None  # (n+2, 3) slope lift, nonhomogeneous only

    @functools.cached_property
    def constants(self) -> StabilityConstants:
        """Stability constants of the tension at 11 times over [0, T]."""
        return estimate_constants(self.lam, self.g,
                                  np.linspace(0.0, self.cfg.T, 11))

    @functools.cached_property
    def forces(self) -> np.ndarray:
        """Packed loads F(t_k), (n_steps+1, 2m, 3); see `build_forces`."""
        return build_forces(self)

    @functools.cached_property
    def x0p(self) -> np.ndarray:
        """Packed initial state of every path; see `initial_state`."""
        return initial_state(self.cfg, self.g).packed()

    @functools.cached_property
    def obs_mh(self) -> np.ndarray:
        """Premetric images M_H h of the observables, (n_obs, 2m, 3)."""
        return np.stack([self.g.mh_apply(sine_mode_state(
            self.grid, *parse_observable_spec(spec)).packed())
            for spec in self.cfg.observables])

    @functools.cached_property
    def obs_steps(self) -> np.ndarray:
        """Observable sample steps: every obs_stride-th and the last."""
        n = self.cfg.n_steps
        return np.unique(np.r_[0:n + 1:self.cfg.obs_stride, n])


def build_scene(cfg: SimulationConfig) -> Scene:
    """Assemble grid, Gram matrices, tension, propagator and noise model."""
    grid = build_grid(cfg.l, cfg.n)
    g = build_grams(grid, cfg.b)
    # with the horizon T, evaluation outside [0, T] raises, not extrapolates
    lam = TractiveForce(family=cfg.lam_family, c0=cfg.lam_c0, c1=cfg.lam_c1,
                        freq=cfg.lam_freq, table=cfg.lam_table, horizon=cfg.T)
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
    return Scene(cfg=cfg, grid=grid, g=g, lam=lam, P=P, model=model,
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
        vals = np.zeros((n_nodes, 3))
        vals[:, 2] = cfg.fdet_table
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
        scene.shift is not None and not scene.lam.autonomous)

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


def bending_mode_state(g: GramSet, mode: int,
                       amplitude: float = 1.0) -> BeamState:
    """Transverse (channel 3) displacement eigenmode of the bending pencil
    (B, M), unit H-energy direction, deterministic sign (positive free-end
    deflection)."""
    vals, vecs = scipy.linalg.eigh(g.B, np.diag(g.M))
    if mode < 1 or mode > g.m:
        raise InvalidArgumentError(f"bending mode {mode} out of range 1..{g.m}")
    shape = vecs[:, mode - 1]
    if shape[0] < 0:
        shape = -shape
    u = np.zeros((g.grid.n + 2, 3))
    u[:g.m, 2] = amplitude * shape
    return BeamState(g.grid, u, np.zeros_like(u))


def initial_state(cfg: SimulationConfig, g: GramSet) -> BeamState:
    """Initial state of every path; for nonhomogeneous runs the initial
    homogeneous remainder, which is zero (the path starts on the lift).

    Raises:
        PreconditionError: the initial data fail the discrete smoothness
            checks (displacement must pass the h6bc stencils, velocity h4bc).
    """
    if cfg.init_family == "zero":
        return BeamState.zero(g.grid)
    x0 = bending_mode_state(g, cfg.init_mode, cfg.init_amplitude)
    check_membership(x0.u, "h6bc", g, what="initial displacement")
    check_membership(x0.v, "h4bc", g, what="initial velocity")
    return x0


@dataclass
class Trajectory:
    """One sample path of `scene` on the uniform step grid.

    `states` are the emitted states (shift included for nonhomogeneous
    runs); `homogeneous_states` keeps the raw remainder in that case so
    the lift can be audited bitwise.  `increments` are the path's Wiener
    increments W(t_{k+1}) - W(t_k) on the nodes 0..n, (n_steps, m, 3), as
    the kernel projected them; None without noise.
    """

    scene: Scene = field(repr=False)
    states: List[BeamState]
    increments: Optional[np.ndarray] = field(repr=False, default=None)
    homogeneous_states: Optional[List[BeamState]] = field(repr=False,
                                                          default=None)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    @property
    def times(self) -> np.ndarray:
        return self.scene.cfg.dt * np.arange(self.n_steps + 1)


def _single_path(cfg: SimulationConfig, path_index: int) -> Trajectory:
    """Run path `path_index` as a block of width one, history kept."""
    scene = build_scene(cfg)
    grid = scene.grid
    _, history, inc = _block_worker(scene, path_index, path_index + 1, True)
    states = [BeamState.from_packed(grid, y) for y in history[..., 0]]
    homog = None
    if scene.shift is not None:
        homog = states
        states = [BeamState(grid, x.u + scene.shift, x.v) for x in homog]
    return Trajectory(scene=scene, states=states,
                      increments=None if inc is None else inc[0],
                      homogeneous_states=homog)


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
    """
    if cfg.bc_kind != "nonhomogeneous":
        raise PreconditionError(
            "solve_nonhomogeneous needs bc.kind = nonhomogeneous")
    return _single_path(cfg, path_index)


def weak_residual(traj: Trajectory, h: BeamState) -> ResidualCurve:
    """Pathwise defect of the time-integrated weak identity.

    For each step time t_k this evaluates

        r(t_k) = <X_k, h> - <X_0, h>
                 - trapz_j { <L(t_j) X_j, h> + <F_j, h> }
                 - sigma <h_v, W(t_k) - W(t_0)>

    with all pairings in exact weak form, and the tension, loads and
    sigma of the path's scene.  The test function h must lie in the
    adjoint domain: displacement part passing the h4bc stencils, velocity
    part clamped (h2bc), both with zero stored boundary value.

    Raises:
        PreconditionError: nonhomogeneous trajectory (the identity is
            stated for the homogeneous problem) or h fails the stencils.
    """
    scene = traj.scene
    if scene.shift is not None:
        raise PreconditionError(
            "weak residual is defined for homogeneous trajectories; pass "
            "the remainder of a nonhomogeneous run instead")
    g = scene.g
    if h.grid.n != g.grid.n or h.grid.l != g.grid.l:
        raise ShapeError("test function lives on a different grid")
    check_membership(h.u, "h4bc", g, what="test displacement")
    check_membership(h.u, "h2bc", g, what="test displacement")
    check_membership(h.v, "h2bc", g, what="test velocity")
    n_steps = traj.n_steps
    times = traj.times
    hp = h.packed()

    packed = [x.packed() for x in traj.states]
    pair_vals = np.array([packed_h_inner(y, hp, g) for y in packed])
    gen = np.empty(n_steps + 1)
    for j in range(n_steps + 1):
        op = build_L(scene.lam, float(times[j]), g)
        gen[j] = op.pair(packed[j], hp) + packed_h_inner(scene.forces[j], hp, g)

    integral = np.zeros(n_steps + 1)
    integral[1:] = np.cumsum(0.5 * scene.cfg.dt * (gen[:-1] + gen[1:]))

    stoch = np.zeros(n_steps + 1)
    if traj.increments is not None:
        cum = np.cumsum(traj.increments, axis=0)
        weights = g.M[:, None] * h.v[:g.m]
        stoch[1:] = scene.cfg.sigma * np.einsum("ic,jic->j", weights, cum)
    values = pair_vals - pair_vals[0] - integral - stoch
    return ResidualCurve(times=times, values=values)


@dataclass
class EnsembleStats:
    """Streamed first/second moments of scalar observables over paths.

    The moment fields come from the ordered block merge of `ensemble_run`;
    `scene` is the one the run was built on.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray
    scene: Scene = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.scene.cfg.dt * self.scene.obs_steps

    @property
    def observable_ids(self) -> tuple:
        return self.scene.cfg.observables

    @property
    def variance_defined(self) -> bool:
        """False with one path, where the sample variance is undefined."""
        return self.count > 1

    @property
    def variance(self) -> np.ndarray:
        """Unbiased sample variance; zeros (flagged) when N = 1."""
        if not self.variance_defined:
            return np.zeros_like(self.mean)
        return self.m2 / (self.count - 1)


def _block_worker(scene: Scene, p0: int, p1: int, keep_history: bool):
    """Evolve paths p0..p1-1 of the scene's run as one (2m, 3, p1 - p0)
    block.

    Returns the emitted observables, shape (n_obs, n_times, p1 - p0): the
    pairings with `scene.obs_mh` at the steps `scene.obs_steps`, lift
    included.  Then, when `keep_history`, the packed history
    (n_steps+1, 2m, 3, p1 - p0) and the Wiener increments on the nodes
    0..n, (p1 - p0, n_steps, m, 3) (None without noise); else None and
    None.

    Noise is drawn in chunks of CHUNK_STEPS steps: each path keeps one
    generator for the whole block, and per chunk the block draws into one
    (p1 - p0, CHUNK_STEPS, K, 3) buffer and copies the draws once into a
    (CHUNK_STEPS, K, 3, p1 - p0) buffer.  Each step then projects its own
    draws with one (m, K) by (K, 3 (p1 - p0)) product, whose result is
    already in the (m, 3, p1 - p0) layout of the block's velocity rows.
    The state is the first two thirds of a (3m, 3, p1 - p0) buffer, whose
    last third is `step_rule`'s scratch; dt F is added to its velocity
    rows in place, and the step writes into a second such buffer, which
    holds the state for the next step.  Without history the block holds
    the two step buffers, the two draw buffers and one step's kick,
    whatever n_steps.

    Raises:
        BlowupError: a path became non-finite; the message names the first
            such path, the step, and that path's last finite H-norm.
    """
    cfg = scene.cfg
    m = scene.grid.n_free
    n_steps = cfg.n_steps
    pb = p1 - p0
    mh, forces, model = scene.obs_mh, scene.forces, scene.model
    # two (3m, 3, pb) buffers, rows [u; v; step_rule's scratch]: the state
    # is the first 2m rows of one, and the step writes those of the other
    buf, buf_next = np.empty((2, 3 * m, 3, pb))
    X = buf[:2 * m]
    X[...] = scene.x0p[:, :, None]
    inc = None
    if model is not None:
        streams = [model.stream(p) for p in range(p0, p1)]
        c = min(CHUNK_STEPS, n_steps)
        xi = np.empty((pb, c, model.K, 3))
        xit = np.empty((c, model.K, 3, pb))  # xit[j]: step j, every path
        if keep_history:
            inc = np.empty((pb, n_steps, m, 3))
    pos = {int(j): ti for ti, j in enumerate(scene.obs_steps)}
    vals = np.empty((len(mh), len(pos), pb))
    history = np.empty((n_steps + 1, 2 * m, 3, pb)) if keep_history else None
    if keep_history:
        history[0] = X
    vals[:, 0] = np.einsum("oic,icp->op", mh, X)  # obs_steps starts at 0
    steps = scene.P.steps
    for k in range(n_steps):
        j = k % CHUNK_STEPS
        if model is not None and j == 0:
            c = min(CHUNK_STEPS, n_steps - k)
            model.draw_xi(streams, xi[:, :c])
            xit[:c] = xi[:, :c].transpose(1, 2, 3, 0)
        # X + dt F in place: the load acts on the velocity rows only
        load = cfg.dt * forces[k][m:, :, None]
        X[m:] += load
        X_next = buf_next[:2 * m]
        step_rule(steps[k], cfg.dt, buf.reshape(3, m, -1),
                  X_next.reshape(2, m, -1))
        if model is not None:
            # (m, 3, pb) increments of step k
            kick = project_increments(
                model, xit[j].reshape(model.K, -1), cfg.dt).reshape(m, 3, pb)
            if keep_history:
                inc[:, k] = kick.transpose(2, 0, 1)
            np.multiply(kick, cfg.sigma, out=kick)  # velocity kick A dW
            X_next[m:] += kick
        # one sum tests the block; a finite block whose sum overflows
        # falls through to the per-path test
        with np.errstate(over="ignore", invalid="ignore"):
            total = X_next.sum()
        if not np.isfinite(total):
            finite = np.isfinite(X_next).all(axis=(0, 1))
            if not finite.all():
                i = int(np.argmin(finite))
                # the last state, to rounding, is X with the load taken
                # off again; scaled so that a last state near the overflow
                # threshold still has a finite norm
                last = X[:, :, i].copy()
                last[m:] -= load[..., 0]
                scale = float(np.max(np.abs(last))) or 1.0
                norm = scale * packed_h_norm(last / scale, scene.g)
                raise BlowupError(
                    f"path {p0 + i} became non-finite at step {k + 1}; last "
                    f"finite H-norm {norm:.6e} at step {k}; reduce dt or "
                    "check the load")
        buf, buf_next, X = buf_next, buf, X_next
        if keep_history:
            history[k + 1] = X
        ti = pos.get(k + 1)
        if ti is not None:
            vals[:, ti] = np.einsum("oic,icp->op", mh, X)
    # observables are taken on the emitted states; the constant lift moves
    # the mean but not the fluctuations, so its pairing is added once
    lift = np.zeros((2 * m, 3))
    if scene.shift is not None:
        lift[:m] = scene.shift[:m]
    return vals + np.einsum("oic,ic->o", mh, lift)[:, None, None], history, inc


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


def ensemble_blocks(scene: Scene,
                    keep_history: bool = False) -> Iterator[tuple]:
    """Run the scene's paths in blocks of BLOCK_PATHS and yield
    (p0, p1, vals, history, increments) per block, in block-index order.

    `vals`, `history` and `increments` are `_block_worker`'s; the last two
    are None unless `keep_history`.  With `cfg.threads > 1` at most
    2 * threads blocks are in flight, and the next one is submitted only
    when the oldest is handed out, so a slow consumer holds memory for a
    bounded number of blocks.  A failing block raises when its turn comes,
    so the error is the same for every thread count.
    """
    threads, n = scene.cfg.threads, scene.cfg.n_paths
    blocks = iter([(p0, min(n, p0 + BLOCK_PATHS))
                   for p0 in range(0, n, BLOCK_PATHS)])
    # build the shared arrays here, so that worker threads only read them
    scene.forces, scene.x0p, scene.obs_mh, scene.obs_steps

    def run(p0, p1):
        return (p0, p1, *_block_worker(scene, p0, p1, keep_history))

    if threads == 1:
        for p0, p1 in blocks:
            yield run(p0, p1)
        return
    ex = concurrent.futures.ThreadPoolExecutor(max_workers=threads)
    try:
        pending = collections.deque(
            ex.submit(run, p0, p1)
            for p0, p1 in itertools.islice(blocks, 2 * threads))
        while pending:
            block = pending.popleft().result()
            nxt = next(blocks, None)
            if nxt is not None:
                pending.append(ex.submit(run, *nxt))
            yield block
    finally:
        ex.shutdown(wait=True, cancel_futures=True)


def ensemble_run(cfg: SimulationConfig) -> EnsembleStats:
    """Monte Carlo over N independent paths with streamed moments.

    Observables are H-inner products against sine-mode test functions,
    the config's 'mode:channel:u|v' specs, sampled every `obs_stride`
    steps plus the final time.  Paths are evolved in fixed-size blocks on
    `cfg.threads` workers; block moments merge in index order, so the
    output is independent of the thread count.  No per-path value
    outlives its block: `ensemble_blocks` hands out the blocks
    themselves, as `stobeam simulate` streams them to its CSVs.
    """
    scene = build_scene(cfg)
    count, mean, m2 = 0, None, None
    for _, _, vals, _, _ in ensemble_blocks(scene):
        count, mean, m2 = _merge_moments(count, mean, m2, vals)
    return EnsembleStats(count=count, mean=mean, m2=m2, scene=scene)
