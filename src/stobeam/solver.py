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
kernel, `_block_worker`, steps the scene's paths: a block of paths is
one matrix that walks the propagator's chain (`P.walk`) in step with
the noise's (`noise.step_increments`), adding the load before each step
and the kick after it.  The generator, the loads and the noise covariance
Q x Id3 act on each R^3 channel on its own, so a block that keeps its
history steps all three channels, and one that keeps only observables
steps the channels they read.  A single path is a block of width one
with its packed history kept: `solve_homogeneous` returns it as states,
and `weak_residual` pairs such a history, with the increments its caller
projects, against a test function.

A block that keeps only observables is not stepped at all where the
scene's mild sum (`mild_sum`) is small enough: the scheme is linear and
its noise additive, so one backward sweep of the observables' premetric
images gives every path's mean and the weights of its draws, and a
block costs its draws and one product per chunk of them.  That sweep
steps from the banded step factors (`Scene.bands`); the dense ones
(`Scene.P`) are built only where something walks the chain forward.
`ensemble_blocks` runs fixed-size blocks on forked worker processes,
capped at the usable CPUs, and hands them out in block order, and
`ensemble_run`, the one moment fold, merges their accumulators in that
order, so results are identical for any number of workers.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
from dataclasses import dataclass, field, replace
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from .config import SimulationConfig, compile_expression, parse_observable_spec
from .errors import (BlowupError, ConfigError, InvalidArgumentError,
                     PreconditionError, ShapeError)
from .grid import (BeamGrid, BeamState, GramSet, build_grams, build_grid,
                   check_membership, packed_h_inner, packed_h_norm)
from .noise import (NoiseModel, adjoint_sweep, block_draws,
                    build_noise_model, step_increments)
from .operators import (StabilityConstants, TractiveForce,
                        estimate_constants, profile_T, weak_pair)
from .propagator import (PropagatorFactorization, build_banded,
                         build_propagator, distinct_factors)

#: paths per vectorized block.  Fixed (not derived from the worker count)
#: so that per-block arithmetic is identical for any number of processes.
BLOCK_PATHS = 256


@dataclass(frozen=True)
class Scene:
    """Everything a run shares.

    The fields are assembled by `build_scene`; the cached properties are
    built on first use and then kept, so a command that never steps a
    path builds no loads, initial state or observables, and one that
    only sweeps its observables' images back (`mild`) builds no dense
    step factor.  `propagator` hands out propagators of other lengths
    and steps and keeps none.
    """

    cfg: SimulationConfig
    grid: BeamGrid
    g: GramSet = field(repr=False)
    lam: TractiveForce
    model: Optional[NoiseModel] = field(repr=False, default=None)
    shift: Optional[np.ndarray] = None  # (n+2, 3) slope lift, nonhomogeneous only

    @functools.cached_property
    def P(self) -> PropagatorFactorization:
        """The run's chain of dense step factors (`build_propagator`)."""
        return build_propagator(self.lam, self.g, self.cfg.n_steps,
                                self.cfg.dt)

    @functools.cached_property
    def bands(self) -> PropagatorFactorization:
        """The run's chain of banded step factors (`build_banded`), which
        walks transposed only."""
        return build_banded(self.lam, self.g, self.cfg.n_steps, self.cfg.dt)

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The grid times t_k = k dt, k = 0..n_steps, as `P.times`."""
        return float(self.cfg.dt) * np.arange(self.cfg.n_steps + 1)

    def propagator(self, n_steps: int, dt: float) -> PropagatorFactorization:
        """n_steps factors of step dt of `lifted`: a prefix of P, sharing
        its arrays, when P has that dt and the steps, else a fresh build,
        which the scene does not keep.  A factor depends on neither
        n_steps nor the horizon, so either is a fresh build's bits.
        """
        if dt == self.cfg.dt and n_steps <= self.P.n_steps:
            return PropagatorFactorization(float(dt), self.P.steps[:n_steps],
                                           self.g)
        return build_propagator(self.lifted, self.g, n_steps, dt)

    @functools.cached_property
    def lifted(self) -> TractiveForce:
        """The tension without its horizon, for probes beyond the run."""
        return replace(self.lam, horizon=None)

    @functools.cached_property
    def constants(self) -> StabilityConstants:
        """Stability constants of the tension at sup |c(t)| over [0, T]."""
        return estimate_constants(self.lam, self.g, self.cfg.T)

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

    @functools.cached_property
    def obs_channels(self) -> slice:
        """The channels the observables read, as a slice: any set of the
        three channels is one, so indexing with it takes views."""
        c = np.flatnonzero(self.obs_mh.any(axis=(0, 1)))
        return slice(c[0], c[-1] + 1, c[1] - c[0] if len(c) > 1 else 1)

    @functools.cached_property
    def mild(self) -> Optional[MildSum]:
        """The observables' mild sum, or None where a run steps its
        paths; see `mild_sum`."""
        return mild_sum(self)


def build_scene(cfg: SimulationConfig) -> Scene:
    """Assemble grid, Gram matrices, tension and noise model; the step
    factors are built on first use (`Scene.P`, `Scene.bands`)."""
    grid = build_grid(cfg.l, cfg.n)
    g = build_grams(grid, cfg.b)
    # with the horizon T, evaluation outside [0, T] raises, not extrapolates
    lam = TractiveForce(family=cfg.lam_family, c0=cfg.lam_c0, c1=cfg.lam_c1,
                        freq=cfg.lam_freq, table=cfg.lam_table, horizon=cfg.T)
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
    return Scene(cfg=cfg, grid=grid, g=g, lam=lam, model=model, shift=shift)


def build_forces(scene: Scene) -> np.ndarray:
    """Packed velocity-channel loads F(t_k) for k = 0..n_steps, shape
    (n_steps+1, 2m, 3).

    f_det comes from one of three families: zero; tabulated, whose table
    gives the channel-3 node values (transverse load), constant in time;
    or expression, one expression per channel over (s, t).  Gravity acts
    along -e3.  For nonhomogeneous runs the slope lift contributes the
    extra tension term (d lambda/ds) e3, added to f_det before gravity so
    that an equivalent homogeneous run with the summed table reproduces
    identical floats.
    """
    cfg = scene.cfg
    grid = scene.grid
    m = grid.n_free
    fdet, exprs = np.zeros((grid.n + 2, 3)), None
    if cfg.fdet_family == "tabulated":
        fdet[:, 2] = cfg.fdet_table
    elif cfg.fdet_family == "expression":
        exprs = [compile_expression(e) for e in
                 (cfg.fdet_expr1, cfg.fdet_expr2, cfg.fdet_expr3)]
    times = scene.times
    time_dep = exprs is not None or (
        scene.shift is not None and not scene.lam.autonomous)

    def one(t):
        vals = fdet.copy() if exprs is None else np.stack(
            [e(grid.nodes, t, grid.l) for e in exprs], axis=1)
        if scene.shift is not None:
            vals[:, 2] = vals[:, 2] + scene.lam.ds_node_values(t, grid)
        vals[:, 2] = vals[:, 2] - cfg.g_const
        out = np.zeros((2 * m, 3))
        out[m:] = vals[:m]
        return out

    if not time_dep:
        return np.broadcast_to(one(0.0), (len(times), 2 * m, 3))
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
    vecs = g.bending_modes[1]
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
        ConfigError: naming `init.mode`, when the configured bending mode
            fails the discrete h6bc stencils on this grid (the mode's
            velocity is zero and meets h4bc).
    """
    if cfg.init_family == "zero":
        return BeamState.zero(g.grid)
    x0 = bending_mode_state(g, cfg.init_mode, cfg.init_amplitude)
    try:
        check_membership(x0.u, "h6bc", g, what="initial displacement")
    except PreconditionError as exc:
        raise ConfigError(f"{exc}; lower init.mode or refine grid.n",
                          key="init.mode") from None
    return x0


@dataclass
class Trajectory:
    """One sample path of `scene` on the uniform step grid: its states at
    t_k = k dt, k = 0..n_steps."""

    scene: Scene = field(repr=False)
    states: List[BeamState]


def solve_homogeneous(cfg: SimulationConfig, path_index: int = 0) -> Trajectory:
    """Path `path_index` of the clamped-free evolution from the configured
    data, run as a block of width one with its history kept.

    Raises:
        PreconditionError: config is not the homogeneous boundary kind.
        ConfigError: the initial bending mode fails the discrete h6bc
            stencils (see `initial_state`).
    """
    if cfg.bc_kind != "homogeneous":
        raise PreconditionError(
            "solve_homogeneous needs bc.kind = homogeneous; the slope-driven "
            "problem runs as an ensemble, whose histories hold the remainder")
    scene = build_scene(cfg)
    _, history = _block_worker(scene, path_index, path_index + 1, True)
    return Trajectory(scene, [BeamState.from_packed(scene.grid, y)
                              for y in history[..., 0]])


def weak_residual(scene: Scene, history: np.ndarray,
                  increments: Optional[np.ndarray],
                  h: BeamState) -> np.ndarray:
    """Pathwise defect of the time-integrated weak identity, at the step
    times t_k, k = 0..n_steps, as an (n_steps+1,) array.

    `history` is one path's packed states X_k, (n_steps+1, 2m, 3), as
    `_block_worker` keeps them, and `increments` its Wiener increments
    W(t_{k+1}) - W(t_k), (n_steps, m, 3), or None without noise.  For each
    step time t_k this evaluates

        r(t_k) = <X_k, h> - <X_0, h>
                 - trapz_j { <L(t_j) X_j, h> + <F_j, h> }
                 - sigma <h_v, W(t_k) - W(t_0)>

    with all pairings in exact weak form, and the tension, loads and
    sigma of the scene.  For a nonhomogeneous scene the history is the
    homogeneous remainder, whose loads carry the lift's tension term.  The
    test function h must lie in the adjoint domain: displacement part
    passing the h4bc stencils, velocity part clamped (h2bc), both with
    zero stored boundary value.

    Raises:
        ShapeError: history, increments or h do not fit the scene.
        PreconditionError: h fails the stencils.
    """
    g = scene.g
    n_steps = scene.cfg.n_steps
    if history.shape != (n_steps + 1, 2 * g.m, 3):
        raise ShapeError(f"history shape {history.shape}, expected "
                         f"({n_steps + 1}, {2 * g.m}, 3)")
    if increments is not None and increments.shape != (n_steps, g.m, 3):
        raise ShapeError(f"increments shape {increments.shape}, expected "
                         f"({n_steps}, {g.m}, 3)")
    if h.grid.n != g.grid.n or h.grid.l != g.grid.l:
        raise ShapeError("test function lives on a different grid")
    check_membership(h.u, "h4bc", g, what="test displacement")
    check_membership(h.u, "h2bc", g, what="test displacement")
    check_membership(h.v, "h2bc", g, what="test velocity")
    times = scene.times
    hp = h.packed()

    pair_vals = np.array([packed_h_inner(y, hp, g) for y in history])
    tp = profile_T(scene.lam, g)  # T(t_j) = c(t_j) T_p
    gen = np.empty(n_steps + 1)
    for j in range(n_steps + 1):
        tmat = scene.lam.c(float(times[j])) * tp
        gen[j] = weak_pair(g, tmat, history[j], hp) \
            + packed_h_inner(scene.forces[j], hp, g)

    integral = np.zeros(n_steps + 1)
    integral[1:] = np.cumsum(0.5 * scene.cfg.dt * (gen[:-1] + gen[1:]))

    stoch = np.zeros(n_steps + 1)
    if increments is not None:
        cum = np.cumsum(increments, axis=0)
        weights = g.M[:, None] * h.v[:g.m]
        stoch[1:] = scene.cfg.sigma * np.einsum("ic,jic->j", weights, cum)
    return pair_vals - pair_vals[0] - integral - stoch


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
        return self.scene.times[self.scene.obs_steps]

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


class MildSum(NamedTuple):
    """The observables of a run as sums over each path's draws: at sample
    time i, observable o of a path whose read channels drew xi (`draw_xi`,
    flattened per channel in step-major order) is

        mean[o, i] + sum_c xi_c . weights[c, :, o n_times + i].
    """

    mean: np.ndarray  # (n_obs, n_times): x0 and load pairings, lift included
    weights: np.ndarray  # (nc, n_steps K, n_obs n_times), per read channel
    variance: np.ndarray  # (n_obs, n_times): `ito_variance`'s quadrature


def mild_sum(scene: Scene) -> Optional[MildSum]:
    """The scene's observables as a mild sum, from one `adjoint_sweep` of
    the banded chain (`Scene.bands`), so no dense step factor is built;
    None without noise, and when the weights, nc n_steps K n_obs n_times
    numbers for the nc channels read, outnumber the entries of the dense
    step factors a stepped run holds: m^2 each, n_steps of them under a
    time-dependent tension and one under an autonomous one.

    For the scheme X_{k+1} = G_k (X_k + dt F_k) + sigma A xi_k the pairing
    with an observable's image M_H h at a sample step n is, to rounding,

        <X_n, h>_H = z_0 . X_0 + dt sum_{k<n} z_k . F_k
                     + sum_{k<n} xi_k . w_k

    with z_k = U(t_n, t_k)^T M_H h and, in each channel,
    w_k = sigma sqrt(q dt) (e_red^T z_{k+1,v}): the first two terms are
    every path's mean, the last one its draws against fixed weights.  The
    rule keeps the weights no larger than the chain, and so one step's
    products of a path in a channel, K n_obs n_times, no costlier than
    its m x m step; a long horizon sampled at every step, whose weights
    grow as n_steps^2, and a long autonomous one, whose chain does not
    grow, are stepped.  The variance is the sweep's quadrature.
    """
    cfg, model, m = scene.cfg, scene.model, scene.grid.n_free
    if model is None:
        return None
    mh, k, ch, K = scene.obs_mh, scene.obs_steps, scene.obs_channels, model.K
    nc, cols = len(range(3)[ch]), len(mh) * len(k)
    factors = distinct_factors(scene.lam, cfg.n_steps)
    if nc * cfg.n_steps * K * cols > factors * m * m:
        return None
    weights = np.empty((nc, cfg.n_steps * K, cols))
    loads = np.zeros((len(mh), len(k)))
    for j, z, dots, acc in adjoint_sweep(scene.bands, model, mh, k):
        # z_j . F_j enters the sample steps after j; F acts on velocities
        loads += (j < k) * np.einsum("icon,ic->on", z[m:],
                                     scene.forces[j][m:])
        if j > 0:  # the weights of step j - 1's draws
            w = dots[:, ch].reshape(K, -1, cols) \
                * (model.sigma * np.sqrt(model.q * cfg.dt))[:, None, None]
            weights[:, (j - 1) * K:j * K] = w.transpose(1, 0, 2)
    # z is now z_0; the lift is added to each emitted state, as stepped
    lift = np.zeros((2 * m, 3))
    if scene.shift is not None:
        lift[:m] = scene.shift[:m]
    mean = np.einsum("icon,ic->on", z, scene.x0p) + cfg.dt * loads \
        + np.einsum("oic,ic->o", mh, lift)[:, None]
    return MildSum(mean, weights, acc)


def _block_worker(scene: Scene, p0: int, p1: int, keep_history: bool,
                  all_channels: bool = False):
    """Evolve paths p0..p1-1 of the scene's run as one (2m, nc, p1 - p0)
    block: all three channels when `keep_history` or `all_channels`, else
    the nc channels that the observables read, as the generator, the
    loads and the noise act on each channel on its own.

    Returns the emitted observables, shape (n_obs, n_times, p1 - p0): the
    pairings with `scene.obs_mh` at the steps `scene.obs_steps`, lift
    included, and, when `keep_history`, the packed history
    (n_steps+1, 2m, 3, p1 - p0), else None.

    The block walks the propagator's chain (`P.walk`), adding dt F_k to
    each state before it steps on, in step with the noise's
    (`step_increments`); without history it holds only what they hold.

    Raises:
        BlowupError: a path became non-finite; the message names the first
            such path, the step, and that path's last finite H-norm, over
            all three channels: a block of fewer is run again over all
            three.  A blow-up in channels no observable reads goes unseen.
    """
    cfg = scene.cfg
    m = scene.grid.n_free
    n_steps = cfg.n_steps
    pb = p1 - p0
    mh, forces, model = scene.obs_mh, scene.forces, scene.model
    ch = slice(None) if keep_history or all_channels else scene.obs_channels
    mh, nc = mh[:, :, ch], len(range(3)[ch])
    walk = scene.P.walk(
        np.broadcast_to(scene.x0p[:, ch, None], (2 * m, nc, pb)))
    kicks = None
    if model is not None:
        kicks = step_increments(model, p0, p1, n_steps, cfg.dt, ch)
    pos = {int(j): ti for ti, j in enumerate(scene.obs_steps)}
    vals = np.empty((len(mh), len(pos), pb))
    history = np.empty((n_steps + 1, 2 * m, 3, pb)) if keep_history else None
    X = next(walk)
    if keep_history:
        history[0] = X
    vals[:, 0] = np.einsum("oic,icp->op", mh, X)  # obs_steps starts at 0
    for k in range(n_steps):
        # X + dt F in place: the load acts on the velocity rows only
        load = cfg.dt * forces[k][m:, ch, None]
        X[m:] += load
        X_prev, X = X, next(walk)  # X_prev stays valid until the next step
        if kicks is not None:
            kick = next(kicks)  # (m, nc, pb) increments of step k
            np.multiply(kick, cfg.sigma, out=kick)  # velocity kick A dW
            X[m:] += kick
        # one sum tests the block; a finite block whose sum overflows
        # falls through to the per-path test
        with np.errstate(over="ignore", invalid="ignore"):
            total = X.sum()
        if not np.isfinite(total):
            finite = np.isfinite(X).all(axis=(0, 1))
            if not finite.all():
                if nc < 3:  # the message is that of all three channels
                    return _block_worker(scene, p0, p1, False, True)
                i = int(np.argmin(finite))
                # the last state, to rounding, is X_prev with the load
                # taken off again; scaled so that a last state near the
                # overflow threshold still has a finite norm
                last = X_prev[:, :, i].copy()
                last[m:] -= load[..., 0]
                scale = float(np.max(np.abs(last))) or 1.0
                norm = scale * packed_h_norm(last / scale, scene.g)
                raise BlowupError(
                    f"path {p0 + i} became non-finite at step {k + 1}; last "
                    f"finite H-norm {norm:.6e} at step {k}; reduce dt or "
                    "check the load")
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
    lifted = np.einsum("oic,ic->o", scene.obs_mh, lift)
    return vals + lifted[:, None, None], history


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


def block_workers(threads: int, n_blocks: int) -> int:
    """Worker processes of a run: `run.threads`, at most one per block and
    per usable CPU, and 1 (inline) where the platform cannot fork."""
    workers = min(threads, n_blocks)
    if workers == 1:
        return 1
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(workers, cpus)


_worker_scene: Optional[Scene] = None  # set in each worker process only


def _adopt(scene: Scene):
    """Pool initializer: the worker keeps the scene it inherited by fork."""
    global _worker_scene
    _worker_scene = scene


def _block(scene: Scene, p0: int, p1: int, keep_history: bool):
    """(vals, history) of paths p0..p1-1, one block of `ensemble_blocks`.

    Without history, and when the scene takes that route, the values come
    from the mild sum: a C-contiguous (n_obs, n_times, p1 - p0) array of
    the mean plus one product of each chunk of a read channel's draws
    (`block_draws`, the draws a stepped block takes) with its weights.
    Otherwise, and for a block whose mild values are not all finite, so
    that it raises its BlowupError, the block is stepped by
    `_block_worker`.
    """
    mild = None if keep_history else scene.mild
    if mild is None:
        return _block_worker(scene, p0, p1, keep_history)
    model, pb = scene.model, p1 - p0
    # C order: `_merge_moments` sums in the order of the layout, which
    # must not change when a block comes back from a worker
    vals = np.empty((mild.mean.size, pb))
    vals[...] = mild.mean.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        for k0, xi in block_draws(model, p0, p1, scene.cfg.n_steps,
                                  scene.obs_channels):
            rows = slice(k0 * model.K, (k0 + xi.shape[2]) * model.K)
            for x, w in zip(xi, mild.weights):
                vals += w[rows].T @ x.reshape(pb, -1).T
    if not np.isfinite(vals).all():
        return _block_worker(scene, p0, p1, False)
    return vals.reshape(mild.mean.shape + (pb,)), None


def _run_block(p0: int, p1: int, keep_history: bool):
    return _block(_worker_scene, p0, p1, keep_history)


def ensemble_blocks(scene: Scene,
                    keep_history: bool = False) -> Iterator[tuple]:
    """Run the scene's paths in blocks of BLOCK_PATHS and yield
    (p0, p1, vals, history) per block, in block-index order.

    `vals` and `history` are `_block`'s; `history` is None unless
    `keep_history`.  With `block_workers` above 1 the blocks run on that
    many forked processes, which are started before this returns, so
    that a thread the caller starts later is not forked.  At most
    2 * workers blocks are in flight, and the next one is submitted only
    when the oldest is handed out, so a slow consumer holds memory for a
    bounded number of blocks.  A failing block raises when its turn
    comes, so the error is the same for every worker count.  Closing or
    dropping the generator stops the workers.
    """
    blocks = _handout(scene, keep_history)
    next(blocks)  # start the workers now
    return blocks


def _handout(scene: Scene, keep_history: bool):
    """`ensemble_blocks`' generator; its first item, None, comes once the
    workers have started."""
    n = scene.cfg.n_paths
    spans = [(p0, min(n, p0 + BLOCK_PATHS)) for p0 in range(0, n, BLOCK_PATHS)]
    workers = block_workers(scene.cfg.threads, len(spans))
    # build the shared arrays here, so that every worker inherits them:
    # the dense chain only where the blocks are stepped
    scene.forces, scene.x0p, scene.obs_mh, scene.obs_steps
    if keep_history or scene.mild is None:
        scene.P
    if workers == 1:
        yield
        for p0, p1 in spans:
            yield (p0, p1, *_block(scene, p0, p1, keep_history))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork, named: Python 3.14 changes the POSIX default.  The first
    # submission forks every worker.
    ex = ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(scene,))
    window = 2 * workers
    try:
        pending = collections.deque(ex.submit(_run_block, *span, keep_history)
                                    for span in spans[:window])
        yield
        for i, (p0, p1) in enumerate(spans):
            vals, history = pending.popleft().result()
            if i + window < len(spans):
                pending.append(ex.submit(_run_block, *spans[i + window],
                                         keep_history))
            yield p0, p1, vals, history
    finally:
        ex.shutdown(wait=True, cancel_futures=True)


def ensemble_run(cfg: SimulationConfig) -> EnsembleStats:
    """Monte Carlo over N independent paths with streamed moments.

    Observables are H-inner products against sine-mode test functions,
    the config's 'mode:channel:u|v' specs, sampled every `obs_stride`
    steps plus the final time.  Paths run in fixed-size blocks on up to
    `cfg.threads` worker processes (`block_workers`), each block from the
    scene's mild sum where it has one (`mild_sum`: its draws against
    fixed weights, no step) and stepped otherwise; block moments merge in
    index order, so the output is identical for any worker count.  No
    per-path value outlives its block: `ensemble_blocks` hands out the
    blocks themselves, as `stobeam simulate` streams them to its CSVs.
    """
    scene = build_scene(cfg)
    count, mean, m2 = 0, None, None
    with contextlib.closing(ensemble_blocks(scene)) as blocks:
        for _, _, vals, _ in blocks:
            count, mean, m2 = _merge_moments(count, mean, m2, vals)
    return EnsembleStats(count=count, mean=mean, m2=m2, scene=scene)
