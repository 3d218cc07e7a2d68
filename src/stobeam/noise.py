"""Additive Q-Wiener noise for the beam velocity equation.

The driving process lives in L2(0,l;R^3) and is realized by a truncated
Karhunen-Loeve expansion

    W(t) = sum_k sqrt(q_k) beta_k(t) e_k,    e_k(s) = sqrt(2/l) sin(k pi s/l),

with one independent scalar Brownian family per R^3 channel (the
covariance is Q_scalar tensor Id3; the three spatial components are
uncorrelated, which is a modelling choice, not forced by the equation).
On the uniform grid the sine modes are exactly orthonormal for the lumped
trapezoidal mass as long as k <= n, which caps the representable
truncation order.

Randomness is counter-based (Salmon et al., SC'11): path `p` of a model
with root seed `s` draws from Philox keyed by the two unsigned 64-bit
words (s, p), one sub-stream per channel and chunk of steps.  Chunk j
(steps j CHUNK_STEPS onwards) of channel c is
standard_normal((steps of chunk j, K)) from counter (0, 0, j, c), so
each (path, channel, chunk) starts at a fixed counter and none is drawn
to reach another.  Identical (seed, path, K, n_steps) always reproduce
bit-identical increments, independent of how many other paths are
sampled concurrently and of which other channels are drawn.
`block_draws` is the one loop that draws for a block of paths: only the
channels the block needs, one chunk at a time, with one generator
repositioned for every (path, channel, chunk).  `project_increments` is
the one routine that turns draws into grid increments, and
`step_increments` feeds a stepped block with them, holding one chunk of
draws and one step's increments at a time.  `adjoint_sweep` is the one
backward walk of the test functions' images that both the Ito
quadrature (`ito_variance`) and the solver's mild sum read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .grid import BeamGrid, BeamState, GramSet
from .operators import StabilityConstants
from .propagator import PropagatorFactorization, stack_size

SPECTRUM_FAMILIES = ("k^-2", "k^-3", "tabulated")

#: time steps per noise chunk, part of the stream layout: each chunk of a
#: path's channel is drawn from its own counter, so changing this moves
#: the draws of every step past the first chunk.  `step_increments` holds
#: one chunk's draws; one draw call (one GIL release) per path and channel
#: draws 128 K normals, and at 32 steps the per-call cost shows at two
#: threads.
CHUNK_STEPS = 128

#: relative tolerance of the equality of the trace integral with its C4 = 0
#: value, span sigma^2 tr Q, which the quadrature meets only to rounding
TRACE_RTOL = 1e-8

_ZETA2 = np.pi**2 / 6.0
_ZETA3 = 1.2020569031595943


def spectrum_table(table) -> np.ndarray:
    """Tabulated eigenvalues as an array, checked to be positive and
    non-increasing (the one statement of this rule; the config parser
    applies it to noise.table)."""
    q = np.asarray(table, dtype=float)
    if np.min(q) <= 0:
        raise InvalidArgumentError("spectrum eigenvalues must be positive")
    if np.any(np.diff(q) > 0):
        raise InvalidArgumentError("spectrum eigenvalues must be non-increasing")
    return q


def build_spectrum(kind: str, K: int, table=None) -> np.ndarray:
    """Eigenvalue sequence q_1..q_K of the scalar covariance factor."""
    if kind not in SPECTRUM_FAMILIES:
        raise InvalidArgumentError(f"unknown spectrum family '{kind}'")
    if int(K) != K or K < 1:
        raise InvalidArgumentError(f"truncation order must be >= 1, got {K}")
    K = int(K)
    k = np.arange(1, K + 1, dtype=float)
    if kind == "k^-2":
        return k**-2
    if kind == "k^-3":
        return k**-3
    if table is None:
        raise InvalidArgumentError("tabulated spectrum needs explicit values")
    if np.shape(table) != (K,):
        raise InvalidArgumentError(
            f"tabulated spectrum has {np.shape(table)} values, expected ({K},)")
    return spectrum_table(table)


@dataclass(frozen=True)
class NoiseModel:
    """Truncated sine-basis covariance model on a fixed grid.

    e_red holds the eigenfunctions at the reduced nodes 0..n (they vanish
    at the clamped end s = l anyway).
    """

    spectrum: str
    K: int
    q: np.ndarray
    e_red: np.ndarray  # (m, K)
    sigma: float
    seed: int

    def generator(self) -> np.random.Generator:
        """A Philox generator keyed by the seed, for `draw_xi` to
        reposition (built once per block: a build costs about 20 us)."""
        key = np.array([self.seed, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def draw_xi(self, gen: np.random.Generator, paths: Sequence[int],
                channels: Sequence[int], k0: int,
                out: np.ndarray) -> np.ndarray:
        """The raw N(0,1) coefficient draws of steps k0.. of the given
        paths and channels, written into `out` and returned.

        `out` has shape (len(channels), len(paths), c, K) with c at most
        CHUNK_STEPS, and k0 starts a chunk; `gen`, from `generator`, is
        set to key (seed, p) and counter (0, 0, k0 // CHUNK_STEPS, ch)
        before it draws out[i, j] for channel ch = channels[i] and path
        p = paths[j], so each row is the first c steps of that chunk.
        """
        if k0 % CHUNK_STEPS or out.shape[2] > CHUNK_STEPS:
            raise InvalidArgumentError(
                f"draws must lie in one chunk of {CHUNK_STEPS} steps")
        bits = gen.bit_generator
        counter, key = [0, 0, k0 // CHUNK_STEPS, 0], [self.seed, 0]
        # lists, not arrays: each set then costs about 1 us
        state = {"bit_generator": "Philox",
                 "state": {"counter": counter, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        for ch, rows in zip(channels, out):
            counter[3] = ch
            for p, xi in zip(paths, rows):
                key[1] = p
                bits.state = state
                gen.standard_normal(out=xi)
        return out

    def path_xi(self, n_steps: int, path_index: int) -> np.ndarray:
        """Whole-horizon draws of one path in every channel, shape
        (n_steps, K, 3): the draws that every block reproduces for the
        path's channels that it steps."""
        if int(n_steps) != n_steps or n_steps < 1:
            raise InvalidArgumentError(f"need at least one step, got {n_steps}")
        if int(path_index) != path_index or path_index < 0:
            raise InvalidArgumentError(
                f"path index must be a nonnegative integer, got {path_index}")
        out = np.empty((3, 1, int(n_steps), self.K))
        gen = self.generator()
        for k0 in range(0, int(n_steps), CHUNK_STEPS):
            self.draw_xi(gen, [int(path_index)], range(3), k0,
                         out[:, :, k0:k0 + CHUNK_STEPS])
        return out[:, 0].transpose(1, 2, 0)


def build_noise_model(grid: BeamGrid, spectrum: str, K: int,
                      sigma: float = 1.0, seed: int = 0,
                      table=None) -> NoiseModel:
    """Assemble the noise model, capping K at the representable basis.

    Raises:
        InvalidArgumentError: K > n (sine modes above n alias on the grid),
            bad spectrum family, negative amplitude, or a seed outside the
            unsigned 64-bit range.
    """
    if not 0 <= seed < 2**64:
        raise InvalidArgumentError(f"seed must be in [0, 2^64), got {seed}")
    if K > grid.n:
        raise InvalidArgumentError(
            f"truncation order K={K} exceeds the {grid.n} sine modes "
            f"representable on this grid; lower noise.K or refine grid.n")
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidArgumentError(f"noise amplitude must be >= 0, got {sigma}")
    q = build_spectrum(spectrum, K, table)
    l = grid.l
    kk = np.arange(1, K + 1)
    e_red = np.sqrt(2.0 / l) * np.sin(np.outer(grid.nodes[:-1], kk)
                                      * np.pi / l)
    return NoiseModel(spectrum=spectrum, K=int(K), q=q,
                      e_red=e_red, sigma=float(sigma), seed=int(seed))


def project_increments(model: NoiseModel, xi: np.ndarray,
                       dt: float) -> np.ndarray:
    """Wiener increments sum_k sqrt(q_k dt) xi_k e_k on the nodes 0..n.

    `xi` has shape (..., K, c): K coefficient draws for each of c
    columns, such as (n_steps, K, 3) for one path's whole horizon or
    (K, nc pb) for one step of a block of pb paths in nc channels.  The
    result has shape (..., m, c) (the increments vanish at the clamped end
    s = l).  Each column of the result depends only on the same column of
    `xi`, so a path's increments in a channel are bitwise the same whether
    it is projected alone or as one of the nc pb columns of a block's
    step; this rests on the BLAS product computing a column the same way
    whatever the number of columns, which the solver's tests pin.

    Raises:
        InvalidArgumentError: dt <= 0.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    return model.e_red @ (xi * np.sqrt(model.q * dt)[:, None])


def block_draws(model: NoiseModel, p0: int, p1: int, n_steps: int,
                channels: slice):
    """An iterator over the draws of paths p0..p1-1 in the `channels`
    slice, one chunk at a time: (k0, xi) with xi the (nc, p1 - p0, c, K)
    draws of steps k0..k0+c-1, as `draw_xi` writes them.  The chunks are
    views of one buffer, each valid until the next.  The buffer is
    allocated here, before the caller's state: allocated after it, the
    draw buffers of 32-step chunks cost 4 MiB of peak RSS at n = 16,
    8192 paths, 2 threads (glibc)."""
    chans = range(3)[channels]
    gen = model.generator()
    xi = np.empty((len(chans), p1 - p0, min(CHUNK_STEPS, n_steps), model.K))

    def chunks():
        for k0 in range(0, n_steps, CHUNK_STEPS):
            c = min(CHUNK_STEPS, n_steps - k0)
            yield k0, model.draw_xi(gen, range(p0, p1), chans, k0,
                                    xi[:, :, :c])
    return chunks()


def step_increments(model: NoiseModel, p0: int, p1: int, n_steps: int,
                    dt: float, channels: slice = slice(None)):
    """An iterator over the Wiener increments of paths p0..p1-1 in the
    `channels` slice, one (m, nc, p1 - p0) array per step in a block's
    velocity layout; a path's are its `path_xi` projected alone, bit for
    bit.  Only the given channels are drawn, a chunk at a time
    (`block_draws`), and each step is projected straight from the draw
    buffer."""
    draws = block_draws(model, p0, p1, n_steps, channels)

    def steps():
        for _, xi in draws:
            for j in range(xi.shape[2]):
                # (K, nc pb) columns, channel-major: a view of the buffer
                cols = xi[:, :, j].reshape(-1, model.K).T
                yield project_increments(model, cols, dt).reshape(
                    -1, *xi.shape[:2])
    return steps()


def trace_q(model: NoiseModel) -> float:
    """Partial trace 3 sum_{k<=K} q_k (three identical channel spectra)."""
    return float(3.0 * np.sum(model.q))


def trace_tail(model: NoiseModel) -> float:
    """Truncation remainder 3 sum_{k>K} q_k.

    Closed form for the power-law families; 0.0 for tabulated spectra,
    which define no values beyond K.
    """
    if model.spectrum == "k^-2":
        return float(3.0 * (_ZETA2 - np.sum(model.q)))
    if model.spectrum == "k^-3":
        return float(3.0 * (_ZETA3 - np.sum(model.q)))
    return 0.0


class TraceCheck(NamedTuple):
    """Quadrature value of the noise trace integral and its analytic bound."""

    value: float
    bound: float

    @property
    def excess(self) -> float:
        """How far the value lies above the bound widened by TRACE_RTOL:
        0.0 when the trace condition holds, nan for a non-finite value.
        At C4 = 0 the bound is the exact value, met only to rounding."""
        if not np.isfinite(self.value):
            return float("nan")
        return max(self.value - self.bound * (1.0 + TRACE_RTOL), 0.0)


def trace_condition(P: PropagatorFactorization, model: NoiseModel,
                    constants: StabilityConstants = None) -> TraceCheck:
    """Integral of Tr(U(t,r) A Q A* U*(t,r)) over r from 0 to t = t_n.

    Computed as trapezoidal quadrature of
    sum_{k,c} ||U(t,r) A sqrt(q_k) e_{k,c}||_H^2 at r = t_j, j = 0..n;
    the dense tail products U(t, t_j) are accumulated backward as their
    transposes U(t, t_j)^T = G_j^T U(t, t_{j+1})^T, so each grid time
    costs one transposed `step_rule` on a (2m, 2m) stack, whose large
    product is m x m, and one product for its K images U(t, t_j) (0, e_k);
    their H-norms are one pass per stack of `stack_size` nodes.  The
    analytic comparison bound is
    s sigma^2 exp(2 C4 s) Tr(Q) over the span s = n dt, with C4 = 0 when
    no constants are supplied (exact for the norm-preserving flow); a
    growth factor beyond the float range makes the bound infinite.
    """
    g = P.g
    span = P.n_steps * P.dt
    c4 = 0.0 if constants is None else constants.C4
    with np.errstate(over="ignore"):  # a growth factor beyond range is inf
        growth = np.exp(2.0 * c4 * span)
    bound = float(span * model.sigma**2 * growth * trace_q(model))
    m, n = g.m, P.n_steps
    integrand = np.empty(n + 1)
    img = np.empty((min(stack_size(2 * model.e_red.nbytes), n + 1), 2 * m,
                    model.K))
    # psi_i = U(t, t_j)^T at j = n - i, and its columns psi_i^T (0, e_k)
    for i, psi in enumerate(P.walk(np.eye(2 * m), transpose=True)):
        s = i % len(img)
        np.matmul(psi[m:].T, model.e_red, out=img[s])
        if s == len(img) - 1 or i == n:
            integrand[n - i:n - i + s + 1] = _trace_integrand(
                img[:s + 1], model, g)[::-1]
    value = float(np.trapezoid(integrand, dx=P.dt))
    return TraceCheck(value=value, bound=bound)


def _trace_integrand(img: np.ndarray, model: NoiseModel,
                     g: GramSet) -> np.ndarray:
    """sum_{k,c} ||U(t, t_j) A sqrt(q_k) e_{k,c}||_H^2 at each node of a
    stack (s, 2m, K) of the nodes' images U(t, t_j) (0, e_k), each node's
    the bits of its own."""
    m = g.m
    iu, iv = img[:, :m], img[:, m:]
    norms = (np.sum(iu * (g.B @ iu), axis=-2)
             + np.sum(iv * (g.M[:, None] * iv), axis=-2))
    return 3.0 * model.sigma**2 * np.sum(model.q * norms, axis=-1)


def adjoint_sweep(P: PropagatorFactorization, model: NoiseModel,
                  mh: np.ndarray, k: np.ndarray):
    """One backward walk of the premetric images z_j = U(t_k, t_j)^T mh
    for a stack mh (n_obs, 2m, 3) of images M_H h and the sorted distinct
    sample steps k: yields (j, z, dots, acc) for j = n_steps down to 0.

    z, (2m, 3, n_obs, len(k)), holds U(t_{k_i}, t_j)^T mh[o] in column
    (o, i), and starts at zero: mh[o] enters column (o, i) when the walk
    reaches k_i, so the column and its integrand are exactly zero until
    then, and a sweep makes n_steps transposed steps, whatever len(k) is.
    dots = e_red^T z_v, (K, 3, n_obs, len(k)), are the noise channels'
    images, and acc, (n_obs, len(k)), the Ito quadrature of `ito_variance`
    summed over the intervals from j up, one trapezoid interval per step:
    at j = 0 it is the variance at every sample step.  z and dots are
    valid until the next yield.
    """
    m = P.g.m
    acc = np.zeros((len(mh), k.size))
    f = np.zeros_like(acc)
    start = np.zeros((2 * m, 3) + acc.shape)
    for j, z in zip(range(P.n_steps, -1, -1), P.walk(start, transpose=True)):
        z[..., k == j] = mh.transpose(1, 2, 0)[..., None]
        dots = (model.e_red.T @ z[m:].reshape(m, -1)).reshape(
            (-1, 3) + acc.shape)
        f, f1 = model.sigma**2 * np.sum(
            model.q[:, None, None, None] * dots * dots, axis=(0, 1)), f
        acc += (j < k) * (P.dt * (f + f1) / 2.0)  # the interval j..j+1
        yield j, z, dots, acc


def ito_variance(P: PropagatorFactorization, model: NoiseModel, h: BeamState,
                 steps) -> np.ndarray:
    """Exact variances of <int_0^t U(t,r) A dW(r), h>_H at truncation K,
    at t = t_k for each sample step k of `steps`, as a float array.

    Quadrature of sum_{k,c} q_k <A e_{k,c}, U*(t,r) h>_H^2 at r = t_j,
    j = 0..k, through the premetric images z_j = U(t,t_j)^T M_H h, so no
    Gram solve enters and duality is exact.  The sorted distinct steps
    share one backward walk (`adjoint_sweep`) over a stack of 3 columns
    each, and the trapezoid is summed one interval per step of the walk:
    a call makes n_steps transposed steps, whatever len(steps) is.

    h must vanish at the stored clamp values (checked; its smoothness is
    not), and a step outside 0..n_steps raises InvalidArgumentError.
    """
    if np.max(np.abs([h.u[-1], h.v[-1]]), initial=0.0) > 0:
        raise PreconditionError(
            "test function must satisfy the clamped value conditions")
    k, back = np.unique(np.asarray(steps, dtype=int), return_inverse=True)
    if not np.all((k >= 0) & (k <= P.n_steps)):
        raise InvalidArgumentError(f"sample step outside 0..{P.n_steps}")
    for *_, acc in adjoint_sweep(P, model, P.g.mh_apply(h.packed())[None], k):
        pass
    return acc[0, back]
