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

Randomness is counter-based: path `p` of a model with root seed `s` draws
from Philox keyed by the two unsigned 64-bit words (s, p), in the fixed order
standard_normal((n_steps, K, 3)).  Identical (seed, path, K, n_steps)
always reproduce bit-identical increments, independent of how many other
paths are sampled concurrently.  The solver's kernel keeps one generator
per path for the whole run of its block and draws the steps a time chunk
at a time; consecutive draws from one generator continue that one
sequence, so the chunks reproduce the single whole-horizon draw of
`NoiseModel.path_xi` bit for bit.  `project_increments` is the one
routine that turns draws into grid increments.  The kernel holds one
chunk of draws per block, copied into a step-major layout, and calls it
once per step on that step's draws of every path of the block, so a
block holds one step's increments at a time; a single path keeps the
increments its kernel projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .grid import BeamGrid, BeamState, GramSet
from .operators import StabilityConstants
from .propagator import PropagatorFactorization

SPECTRUM_FAMILIES = ("k^-2", "k^-3", "tabulated")

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

    grid: BeamGrid
    spectrum: str
    K: int
    q: np.ndarray
    e_red: np.ndarray  # (m, K)
    sigma: float
    seed: int

    def stream(self, path_index: int) -> np.random.Generator:
        """Independent counter-based stream for one path."""
        if int(path_index) != path_index or path_index < 0:
            raise InvalidArgumentError(
                f"path index must be a nonnegative integer, got {path_index}")
        key = np.array([self.seed, path_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def draw_xi(self, streams: Sequence[np.random.Generator],
                out: np.ndarray) -> np.ndarray:
        """The next raw N(0,1) coefficient draws of each stream, written
        into `out` and returned.

        `out` has shape (len(streams), n_steps, K, 3); row i takes the
        next n_steps of `streams[i]`, a path's `stream`.  A generator goes
        on where its last draw stopped, so consecutive calls on one
        path's stream reproduce its `path_xi` bit for bit.  The solver's
        kernel calls this once per block and time chunk.
        """
        for stream, xi in zip(streams, out):
            stream.standard_normal(out=xi)
        return out

    def path_xi(self, n_steps: int, path_index: int) -> np.ndarray:
        """Whole-horizon draws of one path from a fresh stream, shape
        (n_steps, K, 3): the sequence that every chunked draw of the path
        reproduces."""
        if int(n_steps) != n_steps or n_steps < 1:
            raise InvalidArgumentError(f"need at least one step, got {n_steps}")
        out = np.empty((1, int(n_steps), self.K, 3))
        return self.draw_xi([self.stream(path_index)], out)[0]


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
    return NoiseModel(grid=grid, spectrum=spectrum, K=int(K), q=q,
                      e_red=e_red, sigma=float(sigma), seed=int(seed))


def project_increments(model: NoiseModel, xi: np.ndarray,
                       dt: float) -> np.ndarray:
    """Wiener increments sum_k sqrt(q_k dt) xi_k e_k on the nodes 0..n.

    `xi` has shape (..., K, c): K coefficient draws for each of c
    columns, such as (n_steps, K, 3) for one path's whole horizon or
    (K, 3 pb) for one step of a block of pb paths.  The result has shape
    (..., m, c) (the increments vanish at the clamped end s = l).  Each
    column of the result depends only on the same column of `xi`, so a
    path's increments are bitwise the same whether it is projected alone
    or as 3 of the 3 pb columns of a block's step; this rests on the BLAS
    product computing a column the same way whatever the number of
    columns, which `test_solver::test_sampled_increments_are_the_kernel_kicks`
    and `test_solver::test_full_block_increments_cross_chunks_bitwise` pin.

    Raises:
        InvalidArgumentError: dt <= 0.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    return model.e_red @ (xi * np.sqrt(model.q * dt)[:, None])


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
                    constants: Optional[StabilityConstants] = None,
                    t0: float = None, t: float = None) -> TraceCheck:
    """Integral of Tr(U(t,r) A Q A* U*(t,r)) over r in [t0, t].

    Computed as trapezoidal quadrature of
    sum_{k,c} ||U(t,r) A sqrt(q_k) e_{k,c}||_H^2 on the step grid; the
    dense tail products U(t, t_j) are accumulated backward as their
    transposes U(t, t_j)^T = G_j^T U(t, t_{j+1})^T, so each grid time
    costs one transposed step of a (2m)x(2m) block.  The analytic
    comparison bound is (t - t0) sigma^2 exp(2 C4 (t - t0)) Tr(Q), with
    C4 = 0 when no constants are supplied (exact for the norm-preserving
    flow); a growth factor beyond the float range makes the bound
    infinite.
    """
    g = P.g
    i0, i1 = P.span(t0, t)
    span = (i1 - i0) * P.dt
    c4 = 0.0 if constants is None else constants.C4
    with np.errstate(over="ignore"):  # a growth factor beyond range is inf
        growth = np.exp(2.0 * c4 * span)
    bound = float(span * model.sigma**2 * growth * trace_q(model))
    # psi_j = U(t, t_j)^T, from j = i1 down to i0
    integrand = [_trace_integrand(psi, model, g)
                 for psi in P.backward_images(np.eye(2 * g.m), t0, t)]
    value = float(np.trapezoid(integrand[::-1], dx=P.dt))
    return TraceCheck(value=value, bound=bound)


def _trace_integrand(psi: np.ndarray, model: NoiseModel, g: GramSet) -> float:
    """sum_{k,c} ||psi^T A sqrt(q_k) e_{k,c}||_H^2 at one quadrature node."""
    m = g.m
    img = psi[m:].T @ model.e_red           # (2m, K), columns psi^T (0, e_k)
    iu, iv = img[:m], img[m:]
    norms = np.sum(iu * (g.B @ iu), axis=0) + np.sum(iv * (g.M[:, None] * iv), axis=0)
    return float(3.0 * model.sigma**2 * np.sum(model.q * norms))


def ito_variance(P: PropagatorFactorization, model: NoiseModel, h: BeamState,
                 t0: float = None, t: float = None) -> float:
    """Exact variance of <int_t0^t U(t,r) A dW(r), h>_H at truncation K.

    Quadrature of sum_{k,c} q_k <A e_{k,c}, U*(t,r) h>_H^2.  The pairings
    are evaluated through the premetric images z_j = U(t,t_j)^T M_H h,
    accumulated backward with transposed steps, so no Gram solve enters
    and duality is exact.

    The test function h only needs its stored clamp values to vanish
    (weak-form pairing); this is checked, stencil smoothness is not.
    """
    g = P.g
    if float(np.max(np.abs(h.u[-1]), initial=0.0)) > 0 or \
            float(np.max(np.abs(h.v[-1]), initial=0.0)) > 0:
        raise PreconditionError(
            "test function must satisfy the clamped value conditions")
    m = g.m
    # z_j = U(t, t_j)^T M_H h, from j = i1 down to i0
    integrand = [_ito_integrand(z, model, m)
                 for z in P.backward_images(g.mh_apply(h.packed()), t0, t)]
    return float(np.trapezoid(integrand[::-1], dx=P.dt))


def _ito_integrand(z: np.ndarray, model: NoiseModel, m: int) -> float:
    """sum_{k,c} q_k (sigma e_k . z_v(:,c))^2 at one quadrature node."""
    dots = model.e_red.T @ z[m:]            # (K, 3)
    return float(model.sigma**2 * np.sum(model.q[:, None] * dots * dots))
