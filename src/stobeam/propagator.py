"""Time stepping for the beam evolution family.

The drift generator L(t) = L0 + L1(t) is advanced by the Cayley
(Crank-Nicolson) map

    G = (I - dt/2 L)^-1 (I + dt/2 L)

evaluated at the interval midpoint.  Because L0 is exactly Gram-skew, the
stiff part of every step is an exact H-isometry and the only norm growth
comes from the tractive perturbation.

The map is not formed by a dense (2m)x(2m) solve.  L = [[0, I], [-M^-1 K,
0]] with the banded stiffness K = B - T(t_mid) (half-bandwidth 3) and the
lumped mass M, so for h = dt/2 the Cayley map is the trapezoidal
(Newmark average-acceleration) rule of the second-order system:

    A = M + h^2 K,  S = A^-1 M,  D = S - I = -h^2 A^-1 K,
    G = [[2S - I, 2h S], [-2h M^-1 K S, 2S - I]]
      = [[I + 2D, dt (I + D)], [(4/dt) D, I + 2D]],

since M^-1 K S = (I - S)/h^2.  The one m x m increment factor D fixes all
four blocks, so a step stores D, not G: a quarter of the storage, and
`step_rule` applies G or G^T with one (m x m) product instead of a
(2m x 2m) one.  D is one banded LU of A solved against -h^2 K, so a step
costs O(m^2) to build instead of the O(m^3) of a dense (2m)x(2m) LU.  The
set-up is batched: `build_banded`, the one builder, does the band
arithmetic of a run of steps (c(t_k), the tension bands, A and its norm)
in one vectorized pass, and per factor only LAPACK's gbtrf and gbcon,
which give its `BandedFactor`: the band of h^2 K and the LU of A, O(m)
numbers.  That chain walks transposed only, for sweeps of a few columns:
D^T w is one transposed gbtrs and one band product, about twice the
dense product's time at m = 257 and 15 columns, and the dense D's solve
and its m^2 numbers are not made at all.  A dense chain
(`build_propagator`) replaces each factor in place by its D, solved on
the zeroed array that becomes D: stepping a block of paths is one dense
matmul per step, which beats applying banded factors to it.

The family is kept on the grid t_k = k dt as the ordered list of its
per-step factors; a window is a range i0..i1 of step indices, the only
name of a grid time.  Any U(t_i1, t_i0) is a partial product of the same
stored factors, applied as one chain of `step_rule` calls; the cocycle
law U(t,r)U(r,tau)=U(t,tau) then holds as a re-association of literally
identical floating point operations, not merely to rounding.  One loop,
`PropagatorFactorization.walk`, runs every chain, forward and transposed,
the solver's path blocks and Picard's sweeps too; `stacks` copies a
forward walk's states into bounded stacks, so that a pass over the states
(the generator residual's L, trapezoid and norms) is a few array
operations per stack instead of a few per state.

Two independent constructions of the perturbed flow are provided for
cross-checks: the midpoint scheme above and a Picard iteration for the
variation-of-constants form u = S w + int S L1 u, contracted in a
weighted graph norm.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbcon as _gbcon, dgbsv as _gbsv, \
    dgbtrf as _gbtrf, dgbtrs as _gbtrs

from .errors import InvalidArgumentError, NonConvergenceError, PreconditionError
from .grid import BeamState, GramSet, check_membership, packed_d_norm_sq, \
    packed_h_norm, packed_h_norm_sq
from .operators import StabilityConstants, TractiveForce, \
    STIFFNESS_BANDWIDTH, apply_L0, apply_L1, estimate_constants, profile_T, \
    tension_bands, to_bands

#: reciprocal condition number of M + h^2 K below which a step factor warns
_RCOND_FLOOR = 1e-13

#: Picard stops once a sweep changes the iterate by at most this much in the
#: weighted graph norm, and gives up after _PICARD_MAX_ITER sweeps
_PICARD_TOL = 1e-10
_PICARD_MAX_ITER = 60


#: bytes of one array of a stacked pass: `build_banded` computes the
#: bands of that many bytes of steps at once, and a stack of states or
#: images holds that many, so a pass dispatches few calls on narrow grids
#: and adds little to the peak memory on wide ones
STACK_BYTES = 1 << 15


def stack_size(nbytes: int) -> int:
    """How many items of nbytes each fill STACK_BYTES, at least one."""
    return max(1, STACK_BYTES // nbytes)


class BandedFactor(NamedTuple):
    """One step's increment factor D = -h^2 A^-1 K (h = dt/2, A = M + h^2 K)
    in banded form, O(m) numbers: `kt`, (m, 2 bw + 1), holds the band of
    -(h^2 K)^T row by row, kt[j, r] = -h^2 K[j + r - bw, j], and `lu` and
    `piv` the gbtrf LU of A (LU, not Cholesky, so that an indefinite K
    still factors).  It applies D^T (`apply_transposed`) and nothing
    else; `_dense_factor` solves the dense D from it."""

    kt: np.ndarray
    lu: np.ndarray
    piv: np.ndarray

    def apply_transposed(self, w: np.ndarray, out: np.ndarray) -> None:
        """out = D^T w = -(h^2 K)^T A^-T w for (m, c) arrays: one
        transposed gbtrs and one band product.  Not M A^-T w - w, the same
        map, which cancels for the low modes."""
        m, width = self.kt.shape
        bw, c = width // 2, w.shape[1]
        pad = np.zeros((m + 2 * bw, c))
        pad[bw:bw + m] = _gbtrs(self.lu, bw, bw, w, self.piv, trans=1)[0]
        # window j holds rows j - bw .. j + bw of A^-T w, zero outside
        step = pad.strides[0]
        win = np.ndarray((m, width, c), buffer=pad,
                         strides=(step, step, pad.strides[1]))
        np.matmul(self.kt[:, None], win, out=out[:, None])


def _band_factors(kb: np.ndarray, mass: np.ndarray,
                  dt: float) -> List[BandedFactor]:
    """The banded increment factors (`BandedFactor`) of the Cayley maps
    of L = [[0, I], [-M^-1 K, 0]], one for each K of a stack
    (s, 2 bw + 1, m) of bands; the module docstring gives the map G that
    D fixes and `step_rule` applies.

    The band arithmetic (h^2 K, its rows -(h^2 K)^T, A and the 1-norms of
    A) and the placing of each A into the array its LU overwrites are one
    pass over the stack; per factor only gbtrf and gbcon run.  A
    non-finite band is refused before its LU, and an exactly singular A
    after it, as no solve against that LU is finite; a nearly singular
    one warns.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    s, width, m = kb.shape
    bw = width // 2
    h = 0.5 * dt
    a = (h * h) * kb
    kt = np.empty((s, m, width))
    np.negative(a.transpose(0, 2, 1), out=kt)
    a[:, bw] += mass
    anorm = np.abs(a).sum(axis=1).max(axis=1)  # nan or inf for a non-finite a
    # gbtrf keeps the fill-in of row pivoting in bw extra leading rows;
    # each factor's LU overwrites an F-order view of one stack
    lus = np.zeros((s, m, 3 * bw + 1)).transpose(0, 2, 1)
    lus[:, bw:] = a
    factors = []
    for k in range(s):
        if not np.isfinite(anorm[k]):
            raise InvalidArgumentError(
                "cayley resolvent has non-finite entries")
        lu, piv, info = _gbtrf(lus[k], bw, bw, overwrite_ab=1)
        rcond = 0.0 if info > 0 else _gbcon(bw, bw, lu, piv, anorm[k])[0]
        if rcond < _RCOND_FLOOR:
            warnings.warn(
                f"cayley resolvent is nearly singular (rcond={rcond:.2e}); "
                "reduce dt", stacklevel=3)
        if info > 0:
            raise InvalidArgumentError("step factor has non-finite entries")
        factors.append(BandedFactor(kt[k], lu, piv))
    return factors


@functools.lru_cache
def _band_places(m: int, bw: int):
    """(r, j, at), read-only: row r, column j of an m x m matrix's bands
    of half-bandwidth bw holds entry (i, j) = (r - bw + j, j), at flat
    index i + j m of an F-order array, for every 0 <= i < m."""
    i = np.arange(-bw, bw + 1)[:, None] + np.arange(m)
    r, j = np.nonzero((i >= 0) & (i < m))
    places = r, j, i[r, j] + j * m
    for x in places:
        x.flags.writeable = False
    return places


def _dense_factor(f: BandedFactor) -> np.ndarray:
    """The dense D of a banded factor, solved directly: the dense -h^2 K,
    placed from its band into a zeroed F-order array, is overwritten by
    one solve against the LU of A, so the build holds no other dense
    array.  The one solve is the whole build: a refinement sweep in
    working precision lowers the backward error only, and leaves the map
    no closer to an extended-precision Cayley map than the solve alone.
    A factor that overflows is refused, so no view of a chain scans it
    again."""
    m, width = f.kt.shape
    bw = width // 2
    r, j, at = _band_places(m, bw)
    d = np.zeros((m, m), order="F")
    d.ravel(order="F")[at] = f.kt[j, r]
    d = _gbtrs(f.lu, bw, bw, d, f.piv, overwrite_b=1)[0]
    if not np.isfinite(d).all():
        raise InvalidArgumentError("step factor has non-finite entries")
    return d


@functools.lru_cache
def _step_rows(dt: float, transpose: bool):
    """The row that forms w and the two rows that form the result in
    `step_rule` at dt, built once per (dt, direction) and read-only."""
    if transpose:
        rows = [[dt, 2.0]], [[1.0, 0.0, 2.0 / dt], [dt, 1.0, 1.0]]
    else:
        rows = [[2.0, dt]], [[1.0, dt, 1.0], [0.0, 1.0, 2.0 / dt]]
    pair = tuple(map(np.array, rows))
    pair[0].flags.writeable = pair[1].flags.writeable = False
    return pair


def step_rule(d: np.ndarray, dt: float, buf: np.ndarray, out: np.ndarray,
              transpose: bool = False) -> None:
    """One Cayley step G of the increment factor d, or its transpose G^T,
    on a block of c columns.

    `buf` has shape (3, m, c) and is C-contiguous.  buf[0] and buf[1] hold
    the input halves; buf[2] is scratch.  The two result halves are written
    to `out`, a C-contiguous (2, m, c) array that does not overlap `buf`;
    out[0] is also the scratch of w.  Forward, on (u, v): w = 2u + dt v,
    y = d w, then u + dt v + y and v + (2/dt) y.  Transposed, on (a, b):
    w = dt a + 2b, r = d^T w, then a + (2/dt) r and b + dt a + r.  Both
    are exactly the products with the map of `_dense_factor`'s D, done
    as three matrix products and no temporaries; `walk` is the one caller.
    A `BandedFactor` d steps transposed only, its r from
    `apply_transposed`.

    Raises:
        InvalidArgumentError: a forward step of a banded factor.
    """
    banded = isinstance(d, BandedFactor)
    if banded and not transpose:
        raise InvalidArgumentError("a banded step factor steps transposed "
                                   "only; build the dense chain")
    w_rows, out_rows = _step_rows(dt, transpose)
    flat = buf.reshape(3, -1)
    w = out[0]
    np.matmul(w_rows, flat[:2], out=w.reshape(1, -1))
    if banded:
        d.apply_transposed(w, buf[2])
    else:
        np.matmul(d.T if transpose else d, w, out=buf[2])
    np.matmul(out_rows, flat, out=out.reshape(2, -1))


@dataclass
class PropagatorFactorization:
    """Ordered per-step increment factors D_k of the maps
    G_k ~ U(t_{k+1}, t_k) on the grid t_k = k dt, k = 0..n_steps.

    steps[k], an m x m array, advances packed states from t_k to t_{k+1}
    through `step_rule`; the same array object may be shared between steps
    when the generator is time independent.  A window is a range i0..i1 of
    step indices (see `walk`).  The H-adjoint U*(t, tau) is applied from
    the same factors by `apply_adjoint`.  The steps of a banded chain
    (`build_banded`) are `BandedFactor`s, which walk transposed only.
    """

    dt: float
    steps: List[np.ndarray]
    g: GramSet = field(repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def times(self) -> np.ndarray:
        """The grid times t_k = k dt, k = 0..n_steps."""
        return self.dt * np.arange(self.n_steps + 1)

    def walk(self, y: np.ndarray, i0: int = 0, i1: int = None,
             transpose: bool = False):
        """Yield U(t_j, t_i0) y for j = i0..i1 or, with `transpose`, the
        premetric images U(t_i1, t_j)^T y for j = i1 down to i0, by
        default over the whole window; y is packed, (2m, ...).

        The yielded arrays are views of two reused [u; v; scratch]
        buffers: each stays valid until the second yield after it, and an
        array written into the latest yielded state is the input of the
        next step.  A broadcast y is copied in without a buffer-sized
        temporary.

        Raises:
            InvalidArgumentError: on the first `next`, unless
                0 <= i0 <= i1 <= n_steps.
        """
        i1 = self.n_steps if i1 is None else i1
        if not 0 <= i0 <= i1 <= self.n_steps:
            raise InvalidArgumentError(
                f"step window {i0}..{i1} is not within 0..{self.n_steps}")
        order = range(i0, i1)
        m = y.shape[0] // 2
        bufs = np.empty((2, 3, m, y[0].size))
        bufs[0, :2].reshape(y.shape)[...] = y
        yield bufs[0, :2].reshape(y.shape)
        for i, k in enumerate(reversed(order) if transpose else order):
            cur = i % 2
            step_rule(self.steps[k], self.dt, bufs[cur], bufs[1 - cur, :2],
                      transpose)
            yield bufs[1 - cur, :2].reshape(y.shape)

    def apply(self, y: np.ndarray, i0: int = 0, i1: int = None,
              transpose: bool = False) -> np.ndarray:
        """The last state of `walk`, copied: U(t_i1, t_i0) y, or with
        `transpose` the premetric image U(t_i1, t_i0)^T y = M_H U* M_H^-1 y,
        which pairs against <U x, y>_H with no Gram solve at all; see
        `duality_defect`."""
        for z in self.walk(y, i0, i1, transpose):
            pass
        return z.copy()

    def stacks(self, y: np.ndarray):
        """Yield the states U(t_j, 0) y, j = 0..n_steps, of one forward
        `walk`, copied into stacks of `stack_size` states at most, as
        (j0, stack) with stack[i] = U(t_{j0+i}, 0) y.  The stacks are
        views of one buffer, each valid until the next yield, which bounds
        the memory of a stacked pass over a long chain."""
        size = stack_size(y.nbytes)
        buf = np.empty((min(size, self.n_steps + 1),) + y.shape)
        walk = self.walk(y)
        for j0 in range(0, self.n_steps + 1, size):
            stack = buf[:min(size, self.n_steps + 1 - j0)]
            for row, z in zip(stack, walk):
                row[...] = z
            yield j0, stack

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """U*(t_n, 0) y = M_H^-1 U^T M_H y over the whole window, with a
        single Gram solve."""
        return self.g.mh_solve(self.apply(self.g.mh_apply(y), transpose=True))


def distinct_factors(lam: TractiveForce, n_steps: int) -> int:
    """How many distinct factors a chain of n_steps steps under lam holds:
    one shared factor when the generator does not depend on time, else
    one a step."""
    return 1 if lam.autonomous else n_steps


def build_banded(lam: TractiveForce, g: GramSet, n_steps: int,
                 dt: float) -> PropagatorFactorization:
    """The banded factors (`BandedFactor`) of n_steps steps of dt from
    t = 0, for transposed walks only.  Step k's is that of the Cayley map
    of L(t_k + dt/2), which depends on lam's c(t) and profile, the Grams,
    dt and k alone, shared as `distinct_factors` counts; the bands of
    `stack_size` steps at a time are one `_band_factors` pass."""
    b_bands = to_bands(g.B)
    mids = [(k + 0.5) * dt for k in range(distinct_factors(lam, n_steps))]
    size, steps = stack_size(b_bands.nbytes), []
    for k0 in range(0, len(mids), size):
        steps += _band_factors(
            b_bands - tension_bands(lam, mids[k0:k0 + size], g), g.M, dt)
    if lam.autonomous:
        steps *= n_steps
    return PropagatorFactorization(float(dt), steps, g)


def build_propagator(lam: TractiveForce, g: GramSet, n_steps: int,
                     dt: float) -> PropagatorFactorization:
    """`build_banded`'s chain with each factor replaced in place by its
    dense D (`_dense_factor`), for chains that step forward; a shared
    factor is solved once and stays shared."""
    P = build_banded(lam, g, n_steps, dt)
    banded = None
    for k, f in enumerate(P.steps):
        if f is not banded:
            d, banded = _dense_factor(f), f
        P.steps[k] = d
    return P


def backward_adjoint_apply(lam: TractiveForce, g: GramSet, y: np.ndarray,
                           n_steps: int, dt: float) -> np.ndarray:
    """Integrate the adjoint flow backward: d/dtau U*(t,tau)y = -L*(tau) U* y.

    Crank-Nicolson with endpoint averaging of L*, marching from tau = t =
    n_steps dt down to tau = 0.  Deliberately a different discretization
    from the Gram transpose of the midpoint factorization, so agreement
    between the two is an order-of-accuracy statement, not a tautology.
    """
    m = g.m
    h = 0.5 * dt
    bw = STIFFNESS_BANDWIDTH
    b_bands = to_bands(g.B)
    tp = profile_T(lam, g)  # T_j = c(t_j) T_p
    c = [lam.c(j * dt) for j in range(n_steps + 1)]
    rho = np.array(y, dtype=float, copy=True)
    for j in reversed(range(n_steps)):
        # L*_j = -L0 + [[0, B^-1 T_j], [0, 0]] = [[0, C_j], [M^-1 B, 0]]
        rhs = rho - h * apply_L0(g, rho)
        rhs[:m] += h * g.B_solve(c[j + 1] * (tp @ rho[m:]))
        # B C_j = -K_j, so the solve (I - h L*_j)(u, v) = rhs reduces to
        # the banded one (M + h^2 K_j) v = M rhs_v + h B rhs_u, then
        # u = rhs_u + h C_j v with C_j v = B^-1 (T_j v) - v
        # gbsv keeps the fill-in of row pivoting in bw extra leading rows
        ab = np.zeros((3 * bw + 1, m), order="F")
        ab[bw:] = (h * h) * (b_bands - tension_bands(lam, j * dt, g))
        ab[2 * bw] += g.M
        w = g.mh_apply(rhs)
        v, info = _gbsv(bw, bw, ab, w[m:] + h * w[:m], overwrite_ab=1)[2:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        rho = np.concatenate([rhs[:m] + h * (g.B_solve(c[j] * (tp @ v)) - v),
                              v])
    return rho


def duality_defect(P: PropagatorFactorization, x: np.ndarray, y: np.ndarray,
                   i0: int = 0, i1: int = None) -> float:
    """Relative defect of <U x, y>_H = <x, U* y>_H for packed states.

    x and y are (2m, 3), or stacks (2m, 3, p) of p pairs, which are
    stepped as one chain each way; the largest of the p defects is
    returned.  The right side is evaluated through the premetric image of
    U* (no Gram solve), so both sides are the same bilinear product
    reassociated.
    """
    g = P.g
    x, y = (np.reshape(a, (2 * g.m, 3, -1)) for a in (x, y))
    my = np.stack([g.mh_apply(y[..., p]) for p in range(y.shape[2])], axis=2)
    ux = P.apply(x, i0, i1)
    uty = P.apply(my, i0, i1, transpose=True)
    return max(abs(float(np.sum(ux[..., p] * my[..., p]))
                   - float(np.sum(x[..., p] * uty[..., p])))
               / (packed_h_norm(x[..., p], g) * packed_h_norm(y[..., p], g)
                  + 1e-300) for p in range(x.shape[2]))


def cocycle_defect(P: PropagatorFactorization, i0: int, ir: int,
                   i1: int) -> float:
    """Probe estimate of the operator norm of U(t,tau) - U(t,r)U(r,tau) at
    t_i0, t_ir, t_i1 over 8 fixed random states, one (2m, 3, 8) chain.

    Zero exactly: both routes execute the identical sequence of per-step
    products.
    """
    if not i0 <= ir <= i1:
        raise InvalidArgumentError("need i0 <= ir <= i1")
    rng = np.random.default_rng(1234)
    x = np.stack([rng.standard_normal((2 * P.g.m, 3)) for _ in range(8)],
                 axis=2)
    direct = P.apply(x, i0, i1)
    via = P.apply(P.apply(x, i0, ir), ir, i1)
    return max(packed_h_norm(direct[..., p] - via[..., p], P.g)
               / packed_h_norm(x[..., p], P.g) for p in range(8))


def generator_residual(P: PropagatorFactorization, lam: TractiveForce,
                       w: BeamState) -> np.ndarray:
    """H-norms of the residual U(t,0)w - w - int_0^t L(r) U(r,0)w dr at
    P's grid times t_k, k = 0..n_steps, as an (n_steps+1,) array.

    The integral uses trapezoidal quadrature on the step grid; for the
    midpoint scheme the maximum residual decays at second order in dt.
    One walk's states are taken in stacks (`stacks`): L, the trapezoid
    (a cumulative sum carried from stack to stack) and the norms are each
    one pass over a stack, the bits of one state at a time.
    """
    g = P.g
    check_membership(w.u, "h4bc", g, what="displacement")
    check_membership(w.v, "h2bc", g, what="velocity")
    x0 = w.packed()
    tp = profile_T(lam, g)
    values = np.empty(P.n_steps + 1)
    integral, y_last = np.zeros_like(x0), None
    for k0, cur in P.stacks(x0):
        times = P.times[k0:k0 + len(cur)]
        y = apply_L1(tp, g, cur)
        y *= np.array([lam.c(float(t)) for t in times])[:, None, None]
        y += apply_L0(g, cur)
        # the trapezoid's intervals up to each state, the first one's
        # from the last state of the stack before (none at t = 0)
        terms = np.empty_like(y)
        terms[0] = 0.0 if y_last is None else y_last + y[0]
        np.add(y[:-1], y[1:], out=terms[1:])
        terms *= 0.5 * P.dt
        terms[0] += integral
        np.cumsum(terms, axis=0, out=terms)
        cur -= x0
        cur -= terms
        values[k0:k0 + len(cur)] = np.sqrt(np.maximum(
            packed_h_norm_sq(cur, g), 0.0))
        integral, y_last = terms[-1], y[-1]
    return values


@dataclass
class PicardResult:
    """Final packed (2m, 3) state of the fixed point, plus iteration record."""

    final: np.ndarray
    defects: List[float]
    alpha: float

    @property
    def iterations(self) -> int:
        return len(self.defects)


def picard_evolution(lam: TractiveForce, S: PropagatorFactorization,
                     w: BeamState, alpha: float = None,
                     constants: StabilityConstants = None) -> PicardResult:
    """Fixed point of u -> S(.) w + int_0 S(.-r) L1 u(r) dr on S's grid
    t_k = k dt, k = 0..n_steps, with L1 the tractive term of `lam`.

    S is the caller's propagator of the zero tension, so the comparison
    against the midpoint flow of `lam` isolates the treatment of the
    tractive term.  The free flow S(t_j) w is walked once; a sweep walks
    S's chain once more for the trapezoidal sum acc_j = S (acc_{j-1} +
    g_{j-1}/2) + g_j/2 of g_j = L1(t_j) u_j = (0, c(t_j) M^-1 T_p u_j),
    with one M^-1 T_p product for all steps and one stacked graph norm of
    the sweep's change.
    Iterates are compared in the weighted graph norm sup_k ||.||_D
    exp(-alpha t_k); successive defects contract by about C5/alpha.
    alpha=None resolves to max(2 C5, 1), which puts that factor at 1/2 or
    better.  `constants` default to `estimate_constants` at sup |c(t)|
    over S's span [0, n_steps dt].

    Raises:
        PreconditionError: w not in the discrete domain, or alpha <= C5.
        NonConvergenceError: defect above _PICARD_TOL after _PICARD_MAX_ITER
            sweeps.
    """
    g, n_steps, dt = S.g, S.n_steps, S.dt
    check_membership(w.u, "h4bc", g, what="displacement")
    check_membership(w.v, "h2bc", g, what="velocity")
    if constants is None:
        constants = estimate_constants(lam, g, n_steps * dt)
    c5 = constants.C5
    alpha = alpha if alpha is not None else max(2.0 * c5, 1.0)
    if alpha <= c5:
        raise PreconditionError(
            f"weight alpha={alpha} must exceed the graph-norm bound C5={c5}")

    m = g.m
    flow = np.empty((n_steps + 1, 2 * m, 3))
    for j, y in enumerate(S.walk(w.packed())):
        flow[j] = y
    # the lower-left block c(t_j) M^-1 T_p of L1, the only nonzero one
    mt = profile_T(lam, g) / g.M[:, None]
    half_c = np.array([0.5 * lam.c(j * dt) for j in range(n_steps + 1)])

    weights = np.exp(-alpha * dt * np.arange(n_steps + 1))
    u = flow.copy()
    acc = np.empty_like(u)
    half = np.empty_like(u)  # the half loads g_j / 2, then the change
    defects: List[float] = []
    for _ in range(_PICARD_MAX_ITER):
        half[:, :m] = 0.0  # a load acts on the velocity rows only
        half[:, m:] = np.tensordot(mt, u[:, :m],
                                   axes=(1, 1)).transpose(1, 0, 2)
        half[:, m:] *= half_c[:, None, None]
        # acc_j = S (acc_{j-1} + g_{j-1}/2) + g_j / 2, walked from g_0 / 2
        walk = S.walk(half[0])
        next(walk)
        acc[0] = 0.0
        for j, z in enumerate(walk, 1):
            z[m:] += half[j, m:]
            acc[j] = z
            z[m:] += half[j, m:]
        acc *= dt
        acc += flow  # the new iterate
        np.subtract(acc, u, out=half)
        defects.append(
            float(np.max(np.sqrt(packed_d_norm_sq(half, g)) * weights)))
        u, acc = acc, u
        if defects[-1] <= _PICARD_TOL:
            return PicardResult(final=u[-1].copy(), defects=defects,
                                alpha=alpha)
    raise NonConvergenceError(
        f"picard iteration still at defect {defects[-1]:.3e} after "
        f"{_PICARD_MAX_ITER} sweeps (tol {_PICARD_TOL:.1e})")
