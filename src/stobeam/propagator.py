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
(2m x 2m) one.  D comes from one banded LU of A, solved against -h^2 K,
plus one refinement sweep, so a step costs O(m^2) to build instead of
the O(m^3) of a dense (2m)x(2m) LU.  The factors stay dense: stepping a
block of paths is one dense matmul per step, which beats applying banded
factors to the block.

A window [t0, T] is kept as the ordered list of its per-step factors.
Any U(t, tau) on grid times is a partial product of the same stored
factors, applied as one chain of `step_rule` calls; the cocycle law
U(t,r)U(r,tau)=U(t,tau) then holds as a re-association of literally
identical floating point operations, not merely to rounding.

Two independent constructions of the perturbed flow are provided for
cross-checks: the midpoint scheme above and a Picard iteration for the
variation-of-constants form u = S w + int S L1 u, contracted in a
weighted graph norm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbcon as _gbcon, dgbtrf as _gbtrf, \
    dgbtrs as _gbtrs

from .errors import InvalidArgumentError, NonConvergenceError, PreconditionError
from .grid import BeamState, GramSet, check_membership, packed_d_norm_sq, \
    packed_h_norm
from .operators import StabilityConstants, TractiveForce, \
    STIFFNESS_BANDWIDTH, adjoint_H, build_L, build_L1, estimate_constants, \
    tension_bands, to_bands

#: reciprocal condition number of M + h^2 K below which a step factor warns
_RCOND_FLOOR = 1e-13

#: Picard stops once a sweep changes the iterate by at most this much in the
#: weighted graph norm, and gives up after _PICARD_MAX_ITER sweeps
_PICARD_TOL = 1e-10
_PICARD_MAX_ITER = 60


def _window_steps(t0: float, T: float, dt: float) -> int:
    """Number of steps of size dt covering [t0, T]; dt must divide."""
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    if not T > t0:
        raise InvalidArgumentError(f"empty time window [{t0}, {T}]")
    k = (T - t0) / dt
    kr = round(k)
    if kr < 1 or abs(k - kr) > 1e-9 * max(1.0, kr):
        raise InvalidArgumentError(
            f"step size {dt} does not divide the window [{t0}, {T}]")
    return int(kr)


def _band_matmul(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for A in the band layout of `to_bands` and dense x (m, k).

    Each row sums its terms in ascending column order, the order of a
    row-by-row sparse product.  Layout entries outside the matrix are
    zero, so every row takes 2 bw + 1 terms.  The work runs on x^T, whose
    rows are contiguous for the Fortran-ordered solves of `gbtrs`.
    """
    bw = (ab.shape[0] - 1) // 2
    m = ab.shape[1]
    abp = np.zeros((2 * bw + 1, m + 2 * bw))
    abp[:, bw:bw + m] = ab
    xpt = np.zeros((x.shape[1], m + 2 * bw))
    xpt[:, bw:bw + m] = x.T
    out = np.zeros((x.shape[1], m))
    term = np.empty_like(out)
    for d in range(-bw, bw + 1):  # A[i, i + d] = ab[bw - d, i + d]
        cols = slice(bw + d, bw + d + m)
        out += np.multiply(xpt[:, cols], abp[bw - d, cols], out=term)
    return out.T


def _factor_from_bands(kb: np.ndarray, mass: np.ndarray,
                       dt: float) -> np.ndarray:
    """Increment factor D of the Cayley map of L = [[0, I], [-M^-1 K, 0]]
    from the bands of K.

    With h = dt/2 and A = M + h^2 K, D = S - I = -h^2 A^-1 K for
    S = A^-1 M, and the Cayley map is G = [[I + 2D, dt (I + D)],
    [(4/dt) D, I + 2D]] (the trapezoidal split of the second-order
    system), which `step_rule` applies.  D is solved for directly, with
    the dense -h^2 K as the right-hand side of one banded LU of A (LU,
    not Cholesky, so that an indefinite K still factors) and one
    refinement sweep D += A^-1 (-h^2 K - A D), which brings the map to the
    rounding level of its defining identities.  Cost O(m^2 bw) instead of
    O(m^3).
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    bw = (kb.shape[0] - 1) // 2
    m = mass.size
    h = 0.5 * dt
    hk = (h * h) * kb
    a = hk.copy()
    a[bw] += mass
    # gbtrf keeps the fill-in of row pivoting in bw extra leading rows
    ab = np.zeros((3 * bw + 1, m))
    ab[bw:] = a
    lu, piv, info = _gbtrf(ab, bw, bw, overwrite_ab=1)
    rcond = 0.0 if info > 0 else \
        _gbcon(bw, bw, lu, piv, np.abs(a).sum(axis=0).max())[0]
    if rcond < _RCOND_FLOOR:
        warnings.warn(
            f"cayley resolvent is nearly singular (rcond={rcond:.2e}); "
            "reduce dt", stacklevel=3)
    rhs = -_band_matmul(hk, np.eye(m))  # the dense -h^2 K
    d = _gbtrs(lu, bw, bw, rhs, piv)[0]
    d += _gbtrs(lu, bw, bw, rhs - _band_matmul(a, d), piv)[0]
    return d


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
    are exactly the products with the map of `_factor_from_bands`, done
    as three matrix products and no temporaries; every caller steps
    through here.
    """
    if transpose:
        d, w_rows, out_rows = d.T, [[dt, 2.0]], [[1.0, 0.0, 2.0 / dt],
                                                  [dt, 1.0, 1.0]]
    else:
        w_rows, out_rows = [[2.0, dt]], [[1.0, dt, 1.0], [0.0, 1.0, 2.0 / dt]]
    flat = buf.reshape(3, -1)
    w = out[0]
    np.matmul(np.array(w_rows), flat[:2], out=w.reshape(1, -1))
    np.matmul(d, w, out=buf[2])
    np.matmul(np.array(out_rows), flat, out=out.reshape(2, -1))


def _walk(steps, dt: float, y: np.ndarray, order, transpose: bool):
    """Yield y (packed, (2m, ...)), then y after each step of `order` in
    turn.  The yielded arrays are views of two reused buffers: each stays
    valid until the second yield after it."""
    m = y.shape[0] // 2
    bufs = np.empty((2, 3, m, y[0].size))
    bufs[0, :2] = y.reshape(2, m, -1)
    yield bufs[0, :2].reshape(y.shape)
    for i, k in enumerate(order):
        cur = i % 2
        step_rule(steps[k], dt, bufs[cur], bufs[1 - cur, :2], transpose)
        yield bufs[1 - cur, :2].reshape(y.shape)


def _chain(steps, dt: float, y: np.ndarray, order, transpose: bool):
    """y after every step of `order`, applied in turn."""
    for z in _walk(steps, dt, y, order, transpose):
        pass
    return z.copy()


def step_map(d: np.ndarray, dt: float) -> np.ndarray:
    """The dense (2m)x(2m) map G of one step, `step_rule` applied to I."""
    return _chain([d], dt, np.eye(2 * d.shape[0]), [0], False)


@dataclass
class PropagatorFactorization:
    """Ordered per-step increment factors D_k of the maps
    G_k ~ U(t_{k+1}, t_k) on a uniform window.

    steps[k], an m x m array, advances packed states from t0 + k dt to
    t0 + (k+1) dt through `step_rule`; the same array object may be
    shared between steps when the generator is time independent.  The
    H-adjoint U*(t, tau) is applied from the same factors by
    `apply_adjoint`.
    """

    t0: float
    T: float
    dt: float
    steps: List[np.ndarray]
    g: GramSet = field(repr=False)

    def __post_init__(self):
        k = _window_steps(self.t0, self.T, self.dt)
        if len(self.steps) != k:
            raise InvalidArgumentError(
                f"{len(self.steps)} step factors do not cover the window "
                f"({k} expected)")
        for s in self.steps:
            if not np.all(np.isfinite(s)):
                raise InvalidArgumentError(
                    "step factor has non-finite entries")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of an aligned time; no interpolation is offered."""
        k = (t - self.t0) / self.dt
        kr = int(round(k))
        if kr < 0 or kr > self.n_steps or abs(k - kr) > 1e-9 * max(1.0, abs(k)):
            raise InvalidArgumentError(
                f"time {t} is not on the step grid of [{self.t0}, {self.T}] "
                f"with dt={self.dt}")
        return kr

    def span(self, tau: float = None, t: float = None):
        """Step indices (i0, i1) of the window [tau, t], by default the
        whole window.

        Raises:
            InvalidArgumentError: a time off the step grid, or tau > t.
        """
        i0 = 0 if tau is None else self.index_of(tau)
        i1 = self.n_steps if t is None else self.index_of(t)
        if i0 > i1:
            raise InvalidArgumentError("time window is reversed")
        return i0, i1

    def apply(self, y: np.ndarray, tau: float = None, t: float = None) -> np.ndarray:
        """U(t, tau) y as a chain of per-step products (default full
        window); y is packed, (2m, ...)."""
        i0, i1 = self.span(tau, t)
        return _chain(self.steps, self.dt, y, range(i0, i1), False)

    def apply_transpose_premetric(self, z: np.ndarray, tau: float = None,
                                  t: float = None) -> np.ndarray:
        """U(t, tau)^T z, the premetric image M_H U*(t,tau) M_H^-1 z.

        Pairing x with this against the identity <U x, y>_H needs no Gram
        solve at all; see `duality_defect`.
        """
        i0, i1 = self.span(tau, t)
        return _chain(self.steps, self.dt, z, reversed(range(i0, i1)), True)

    def backward_images(self, z: np.ndarray, tau: float = None,
                        t: float = None):
        """Yield U(t, t_j)^T z for the grid times t_j from t down to tau,
        the chain that `apply_transpose_premetric` ends with; each yielded
        array stays valid until the second yield after it."""
        i0, i1 = self.span(tau, t)
        return _walk(self.steps, self.dt, z, reversed(range(i0, i1)), True)

    def apply_adjoint(self, y: np.ndarray, tau: float = None,
                      t: float = None) -> np.ndarray:
        """U*(t, tau) y = M_H^-1 U^T M_H y with a single Gram solve."""
        return self.g.mh_solve(
            self.apply_transpose_premetric(self.g.mh_apply(y), tau, t))


def build_propagator(lam: TractiveForce, g: GramSet, t0: float, T: float,
                     dt: float) -> PropagatorFactorization:
    """Factorize the evolution family over [t0, T] into per-step factors.

    D_k is the increment factor of the Cayley map of L(t_k + dt/2); one
    factor is shared by all steps when the generator does not depend on
    time.
    """
    k_steps = _window_steps(t0, T, dt)
    b_bands = to_bands(g.B)

    def step(t):
        return _factor_from_bands(b_bands - tension_bands(lam, t, g), g.M, dt)

    if lam.autonomous:
        steps = [step(t0 + 0.5 * dt)] * k_steps
    else:
        steps = [step(t0 + (k + 0.5) * dt) for k in range(k_steps)]
    return PropagatorFactorization(t0=float(t0), T=float(T), dt=float(dt),
                                   steps=steps, g=g)


def backward_adjoint_apply(lam: TractiveForce, g: GramSet, y: np.ndarray,
                           tau: float, t: float, dt: float) -> np.ndarray:
    """Integrate the adjoint flow backward: d/dtau U*(t,tau)y = -L*(tau) U* y.

    Crank-Nicolson with endpoint averaging of L*, marching from tau = t
    down to the requested tau.  Deliberately a different discretization
    from the Gram transpose of the midpoint factorization, so agreement
    between the two is an order-of-accuracy statement, not a tautology.
    """
    k_steps = _window_steps(tau, t, dt)
    m = g.m
    h = 0.5 * dt
    bw = STIFFNESS_BANDWIDTH
    b_bands = to_bands(g.B)
    mats = [adjoint_H(build_L(lam, tau + j * dt, g)).mat
            for j in range(k_steps + 1)]
    rho = np.array(y, dtype=float, copy=True)
    for j in reversed(range(k_steps)):
        rhs = rho + h * (mats[j + 1] @ rho)
        # L*_j = [[0, C_j], [M^-1 B, 0]] with B C_j = -K_j, so the solve
        # (I - h L*_j)(u, v) = rhs reduces to the banded one
        # (M + h^2 K_j) v = M rhs_v + h B rhs_u, then u = rhs_u + h C_j v
        a = (h * h) * (b_bands - tension_bands(lam, tau + j * dt, g))
        a[bw] += g.M
        w = g.mh_apply(rhs)
        v = solve_banded((bw, bw), a, w[m:] + h * w[:m])
        rho = np.concatenate([rhs[:m] + h * (mats[j][:m, m:] @ v), v])
    return rho


def duality_defect(P: PropagatorFactorization, x: np.ndarray, y: np.ndarray,
                   tau: float = None, t: float = None) -> float:
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
    ux = P.apply(x, tau, t)
    uty = P.apply_transpose_premetric(my, tau, t)
    return max(abs(float(np.sum(ux[..., p] * my[..., p]))
                   - float(np.sum(x[..., p] * uty[..., p])))
               / (packed_h_norm(x[..., p], g) * packed_h_norm(y[..., p], g)
                  + 1e-300) for p in range(x.shape[2]))


def cocycle_defect(P: PropagatorFactorization, tau: float, r: float,
                   t: float) -> float:
    """Probe estimate of the operator norm of U(t,tau) - U(t,r)U(r,tau)
    over 8 fixed random states, stepped as one (2m, 3, 8) chain.

    Zero exactly on aligned times: both routes execute the identical
    sequence of per-step products.
    """
    i0, ir, i1 = P.index_of(tau), P.index_of(r), P.index_of(t)
    if not (i0 <= ir <= i1):
        raise InvalidArgumentError("need tau <= r <= t")
    rng = np.random.default_rng(1234)
    x = np.stack([rng.standard_normal((2 * P.g.m, 3)) for _ in range(8)],
                 axis=2)
    direct = P.apply(x, tau, t)
    via = P.apply(P.apply(x, tau, r), r, t)
    return max(packed_h_norm(direct[..., p] - via[..., p], P.g)
               / packed_h_norm(x[..., p], P.g) for p in range(8))


@dataclass
class ResidualCurve:
    """H-norm residuals of the generator integral identity over time."""

    times: np.ndarray
    values: np.ndarray

    @property
    def max_value(self) -> float:
        return float(np.max(np.abs(self.values)))


def generator_residual(P: PropagatorFactorization, lam: TractiveForce,
                       w: BeamState) -> ResidualCurve:
    """Residual of U(t,t0)w - w - int_t0^t L(r) U(r,t0)w dr over t.

    The integral uses trapezoidal quadrature on the step grid; for the
    midpoint scheme the maximum residual decays at second order in dt.
    """
    g = P.g
    check_membership(w.u, "h4bc", g, what="displacement")
    check_membership(w.v, "h2bc", g, what="velocity")
    x0 = w.packed()
    integral = np.zeros_like(x0)
    values, y_prev = [], None
    walk = _walk(P.steps, P.dt, x0, range(P.n_steps), False)
    for t, cur in zip(P.times, walk):
        y = build_L(lam, float(t), g).mat @ cur
        if values:
            integral = integral + 0.5 * P.dt * (y_prev + y)
        values.append(packed_h_norm(cur - x0 - integral, g))
        y_prev = y
    return ResidualCurve(times=P.times, values=np.array(values))


@dataclass
class PicardResult:
    """Trajectory from the fixed-point construction plus iteration record."""

    states: List[BeamState]
    defects: List[float]
    alpha: float

    @property
    def iterations(self) -> int:
        return len(self.defects)


def picard_evolution(lam: TractiveForce, g: GramSet, w: BeamState,
                     tau: float, t: float, dt: float, alpha: float = None,
                     constants: StabilityConstants = None) -> PicardResult:
    """Fixed point of u -> S(.-tau) w + int_tau S(.-r) L1(r) u(r) dr.

    S is the same Cayley kernel used for the stiff part of the one-step
    schemes, so the comparison against `build_propagator` isolates the
    treatment of the tractive term.  Iterates are compared in the
    weighted graph norm sup_k ||.||_D exp(-alpha (t_k - tau)); successive
    defects contract by about C5/alpha.  alpha=None resolves to
    max(2 C5, 1), which puts that factor at 1/2 or better.  `constants`
    default to `estimate_constants` at 9 times over [tau, t].

    Raises:
        PreconditionError: w not in the discrete domain, or alpha <= C5.
        NonConvergenceError: defect above _PICARD_TOL after _PICARD_MAX_ITER
            sweeps.
    """
    check_membership(w.u, "h4bc", g, what="displacement")
    check_membership(w.v, "h2bc", g, what="velocity")
    k_steps = _window_steps(tau, t, dt)
    if constants is None:
        constants = estimate_constants(lam, g, np.linspace(tau, t, 9))
    c5 = constants.C5
    alpha = alpha if alpha is not None else max(2.0 * c5, 1.0)
    if alpha <= c5:
        raise PreconditionError(
            f"weight alpha={alpha} must exceed the graph-norm bound C5={c5}")

    s_step = step_map(_factor_from_bands(to_bands(g.B), g.M, dt), dt)
    dim = 2 * g.m
    l1 = np.stack([build_L1(lam, tau + j * dt, g).mat
                   for j in range(k_steps + 1)])

    flow = np.empty((k_steps + 1, dim, 3))
    flow[0] = w.packed()
    for j in range(k_steps):
        flow[j + 1] = s_step @ flow[j]

    weights = np.exp(-alpha * dt * np.arange(k_steps + 1))
    u = flow.copy()
    defects: List[float] = []
    for _ in range(_PICARD_MAX_ITER):
        gj = np.matmul(l1, u)
        new = np.empty_like(u)
        new[0] = flow[0]
        acc = np.zeros((dim, 3))
        for j in range(1, k_steps + 1):
            acc = s_step @ acc + 0.5 * (s_step @ gj[j - 1] + gj[j])
            new[j] = flow[j] + dt * acc
        defect = max(
            np.sqrt(packed_d_norm_sq(new[j] - u[j], g)) * weights[j]
            for j in range(k_steps + 1))
        defects.append(float(defect))
        u = new
        if defect <= _PICARD_TOL:
            states = [BeamState.from_packed(g.grid, u[j])
                      for j in range(k_steps + 1)]
            return PicardResult(states=states, defects=defects, alpha=alpha)
    raise NonConvergenceError(
        f"picard iteration still at defect {defects[-1]:.3e} after "
        f"{_PICARD_MAX_ITER} sweeps (tol {_PICARD_TOL:.1e})")
