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

    A = M + h^2 K,  S = A^-1 M,
    G = [[2S - I, 2h S], [-2h M^-1 K S, 2S - I]].

S comes from one banded LU of A plus one refinement sweep
S += A^-1 (M - A S), so a step map costs O(m^2) instead of the O(m^3) of
a dense (2m)x(2m) LU; at dt = 1e-3 and n = 16, 64, 256 it meets the
trapezoid identity and the free-flow isometry at least as closely as the
dense LU did.  The maps themselves stay dense: stepping a block of paths
is one dense matmul per step, which beats applying banded factors to
the block.

A window [t0, T] is kept as the ordered list of its per-step maps.  Any
U(t, tau) on grid times is a partial product of the same stored factors,
applied as one chain of matvecs; the cocycle law U(t,r)U(r,tau)=U(t,tau)
then holds as a re-association of literally identical floating point
operations, not merely to rounding.

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
    STIFFNESS_BANDWIDTH, adjoint_H, build_L, build_L0, build_L1, \
    estimate_constants, tension_bands, to_bands
# re-export: op_norm_H stays part of this module's public interface
from .operators import op_norm_H as op_norm_H

#: reciprocal condition number of M + h^2 K below which a step map warns
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


def _cayley_from_bands(kb: np.ndarray, mass: np.ndarray,
                       dt: float) -> np.ndarray:
    """Dense Cayley map of L = [[0, I], [-M^-1 K, 0]] from the bands of K.

    With h = dt/2, A = M + h^2 K and S = A^-1 M the map is exactly
    G = [[2S - I, 2h S], [-2h M^-1 K S, 2S - I]] (the trapezoidal split of
    the second-order system).  S comes from one banded LU of A (LU, not
    Cholesky, so that an indefinite K still factors) and one refinement
    sweep S += A^-1 (M - A S), which brings the map to the rounding level
    of its defining identities.  Cost O(m^2 bw) instead of O(m^3).
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidArgumentError(f"step size must be positive, got {dt}")
    bw = (kb.shape[0] - 1) // 2
    m = mass.size
    h = 0.5 * dt
    a = (h * h) * kb
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
    mdiag = np.diag(mass)
    s = _gbtrs(lu, bw, bw, mdiag, piv)[0]
    s += _gbtrs(lu, bw, bw, mdiag - _band_matmul(a, s), piv)[0]
    G = np.empty((2 * m, 2 * m))
    np.multiply(s, 2.0, out=G[:m, :m])
    G.reshape(-1)[:2 * m * m:2 * m + 1] -= 1.0  # diagonal of the top left
    G[m:, m:] = G[:m, :m]
    np.multiply(s, dt, out=G[:m, m:])
    np.multiply(_band_matmul(kb, s), (-dt / mass)[:, None], out=G[m:, :m])
    return G


@dataclass
class PropagatorFactorization:
    """Ordered per-step maps G_k ~ U(t_{k+1}, t_k) on a uniform window.

    steps[k] advances packed states from t0 + k dt to t0 + (k+1) dt; the
    same array object may be shared between steps when the generator is
    time independent.  The H-adjoint U*(t, tau) is applied from the same
    maps by `apply_adjoint`.
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
                f"{len(self.steps)} step maps do not cover the window "
                f"({k} expected)")
        for s in self.steps:
            if not np.all(np.isfinite(s)):
                raise InvalidArgumentError("step map has non-finite entries")

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
        """U(t, tau) y as a chain of per-step matvecs (default full window)."""
        i0, i1 = self.span(tau, t)
        z = np.array(y, dtype=float, copy=True)
        for k in range(i0, i1):
            z = self.steps[k] @ z
        return z

    def apply_transpose_premetric(self, z: np.ndarray, tau: float = None,
                                  t: float = None) -> np.ndarray:
        """U(t, tau)^T z, the premetric image M_H U*(t,tau) M_H^-1 z.

        Pairing x with this against the identity <U x, y>_H needs no Gram
        solve at all; see `duality_defect`.
        """
        i0, i1 = self.span(tau, t)
        out = np.array(z, dtype=float, copy=True)
        for k in reversed(range(i0, i1)):
            out = self.steps[k].T @ out
        return out

    def apply_adjoint(self, y: np.ndarray, tau: float = None,
                      t: float = None) -> np.ndarray:
        """U*(t, tau) y = M_H^-1 U^T M_H y with a single Gram solve."""
        return self.g.mh_solve(
            self.apply_transpose_premetric(self.g.mh_apply(y), tau, t))


def build_propagator(lam: TractiveForce, g: GramSet, t0: float, T: float,
                     dt: float) -> PropagatorFactorization:
    """Factorize the evolution family over [t0, T] into per-step maps.

    G_k is the Cayley map of L(t_k + dt/2); one map is shared by all steps
    when the generator does not depend on time.
    """
    k_steps = _window_steps(t0, T, dt)
    b_bands = to_bands(g.B)

    def step(t):
        return _cayley_from_bands(b_bands - tension_bands(lam, t, g), g.M, dt)

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
    mats = [adjoint_H(build_L(lam, tau + j * dt, g), g).mat
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

    The right side is evaluated through the premetric image of U* (no
    Gram solve), so both sides are the same bilinear product reassociated.
    """
    g = P.g
    ux = P.apply(x, tau, t)
    lhs = float(np.sum(ux * g.mh_apply(y)))
    rhs = float(np.sum(x * P.apply_transpose_premetric(g.mh_apply(y), tau, t)))
    scale = packed_h_norm(x, g) * packed_h_norm(y, g) + 1e-300
    return abs(lhs - rhs) / scale


def cocycle_defect(P: PropagatorFactorization, tau: float, r: float,
                   t: float) -> float:
    """Probe estimate of the operator norm of U(t,tau) - U(t,r)U(r,tau)
    over 8 fixed random states.

    Zero exactly on aligned times: both routes execute the identical
    sequence of per-step matvecs.
    """
    i0, ir, i1 = P.index_of(tau), P.index_of(r), P.index_of(t)
    if not (i0 <= ir <= i1):
        raise InvalidArgumentError("need tau <= r <= t")
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(8):
        x = rng.standard_normal((2 * P.g.m, 3))
        direct = P.apply(x, tau, t)
        via = P.apply(P.apply(x, tau, r), r, t)
        worst = max(worst, packed_h_norm(direct - via, P.g)
                    / packed_h_norm(x, P.g))
    return worst


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
    l0_mat = build_L0(g).mat
    x0 = w.packed()
    cur = x0.copy()
    integral = np.zeros_like(x0)
    times = [P.t0]
    values = [0.0]
    y_prev = (l0_mat + build_L1(lam, times[0], g).mat) @ cur
    for k in range(P.n_steps):
        t_next = P.t0 + (k + 1) * P.dt
        cur = P.steps[k] @ cur
        y_next = (l0_mat + build_L1(lam, t_next, g).mat) @ cur
        integral = integral + 0.5 * P.dt * (y_prev + y_next)
        values.append(packed_h_norm(cur - x0 - integral, g))
        times.append(t_next)
        y_prev = y_next
    return ResidualCurve(times=np.array(times), values=np.array(values))


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
        constants = estimate_constants(lam, g, np.linspace(tau, t, 9)) \
            if lam.family != "zero" else None
    c5 = constants.C5 if constants is not None else 0.0
    alpha = alpha if alpha is not None else max(2.0 * c5, 1.0)
    if alpha <= c5:
        raise PreconditionError(
            f"weight alpha={alpha} must exceed the graph-norm bound C5={c5}")

    s_step = _cayley_from_bands(to_bands(g.B), g.M, dt)
    dim = 2 * g.m
    zero_l1 = lam.family == "zero"
    if not zero_l1:
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
        gj = np.zeros_like(u) if zero_l1 else np.matmul(l1, u)
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
        f"{_PICARD_MAX_ITER} sweeps (tol {_PICARD_TOL:.1e})",
        last_defect=defects[-1])
