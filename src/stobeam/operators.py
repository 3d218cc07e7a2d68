"""Discrete beam generators: stiff part, tractive part, adjoints, bounds.

Per channel the state is packed as y = (u, v) of length 2m.  The stiff
generator realizes the fourth-derivative term weakly through the H2 Gram,

    L0 = [[0, I], [-M^-1 B, 0]],

which is exactly skew-adjoint for the block Gram M_H = blockdiag(B, M):
M_H L0 = [[0, B], [-B, 0]] is antisymmetric whenever B is, and B is
symmetrized at assembly.  The tractive term enters through

    T(t) = -D1^T W_lambda(t) D1,   L1(t) = [[0, 0], [M^-1 T(t), 0]],

with the tension coefficient sampled at cell midpoints, so T(t) is
symmetric negative semidefinite and the weak pairing has no boundary
terms (the coefficient vanishes at both ends).

Adjoint identities are exact in weak-pairing form (see `BlockOperator.pair`
and `pair_state_with_adjoint`); dense adjoint matrices built with linear
solves carry eps * cond(B) roundoff and are meant for propagator
cross-checks, not for machine-precision identity tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, InvalidArgumentError
from .grid import BeamGrid, GramSet

_BUMP_FAMILIES = ("zero", "bump", "tabulated")


@dataclass
class TractiveForce:
    """Tension coefficient lambda(s, t) = c(t) * profile(s).

    The built-in bump profile s^2 (l-s)^2 / l^4 satisfies all endpoint
    requirements (value and slope vanish at both ends) for any bounded
    c(t) >= 0.  Tabulated profiles supply node values directly; their
    invariants are checked by `invariant_defects` (and by the verify
    command) rather than rejected at construction, so that deliberately
    broken inputs surface as failed checks.
    """

    family: str
    c0: float = 1.0
    c1: float = 0.0
    freq: float = 1.0
    table: Optional[np.ndarray] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.family not in _BUMP_FAMILIES:
            raise InvalidArgumentError(f"unknown tractive family '{self.family}'")
        if self.family == "bump" and self.c0 - abs(self.c1) < 0:
            raise InvalidArgumentError(
                "bump modulation must stay nonnegative: need c0 >= |c1|")
        if self.family == "tabulated":
            if self.table is None:
                raise InvalidArgumentError("tabulated family needs node values")
            self.table = np.asarray(self.table, dtype=float)
            if np.min(self.table) < 0 or abs(self.table[0]) > 0 or abs(self.table[-1]) > 0:
                warnings.warn("tabulated tension profile violates endpoint/sign "
                              "invariants; verify checks will fail", stacklevel=2)

    @classmethod
    def zero(cls) -> "TractiveForce":
        return cls(family="zero")

    @classmethod
    def bump(cls, c0: float = 1.0, c1: float = 0.0, freq: float = 1.0,
             horizon: float = None) -> "TractiveForce":
        return cls(family="bump", c0=c0, c1=c1, freq=freq, horizon=horizon)

    def c(self, t: float) -> float:
        """Time modulation c(t) = c0 + c1 sin(2 pi freq t)."""
        if self.family == "zero":
            return 0.0
        return self.c0 + self.c1 * np.sin(2.0 * np.pi * self.freq * t)

    def c_sup(self) -> float:
        """Upper bound for c(t) over any time window."""
        if self.family == "zero":
            return 0.0
        return self.c0 + abs(self.c1)

    def _check_time(self, t: float):
        if self.horizon is not None and not (0.0 <= t <= self.horizon * (1 + 1e-12)):
            raise InvalidArgumentError(
                f"time {t} outside the configured window [0, {self.horizon}]")

    def _profile(self, s: np.ndarray, grid: BeamGrid) -> np.ndarray:
        if self.family == "zero":
            return np.zeros_like(s)
        if self.family == "bump":
            l = grid.l
            return (s * s * (l - s) ** 2) / l**4
        # tabulated: linear interpolation between node values
        if self.table.shape[0] != grid.n + 2:
            raise InvalidArgumentError(
                f"tabulated profile has {self.table.shape[0]} values, grid "
                f"needs {grid.n + 2}")
        return np.interp(s, grid.nodes, self.table)

    def values_at(self, s: np.ndarray, t: float, grid: BeamGrid) -> np.ndarray:
        self._check_time(t)
        return self.c(t) * self._profile(np.asarray(s, dtype=float), grid)

    def node_values(self, t: float, grid: BeamGrid) -> np.ndarray:
        return self.values_at(grid.nodes, t, grid)

    def midpoint_values(self, t: float, grid: BeamGrid) -> np.ndarray:
        mids = grid.nodes[:-1] + 0.5 * grid.h
        return self.values_at(mids, t, grid)

    def ds_node_values(self, t: float, grid: BeamGrid) -> np.ndarray:
        """Spatial derivative at the nodes (analytic for the bump family)."""
        self._check_time(t)
        s = grid.nodes
        if self.family == "zero":
            return np.zeros_like(s)
        if self.family == "bump":
            l = grid.l
            return self.c(t) * 2.0 * s * (l - s) * (l - 2.0 * s) / l**4
        prof = self.c(t) * self._profile(s, grid)
        return np.gradient(prof, grid.h)

    def ds_l2_norm_sq(self, t: float, grid: BeamGrid) -> float:
        """Integral of (d lambda/ds)^2 over the beam at time t."""
        self._check_time(t)
        if self.family == "zero":
            return 0.0
        if self.family == "bump":
            # int_0^l [2 s (l-s)(l-2s)]^2 ds / l^8 = (4/210) / l, times c^2
            return self.c(t) ** 2 * (4.0 / 210.0) / grid.l
        d = self.ds_node_values(t, grid)
        w = np.full(grid.n + 2, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        return float(np.sum(w * d * d))

    def invariant_defects(self, grid: BeamGrid, t_samples) -> dict:
        """Pointwise invariant violations, worst case over the samples."""
        out = {"endpoint_value": 0.0, "endpoint_slope": 0.0,
               "negativity": 0.0, "interior_nonpositive": 0.0}
        for t in t_samples:
            vals = self.node_values(t, grid)
            dvals = self.ds_node_values(t, grid)
            out["endpoint_value"] = max(out["endpoint_value"],
                                        abs(vals[0]), abs(vals[-1]))
            out["endpoint_slope"] = max(out["endpoint_slope"],
                                        abs(dvals[0]), abs(dvals[-1]))
            out["negativity"] = max(out["negativity"], float(-np.min(vals, initial=0.0)))
            if self.c(t) > 0 and self.family != "zero":
                interior = vals[1:-1]
                if interior.size and np.min(interior) <= 0:
                    out["interior_nonpositive"] = 1.0
        return out


@dataclass
class BlockOperator:
    """A 2x2-block generator acting on packed (u, v) states.

    `mat` is the dense single-channel matrix; the same block acts on each
    of the three components.  `aux` keeps assembly ingredients (the weak
    tractive matrix T for tractive roles) so that adjoints and exact
    pairings can be formed without re-deriving them from `mat`.
    """

    role: str
    mat: np.ndarray
    g: GramSet
    t: Optional[float] = None
    aux: dict = field(default_factory=dict)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.mat @ y

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Exact weak-form evaluation of <op x, y>_H for packed states.

        Uses the defining quadratic forms instead of `mat`, so skewness
        and adjoint identities hold to rounding of well-scaled dot
        products (no mass solves, no 1/M roundtrips).
        """
        g = self.g
        m = g.m
        xu, xv = x[:m], x[m:]
        yu, yv = y[:m], y[m:]
        if self.role == "L0":
            return float(np.sum(xv * (g.B @ yu)) - np.sum(xu * (g.B @ yv)))
        if self.role == "L0_adjoint":
            return float(np.sum(xu * (g.B @ yv)) - np.sum(xv * (g.B @ yu)))
        if self.role == "L1":
            return float(np.sum((self.aux["T"] @ xu) * yv))
        if self.role == "L1_adjoint":
            return float(np.sum(xv * (self.aux["T"] @ yu)))
        if self.role == "L":
            l0 = float(np.sum(xv * (g.B @ yu)) - np.sum(xu * (g.B @ yv)))
            return l0 + float(np.sum((self.aux["T"] @ xu) * yv))
        if self.role == "L_adjoint":
            l0 = float(np.sum(xu * (g.B @ yv)) - np.sum(xv * (g.B @ yu)))
            return l0 + float(np.sum(xv * (self.aux["T"] @ yu)))
        # generic fallback through the metric
        return float(np.sum((self.mat @ x) * self.g.mh_apply(y)))


def build_L0(g: GramSet) -> BlockOperator:
    """Stiff generator; raises AssemblyError on a degenerate mass matrix."""
    m = g.m
    if np.min(g.M) <= 0:
        raise AssemblyError("mass matrix is not positive")
    mat = np.zeros((2 * m, 2 * m))
    mat[:m, m:] = np.eye(m)
    mat[m:, :m] = -(g.B / g.M[:, None])
    return BlockOperator(role="L0", mat=mat, g=g)


def build_T(lam: TractiveForce, t: float, g: GramSet) -> np.ndarray:
    """Weak tractive matrix T(t) = -D1^T W_lambda(t) D1, symmetrized."""
    wl = g.grid.h * lam.midpoint_values(t, g.grid)
    tm = -(g.D1.T * wl) @ g.D1
    return 0.5 * (tm + tm.T)


#: half-bandwidth of the stiffness K(t) = B - T(t): B couples nodes up to
#: three apart (the one-sided moment stencil at s = 0), T only neighbours
STIFFNESS_BANDWIDTH = 3


def to_bands(a: np.ndarray) -> np.ndarray:
    """Diagonals |i - j| <= bw = STIFFNESS_BANDWIDTH of a square matrix in
    LAPACK band layout: row bw + i - j, column j holds a[i, j]; entries
    outside the band are dropped."""
    m = a.shape[0]
    bw = STIFFNESS_BANDWIDTH
    out = np.zeros((2 * bw + 1, m))
    for d in range(-bw, bw + 1):  # d = j - i
        cols = slice(d, m) if d >= 0 else slice(0, m + d)
        out[bw - d, cols] = np.diagonal(a, d)
    return out


def tension_bands(lam: TractiveForce, t: float, g: GramSet) -> np.ndarray:
    """`build_T(lam, t, g)` in the band layout of `to_bands`, in O(m).

    Cell j of the midpoint difference couples nodes j and j+1 with weight
    p_j = h lambda(s_{j+1/2}) / h^2 (the last cell only node n, since
    u(l) is eliminated), so T is tridiagonal with T[j, j+1] = p_j and
    T[j, j] = -(p_j + p_{j-1}).
    """
    c = 1.0 / g.grid.h
    p = (c * (g.grid.h * lam.midpoint_values(t, g.grid))) * c
    bw = STIFFNESS_BANDWIDTH
    out = np.zeros((2 * bw + 1, g.m))
    out[bw] = -p
    out[bw, 1:] -= p[:-1]
    out[bw - 1, 1:] = p[:-1]
    out[bw + 1, :-1] = p[:-1]
    return out


def build_L1(lam: TractiveForce, t: float, g: GramSet) -> BlockOperator:
    m = g.m
    tmat = build_T(lam, t, g)
    mat = np.zeros((2 * m, 2 * m))
    mat[m:, :m] = tmat / g.M[:, None]
    return BlockOperator(role="L1", mat=mat, g=g, t=t, aux={"T": tmat})


def build_L(lam: TractiveForce, t: float, g: GramSet) -> BlockOperator:
    l0 = build_L0(g)
    l1 = build_L1(lam, t, g)
    return BlockOperator(role="L", mat=l0.mat + l1.mat, g=g, t=t,
                         aux={"T": l1.aux["T"]})


_ADJOINT_ROLES = {"L0": "L0_adjoint", "L0_adjoint": "L0",
                  "L1": "L1_adjoint", "L1_adjoint": "L1",
                  "L": "L_adjoint", "L_adjoint": "L"}


def adjoint_H(op: BlockOperator, g: GramSet = None) -> BlockOperator:
    """H-adjoint M_H^-1 op^T M_H.

    For the weak-form roles the Gram transpose reduces algebraically:
    the stiff part flips sign exactly, and the tractive adjoint is
    [[0, B^-1 T], [0, 0]].  Applying `adjoint_H` twice restores the
    original operator exactly for these roles.  Unknown roles fall back
    to the dense similarity transform.
    """
    g = g if g is not None else op.g
    m = g.m
    role = op.role
    if role in ("L0", "L0_adjoint"):
        return BlockOperator(role=_ADJOINT_ROLES[role], mat=-op.mat, g=g, t=op.t)
    if role == "L1":
        tmat = op.aux["T"]
        mat = np.zeros((2 * m, 2 * m))
        mat[:m, m:] = g.B_solve(tmat)
        return BlockOperator(role="L1_adjoint", mat=mat, g=g, t=op.t,
                             aux={"T": tmat})
    if role == "L1_adjoint":
        tmat = op.aux["T"]
        mat = np.zeros((2 * m, 2 * m))
        mat[m:, :m] = tmat / g.M[:, None]
        return BlockOperator(role="L1", mat=mat, g=g, t=op.t, aux={"T": tmat})
    if role == "L":
        tmat = op.aux["T"]
        mat = -build_L0(g).mat
        mat[:m, m:] += g.B_solve(tmat)
        return BlockOperator(role="L_adjoint", mat=mat, g=g, t=op.t,
                             aux={"T": tmat})
    if role == "L_adjoint":
        tmat = op.aux["T"]
        mat = build_L0(g).mat
        mat[m:, :m] += tmat / g.M[:, None]
        return BlockOperator(role="L", mat=mat, g=g, t=op.t, aux={"T": tmat})
    # generic: columnwise M_H^-1 op^T M_H
    mh = np.zeros((2 * m, 2 * m))
    mh[:m, :m] = g.B
    mh[m:, m:] = np.diag(g.M)
    return BlockOperator(role="adjoint", mat=g.mh_solve(op.mat.T @ mh), g=g, t=op.t)


def skew_defect(g: GramSet) -> float:
    """Normalized defect of the Gram antisymmetry identity for L0.

    Returns max|M_H L0 + L0^T M_H| / max|M_H L0|.  The normalization is
    deliberate: the absolute entrywise defect scales with the Gram
    entries (about 1/h^3) times machine epsilon regardless of assembly
    order, so only the relative quantity is meaningful.
    """
    l0 = build_L0(g)
    m = g.m
    mh = np.zeros((2 * m, 2 * m))
    mh[:m, :m] = g.B
    mh[m:, m:] = np.diag(g.M)
    prod = mh @ l0.mat
    defect = np.max(np.abs(prod + l0.mat.T @ mh))
    return float(defect / np.max(np.abs(prod)))


@dataclass(frozen=True)
class StabilityConstants:
    """Operator-norm bounds for the tractive perturbation.

    C4 bounds the state-space norm, C5 the graph-norm; m is their max.
    The analytic value comes from the closed-form derivative integral,
    the numeric ones from power iteration at the sampled times.
    """

    C4: float
    C5: float
    m: float
    C4_formula: float
    C4_numeric: float
    C5_numeric: float
    t_samples: tuple


def _power_iteration(apply_n: Callable, norm_sq: Callable, x0: np.ndarray,
                     max_iter: int = 200, tol: float = 1e-13) -> float:
    """Largest singular value of an operator given N = A* A applications.

    `apply_n` maps x to A* A x; `norm_sq` is the metric quadratic form.
    Returns the square root of the final Rayleigh quotient, which
    approaches the true norm from below.
    """
    x = x0.copy()
    nx = np.sqrt(norm_sq(x))
    if nx == 0:
        return 0.0
    x /= nx
    lam = 0.0
    for _ in range(max_iter):
        y = apply_n(x)
        ny = np.sqrt(norm_sq(y))
        if ny == 0:
            return 0.0
        lam_new = ny  # Rayleigh quotient of N at unit x equals <Nx,x>; use norm growth
        y /= ny
        if abs(lam_new - lam) <= tol * max(lam_new, 1.0):
            lam = lam_new
            break
        lam = lam_new
        x = y
    return float(np.sqrt(lam))


def _l1_norm_H(l1: BlockOperator, g: GramSet) -> float:
    m = g.m
    tmat = l1.aux["T"]

    def apply_n(x):
        # A x = (0, M^-1 T x_u); A*_H y = (B^-1 T y_v, 0)
        w_v = (tmat @ x[:m]) / g.M
        z = np.zeros_like(x)
        z[:m] = g.B_solve(tmat @ (w_v))
        return z

    def norm_sq(x):
        return float(x[:m] @ (g.B @ x[:m]) + x[m:] @ (g.M * x[m:]))

    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(2 * m)
    return _power_iteration(apply_n, norm_sq, x0)


def _l1_norm_D(l1: BlockOperator, g: GramSet) -> float:
    m = g.m
    tmat = l1.aux["T"]

    def apply_n(x):
        # A x = (0, M^-1 T x_u); A*_D w = ((B M^-1 B)^-1 T M^-1 B w_v, 0)
        w_v = (tmat @ x[:m]) / g.M
        r = tmat @ ((g.B @ w_v) / g.M)
        z = np.zeros_like(x)
        z[:m] = g.B_solve(g.M * g.B_solve(r))
        return z

    def norm_sq(x):
        bu = g.B @ x[:m]
        return float(bu @ (bu / g.M) + x[m:] @ (g.B @ x[m:]))

    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(2 * m)
    return _power_iteration(apply_n, norm_sq, x0)


def estimate_constants(lam: TractiveForce, g: GramSet, t_samples) -> StabilityConstants:
    """Bound the tractive operator over the sampled times.

    The state-space bound combines the analytic formula
    sup_t sqrt(4 l int (ds lambda)^2 ds / b) with power-iteration
    estimates; the graph-norm bound is numeric only (no closed form is
    available) and carries a 10 percent safety margin.
    """
    t_samples = tuple(float(t) for t in t_samples)
    if not t_samples:
        raise InvalidArgumentError("need at least one sample time")
    if lam.family == "zero":
        return StabilityConstants(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, t_samples)
    c4_formula = max(
        np.sqrt(4.0 * g.grid.l * lam.ds_l2_norm_sq(t, g.grid) / g.b)
        for t in t_samples)
    c4_num = 0.0
    c5_num = 0.0
    for t in t_samples:
        l1 = build_L1(lam, t, g)
        c4_num = max(c4_num, _l1_norm_H(l1, g))
        c5_num = max(c5_num, _l1_norm_D(l1, g))
    c4 = max(float(c4_formula), c4_num)
    c5 = 1.10 * c5_num
    return StabilityConstants(C4=c4, C5=c5, m=max(c4, c5),
                              C4_formula=float(c4_formula),
                              C4_numeric=c4_num, C5_numeric=c5_num,
                              t_samples=t_samples)


def t_matrix_max_eig(lam: TractiveForce, t: float, g: GramSet) -> float:
    """Largest eigenvalue of the symmetrized tractive matrix (should be <= 0)."""
    tmat = build_T(lam, t, g)
    return float(np.linalg.eigvalsh(tmat)[-1])
