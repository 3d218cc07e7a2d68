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

A `BlockOperator` is L0, L1(t) or L(t) = L0 + L1(t), or the H-adjoint of
one of them: the stiff part flips sign and the tractive part moves to
[[0, B^-1 T], [0, 0]].  Adjoint identities are exact in weak-pairing form
(see `BlockOperator.pair`); the dense adjoint matrices carry the
eps * cond(B) roundoff of B^-1 T and are meant for propagator
cross-checks, not for machine-precision identity tests.

The stability constants are exact operator norms (`op_norm_H`): C4 is the
H-norm of L1(t), and C5 its graph-norm, taken through L0 as the H-norm of
L0 L1(t) L0^-1 because ||x||_D = ||L0 x||_H.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import cholesky, solve_triangular, svdvals

from .errors import AssemblyError, InvalidArgumentError
from .grid import BeamGrid, GramSet

#: the tension profiles `TractiveForce` builds
TRACTIVE_FAMILIES = ("zero", "bump", "tabulated")


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
        if self.family not in TRACTIVE_FAMILIES:
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
    def bump(cls, **fields) -> "TractiveForce":
        """The bump profile; keyword arguments set the other fields."""
        return cls(family="bump", **fields)

    @property
    def autonomous(self) -> bool:
        """True when lambda does not depend on time (no modulation)."""
        return self.family == "zero" or self.c1 == 0.0

    def c(self, t: float) -> float:
        """Time modulation c(t) = c0 + c1 sin(2 pi freq t)."""
        if self.family == "zero":
            return 0.0
        return self.c0 + self.c1 * np.sin(2.0 * np.pi * self.freq * t)

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


def _assemble(g: GramSet, stiff: bool, tmat: Optional[np.ndarray],
              adjoint: bool) -> np.ndarray:
    """Dense matrix of the stiff part, the tractive part or their sum, or
    of its H-adjoint M_H^-1 op^T M_H with the Gram transpose reduced
    algebraically (see the module docstring)."""
    m = g.m
    mat = np.zeros((2 * m, 2 * m))
    if stiff:
        if np.min(g.M) <= 0:
            raise AssemblyError("mass matrix is not positive")
        sign = -1.0 if adjoint else 1.0
        mat[:m, m:] = sign * np.eye(m)
        mat[m:, :m] = -sign * (g.B / g.M[:, None])
    if tmat is not None:
        if adjoint:
            mat[:m, m:] += g.B_solve(tmat)
        else:
            mat[m:, :m] += tmat / g.M[:, None]
    return mat


@dataclass
class BlockOperator:
    """A 2x2-block generator acting on packed (u, v) states.

    The operator is the stiff part L0 (`stiff`), the tractive part L1
    built from the weak tractive matrix `T`, or their sum L, or the
    H-adjoint of one of these (`adjoint`).  `mat` is the dense
    single-channel matrix; the same block acts on each of the three
    components.
    """

    g: GramSet
    stiff: bool
    T: Optional[np.ndarray] = None
    adjoint: bool = False
    mat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mat = _assemble(self.g, self.stiff, self.T, self.adjoint)

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Exact weak-form evaluation of <op x, y>_H for packed states.

        Uses the defining quadratic forms instead of `mat`, so skewness
        and adjoint identities hold to rounding of well-scaled dot
        products (no mass solves, no 1/M roundtrips).  An adjoint pairs
        as <op y, x>_H.
        """
        if self.adjoint:
            x, y = y, x
        m = self.g.m
        xu, xv = x[:m], x[m:]
        yu, yv = y[:m], y[m:]
        out = 0.0
        if self.stiff:
            B = self.g.B
            out = float(np.sum(xv * (B @ yu)) - np.sum(xu * (B @ yv)))
        if self.T is not None:
            out += float(np.sum((self.T @ xu) * yv))
        return out


def build_L0(g: GramSet) -> BlockOperator:
    """Stiff generator; raises AssemblyError on a degenerate mass matrix."""
    return BlockOperator(g=g, stiff=True)


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
    return BlockOperator(g=g, stiff=False, T=build_T(lam, t, g))


def build_L(lam: TractiveForce, t: float, g: GramSet) -> BlockOperator:
    return BlockOperator(g=g, stiff=True, T=build_T(lam, t, g))


def adjoint_H(op: BlockOperator) -> BlockOperator:
    """H-adjoint M_H^-1 op^T M_H, assembled as in `_assemble`.

    Applying `adjoint_H` twice restores the original operator exactly.
    """
    return replace(op, adjoint=not op.adjoint)


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


def op_norm_H(g: GramSet, mat: np.ndarray) -> float:
    """H-operator norm of a packed-state matrix.

    Computed exactly as the largest singular value of C mat C^-1 where
    M_H = C^T C is the block Cholesky of the state Gram.  The triangular
    solve skips its finite check; `svdvals` still rejects non-finite input.
    """
    m = g.m
    cu = cholesky(g.B, lower=False)
    sq = np.sqrt(g.M)
    cm = np.vstack([cu @ mat[:m], sq[:, None] * mat[m:]])
    left = solve_triangular(cu.T, cm[:, :m].T, lower=True,
                            check_finite=False).T
    right = cm[:, m:] / sq[None, :]
    return float(svdvals(np.hstack([left, right]))[0])


@dataclass(frozen=True)
class StabilityConstants:
    """Operator-norm bounds for the tractive perturbation.

    C4 bounds the state-space norm, C5 the graph-norm.
    The analytic value comes from the closed-form derivative integral,
    the numeric ones are exact operator norms at the sampled times.
    """

    C4: float
    C5: float
    C4_formula: float
    C4_numeric: float
    C5_numeric: float


def estimate_constants(lam: TractiveForce, g: GramSet, t_samples) -> StabilityConstants:
    """Bound the tractive operator over the sampled times.

    The state-space bound is the larger of the analytic formula
    sup_t sqrt(4 l int (ds lambda)^2 ds / b) and the exact H-norms of
    L1(t).  The graph norm is ||x||_D = ||L0 x||_H, so the D-norm of L1
    is the H-norm of L0 L1 L0^-1, with L0^-1 = [[0, -B^-1 M], [I, 0]];
    it has no closed form and the bound carries a 10 percent margin.
    """
    t_samples = tuple(float(t) for t in t_samples)
    if not t_samples:
        raise InvalidArgumentError("need at least one sample time")
    if lam.family == "zero":
        return StabilityConstants(0.0, 0.0, 0.0, 0.0, 0.0)
    c4_formula = max(
        np.sqrt(4.0 * g.grid.l * lam.ds_l2_norm_sq(t, g.grid) / g.b)
        for t in t_samples)
    m = g.m
    l0 = build_L0(g).mat
    l0_inv = np.zeros((2 * m, 2 * m))
    l0_inv[:m, m:] = -g.B_solve(np.diag(g.M))
    l0_inv[m:, :m] = np.eye(m)
    c4_num = 0.0
    c5_num = 0.0
    for t in t_samples:
        l1 = build_L1(lam, t, g).mat
        c4_num = max(c4_num, op_norm_H(g, l1))
        c5_num = max(c5_num, op_norm_H(g, l0 @ l1 @ l0_inv))
    c4 = max(float(c4_formula), c4_num)
    c5 = 1.10 * c5_num
    return StabilityConstants(C4=c4, C5=c5, C4_formula=float(c4_formula),
                              C4_numeric=c4_num, C5_numeric=c5_num)
