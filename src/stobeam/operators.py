"""Discrete beam generators: stiff part, tractive part, weak pairing, bounds.

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

The generator is kept in no matrix form of its own.  `apply_L0` and
`apply_L1` apply the stiff and the tractive part to packed states, and
`weak_pair` evaluates <L x, y>_H exactly from the quadratic forms; the
step factors take the bands of K = B - T(t) (`to_bands`, `tension_bands`).

The tension is separable, lambda(s, t) = c(t) p(s), so T(t) = c(t) T_p
with one profile matrix T_p (`profile_T`), and the stability constants
are exact operator norms from one m x m singular value each: with
B = C^T C (Cholesky, `GramSet.B_chol`), L1 acting on u alone and
||x||_D = ||L0 x||_H,

    C4 = ||L1(t)||_H = |c(t)| s_max(M^-1/2 T_p C^-1),
    C5 = ||L0 L1(t) L0^-1||_H = |c(t)| s_max(C M^-1 T_p B^-1 M^1/2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh, solve_triangular, svdvals

from .errors import AssemblyError, InvalidArgumentError
from .grid import BeamGrid, GramSet

#: the tension profiles `TractiveForce` builds
TRACTIVE_FAMILIES = ("zero", "bump", "tabulated")


@dataclass
class TractiveForce:
    """Tension coefficient lambda(s, t) = c(t) * profile(s), and through
    it the interface: T(t) = c(t) T_p with T_p = `profile_T`.  Every time
    read passes through `c`, which refuses times outside [0, horizon].

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

    @property
    def autonomous(self) -> bool:
        """True when lambda does not depend on time (no modulation)."""
        return self.family == "zero" or self.c1 == 0.0

    def c(self, t: float) -> float:
        """Time modulation c(t) = c0 + c1 sin(2 pi freq t) on [0, horizon]."""
        if self.horizon is not None and not (0.0 <= t <= self.horizon * (1 + 1e-12)):
            raise InvalidArgumentError(
                f"time {t} outside the configured window [0, {self.horizon}]")
        if self.family == "zero":
            return 0.0
        return self.c0 + self.c1 * np.sin(2.0 * np.pi * self.freq * t)

    def extreme_times(self, span: float) -> tuple:
        """Times of the least and the largest c on [0, span]: an end, or the
        first crest (k + 1/4)/f or trough (k + 3/4)/f inside the window."""
        f = abs(self.freq)
        times = [0.0, *(q / f for q in (0.25, 0.75) if q < span * f), span]
        return min(times, key=self.c), max(times, key=self.c)

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

    def node_values(self, t: float, grid: BeamGrid) -> np.ndarray:
        return self.c(t) * self._profile(grid.nodes, grid)

    def profile_midpoint_values(self, grid: BeamGrid) -> np.ndarray:
        """The profile at the cell midpoints, where T_p samples it."""
        return self._profile(grid.nodes[:-1] + 0.5 * grid.h, grid)

    def ds_node_values(self, t: float, grid: BeamGrid) -> np.ndarray:
        """Spatial derivative at the nodes (analytic for the bump family)."""
        c, s = self.c(t), grid.nodes
        if self.family == "bump":
            l = grid.l
            return c * 2.0 * s * (l - s) * (l - 2.0 * s) / l**4
        return np.gradient(c * self._profile(s, grid), grid.h)

    def ds_l2_norm_sq(self, t: float, grid: BeamGrid) -> float:
        """Integral of (d lambda/ds)^2 over the beam at time t."""
        if self.family == "bump":
            # int_0^l [2 s (l-s)(l-2s)]^2 ds / l^8 = (4/210) / l, times c^2
            return self.c(t) ** 2 * (4.0 / 210.0) / grid.l
        d = self.ds_node_values(t, grid)
        w = np.full(grid.n + 2, grid.h)
        w[0] = w[-1] = 0.5 * grid.h
        return float(np.sum(w * d * d))

    def invariant_defects(self, grid: BeamGrid, span: float) -> dict:
        """Pointwise invariant violations, worst case over [0, span]: each
        reads t through c(t) alone and is worst at one of `extreme_times`."""
        out = {"endpoint_value": 0.0, "endpoint_slope": 0.0,
               "negativity": 0.0, "interior_nonpositive": 0.0}
        for t in self.extreme_times(span):
            vals = self.node_values(t, grid)
            dvals = self.ds_node_values(t, grid)
            out["endpoint_value"] = max(out["endpoint_value"],
                                        abs(vals[0]), abs(vals[-1]))
            out["endpoint_slope"] = max(out["endpoint_slope"],
                                        abs(dvals[0]), abs(dvals[-1]))
            out["negativity"] = max(out["negativity"], float(-np.min(vals, initial=0.0)))
            if self.c(t) > 0:
                interior = vals[1:-1]
                if interior.size and np.min(interior) <= 0:
                    out["interior_nonpositive"] = 1.0
        return out


def apply_L0(g: GramSet, y: np.ndarray) -> np.ndarray:
    """L0 y = (v, -M^-1 B u) for packed states y of shape (2m, k), or a
    stack (s, 2m, k) of them; on the identity this is the dense L0.
    Raises AssemblyError unless M > 0."""
    if np.min(g.M) <= 0:
        raise AssemblyError("mass matrix is not positive")
    m = g.m
    out = np.empty(y.shape)
    out[..., :m, :] = y[..., m:, :]
    out[..., m:, :] = -(g.B @ y[..., :m, :]) / g.M[:, None]
    return out


def apply_L1(T: np.ndarray, g: GramSet, y: np.ndarray) -> np.ndarray:
    """L1 y = (0, M^-1 T u) for packed states y of shape (2m, k), or a
    stack (s, 2m, k) of them, with a weak tractive matrix T, such as
    c(t) T_p of `profile_T`."""
    m = g.m
    out = np.zeros(y.shape)
    out[..., m:, :] = (T @ y[..., :m, :]) / g.M[:, None]
    return out


def weak_pair(g: GramSet, T: np.ndarray, x: np.ndarray,
              y: np.ndarray) -> float:
    """Exact weak-form evaluation of <L x, y>_H for packed states, with
    L = L0 + L1 built from the weak tractive matrix T (T = 0 gives L0).

    Uses the defining quadratic forms <v_x, u_y>_B - <u_x, v_y>_B +
    (T u_x) . v_y instead of a matrix, so skewness holds to rounding of
    well-scaled dot products (no mass solves, no 1/M roundtrips).
    """
    m = g.m
    xu, xv = x[:m], x[m:]
    yu, yv = y[:m], y[m:]
    out = float(np.sum(xv * (g.B @ yu)) - np.sum(xu * (g.B @ yv)))
    return out + float(np.sum((T @ xu) * yv))


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


def from_bands(ab: np.ndarray) -> np.ndarray:
    """The square matrix whose `to_bands` layout, of any bandwidth, is ab."""
    bw = (ab.shape[0] - 1) // 2
    m = ab.shape[1]
    out = np.zeros((m, m))
    for d in range(-bw, bw + 1):  # d = j - i; diagonal d has m - |d| entries
        first = d if d >= 0 else -d * m  # flat index of (0, d) or (-d, 0)
        cols = slice(d, m) if d >= 0 else slice(0, m + d)
        out.flat[first:first + (m - abs(d)) * (m + 1):m + 1] = ab[bw - d, cols]
    return out


def _tension_fill(mid_values: np.ndarray, g: GramSet) -> np.ndarray:
    """-D1^T W D1 for tension values at the cell midpoints, in the band
    layout of `to_bands`, O(m); a stack (..., m) of values gives a stack
    (..., 2 bw + 1, m) of bands, each the bits of its values alone.

    Cell j of the midpoint difference D1 couples nodes j and j+1 with weight
    p_j = h lambda(s_{j+1/2}) / h^2 (the last cell only node n, since
    u(l) is eliminated), so the matrix is tridiagonal with
    [j, j+1] = p_j and [j, j] = -(p_j + p_{j-1}).
    """
    c = 1.0 / g.grid.h
    p = (c * (g.grid.h * mid_values)) * c
    bw = STIFFNESS_BANDWIDTH
    out = np.zeros(p.shape[:-1] + (2 * bw + 1, g.m))
    out[..., bw, :] = -p
    out[..., bw, 1:] -= p[..., :-1]
    out[..., bw - 1, 1:] = p[..., :-1]
    out[..., bw + 1, :-1] = p[..., :-1]
    return out


def tension_bands(lam: TractiveForce, t, g: GramSet) -> np.ndarray:
    """T(t) = -D1^T W_lambda(t) D1 in the band layout of `to_bands`; for a
    sequence of times, the stack of their bands in one pass."""
    c = lam.c(t) if np.ndim(t) == 0 else np.array([lam.c(s) for s in t])
    return _tension_fill(np.multiply.outer(c, lam.profile_midpoint_values(
        g.grid)), g)


def profile_T(lam: TractiveForce, g: GramSet) -> np.ndarray:
    """The dense weak tractive matrix T_p of the profile, T(t) = c(t) T_p,
    exactly symmetric."""
    return from_bands(_tension_fill(lam.profile_midpoint_values(g.grid), g))


def skew_defect(g: GramSet) -> float:
    """Normalized defect of the Gram antisymmetry identity for L0.

    Returns max|M_H L0 + L0^T M_H| / max|M_H L0|.  The normalization is
    deliberate: the absolute entrywise defect scales with the Gram
    entries (about 1/h^3) times machine epsilon regardless of assembly
    order, so only the relative quantity is meaningful.
    """
    m = g.m
    l0 = apply_L0(g, np.eye(2 * m))
    mh = np.zeros((2 * m, 2 * m))
    mh[:m, :m] = g.B
    mh[m:, m:] = np.diag(g.M)
    prod = mh @ l0
    defect = np.max(np.abs(prod + l0.T @ mh))
    return float(defect / np.max(np.abs(prod)))


def op_norm_H(g: GramSet, mat: np.ndarray) -> float:
    """H-operator norm of a packed-state matrix.

    Computed exactly as the largest singular value of X = C mat C^-1,
    where M_H = C^T C is the block Cholesky of the state Gram (B's block
    is `B_chol`): the square root of the top eigenvalue of X^T X, the
    only one LAPACK's `syevr` is asked for.  The triangular solve skips
    its finite check; `eigvalsh` still rejects non-finite input.
    """
    m, cu, sq = g.m, g.B_chol, np.sqrt(g.M)
    cm = np.vstack([cu @ mat[:m], sq[:, None] * mat[m:]])
    left = solve_triangular(cu.T, cm[:, :m].T, lower=True,
                            check_finite=False).T
    x = np.hstack([left, cm[:, m:] / sq[None, :]])
    top = eigvalsh(x.T @ x, overwrite_a=True,
                   subset_by_index=[2 * m - 1, 2 * m - 1])[0]
    return float(np.sqrt(max(top, 0.0)))


@dataclass(frozen=True)
class StabilityConstants:
    """Operator-norm bounds for the tractive perturbation.

    C4 bounds the state-space norm, C5 the graph-norm.
    The analytic value comes from the closed-form derivative integral,
    the numeric ones are exact operator norms, both at sup |c(t)|.
    """

    C4: float
    C5: float
    C4_formula: float
    C4_numeric: float
    C5_numeric: float


def estimate_constants(lam: TractiveForce, g: GramSet, span: float) -> StabilityConstants:
    """Bound the tractive operator over [0, span] by the module's two
    profile norms at sup |c(t)|, the larger |c| at `extreme_times`.
    C4 is the larger of the exact norm and the analytic
    sup_t sqrt(4 l int (ds lambda)^2 ds / b); C5 has no closed form and
    carries a 10 percent margin.
    """
    t_max = max(lam.extreme_times(span), key=lambda t: abs(lam.c(t)))
    c_max = abs(lam.c(t_max))
    c4_formula = float(np.sqrt(4.0 * g.grid.l
                               * lam.ds_l2_norm_sq(t_max, g.grid) / g.b))
    tp, sq, cu = profile_T(lam, g), np.sqrt(g.M), g.B_chol
    # the transpose of M^-1/2 T_p C^-1, and C M^-1 T_p B^-1 M^1/2
    h_form = solve_triangular(cu, tp / sq, trans="T", check_finite=False)
    d_form = cu @ (g.B_solve(tp / g.M).T * sq)
    c4_num, c5_num = (c_max * float(svdvals(a)[0]) for a in (h_form, d_form))
    c4 = max(c4_formula, c4_num)
    c5 = 1.10 * c5_num
    return StabilityConstants(C4=c4, C5=c5, C4_formula=c4_formula,
                              C4_numeric=c4_num, C5_numeric=c5_num)
