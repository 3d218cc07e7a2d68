"""Discrete function spaces for the clamped-free beam on [0, l].

The beam is clamped at s = l (value and slope fixed) and free at s = 0
(moment and shear vanish).  States are R^3-valued grid functions on a
uniform grid with n interior nodes, spacing h = l/(n+1), nodes
s_0 = 0, ..., s_{n+1} = l.

Degree-of-freedom convention
----------------------------
The clamped value u(l) = 0 is eliminated: operators act on the reduced
vector (u_0, ..., u_n) of length m = n+1 per channel.  The clamped slope
is realized by the mirror-ghost rule u(l+h) = u(l-h), which keeps the
second-difference operator exact on quadratics at every node.  The free
end carries no essential constraint; moment/shear conditions are natural
and enter through the weak-form Gram matrices.  Consequences:

* value constraints at s = l hold exactly (they are stored, not solved);
* derivative constraints hold exactly by construction of the weak form,
  not as pointwise stencil identities (a generic smooth function that
  satisfies them analytically still has O(h) one-sided stencil values);
* smoothness-class membership (discrete H4/H6 with boundary conditions)
  is a calibrated relative stencil check, see `membership_defects`.

Inner products: the H2-with-BC form is u1^T B u2 with B = b * D2^T W D2
(trapezoidal weights W), the L2 form is v1^T M v2 with lumped trapezoidal
M, and the full state form adds them over the three channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InvalidArgumentError, PreconditionError, ShapeError

#: hard tolerance factor for stored value constraints
BC_VALUE_RTOL = 1e-8

#: calibration factor for relative boundary-stencil membership checks
MEMBERSHIP_ETA = 0.25


@dataclass(frozen=True)
class BeamGrid:
    """Uniform arc-length grid on [0, l] including both endpoints."""

    l: float
    n: int
    h: float
    nodes: np.ndarray

    @property
    def n_free(self) -> int:
        """Number of unconstrained nodes per channel (0 .. n)."""
        return self.n + 1


@dataclass
class BeamState:
    """Displacement/velocity pair, each an R^3-valued grid function."""

    grid: BeamGrid
    u: np.ndarray  # (n+2, 3)
    v: np.ndarray  # (n+2, 3)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        shape = (self.grid.n + 2, 3)
        if self.u.shape != shape or self.v.shape != shape:
            raise ShapeError(
                f"state shapes {self.u.shape}/{self.v.shape} do not match "
                f"grid {shape}")

    @classmethod
    def zero(cls, grid: BeamGrid) -> "BeamState":
        z = np.zeros((grid.n + 2, 3))
        return cls(grid, z, z.copy())

    @classmethod
    def from_packed(cls, grid: BeamGrid, y: np.ndarray) -> "BeamState":
        """Inverse of `packed`; the eliminated node at s=l is restored as 0."""
        m = grid.n_free
        if y.shape != (2 * m, 3):
            raise ShapeError(f"packed shape {y.shape}, expected ({2*m}, 3)")
        u = np.zeros((grid.n + 2, 3))
        v = np.zeros((grid.n + 2, 3))
        u[:m] = y[:m]
        v[:m] = y[m:]
        return cls(grid, u, v)

    def packed(self) -> np.ndarray:
        """Reduced representation: rows 0..n of u stacked over those of v."""
        m = self.grid.n_free
        return np.concatenate([self.u[:m], self.v[:m]], axis=0)


@dataclass
class GramSet:
    """Quadrature and difference matrices on the reduced DOFs.

    M   : lumped L2 mass diagonal, length m = n+1
    W   : trapezoidal weights at all n+2 nodes
    D1  : cell-midpoint first differences, (n+1) x m
    D2  : second differences at all nodes (ghost rules applied), (n+2) x m
    B   : H2-with-BC Gram b * D2^T W D2, symmetric positive definite
    """

    grid: BeamGrid
    b: float
    M: np.ndarray
    W: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    B: np.ndarray
    B_raw: np.ndarray
    _B_cho: tuple = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.grid.n_free

    def B_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve B x = rhs via cached Cholesky factorization."""
        if self._B_cho is None:
            self._B_cho = cho_factor(self.B, lower=False)
        return cho_solve(self._B_cho, rhs)

    def mh_apply(self, y: np.ndarray) -> np.ndarray:
        """Apply the block Gram of the state inner product to packed y."""
        m = self.m
        out = np.empty_like(y)
        out[:m] = self.B @ y[:m]
        out[m:] = self.M[:, None] * y[m:]
        return out

    def mh_solve(self, y: np.ndarray) -> np.ndarray:
        m = self.m
        out = np.empty_like(y)
        out[:m] = self.B_solve(y[:m])
        out[m:] = y[m:] / self.M[:, None]
        return out


def build_grid(l: float, n: int) -> BeamGrid:
    """Uniform grid with n interior nodes; h = l/(n+1).

    Raises:
        InvalidArgumentError: if l <= 0 or n < 4.
    """
    if not np.isfinite(l) or l <= 0:
        raise InvalidArgumentError(f"beam length must be positive, got {l}")
    if int(n) != n or n < 4:
        raise InvalidArgumentError(f"need at least 4 interior nodes, got {n}")
    n = int(n)
    h = l / (n + 1)
    nodes = np.arange(n + 2) * h
    # keep the endpoint exact even if (n+2)*h rounds oddly
    nodes[-1] = l
    return BeamGrid(l=float(l), n=n, h=h, nodes=nodes)


def _second_difference(grid: BeamGrid) -> np.ndarray:
    """Second-difference rows at every node against reduced DOFs.

    Row 0 uses the one-sided 4-point stencil (exact through cubics),
    interior rows are centered, row n uses the eliminated value u(l)=0,
    and row n+1 uses the mirror ghost u(l+h) = u(l-h).
    """
    n, h = grid.n, grid.h
    m = grid.n_free
    d2 = np.zeros((n + 2, m))
    c = 1.0 / h**2
    d2[0, 0:4] = np.array([2.0, -5.0, 4.0, -1.0]) * c
    for i in range(1, n + 1):
        d2[i, i - 1] += c
        d2[i, i] += -2.0 * c
        if i + 1 <= n:
            d2[i, i + 1] += c
    d2[n + 1, n] = 2.0 * c
    return d2


def _first_difference(grid: BeamGrid) -> np.ndarray:
    """Cell-midpoint differences (u_{j+1} - u_j)/h with u_{n+1} = 0."""
    n, h = grid.n, grid.h
    m = grid.n_free
    d1 = np.zeros((n + 1, m))
    for j in range(n + 1):
        d1[j, j] = -1.0 / h
        if j + 1 <= n:
            d1[j, j + 1] = 1.0 / h
    return d1


def build_grams(grid: BeamGrid, b: float) -> GramSet:
    """Assemble quadrature weights, difference matrices and the H2 Gram."""
    if not np.isfinite(b) or b <= 0:
        raise InvalidArgumentError(f"bending stiffness must be positive, got {b}")
    n, h = grid.n, grid.h
    w_full = np.full(n + 2, h)
    w_full[0] = 0.5 * h
    w_full[-1] = 0.5 * h
    m_diag = np.full(grid.n_free, h)
    m_diag[0] = 0.5 * h
    d2 = _second_difference(grid)
    d1 = _first_difference(grid)
    a = np.sqrt(w_full)[:, None] * d2
    b_raw = a.T @ a
    b_raw = 0.5 * (b_raw + b_raw.T)
    b_mat = b * b_raw
    b_mat = 0.5 * (b_mat + b_mat.T)
    return GramSet(grid=grid, b=float(b), M=m_diag, W=w_full,
                   D1=d1, D2=d2, B=b_mat, B_raw=b_raw)


def _check_same_grid(g1: BeamGrid, g2: BeamGrid):
    if g1.n != g2.n or g1.l != g2.l:
        raise ShapeError("grid mismatch between operands")


def _value_scale(values: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(values), initial=0.0))


def h_inner(x1: BeamState, x2: BeamState, g: GramSet) -> float:
    """State inner product: H2-with-BC on displacement + L2 on velocity."""
    _check_same_grid(x1.grid, g.grid)
    _check_same_grid(x2.grid, g.grid)
    return packed_h_inner(x1.packed(), x2.packed(), g)


def h_norm(x: BeamState, g: GramSet) -> float:
    return float(np.sqrt(max(h_inner(x, x, g), 0.0)))


def packed_h_inner(y1: np.ndarray, y2: np.ndarray, g: GramSet) -> float:
    """State inner product on packed reduced arrays (no validation)."""
    m = g.m
    return float(np.sum(y1[:m] * (g.B @ y2[:m]))
                 + np.sum(y1[m:] * (g.M[:, None] * y2[m:])))


def packed_h_norm(y: np.ndarray, g: GramSet) -> float:
    return float(np.sqrt(max(packed_h_inner(y, y, g), 0.0)))


def packed_d_norm_sq(y: np.ndarray, g: GramSet) -> float:
    """Squared graph norm b^2 ||u''''||_L2^2 + b ||v''||_L2^2 of a packed
    reduced state, shape (2m, 3) (no validation).

    The fourth difference is the weak composition M^-1 (D2^T W D2), so the
    value agrees with the generator-based norm up to pure roundoff.
    """
    m = g.m
    u, v = y[:m], y[m:]
    d4 = (g.B_raw @ u) / g.M[:, None]
    val = g.b**2 * np.sum(g.M[:, None] * d4 * d4)
    d2v = g.D2 @ v
    val += g.b * np.sum(d2v * (g.W[:, None] * d2v))
    return float(val)


def bc_value_defect(x: BeamState) -> float:
    """Largest stored displacement or velocity value at s = l, which both
    BC kinds clamp to zero (0.0 for conforming states)."""
    return float(max(np.abs(x.u[-1]).max(), np.abs(x.v[-1]).max()))


def _stencil_4th(values: np.ndarray, h: float) -> np.ndarray:
    """One-sided 4th-difference estimate at s = l (per channel)."""
    coef = np.array([-2.0, 11.0, -24.0, 26.0, -14.0, 3.0])
    return coef @ values[-6:] / h**4


def _stencil_5th(values: np.ndarray, h: float) -> np.ndarray:
    coef = np.array([2.5, -16.0, 42.5, -60.0, 47.5, -20.0, 3.5])
    return coef @ values[-7:] / h**5


def _stencil_2nd(values: np.ndarray, h: float) -> np.ndarray:
    return (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2]
            - values[3]) / h**2


def _stencil_3rd(values: np.ndarray, h: float) -> np.ndarray:
    return (-2.5 * values[0] + 9.0 * values[1] - 12.0 * values[2]
            + 7.0 * values[3] - 1.5 * values[4]) / h**3


def _interior_max(values: np.ndarray, grid: BeamGrid, order: int) -> float:
    """Max centered difference of the given order over interior nodes."""
    h = grid.h
    if order == 2:
        d = (values[:-2] - 2 * values[1:-1] + values[2:]) / h**2
    elif order == 3:
        d = (-0.5 * values[:-4] + values[1:-3] - values[3:-1]
             + 0.5 * values[4:]) / h**3
    elif order == 4:
        d = (values[:-4] - 4 * values[1:-3] + 6 * values[2:-2]
             - 4 * values[3:-1] + values[4:]) / h**4
    else:  # order 5
        d = (-0.5 * values[:-6] + 2 * values[1:-5] - 2.5 * values[2:-4]
             + 2.5 * values[4:-2] - 2 * values[5:-1] + 0.5 * values[6:]) / h**5
    return float(np.max(np.abs(d), initial=0.0))


def membership_defects(values: np.ndarray, space: str, g: GramSet) -> dict:
    """Relative boundary-stencil defects for discrete smoothness classes.

    Each entry is |boundary stencil| / (eta * interior max + floor); a
    value above 1.0 counts as a violation.  Spaces:

    * "h2bc": clamped value at l, checked on the stored row
    * "h4bc": free-end moment/shear stencils at 0
    * "h6bc": h4bc plus 4th/5th-derivative stencils at l

    This calibration is a convention; see the module docstring.
    """
    grid = g.grid
    h = grid.h
    full = np.asarray(values, dtype=float)
    scale = _value_scale(full)
    out = {}

    def rel(stencil_val, order):
        ref = MEMBERSHIP_ETA * _interior_max(full, grid, order) + \
            1e-12 * scale / h**order
        return float(np.max(np.abs(stencil_val)) / ref)

    if space in ("h4bc", "h6bc"):
        out["moment_at_0"] = rel(_stencil_2nd(full, h), 2)
        out["shear_at_0"] = rel(_stencil_3rd(full, h), 3)
    if space == "h6bc":
        out["d4_at_l"] = rel(_stencil_4th(full, h), 4)
        out["d5_at_l"] = rel(_stencil_5th(full, h), 5)
    if space == "h2bc":
        out["value_at_l"] = float(
            np.max(np.abs(full[-1])) / (BC_VALUE_RTOL * scale))
    return out


def check_membership(values: np.ndarray, space: str, g: GramSet, what: str = "state"):
    """Raise PreconditionError if any membership defect exceeds 1."""
    defects = membership_defects(values, space, g)
    bad = {k: round(v, 3) for k, v in defects.items() if v > 1.0}
    if bad:
        raise PreconditionError(
            f"{what} fails discrete {space} membership: {bad}")
