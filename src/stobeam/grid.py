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
  is a calibrated relative stencil check, read from one table of boundary
  stencils per class, see `membership_defects`.

Inner products: the H2-with-BC form is u1^T B u2 with B = b * D2^T W D2
(trapezoidal weights W), the L2 form is v1^T M v2 with lumped trapezoidal
M, and the full state form adds them over the three channels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh
from scipy.linalg.lapack import dpotrs as _potrs

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
    D2  : second differences at all nodes (ghost rules applied), (n+2) x m
    B   : H2-with-BC Gram b * D2^T W D2, symmetric positive definite
    """

    grid: BeamGrid
    b: float
    M: np.ndarray
    W: np.ndarray
    D2: np.ndarray
    B: np.ndarray
    B_raw: np.ndarray

    @property
    def m(self) -> int:
        return self.grid.n_free

    @functools.cached_property
    def B_chol(self) -> np.ndarray:
        """Upper Cholesky factor C of B = C^T C, lower triangle zero."""
        return cholesky(self.B, lower=False)

    @functools.cached_property
    def bending_modes(self) -> tuple:
        """Ascending eigenvalues and M-orthonormal eigenvectors of (B, M)."""
        return eigh(self.B, np.diag(self.M))

    def B_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve B x = rhs by LAPACK potrs on `B_chol`."""
        return _potrs(self.B_chol, rhs)[0]

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
    a = np.sqrt(w_full)[:, None] * d2
    b_raw = a.T @ a
    b_raw = 0.5 * (b_raw + b_raw.T)
    return GramSet(grid=grid, b=float(b), M=m_diag, W=w_full,
                   D2=d2, B=b * b_raw, B_raw=b_raw)


def _check_same_grid(g1: BeamGrid, g2: BeamGrid):
    if g1.n != g2.n or g1.l != g2.l:
        raise ShapeError("grid mismatch between operands")


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
    return float(np.sqrt(max(packed_h_norm_sq(y, g), 0.0)))


def packed_h_norm_sq(y: np.ndarray, g: GramSet) -> float | np.ndarray:
    """Squared state norm of a packed reduced state (2m, c), or of each
    state of a stack (k, 2m, c) summed alone, bit for bit as one at a
    time (no validation)."""
    m = g.m
    u, v = y[..., :m, :], y[..., m:, :]
    return (np.sum(u * (g.B @ u), axis=(-2, -1))
            + np.sum(v * (g.M[:, None] * v), axis=(-2, -1)))


def packed_d_norm_sq(y: np.ndarray, g: GramSet) -> float | np.ndarray:
    """Squared graph norm b^2 ||u''''||_L2^2 + b ||v''||_L2^2 of a packed
    reduced state (2m, 3), or of each state of a stack (k, 2m, 3) summed
    alone, bit for bit as one at a time (no validation).

    The fourth difference is the weak composition M^-1 (D2^T W D2), so the
    value agrees with the generator-based norm up to pure roundoff.
    """
    m = g.m
    u, v = y[..., :m, :], y[..., m:, :]
    d4 = (g.B_raw @ u) / g.M[:, None]
    val = g.b**2 * np.sum(g.M[:, None] * d4 * d4, axis=(-2, -1))
    d2v = g.D2 @ v
    val += g.b * np.sum(d2v * (g.W[:, None] * d2v), axis=(-2, -1))
    return val


def bc_value_defect(x: BeamState) -> float:
    """Largest stored displacement or velocity value at s = l, which both
    BC kinds clamp to zero (0.0 for conforming states)."""
    return float(max(np.abs(x.u[-1]).max(), np.abs(x.v[-1]).max()))


#: boundary stencils of each smoothness class, one row per defect: name,
#: derivative order, first node (negative: counted from s = l) and the
#: coefficients on consecutive nodes, all divided by h**order
_BOUNDARY_STENCILS = {"h2bc": (), "h4bc": (
    ("moment_at_0", 2, 0, (2.0, -5.0, 4.0, -1.0)),
    ("shear_at_0", 3, 0, (-2.5, 9.0, -12.0, 7.0, -1.5)))}
_BOUNDARY_STENCILS["h6bc"] = _BOUNDARY_STENCILS["h4bc"] + (
    ("d4_at_l", 4, -6, (-2.0, 11.0, -24.0, 26.0, -14.0, 3.0)),
    ("d5_at_l", 5, -7, (2.5, -16.0, 42.5, -60.0, 47.5, -20.0, 3.5)))

#: centered difference of each order over the interior nodes
_INTERIOR_STENCILS = {2: (1.0, -2.0, 1.0), 3: (-0.5, 1.0, 0.0, -1.0, 0.5),
                      4: (1.0, -4.0, 6.0, -4.0, 1.0),
                      5: (-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5)}


def membership_defects(values: np.ndarray, space: str, g: GramSet) -> dict:
    """Relative boundary-stencil defects for discrete smoothness classes.

    Each entry is |boundary stencil| / (eta * interior max + floor), with
    the interior max taken over the centered difference of the same order;
    a value above 1.0 counts as a violation.  The rows of
    `_BOUNDARY_STENCILS` give the classes:

    * "h2bc": clamped value at l, checked on the stored row
    * "h4bc": free-end moment/shear stencils at 0
    * "h6bc": h4bc plus 4th/5th-derivative stencils at l

    Each stencil is summed in node order.  This calibration is a
    convention; see the module docstring.

    Raises:
        InvalidArgumentError: `space` is none of these classes, or one of
            its stencils spans more nodes than `values` has.
    """
    if space not in _BOUNDARY_STENCILS:
        raise InvalidArgumentError(
            f"unknown smoothness class {space!r}; expected one of "
            f"{sorted(_BOUNDARY_STENCILS)}")
    h = g.grid.h
    full = np.asarray(values, dtype=float)
    scale = 1.0 + float(np.max(np.abs(full), initial=0.0))
    if space == "h2bc":
        return {"value_at_l": float(
            np.max(np.abs(full[-1])) / (BC_VALUE_RTOL * scale))}
    out = {}
    for name, order, first, coef in _BOUNDARY_STENCILS[space]:
        if max(first + len(coef), -first) > len(full):
            raise InvalidArgumentError(f"{space} stencil {name} spans "
                                       f"{len(coef)} nodes, above {len(full)}")
        at = sum(c * full[first + j] for j, c in enumerate(coef)) / h**order
        inner = _INTERIOR_STENCILS[order]
        width = len(full) - len(inner) + 1
        d = sum(c * full[j:j + width] for j, c in enumerate(inner) if c) \
            / h**order
        ref = MEMBERSHIP_ETA * float(np.max(np.abs(d), initial=0.0)) + \
            1e-12 * scale / h**order
        out[name] = float(np.max(np.abs(at)) / ref)
    return out


def check_membership(values: np.ndarray, space: str, g: GramSet, what: str = "state"):
    """Raise PreconditionError if any membership defect exceeds 1."""
    defects = membership_defects(values, space, g)
    bad = {k: round(v, 3) for k, v in defects.items() if v > 1.0}
    if bad:
        raise PreconditionError(
            f"{what} fails discrete {space} membership: {bad}")
