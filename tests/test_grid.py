"""Grid, Gram matrices, and discrete function spaces."""

from math import factorial

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, eigh

from stobeam.errors import InvalidArgumentError, PreconditionError, ShapeError
from stobeam.grid import (_BOUNDARY_STENCILS, _INTERIOR_STENCILS, BeamState,
                          bc_value_defect, build_grams, build_grid,
                          check_membership, h_inner, h_norm,
                          membership_defects, packed_d_norm_sq, packed_h_norm)

# Quintic satisfying all four endpoint conditions on [0, 1]:
# q(1) = q'(1) = 0, q''(0) = q'''(0) = 0.
def _quintic(s):
    return 4.0 - 5.0 * s + s ** 5


def test_build_grid_layout():
    grid = build_grid(2.0, 9)
    assert grid.n == 9
    assert grid.n_free == 10
    assert grid.h == pytest.approx(2.0 / 10.0)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    assert len(grid.nodes) == 11
    assert np.allclose(np.diff(grid.nodes), grid.h)


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        build_grid(-1.0, 16)
    with pytest.raises(InvalidArgumentError):
        build_grid(1.0, 3)
    with pytest.raises(InvalidArgumentError):
        build_grid(float("nan"), 16)
    for b in (0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="stiffness"):
            build_grams(build_grid(1.0, 16), b)


def test_state_pack_roundtrip(grid16):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((grid16.n + 2, 3))
    v = rng.standard_normal((grid16.n + 2, 3))
    u[-1] = 0.0
    v[-1] = 0.0
    x = BeamState(grid16, u, v)
    back = BeamState.from_packed(grid16, x.packed())
    assert np.array_equal(back.u, u)
    assert np.array_equal(back.v, v)
    with pytest.raises(ShapeError):
        BeamState.from_packed(grid16, np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        BeamState(grid16, u[:4], v[:4])


def test_bc_value_defect_reads_the_clamped_rows(grid16):
    rng = np.random.default_rng(4)
    u = rng.standard_normal((grid16.n + 2, 3))
    x = BeamState(grid16, u, np.zeros_like(u))
    assert bc_value_defect(x) == np.max(np.abs(u[-1]))
    y = BeamState.from_packed(grid16, x.packed())
    assert bc_value_defect(y) == 0.0
    y.v[-1, 1] = -2.0
    assert bc_value_defect(y) == 2.0


def test_gram_weights():
    g = build_grams(build_grid(2.5, 24), 1.3)
    # trapezoid weights cover the whole beam, the lumped mass stops at
    # the eliminated clamped node
    assert float(np.sum(g.W)) == pytest.approx(2.5, abs=1e-12)
    assert float(np.sum(g.M)) == pytest.approx(2.5 - 0.5 * g.grid.h, abs=1e-12)
    assert np.all(g.M > 0)


def test_bending_gram_is_spd(g16):
    assert np.array_equal(g16.B, g16.B.T)
    assert np.min(np.linalg.eigvalsh(g16.B)) > 0.0


def test_mh_apply_solve_inverse(g16):
    rng = np.random.default_rng(1)
    y = rng.standard_normal((2 * g16.m, 3))
    z = g16.mh_solve(g16.mh_apply(y))
    assert np.max(np.abs(z - y)) < 1e-10


def test_h_inner_symmetry(grid16, g16):
    rng = np.random.default_rng(2)
    mk = lambda: BeamState.from_packed(grid16, rng.standard_normal((2 * g16.m, 3)))
    x, y = mk(), mk()
    assert h_inner(x, y, g16) == pytest.approx(h_inner(y, x, g16), rel=1e-13)
    assert h_norm(x, g16) == pytest.approx(packed_h_norm(x.packed(), g16))
    assert h_norm(x, g16) > 0
    other = BeamState.zero(build_grid(1.0, 8))
    with pytest.raises(ShapeError, match="grid mismatch"):
        h_inner(x, other, g16)


def test_bending_energy_converges_second_order():
    """u^T B u approaches b * int (u'')^2 at O(h^2) for smooth data.

    For the quintic the continuum value is 400/7.
    """
    exact = 400.0 / 7.0
    defects = []
    for n in (32, 64, 128):
        g = build_grams(build_grid(1.0, n), 1.0)
        q = _quintic(g.grid.nodes)[:g.m]
        defects.append(abs(float(q @ g.B @ q) - exact))
    assert defects[0] / defects[1] > 3.4
    assert defects[1] / defects[2] > 3.4
    assert defects[-1] < 8e-3


def test_mass_form_converges_second_order():
    exact = 4.329004329004329  # int_0^1 (4 - 5 s + s^5)^2 ds
    defects = []
    for n in (32, 64, 128):
        g = build_grams(build_grid(1.0, n), 1.0)
        q = _quintic(g.grid.nodes)[:g.m]
        defects.append(abs(float(q @ (g.M * q)) - exact))
    assert defects[0] / defects[1] > 3.4
    assert defects[1] / defects[2] > 3.4


def test_graph_norm_rejects_rough_displacement(grid16, g16):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((grid16.n + 2, 3))
    vals[-1] = 0.0
    x = BeamState(grid16, vals, np.zeros_like(vals))
    with pytest.raises(PreconditionError):
        check_membership(x.u, "h4bc", g16)
    # the unchecked packed variant still evaluates
    assert packed_d_norm_sq(x.packed(), g16) > 0
    # a stack (k, 2m, 3) gives each state's value, bit for bit
    stack = np.stack([x.packed(), rng.standard_normal((2 * g16.m, 3)),
                      np.zeros((2 * g16.m, 3))])
    assert np.array_equal(packed_d_norm_sq(stack, g16),
                          [packed_d_norm_sq(y, g16) for y in stack])


def test_membership_smooth_passes_rough_fails(grid16, g16):
    q = _quintic(grid16.nodes)
    vals = np.zeros((grid16.n + 2, 3))
    vals[:, 0] = q
    check_membership(vals, "h4bc", g16)
    d = membership_defects(vals, "h4bc", g16)
    assert set(d) == {"moment_at_0", "shear_at_0"}
    assert max(d.values()) < 1.0

    rough = np.zeros_like(vals)
    rough[0, 0] = 1.0
    with pytest.raises(PreconditionError, match="h4bc"):
        check_membership(rough, "h4bc", g16, what="probe")


def test_membership_value_clamp(grid16, g16):
    vals = np.zeros((grid16.n + 2, 3))
    vals[-1, 1] = 1e-3
    d = membership_defects(vals, "h2bc", g16)
    assert d["value_at_l"] > 1.0
    vals[-1, 1] = 0.0
    assert membership_defects(vals, "h2bc", g16)["value_at_l"] == 0.0


def test_membership_stencils_are_exact_on_polynomials():
    """Each boundary stencil is the one-sided difference of its order at
    its end node (s = 0, or s = l for a negative first node), and each
    interior stencil the centered one: exact on every monomial of a
    degree below its number of nodes."""
    rows = [(order, coef, 0 if first >= 0 else len(coef) - 1)
            for _, order, first, coef in _BOUNDARY_STENCILS["h6bc"]]
    rows += [(order, coef, (len(coef) - 1) // 2)
             for order, coef in _INTERIOR_STENCILS.items()]
    for order, coef, at in rows:
        x = np.arange(len(coef)) - at
        for p in range(len(coef)):
            want = factorial(order) if p == order else 0.0
            assert np.dot(coef, x ** p) == pytest.approx(want, abs=1e-9)


def test_membership_refuses_a_grid_shorter_than_a_stencil():
    """A stencil that spans more nodes than the grid has is refused, not
    indexed past the grid: at n = 4 the 7-node d5_at_l of h6bc does not
    fit the 6 nodes, while the 5-node stencils of h4bc do."""
    g = build_grams(build_grid(1.0, 4), 1.0)
    vals = np.zeros((g.grid.n + 2, 3))
    assert max(membership_defects(vals, "h4bc", g).values()) == 0.0
    with pytest.raises(InvalidArgumentError, match="d5_at_l"):
        membership_defects(vals, "h6bc", g)


@pytest.mark.parametrize("check", [membership_defects, check_membership])
def test_membership_rejects_an_unknown_class(g16, check):
    """A class without a stencil table is refused, not passed with no
    defects to judge."""
    vals = np.zeros((g16.grid.n + 2, 3))
    with pytest.raises(InvalidArgumentError, match="h5bc"):
        check(vals, "h5bc", g16)


def test_b_solve_is_cho_solve(g16):
    """B_solve calls LAPACK potrs on the cached factor directly: the bits
    of `scipy.linalg.cho_solve` for one, three and m right-hand sides."""
    c = cho_factor(g16.B, lower=False)
    rng = np.random.default_rng(5)
    for shape in ((g16.m,), (g16.m, 3), (g16.m, g16.m)):
        rhs = rng.standard_normal(shape)
        assert np.array_equal(g16.B_solve(rhs), cho_solve(c, rhs))


@pytest.mark.parametrize("n", [16, 64, 256])
def test_grams_factor_b_once_as_the_routines_did(n):
    """B is exactly symmetric as assembled.  `B_chol` is the bits of the
    upper `cho_factor` with its lower triangle zeroed, and `B_solve` on it
    the bits of `cho_solve`; `bending_modes` is `eigh` of the pencil.  Both
    are built on first use and kept."""
    g = build_grams(build_grid(1.0, n), 1.0)
    assert np.array_equal(g.B, g.B.T)
    c = cho_factor(g.B, lower=False)
    assert np.array_equal(g.B_chol, np.triu(c[0]))
    rhs = np.random.default_rng(n).standard_normal((g.m, 3))
    assert np.array_equal(g.B_solve(rhs), cho_solve(c, rhs))
    vals, vecs = eigh(g.B, np.diag(g.M))
    assert np.array_equal(g.bending_modes[0], vals)
    assert np.array_equal(g.bending_modes[1], vecs)
    assert g.B_chol is g.B_chol and g.bending_modes is g.bending_modes
