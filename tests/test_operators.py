import dataclasses
import tracemalloc

import numpy as np
import pytest

from stobeam.errors import AssemblyError, InvalidArgumentError
from stobeam.grid import build_grams, build_grid, packed_h_norm
from stobeam.operators import (TractiveForce, apply_L0, apply_L1,
                               estimate_constants, op_norm_H, skew_defect,
                               weak_pair)

from conftest import build_T


def test_stiff_block_structure(g16):
    m = g16.m
    eye, zero = np.eye(m), np.zeros((m, m))
    tmat = build_T(TractiveForce(family="bump", c0=1.0, c1=0.2), 0.4, g16)
    assert np.array_equal(apply_L0(g16, np.eye(2 * m)),
                          np.block([[zero, eye],
                                    [-(g16.B / g16.M[:, None]), zero]]))
    assert np.array_equal(apply_L1(tmat, g16, np.eye(2 * m)),
                          np.block([[zero, zero],
                                    [tmat / g16.M[:, None], zero]]))
    massless = dataclasses.replace(g16, M=np.where(np.arange(m) == 3, 0.0,
                                                   g16.M))
    with pytest.raises(AssemblyError):
        apply_L0(massless, np.eye(2 * m))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_skew_defect_tiny(n):
    g = build_grams(build_grid(1.0, n), 1.0)
    assert skew_defect(g) < 1e-12


def test_pair_skewness(g16):
    """<L0 x, y>_H is skew in (x, y).  L1, the difference of the L and L0
    pairings, and L itself pair with the symmetric part
    (T u_x) . v_y + (T u_y) . v_x."""
    tmat = build_T(TractiveForce(family="bump", c0=1.0, c1=0.2), 0.4, g16)
    zero = np.zeros_like(tmat)
    m = g16.m
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal((2 * m, 3))
        y = rng.standard_normal((2 * m, 3))
        scale = packed_h_norm(x, g16) * packed_h_norm(y, g16)
        l0 = weak_pair(g16, zero, x, y) + weak_pair(g16, zero, y, x)
        full = weak_pair(g16, tmat, x, y) + weak_pair(g16, tmat, y, x)
        sym = float(np.sum((tmat @ x[:m]) * y[m:])
                    + np.sum((tmat @ y[:m]) * x[m:]))
        assert abs(l0) < 1e-13 * scale
        assert abs((full - l0) - sym) < 1e-13 * scale
        assert abs(full - sym) < 1e-13 * scale


def test_pair_matches_metric_route(g16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.2)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2 * g16.m, 3))
    y = rng.standard_normal((2 * g16.m, 3))
    tmat = build_T(lam, 0.4, g16)
    zero = np.zeros_like(tmat)
    l0 = weak_pair(g16, zero, x, y)
    full = weak_pair(g16, tmat, x, y)
    my = g16.mh_apply(y)
    for weak, image in ((l0, apply_L0(g16, x)),
                        (full - l0, apply_L1(tmat, g16, x)),
                        (full, apply_L0(g16, x) + apply_L1(tmat, g16, x))):
        metric = float(np.sum(image * my))
        assert weak == pytest.approx(metric, rel=1e-10, abs=1e-10)


def test_tractive_modulation():
    lam = TractiveForce(family="bump", c0=2.0, c1=0.5, freq=3.0)
    assert lam.c(0.0) == 2.0
    t = 0.11
    assert lam.c(t) == pytest.approx(2.0 + 0.5 * np.sin(2 * np.pi * 3.0 * t))
    # the modulation peaks at c0 + |c1| a quarter period in
    assert lam.c(1.0 / 12.0) == pytest.approx(2.5, rel=1e-15)
    zero = TractiveForce.zero()
    assert zero.c(1.23) == 0.0


def test_tractive_constructor_guards():
    with pytest.raises(InvalidArgumentError):
        TractiveForce(family="spline")
    with pytest.raises(InvalidArgumentError):
        TractiveForce(family="bump", c0=0.1, c1=0.5)
    with pytest.raises(InvalidArgumentError):
        TractiveForce(family="tabulated")


def test_tractive_bad_table_warns_instead_of_raising(grid16):
    table = np.zeros(grid16.n + 2)
    table[0] = 0.5  # endpoint value must vanish
    with pytest.warns(UserWarning):
        lam = TractiveForce(family="tabulated", table=table)
    d = lam.invariant_defects(grid16, 0.0)
    assert d["endpoint_value"] > 0.1


def test_tractive_horizon_window(grid16, g16):
    lam = TractiveForce(family="bump", c0=1.0, horizon=0.5)
    lam.node_values(0.5, grid16)
    with pytest.raises(InvalidArgumentError):
        lam.node_values(0.7, grid16)
    # every time read passes through the modulation, so c(t) itself and
    # the constants, which read only c(t) and the profile, keep the window
    assert lam.c(0.5) == 1.0
    for t in (0.7, -0.1):
        with pytest.raises(InvalidArgumentError):
            lam.c(t)
    with pytest.raises(InvalidArgumentError):
        estimate_constants(lam, g16, 0.7)
    with pytest.raises(InvalidArgumentError):
        estimate_constants(TractiveForce(family="zero", horizon=0.5), g16,
                           0.7)


def test_bump_invariants_clean(grid16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    d = lam.invariant_defects(grid16, 1.0)
    assert max(d.values()) < 1e-12


def test_bump_derivative_norm_closed_form(grid16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    t = 0.37
    # trapezoid on a fine auxiliary grid as the independent route
    fine = build_grid(1.0, 4000)
    d = lam.ds_node_values(t, fine)
    w = np.full(fine.n + 2, fine.h)
    w[0] = w[-1] = 0.5 * fine.h
    numeric = float(np.sum(w * d * d))
    assert lam.ds_l2_norm_sq(t, grid16) == pytest.approx(numeric, rel=1e-6)


def test_tabulated_profile_interpolates(grid16):
    lam_b = TractiveForce(family="bump", c0=1.0)
    table = lam_b.node_values(0.0, grid16)
    lam_t = TractiveForce(family="tabulated", table=table, c0=1.0)
    assert np.allclose(lam_t.node_values(0.0, grid16), table)
    # midpoints come from linear interpolation between the node values
    mids = lam_t.profile_midpoint_values(grid16)
    assert np.allclose(mids, 0.5 * (table[:-1] + table[1:]))
    # the table belongs to one grid size
    with pytest.raises(InvalidArgumentError, match="grid needs 10"):
        lam_t.node_values(0.0, build_grid(1.0, 8))


def test_weak_tractive_matrix_symmetric_nonpositive(g16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    tm = build_T(lam, 0.2, g16)
    assert np.array_equal(tm, tm.T)
    assert np.linalg.eigvalsh(tm)[-1] < 1e-10


def test_weak_tractive_pairing_converges():
    """w^T T u approaches -int lam u' w' at O(h^2).

    With lam = s^2 (1-s)^2, u = 4 - 5 s + s^5 and w = s^2 (1 - s) the
    continuum integral evaluates to a rational number.
    """
    exact = 0.026334776334776322
    lam = TractiveForce(family="bump", c0=1.0)
    defects = []
    for n in (32, 64, 128):
        g = build_grams(build_grid(1.0, n), 1.0)
        s = g.grid.nodes[:g.m]
        u = 4.0 - 5.0 * s + s ** 5
        w = s * s * (1.0 - s)
        defects.append(abs(float(w @ build_T(lam, 0.0, g) @ u) - exact))
    assert defects[0] / defects[1] > 3.4
    assert defects[1] / defects[2] > 3.4
    assert defects[-1] < 3e-6


def test_estimate_constants_zero_family(g16):
    cst = estimate_constants(TractiveForce.zero(), g16, 1.0)
    assert cst.C4 == 0.0 and cst.C5 == 0.0


def test_estimate_constants_formula_scaling(g16):
    # at t = 0.25 the modulation peaks at c0 + c1, and the closed form
    # scales linearly with it: sqrt(4 l / b * c^2 * 4/210) = c sqrt(8/105)
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    cst = estimate_constants(lam, g16, 0.25)
    assert cst.C4_formula == pytest.approx(1.3 * np.sqrt(8.0 / 105.0), rel=1e-12)
    assert cst.C4_numeric <= cst.C4_formula
    assert cst.C4 == max(cst.C4_formula, cst.C4_numeric)
    assert cst.C5 == pytest.approx(1.10 * cst.C5_numeric)


def _dense_constants(lam, g, times):
    """The constants as exact H-norms of dense 2m x 2m forms, the largest
    over `times`: C4 from L1(t) and C5 from L0 L1(t) L0^-1, the graph-norm
    image."""
    m = g.m
    eye = np.eye(2 * m)
    l0 = apply_L0(g, eye)
    l0_inv = np.zeros((2 * m, 2 * m))
    l0_inv[:m, m:] = -g.B_solve(np.diag(g.M))
    l0_inv[m:, :m] = np.eye(m)
    c4 = c5 = 0.0
    for t in times:
        l1 = apply_L1(build_T(lam, t, g), g, eye)
        c4 = max(c4, op_norm_H(g, l1))
        c5 = max(c5, op_norm_H(g, l0 @ l1 @ l0_inv))
    return c4, c5


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("family", ["bump", "tabulated", "zero"])
def test_constants_equal_the_dense_operator_norms(n, family):
    """The profile route over [0, 1] (one m x m singular value each,
    scaled by sup |c(t)|) agrees with the dense per-time 2m x 2m norms at
    the ends and at every crest and trough of c (freq 2 for the bump, 1
    for the table) to 1e-12 relative; measured: at most 1.1e-14 for C4
    and 1.4e-13 for C5, both at n = 64, and exact zeros for the zero
    family."""
    g = build_grams(build_grid(1.0, n), 1.0)
    bump = TractiveForce(family="bump", c0=1.0, c1=0.3, freq=2.0)
    lam = {"bump": bump, "zero": TractiveForce.zero(),
           "tabulated": TractiveForce(family="tabulated", c0=0.8, c1=0.5,
                                      table=1.7 * bump.node_values(0.0, g.grid))
           }[family]
    cst = estimate_constants(lam, g, 1.0)
    times = (0.0, 0.125, 0.25, 0.375, 0.625, 0.75, 0.875, 1.0)
    c4, c5 = _dense_constants(lam, g, times)
    if family == "zero":
        assert (cst.C4_numeric, cst.C5_numeric, c4, c5) == (0.0,) * 4
        return
    assert cst.C4_numeric == pytest.approx(c4, rel=1e-12, abs=0.0)
    assert cst.C5_numeric == pytest.approx(c5, rel=1e-12, abs=0.0)


def test_constants_form_no_dense_generator():
    """At n = 64 over [0, 1] the constants take m x m work only:
    the traced peak stays below three 2m x 2m matrices (0.39 MiB), where
    the dense per-time route peaks near 1.3 MiB."""
    g = build_grams(build_grid(1.0, 64), 1.0)
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3, freq=2.0)
    tracemalloc.start()
    try:
        estimate_constants(lam, g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (2 * g.m) ** 2 * 8, peak
