"""Per-step factorization of the evolution family and its adjoint."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from stobeam.errors import (InvalidArgumentError, NonConvergenceError,
                            PreconditionError)
from stobeam.grid import BeamState, build_grams, build_grid, packed_h_norm
from stobeam.operators import (STIFFNESS_BANDWIDTH, TractiveForce, adjoint_H,
                               build_L, build_L0, build_T, estimate_constants,
                               op_norm_H, tension_bands, to_bands)
from stobeam import propagator
from stobeam.propagator import (PropagatorFactorization, ResidualCurve,
                                backward_adjoint_apply,
                                build_propagator, cocycle_defect,
                                duality_defect, generator_residual,
                                picard_evolution, step_map,
                                _factor_from_bands)
from stobeam.solver import bending_mode_state

LAM = TractiveForce.bump(c0=1.0, c1=0.3, freq=1.0)


def cayley_step(op, dt):
    """Step map of the generator L or L0 from the banded kernel, the step
    rule of its increment factor materialized on the identity."""
    if op.adjoint or not op.stiff:
        raise InvalidArgumentError("a step map needs the generator L or L0")
    stiff = op.g.B if op.T is None else op.g.B - op.T
    return step_map(_factor_from_bands(to_bands(stiff), op.g.M, dt), dt)


def test_cayley_step_trapezoid_identity(g16):
    op = build_L(LAM, 0.123, g16)
    dt = 1e-3
    G = cayley_step(op, dt)
    lhs = G - np.eye(2 * g16.m)
    rhs = 0.5 * dt * (op.mat @ (np.eye(2 * g16.m) + G))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(lhs))


def test_cayley_step_of_skew_part_is_isometric(g16):
    G = cayley_step(build_L0(g16), 1e-3)
    assert abs(op_norm_H(g16, G) - 1.0) < 5e-12


def _dense_cayley(op, dt):
    """The dense construction the banded kernel replaced: one LU of the
    (2m)x(2m) resolvent I - dt/2 op, solved against I + dt/2 op."""
    dim = op.mat.shape[0]
    half = 0.5 * dt * op.mat
    return lu_solve(lu_factor(np.eye(dim) - half), np.eye(dim) + half)


def _extended_cayley(op, dt):
    """The Cayley map of the same float64 generator to about long double
    accuracy: the dense LU solution refined twice with residuals
    evaluated in np.longdouble."""
    dim = op.mat.shape[0]
    half = 0.5 * dt * op.mat
    lu = lu_factor(np.eye(dim) - half)
    hl = np.longdouble(0.5) * np.longdouble(dt) * op.mat.astype(np.longdouble)
    eye = np.eye(dim, dtype=np.longdouble)
    G = lu_solve(lu, np.eye(dim) + half).astype(np.longdouble)
    for _ in range(2):
        G += lu_solve(lu, ((eye + hl) - (eye - hl) @ G).astype(float))
    return G


def _max_error(G, ref):
    return float(np.max(np.abs(G - ref)) / np.max(np.abs(ref)))


@pytest.fixture(scope="module", params=[16, 64, 256])
def grams(request):
    return build_grams(build_grid(1.0, request.param), 1.0)


def test_step_maps_match_dense_oracle(grams):
    dt = 1e-3
    op = build_L(LAM, 0.123, grams)
    ref = _dense_cayley(op, dt)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(cayley_step(op, dt) - ref)) <= 1e-11 * scale
    # build_propagator takes the O(m) tension bands, not the dense T
    P = build_propagator(LAM, grams, 0.0, 2 * dt, dt)
    mid = _dense_cayley(build_L(LAM, 1.5 * dt, grams), dt)
    assert np.max(np.abs(step_map(P.steps[1], dt) - mid)) <= \
        1e-11 * np.max(np.abs(mid))


def test_step_maps_are_no_less_accurate_than_dense_oracle(grams):
    """Max error against an extended-precision Cayley map of the same
    generator, and the free flow's isometry defect."""
    dt = 1e-3
    op = build_L(LAM, 0.123, grams)
    ref = _extended_cayley(op, dt)
    assert _max_error(cayley_step(op, dt), ref) <= \
        _max_error(_dense_cayley(op, dt), ref)
    free = build_L0(grams)
    assert abs(op_norm_H(grams, cayley_step(free, dt)) - 1.0) <= \
        abs(op_norm_H(grams, _dense_cayley(free, dt)) - 1.0)


def test_transposed_rule_is_the_transposed_map(g16):
    """A step stores one m x m factor, and the transposed rule applies the
    transpose of the map that the forward rule materializes."""
    P = build_propagator(LAM, g16, 0.0, 2e-3, 1e-3)
    assert all(d.shape == (g16.m, g16.m) for d in P.steps)
    G = step_map(P.steps[1], P.dt)
    eye = np.eye(2 * g16.m)
    GT = P.apply_transpose_premetric(eye, 1e-3, 2e-3)
    assert np.max(np.abs(GT - G.T)) <= 1e-15 * np.max(np.abs(G))
    assert np.array_equal(P.apply(eye, 1e-3, 2e-3), G)


def test_tension_bands_are_the_bands_of_build_T(grams):
    bw = STIFFNESS_BANDWIDTH
    for t in (0.0, 0.123, 0.5):
        tmat = build_T(LAM, t, grams)
        ref = to_bands(tmat)
        assert np.max(np.abs(tension_bands(LAM, t, grams) - ref)) <= \
            1e-15 * np.max(np.abs(ref))
        k = grams.B - tmat
        assert not np.any(np.triu(k, bw + 1)) and not np.any(np.tril(k, -bw - 1))


def test_kernel_warns_on_singular_resolvent(g16):
    dt = 1e-3
    h = 0.5 * dt
    bw = STIFFNESS_BANDWIDTH
    kb = to_bands(g16.B)
    # decouple node 0 and all but cancel its mass: M + h^2 K keeps a
    # pivot about 1e-14 times the others
    kb[bw, 0] = -(1.0 - 1e-14) * g16.M[0] / (h * h)
    for d in range(1, bw + 1):
        kb[bw - d, d] = kb[bw + d, 0] = 0.0
    with pytest.warns(UserWarning, match="nearly singular"):
        _factor_from_bands(kb, g16.M, dt)


def test_cayley_step_rejects_other_roles(g16):
    with pytest.raises(InvalidArgumentError):
        cayley_step(adjoint_H(build_L0(g16)), 1e-3)
    with pytest.raises(InvalidArgumentError):
        cayley_step(build_L0(g16), 0.0)


def test_operator_norm_basics(g16):
    dim = 2 * g16.m
    assert op_norm_H(g16, np.eye(dim)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm_H(g16, -2.5 * np.eye(dim)) == pytest.approx(2.5, rel=1e-12)


def test_operator_norm_rejects_non_finite(g16):
    # the triangular solve skips its finite check; the SVD must still refuse
    for rows in (slice(0, 1), slice(g16.m, g16.m + 1)):
        mat = np.eye(2 * g16.m)
        mat[rows, 0] = np.nan
        with pytest.raises(ValueError):
            op_norm_H(g16, mat)


def test_autonomous_factorization_shares_steps(g16):
    P = build_propagator(TractiveForce.bump(c0=1.0), g16, 0.0, 0.1, 1e-2)
    assert P.n_steps == 10
    assert all(s is P.steps[0] for s in P.steps)
    Pt = build_propagator(LAM, g16, 0.0, 0.1, 1e-2)
    assert Pt.steps[0] is not Pt.steps[1]


def test_unmodulated_tabulated_profile_shares_steps(g16):
    table = TractiveForce.bump(c0=1.0).node_values(0.0, g16.grid)
    lam = TractiveForce(family="tabulated", table=table, c0=2.0, c1=0.0)
    assert lam.autonomous
    P = build_propagator(lam, g16, 0.0, 0.1, 1e-2)
    assert all(s is P.steps[0] for s in P.steps)


def test_factorization_guards(g16):
    with pytest.raises(InvalidArgumentError):
        build_propagator(LAM, g16, 0.0, 0.1, 3e-2)  # dt must tile the window
    P = build_propagator(LAM, g16, 0.0, 0.1, 1e-2)
    with pytest.raises(InvalidArgumentError):
        PropagatorFactorization(t0=0.0, T=0.1, dt=1e-2, steps=P.steps[:3],
                                g=g16)


def test_time_index_lookup(g16):
    P = build_propagator(LAM, g16, 0.0, 0.1, 1e-2)
    assert P.index_of(0.0) == 0
    assert P.index_of(0.05) == 5
    assert P.index_of(0.1) == 10
    with pytest.raises(InvalidArgumentError):
        P.index_of(0.055)
    with pytest.raises(InvalidArgumentError):
        P.index_of(0.2)
    assert np.allclose(P.times, np.linspace(0.0, 0.1, 11))


def test_apply_matches_matrix(g16):
    P = build_propagator(LAM, g16, 0.0, 0.05, 1e-2)
    rng = np.random.default_rng(8)
    y = rng.standard_normal((2 * g16.m, 3))
    G = [step_map(d, P.dt) for d in P.steps]
    full = np.linalg.multi_dot(G[::-1])
    window = G[3] @ G[2] @ G[1]
    assert np.allclose(P.apply(y), full @ y, atol=1e-12)
    assert np.allclose(P.apply(y, 0.01, 0.04), window @ y, atol=1e-12)


def test_identity_and_cocycle_are_exact(g16):
    P = build_propagator(LAM, g16, 0.0, 0.1, 2e-3)
    rng = np.random.default_rng(9)
    y = rng.standard_normal((2 * g16.m, 3))
    for t in (0.0, 0.05, 0.1):
        assert np.array_equal(P.apply(y, t, t), y)
    assert cocycle_defect(P, 0.0, 0.04, 0.1) == 0.0


def test_generator_residual_starts_at_zero(g16):
    P = build_propagator(LAM, g16, 0.0, 0.05, 1e-3)
    w = bending_mode_state(g16, 1)
    r = generator_residual(P, LAM, w)
    assert r.values[0] == 0.0
    assert r.max_value < 1e-5
    assert len(r.times) == P.n_steps + 1


def test_generator_residual_needs_domain_data(g16, grid16):
    P = build_propagator(LAM, g16, 0.0, 0.05, 1e-3)
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((grid16.n + 2, 3))
    vals[-1] = 0.0
    with pytest.raises(PreconditionError):
        generator_residual(P, LAM, BeamState(grid16, vals, np.zeros_like(vals)))


def test_residual_curve_max_uses_magnitude():
    c = ResidualCurve(times=np.array([0.0, 1.0]), values=np.array([0.0, -2.0]))
    assert c.max_value == 2.0


def test_duality_identity(g16):
    P = build_propagator(LAM, g16, 0.0, 0.1, 2e-3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal((2 * g16.m, 3))
        y = rng.standard_normal((2 * g16.m, 3))
        assert duality_defect(P, x, y) < 1e-11
        assert duality_defect(P, x, y, 0.02, 0.08) < 1e-11


def test_adjoint_factorization_pairing(g16):
    P = build_propagator(LAM, g16, 0.0, 0.1, 2e-3)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2 * g16.m, 3))
    y = rng.standard_normal((2 * g16.m, 3))
    lhs = float(np.sum(P.apply(x) * g16.mh_apply(y)))
    rhs = float(np.sum(x * g16.mh_apply(P.apply_adjoint(y))))
    scale = packed_h_norm(x, g16) * packed_h_norm(y, g16)
    assert abs(lhs - rhs) < 1e-10 * scale


def test_backward_integration_free_flow_matches_transpose(g16):
    lam0 = TractiveForce.zero()
    P = build_propagator(lam0, g16, 0.0, 0.05, 1e-3)
    rng = np.random.default_rng(13)
    y = rng.standard_normal((2 * g16.m, 3))
    y /= packed_h_norm(y, g16)
    ref = P.apply_adjoint(y)
    bwd = backward_adjoint_apply(lam0, g16, y, 0.0, 0.05, 1e-3)
    assert packed_h_norm(ref - bwd, g16) < 1e-10


def test_cocycle_rejects_misordered_times(g16):
    P = build_propagator(LAM, g16, 0.0, 0.1, 2e-3)
    with pytest.raises(InvalidArgumentError):
        cocycle_defect(P, 0.05, 0.0, 0.1)


def test_picard_requires_contraction_margin(g16):
    w = bending_mode_state(g16, 1)
    cst = estimate_constants(LAM, g16, np.linspace(0.0, 0.1, 5))
    with pytest.raises(PreconditionError):
        picard_evolution(LAM, g16, w, 0.0, 0.1, 1e-3, alpha=0.5,
                         constants=cst)


def test_picard_rejects_rough_initial_data(g16, grid16):
    rng = np.random.default_rng(14)
    vals = rng.standard_normal((grid16.n + 2, 3))
    vals[-1] = 0.0
    w = BeamState(grid16, vals, np.zeros_like(vals))
    with pytest.raises(PreconditionError):
        picard_evolution(LAM, g16, w, 0.0, 0.1, 1e-3)


def test_picard_nonconvergence_reports(g16, monkeypatch):
    monkeypatch.setattr(propagator, "_PICARD_TOL", 1e-30)
    monkeypatch.setattr(propagator, "_PICARD_MAX_ITER", 2)
    w = bending_mode_state(g16, 1)
    with pytest.raises(NonConvergenceError):
        picard_evolution(LAM, g16, w, 0.0, 0.1, 1e-3)
