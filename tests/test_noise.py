import dataclasses
import warnings

import numpy as np
import pytest

from stobeam.errors import InvalidArgumentError, PreconditionError
from stobeam.grid import build_grid
from stobeam.noise import (TRACE_RTOL, TraceCheck, build_noise_model,
                           build_spectrum, ito_variance, project_increments,
                           trace_condition, trace_q, trace_tail)
from stobeam.operators import TractiveForce, estimate_constants
from stobeam.propagator import build_propagator
from stobeam.solver import sine_mode_state

ZETA2 = np.pi ** 2 / 6.0
ZETA3 = 1.2020569031595943


def test_spectrum_families():
    q2 = build_spectrum("k^-2", 6)
    assert np.allclose(q2, 1.0 / np.arange(1, 7) ** 2)
    q3 = build_spectrum("k^-3", 6)
    assert np.allclose(q3, 1.0 / np.arange(1, 7) ** 3)
    qt = build_spectrum("tabulated", 3, [5.0, 4.0, 1.0])
    assert np.array_equal(qt, [5.0, 4.0, 1.0])


def test_spectrum_guards():
    with pytest.raises(InvalidArgumentError):
        build_spectrum("flat", 4)
    with pytest.raises(InvalidArgumentError):
        build_spectrum("tabulated", 3, [1.0, 2.0, 3.0])  # must not increase
    with pytest.raises(InvalidArgumentError):
        build_spectrum("tabulated", 3, None)


def test_model_truncation_capped_at_grid(grid16):
    with pytest.raises(InvalidArgumentError):
        build_noise_model(grid16, "k^-2", K=17)
    with pytest.raises(InvalidArgumentError):
        build_noise_model(grid16, "k^-2", K=8, sigma=-1.0)
    model = build_noise_model(grid16, "k^-2", K=16)
    assert model.K == 16


def test_basis_orthonormal_under_quadrature(grid16, g16):
    model = build_noise_model(grid16, "k^-2", K=12)
    # the modes vanish at the clamped end, so the reduced nodes carry
    # the whole quadrature
    gram = model.e_red.T @ (g16.W[:-1, None] * model.e_red)
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_draw_reproducible_and_path_independent(grid16):
    model = build_noise_model(grid16, "k^-2", K=8, seed=42)
    a = model.path_xi(20, 3)
    b = model.path_xi(20, 3)
    c = model.path_xi(20, 4)
    assert a.shape == (20, 8, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    other = build_noise_model(grid16, "k^-2", K=8, seed=43)
    assert not np.array_equal(a, other.path_xi(20, 3))
    with pytest.raises(InvalidArgumentError):
        model.path_xi(20, -1)
    with pytest.raises(InvalidArgumentError):
        model.path_xi(0, 1)


def test_chunked_draws_continue_the_path_stream(grid16):
    """Draws of one generator per path, 32 + 32 + 6 steps into a shared
    buffer, are each path's whole-horizon draw: the single
    standard_normal((n_steps, K, 3)) of Philox keyed (seed, path)."""
    model = build_noise_model(grid16, "k^-2", K=8, seed=42)
    streams = [model.stream(p) for p in (5, 6, 7)]
    buf = np.empty((3, 32, 8, 3))
    chunks = [model.draw_xi(streams, buf[:, :c]).copy() for c in (32, 32, 6)]
    drawn = np.concatenate(chunks, axis=1)
    for row, p in zip(drawn, (5, 6, 7)):
        key = np.array([42, p], dtype=np.uint64)
        philox = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(row, philox.standard_normal((70, 8, 3)))
        assert np.array_equal(row, model.path_xi(70, p))


def test_seeds_above_2_63_do_not_collide(grid16):
    a = build_noise_model(grid16, "k^-2", K=8, seed=2**63)
    b = build_noise_model(grid16, "k^-2", K=8, seed=2**63 + 5)
    assert not np.array_equal(a.path_xi(4, 0), b.path_xi(4, 0))
    top = build_noise_model(grid16, "k^-2", K=8, seed=2**64 - 1)
    assert np.all(np.isfinite(top.path_xi(4, 0)))
    with pytest.raises(InvalidArgumentError):
        build_noise_model(grid16, "k^-2", K=8, seed=2**64)


def test_increments_expand_the_drawn_coefficients(grid16):
    model = build_noise_model(grid16, "k^-2", K=8, seed=7)
    dt = 2e-3
    xi = model.path_xi(15, 2)
    inc = project_increments(model, xi, dt)
    assert inc.shape == (15, grid16.n + 1, 3)
    recon = np.einsum("jkc,sk->jsc",
                      xi * np.sqrt(model.q * dt)[None, :, None],
                      model.e_red)
    assert np.allclose(inc, recon, atol=1e-15)
    with pytest.raises(InvalidArgumentError):
        project_increments(model, xi, -1e-3)


def test_trace_tail_closed_forms(grid16):
    m2 = build_noise_model(grid16, "k^-2", K=12)
    assert trace_q(m2) + trace_tail(m2) == pytest.approx(3.0 * ZETA2, rel=1e-14)
    m3 = build_noise_model(grid16, "k^-3", K=12)
    assert trace_q(m3) + trace_tail(m3) == pytest.approx(3.0 * ZETA3, rel=1e-14)
    mt = build_noise_model(grid16, "tabulated", K=3, table=[3.0, 2.0, 1.0])
    assert trace_q(mt) == pytest.approx(18.0)
    assert trace_tail(mt) == 0.0


def test_trace_identity_for_norm_preserving_flow(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 0.0, 0.25, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12, sigma=1.0)
    chk = trace_condition(P, model)
    exact = 0.25 * trace_q(model)
    assert abs(chk.value - exact) / exact < 1e-11
    # without constants the bound is this equality case, where value and
    # bound agree in exact arithmetic and `value <= bound` would test only
    # the sign of rounding; the strict case is
    # test_trace_bound_inflates_with_constants
    assert chk.bound == pytest.approx(exact, rel=1e-15)


def test_trace_excess_allows_rounding_at_the_bound():
    """The C4 = 0 bound is the exact value, which the quadrature meets only
    to rounding: a value within TRACE_RTOL of the bound holds, one beyond
    it does not, and a non-finite value never does."""
    assert TraceCheck(1.0 + 1e-13, 1.0).excess == 0.0
    assert TraceCheck(1.0 + 0.5 * TRACE_RTOL, 1.0).excess == 0.0
    assert TraceCheck(0.5, np.inf).excess == 0.0
    assert TraceCheck(1.0 + 2 * TRACE_RTOL, 1.0).excess > 0.0
    assert np.isnan(TraceCheck(np.inf, np.inf).excess)
    assert np.isnan(TraceCheck(np.nan, 1.0).excess)


def test_trace_respects_amplitude_and_window(g16, grid16):
    model0 = build_noise_model(grid16, "k^-2", K=12, sigma=0.0)
    P = build_propagator(TractiveForce.zero(), g16, 0.0, 0.1, 1e-3)
    chk = trace_condition(P, model0)
    assert chk.value == 0.0 and chk.bound == 0.0
    model = build_noise_model(grid16, "k^-2", K=12, sigma=2.0)
    a = trace_condition(P, model, t0=0.0, t=0.05)
    b = trace_condition(P, model, t0=0.0, t=0.1)
    assert 0.0 < a.value < b.value
    with pytest.raises(InvalidArgumentError):
        trace_condition(P, model, t0=0.1, t=0.0)


def test_trace_bound_inflates_with_constants(g16, grid16):
    lam = TractiveForce.bump(c0=1.0, c1=0.3)
    P = build_propagator(lam, g16, 0.0, 0.25, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    cst = estimate_constants(lam, g16, np.linspace(0.0, 0.25, 11))
    plain = trace_condition(P, model)
    inflated = trace_condition(P, model, cst)
    assert inflated.value == plain.value
    assert inflated.bound > plain.bound
    assert inflated.value <= inflated.bound


def test_variance_quadrature_guards(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 0.0, 0.1, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    bad = sine_mode_state(grid16, 1, 3, "v")
    bad.v[-1, 2] = 0.5
    with pytest.raises(PreconditionError):
        ito_variance(P, model, bad)
    h = sine_mode_state(grid16, 1, 3, "v")
    assert ito_variance(P, model, h, t0=0.05, t=0.05) == 0.0
    model0 = build_noise_model(grid16, "k^-2", K=12, sigma=0.0)
    assert ito_variance(P, model0, h) == 0.0


def test_variance_scales_with_sigma_squared(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 0.0, 0.1, 1e-3)
    h = sine_mode_state(grid16, 1, 3, "v")
    v1 = ito_variance(P, build_noise_model(grid16, "k^-2", K=12, sigma=1.0), h)
    v2 = ito_variance(P, build_noise_model(grid16, "k^-2", K=12, sigma=2.0), h)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)
    assert v1 > 0


def test_trace_bound_overflow_is_infinite_without_warning(g16, grid16):
    lam = TractiveForce.bump(c0=1.0, c1=0.3)
    P = build_propagator(lam, g16, 0.0, 0.1, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    cst = estimate_constants(lam, g16, [0.0])
    huge = dataclasses.replace(cst, C4=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = trace_condition(P, model, huge)
    assert chk.bound == np.inf
    assert chk.value == trace_condition(P, model).value
