import dataclasses
import warnings

import numpy as np
import pytest

from stobeam.errors import InvalidArgumentError, PreconditionError
from stobeam.grid import build_grams, build_grid
from stobeam.noise import (CHUNK_STEPS, TRACE_RTOL, TraceCheck,
                           build_noise_model, build_spectrum, ito_variance,
                           project_increments, step_increments,
                           trace_condition, trace_q, trace_tail)
from stobeam.operators import TractiveForce, estimate_constants
from stobeam.propagator import PropagatorFactorization, build_propagator
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
    with pytest.raises(InvalidArgumentError, match=">= 1"):
        build_spectrum("k^-2", 0)
    with pytest.raises(InvalidArgumentError, match="expected"):
        build_spectrum("tabulated", 3, [2.0, 1.0])


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


def test_path_draws_follow_the_documented_layout(grid16):
    """Each path's draws are, for every chunk j and channel c, the
    standard_normal((steps of chunk j, K)) of Philox keyed (seed, path)
    from counter (0, 0, j, c): two full chunks and a partial one."""
    model = build_noise_model(grid16, "k^-2", K=8, seed=42)
    n_steps = 2 * CHUNK_STEPS + 6
    for p in (5, 6):
        xi = model.path_xi(n_steps, p)
        for j, k0 in enumerate(range(0, n_steps, CHUNK_STEPS)):
            c = min(CHUNK_STEPS, n_steps - k0)
            for ch in range(3):
                philox = np.random.Philox(
                    key=np.array([42, p], dtype=np.uint64),
                    counter=np.array([0, 0, j, ch], dtype=np.uint64))
                want = np.random.Generator(philox).standard_normal((c, 8))
                assert np.array_equal(xi[k0:k0 + c, :, ch], want), (p, j, ch)
    with pytest.raises(InvalidArgumentError, match="one chunk"):
        model.draw_xi(model.generator(), [0], [0], 1, np.empty((1, 1, 4, 8)))


def test_path_channel_chunk_streams_are_distinct_and_uncorrelated(grid16):
    """No two (path, channel, chunk) sub-streams share a draw, and the
    draws of the three channels are uncorrelated: |r| < 5 / sqrt(n)."""
    model = build_noise_model(grid16, "k^-2", K=8, seed=42)
    xi = np.stack([model.path_xi(2 * CHUNK_STEPS + 6, p) for p in range(8)])
    assert np.unique(xi).size == xi.size
    cols = xi.reshape(-1, 3)
    r = np.corrcoef(cols.T)[np.triu_indices(3, 1)]
    assert np.max(np.abs(r)) < 5.0 / np.sqrt(len(cols)), r


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


def test_step_increments_are_each_paths_draws_projected_alone(grid16):
    """Stacked over the steps, the increments of a block of 256 paths
    (3..258) over two full noise chunks and a partial one are, for every
    path, its whole-horizon draws projected alone, bit for bit, in all
    three channels, in one and in two of them."""
    model = build_noise_model(grid16, "k^-2", K=8, seed=7)
    n_steps, dt, p0, p1 = 2 * CHUNK_STEPS + 6, 2e-3, 3, 259
    alone = np.stack([project_increments(model, model.path_xi(n_steps, p),
                                         dt) for p in range(p0, p1)], -1)
    for ch in (slice(None), slice(2, 3), slice(0, 3, 2)):
        got = np.stack(list(step_increments(model, p0, p1, n_steps, dt, ch)))
        assert got.shape == (n_steps, grid16.n + 1, len(range(3)[ch]), 256)
        assert np.array_equal(got, alone[:, :, ch]), ch


def test_trace_tail_closed_forms(grid16):
    m2 = build_noise_model(grid16, "k^-2", K=12)
    assert trace_q(m2) + trace_tail(m2) == pytest.approx(3.0 * ZETA2, rel=1e-14)
    m3 = build_noise_model(grid16, "k^-3", K=12)
    assert trace_q(m3) + trace_tail(m3) == pytest.approx(3.0 * ZETA3, rel=1e-14)
    mt = build_noise_model(grid16, "tabulated", K=3, table=[3.0, 2.0, 1.0])
    assert trace_q(mt) == pytest.approx(18.0)
    assert trace_tail(mt) == 0.0


def test_trace_identity_for_norm_preserving_flow(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 250, 1e-3)
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
    P = build_propagator(TractiveForce.zero(), g16, 100, 1e-3)
    chk = trace_condition(P, model0)
    assert chk.value == 0.0 and chk.bound == 0.0
    model = build_noise_model(grid16, "k^-2", K=12, sigma=2.0)
    half = build_propagator(TractiveForce.zero(), g16, 50, 1e-3)
    a = trace_condition(half, model)
    b = trace_condition(P, model)
    assert 0.0 < a.value < b.value


def test_trace_bound_inflates_with_constants(g16, grid16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    P = build_propagator(lam, g16, 250, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    cst = estimate_constants(lam, g16, 0.25)
    plain = trace_condition(P, model)
    inflated = trace_condition(P, model, cst)
    assert inflated.value == plain.value
    assert inflated.bound > plain.bound
    assert inflated.value <= inflated.bound


def test_variance_quadrature_guards(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 100, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    bad = sine_mode_state(grid16, 1, 3, "v")
    bad.v[-1, 2] = 0.5
    with pytest.raises(PreconditionError):
        ito_variance(P, model, bad, [100])
    h = sine_mode_state(grid16, 1, 3, "v")
    assert ito_variance(P, model, h, [0])[0] == 0.0
    model0 = build_noise_model(grid16, "k^-2", K=12, sigma=0.0)
    assert ito_variance(P, model0, h, [100])[0] == 0.0


def test_variance_scales_with_sigma_squared(g16, grid16):
    P = build_propagator(TractiveForce.zero(), g16, 100, 1e-3)
    h = sine_mode_state(grid16, 1, 3, "v")
    v1, v2 = (ito_variance(P, build_noise_model(grid16, "k^-2", K=12,
                                                sigma=sigma), h, [100])[0]
              for sigma in (1.0, 2.0))
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)
    assert v1 > 0


def _per_time_variance(P, model, h, k):
    """The variance at step k by its own route: walk the truncated chain
    of the first k factors back from t_k and apply `np.trapezoid` to the
    integrand at every node."""
    m = P.g.m
    Pk = PropagatorFactorization(P.dt, P.steps[:k], P.g)
    integrand = []
    for z in Pk.walk(P.g.mh_apply(h.packed()), transpose=True):
        dots = model.e_red.T @ z[m:]
        integrand.append(model.sigma**2 * np.sum(model.q[:, None] * dots**2))
    return float(np.trapezoid(integrand[::-1], dx=P.dt))


@pytest.mark.parametrize("n, stride", [(16, 25), (64, 5)])
def test_variance_sweep_matches_per_time_chains(n, stride):
    """One backward sweep gives every sample time's variance as its own
    truncated chain does, to 1e-11 relative; step 0 gives exactly 0.0,
    and repeated or unsorted steps give the sorted steps' values."""
    grid = build_grid(1.0, n)
    P = build_propagator(TractiveForce(family="bump", c0=1.0, c1=0.3),
                         build_grams(grid, 1.0), 250, 1e-3)
    model = build_noise_model(grid, "k^-2", K=12)
    steps = np.arange(0, P.n_steps + 1, stride)
    for spec in ((1, 3, "v"), (2, 1, "v"), (1, 3, "u")):
        h = sine_mode_state(grid, *spec)
        sweep = ito_variance(P, model, h, steps)
        assert sweep.shape == steps.shape and sweep[0] == 0.0
        oracle = [_per_time_variance(P, model, h, k) for k in steps[1:]]
        np.testing.assert_allclose(sweep[1:], oracle, rtol=1e-11, atol=0.0)
        shuffled = np.concatenate([steps[::-1], steps[1::2]])
        assert np.array_equal(ito_variance(P, model, h, shuffled),
                              np.concatenate([sweep[::-1], sweep[1::2]]))


def test_trace_bound_overflow_is_infinite_without_warning(g16, grid16):
    lam = TractiveForce(family="bump", c0=1.0, c1=0.3)
    P = build_propagator(lam, g16, 100, 1e-3)
    model = build_noise_model(grid16, "k^-2", K=12)
    cst = estimate_constants(lam, g16, 0.0)
    huge = dataclasses.replace(cst, C4=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = trace_condition(P, model, huge)
    assert chk.bound == np.inf
    assert chk.value == trace_condition(P, model).value
