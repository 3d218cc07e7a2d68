"""Per-step factorization of the evolution family and its adjoint."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve, solve_banded
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

from stobeam.errors import (InvalidArgumentError, NonConvergenceError,
                            PreconditionError)
from stobeam.grid import (BeamState, GramSet, build_grams, build_grid,
                          packed_d_norm_sq, packed_h_inner, packed_h_norm)
from stobeam.noise import build_noise_model, ito_variance
from stobeam.operators import (STIFFNESS_BANDWIDTH, TractiveForce, apply_L0,
                               apply_L1, estimate_constants, from_bands,
                               op_norm_H, profile_T, tension_bands, to_bands)
from stobeam import propagator
from stobeam.propagator import (PropagatorFactorization,
                                backward_adjoint_apply,
                                build_propagator, cocycle_defect,
                                duality_defect, generator_residual,
                                picard_evolution, step_rule,
                                _band_factors, _dense_factor,
                                build_banded)
from stobeam.solver import bending_mode_state, sine_mode_state

from conftest import build_T

LAM = TractiveForce(family="bump", c0=1.0, c1=0.3, freq=1.0)


def _generator(g, T):
    """The dense L = L0 + L1 of the weak tractive matrix T (T = 0 gives
    L0): the two generator functions applied to the identity."""
    eye = np.eye(2 * g.m)
    return apply_L0(g, eye) + apply_L1(T, g, eye)


def step_matrix(P, k):
    """The dense (2m)x(2m) map of step k of P: its chain over the one step
    k..k+1, applied to the identity."""
    return P.apply(np.eye(2 * P.g.m), k, k + 1)


def cayley_step(g, T, dt):
    """Step map of the generator of T (T = 0 gives L0) from the banded
    kernel, the step rule of its increment factor materialized on the
    identity."""
    f, = _band_factors(to_bands(g.B - T)[None], g.M, dt)
    return step_matrix(
        PropagatorFactorization(dt=dt, steps=[_dense_factor(f)], g=g), 0)


def _zero(g):
    return np.zeros((g.m, g.m))


def test_cayley_step_trapezoid_identity(g16):
    tmat = build_T(LAM, 0.123, g16)
    dt = 1e-3
    G = cayley_step(g16, tmat, dt)
    lhs = G - np.eye(2 * g16.m)
    rhs = 0.5 * dt * (_generator(g16, tmat) @ (np.eye(2 * g16.m) + G))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(lhs))


def test_cayley_step_of_skew_part_is_isometric(g16):
    G = cayley_step(g16, _zero(g16), 1e-3)
    assert abs(op_norm_H(g16, G) - 1.0) < 5e-12


def _dense_cayley(g, T, dt):
    """The dense construction the banded kernel replaced: one LU of the
    (2m)x(2m) resolvent I - dt/2 L, solved against I + dt/2 L."""
    dim = 2 * g.m
    half = 0.5 * dt * _generator(g, T)
    return lu_solve(lu_factor(np.eye(dim) - half), np.eye(dim) + half)


def _extended_cayley(g, T, dt):
    """The Cayley map of the same float64 generator to about long double
    accuracy: the dense LU solution refined twice with residuals
    evaluated in np.longdouble."""
    dim = 2 * g.m
    mat = _generator(g, T)
    half = 0.5 * dt * mat
    lu = lu_factor(np.eye(dim) - half)
    hl = np.longdouble(0.5) * np.longdouble(dt) * mat.astype(np.longdouble)
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
    tmat = build_T(LAM, 0.123, grams)
    ref = _dense_cayley(grams, tmat, dt)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(cayley_step(grams, tmat, dt) - ref)) <= \
        1e-11 * scale
    # build_propagator takes the O(m) tension bands, not the dense T
    P = build_propagator(LAM, grams, 2, dt)
    mid = _dense_cayley(grams, build_T(LAM, 1.5 * dt, grams), dt)
    assert np.max(np.abs(step_matrix(P, 1) - mid)) <= \
        1e-11 * np.max(np.abs(mid))


def test_step_maps_are_no_less_accurate_than_dense_oracle(grams):
    """Max error against an extended-precision Cayley map of the same
    generator at two step sizes, and the free flow's isometry defect.

    The defect is compared at dt = 1e-3 only: at 4e-3 and n = 64 every
    route's defect, dense included, is within a few times that of the
    extended map rounded to float64, the noise floor of `op_norm_H`.
    """
    tmat = build_T(LAM, 0.123, grams)
    for dt in (1e-3, 4e-3):
        ref = _extended_cayley(grams, tmat, dt)
        assert _max_error(cayley_step(grams, tmat, dt), ref) <= \
            _max_error(_dense_cayley(grams, tmat, dt), ref)
    free = _zero(grams)
    assert abs(op_norm_H(grams, cayley_step(grams, free, 1e-3)) - 1.0) <= \
        abs(op_norm_H(grams, _dense_cayley(grams, free, 1e-3)) - 1.0)


@pytest.mark.parametrize("n", [16, 64])
def test_chained_factors_are_no_less_accurate_than_dense_oracle(n):
    """Over 20 modulated steps the chained factors stay at least as close
    to the chain of extended-precision Cayley maps as the chain of dense
    ones: solve errors do not build up faster step over step."""
    g = build_grams(build_grid(1.0, n), 1.0)
    dt, n_steps = 1e-3, 20
    eye = np.eye(2 * g.m)
    ref, dense = eye.astype(np.longdouble), eye
    for k in range(n_steps):
        tmat = build_T(LAM, (k + 0.5) * dt, g)
        ref = _extended_cayley(g, tmat, dt) @ ref
        dense = _dense_cayley(g, tmat, dt) @ dense
    chained = build_propagator(LAM, g, n_steps, dt).apply(eye)
    assert _max_error(chained, ref) <= _max_error(dense, ref)


def test_transposed_rule_is_the_transposed_map(g16):
    """A step stores one m x m factor, and the transposed rule applies the
    transpose of the map that the forward rule materializes."""
    P = build_propagator(LAM, g16, 2, 1e-3)
    assert all(d.shape == (g16.m, g16.m) for d in P.steps)
    G = step_matrix(P, 1)
    GT = P.apply(np.eye(2 * g16.m), 1, 2, transpose=True)
    assert np.max(np.abs(GT - G.T)) <= 1e-15 * np.max(np.abs(G))


def _uncached_step_rule(d, dt, buf, out, transpose=False):
    """`step_rule` in its uncached form, two `np.array` calls of its
    coefficient rows per step: the oracle of the cached rule."""
    if transpose:
        d, w_rows, out_rows = d.T, [[dt, 2.0]], [[1.0, 0.0, 2.0 / dt],
                                                  [dt, 1.0, 1.0]]
    else:
        w_rows, out_rows = [[2.0, dt]], [[1.0, dt, 1.0], [0.0, 1.0, 2.0 / dt]]
    flat = buf.reshape(3, -1)
    w = out[0]
    np.matmul(np.array(w_rows), flat[:2], out=w.reshape(1, -1))
    np.matmul(d, w, out=buf[2])
    np.matmul(np.array(out_rows), flat, out=out.reshape(2, -1))


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("cols", [3, 34, 768])
def test_step_rule_is_bitwise_its_uncached_form(g16, cols, transpose):
    P = build_propagator(LAM, g16, 2, 1e-3)
    buf = np.random.default_rng(cols).standard_normal((3, g16.m, cols))
    want, got = np.empty((2, 2, g16.m, cols))
    _uncached_step_rule(P.steps[1], P.dt, buf.copy(), want, transpose)
    step_rule(P.steps[1], P.dt, buf.copy(), got, transpose)
    assert np.array_equal(got, want)


def test_step_rule_rows_are_cached_and_read_only():
    for transpose in (False, True):
        rows = propagator._step_rows(1e-3, transpose)
        assert rows is propagator._step_rows(1e-3, transpose)
        for a in rows:
            with pytest.raises(ValueError):
                a[0, 0] = 0.0


def test_tension_bands_are_the_bands_of_build_T(grams):
    bw = STIFFNESS_BANDWIDTH
    for t in (0.0, 0.123, 0.5):
        tmat = build_T(LAM, t, grams)
        assert np.array_equal(tension_bands(LAM, t, grams), to_bands(tmat))
        k = grams.B - tmat
        assert not np.any(np.triu(k, bw + 1)) and not np.any(np.tril(k, -bw - 1))
    # T is tridiagonal: only B's diagonals |d| = 2, 3 catch a strided write
    # that runs past the end of a diagonal, at m = 5 as at the fixture's m
    for g in (grams, build_grams(build_grid(1.0, 4), 1.0)):
        assert np.array_equal(from_bands(to_bands(g.B)), g.B)
    h = 0.5e-3
    k = grams.B - build_T(LAM, 0.123, grams)
    assert np.array_equal(-from_bands(h * h * to_bands(k)), -(h * h) * k)


def _one_solve_factor(kb, mass, dt):
    """D = -h^2 A^-1 K as one dgbtrs solve of the banded LU of A against
    the dense -h^2 K placed from its bands."""
    bw = (kb.shape[0] - 1) // 2
    h = 0.5 * dt
    hk = (h * h) * kb
    ab = np.zeros((3 * bw + 1, mass.size))
    ab[bw:] = hk
    ab[2 * bw] += mass
    lu, piv, _ = dgbtrf(ab, bw, bw)
    return dgbtrs(lu, bw, bw, from_bands(-hk), piv)[0]


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lam", [TractiveForce(family="bump", c0=1.0), LAM],
                         ids=["autonomous", "modulated"])
def test_factors_equal_one_band_solve_bit_for_bit(n, lam):
    """Every factor of a propagator is the one banded solve, bit for bit:
    no refinement or other pass touches it after `dgbtrs`."""
    g = build_grams(build_grid(1.0, n), 1.0)
    dt = 1e-3
    P = build_propagator(lam, g, 4, dt)
    b_bands = to_bands(g.B)
    for k, d in enumerate(P.steps):
        kb = b_bands - tension_bands(lam, (k + 0.5) * dt, g)
        assert np.array_equal(d, _one_solve_factor(kb, g.M, dt))


def _per_step_factor(kb, mass, dt):
    """One factor as the per-step build made it before the set-up was
    batched: A's band and norm, its LU and condition estimate, and the
    solve against the dense -h^2 K placed by `from_bands`, all from the
    bands of one K."""
    bw = (kb.shape[0] - 1) // 2
    h = 0.5 * dt
    hk = (h * h) * kb
    a = hk.copy()
    a[bw] += mass
    ab = np.zeros((3 * bw + 1, mass.size), order="F")
    ab[bw:] = a
    lu, piv, info = dgbtrf(ab, bw, bw, overwrite_ab=1)
    assert info == 0
    assert dgbcon(bw, bw, lu, piv, np.abs(a).sum(axis=0).max())[0] > 1e-13
    return dgbtrs(lu, bw, bw, from_bands(-hk), piv)[0]


def _per_step_factors(lam, g, n_steps, dt):
    """The factors of `build_propagator`, built one step at a time from
    the bands of `tension_bands` at each midpoint: the oracle of the
    batched set-up."""
    b_bands = to_bands(g.B)

    def step(t):
        return _per_step_factor(b_bands - tension_bands(lam, t, g), g.M, dt)

    if lam.autonomous:
        return [step(0.5 * dt)] * n_steps
    return [step((k + 0.5) * dt) for k in range(n_steps)]


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lam", [TractiveForce(family="bump", c0=1.0), LAM],
                         ids=["autonomous", "modulated"])
def test_batched_factors_equal_the_per_step_build(n, lam, monkeypatch):
    """The batched set-up, its bands computed over chunks of steps and
    each factor solved against one reused right-hand side, gives the
    per-step build's factors bit for bit, over 150 steps (more than two
    chunks), and shares one factor when the tension does not vary.  The
    dense chain is the banded chain's factors solved dense, bit for bit,
    and a shared factor is solved once."""
    g = build_grams(build_grid(1.0, n), 1.0)
    assert 2 * propagator.stack_size(to_bands(g.B).nbytes) < 150
    solves = []
    solve = propagator._dense_factor
    monkeypatch.setattr(propagator, "_dense_factor",
                        lambda f: solves.append(f) or solve(f))
    P = build_propagator(lam, g, 150, 1e-3)
    distinct = 1 if lam.autonomous else 150
    assert len(solves) == distinct
    want = _per_step_factors(lam, g, 150, 1e-3)
    assert all(np.array_equal(d, w) for d, w in zip(P.steps, want))
    assert len({id(d) for d in P.steps}) == distinct
    banded = build_banded(lam, g, 150, 1e-3).steps
    assert all(np.array_equal(d, solve(f)) for d, f in zip(P.steps, banded))


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
        _band_factors(kb[None], g16.M, dt)


def test_an_exactly_singular_resolvent_is_refused(g16):
    """A zero pivot of A (node 0 decoupled and its mass cancelled
    exactly: h^2 = 2^-20) warns and is refused as a non-finite factor
    when its banded factor is built, before any solve divides by it."""
    dt = 2.0 ** -9
    bw = STIFFNESS_BANDWIDTH
    kb = to_bands(g16.B)
    kb[bw, 0] = -g16.M[0] * 2.0 ** 20
    for d in range(1, bw + 1):
        kb[bw - d, d] = kb[bw + d, 0] = 0.0
    with pytest.warns(UserWarning, match=r"rcond=0\.00e\+00"), \
            pytest.raises(InvalidArgumentError, match="non-finite"):
        _band_factors(kb[None], g16.M, dt)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lam", [TractiveForce(family="bump", c0=1.0), LAM],
                         ids=["autonomous", "modulated"])
def test_banded_chain_steps_transposed_as_the_dense_one(n, lam):
    """A banded chain shares its factors as the dense chain does, over
    more than two stacks of bands; its transposed steps agree with the
    dense ones to rounding, and it refuses to step forward."""
    g = build_grams(build_grid(1.0, n), 1.0)
    banded = build_banded(lam, g, 150, 1e-3)
    want = build_propagator(lam, g, 150, 1e-3)
    assert len({id(d) for d in banded.steps}) == \
        len({id(d) for d in want.steps}) == (1 if lam.autonomous else 150)
    eye = np.eye(2 * g.m)
    ref = want.apply(eye, 140, 150, transpose=True)
    err = np.abs(banded.apply(eye, 140, 150, transpose=True) - ref)
    assert np.max(err) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(InvalidArgumentError, match="transposed only"):
        banded.apply(eye, 0, 1)


def _extended_variance(g, model, h, n_steps, dt, steps):
    """`ito_variance`'s quadrature over an extended-precision transposed
    Cayley walk of LAM: each step's G^T z = (I + hL)^T (I - hL)^-T z
    solved against the float64 LU of (I - hL)^T and refined twice with
    residuals in np.longdouble, as `_extended_cayley` refines the map."""
    m, k = g.m, np.asarray(steps)
    eye = np.eye(2 * m, dtype=np.longdouble)
    z = np.zeros((2 * m, 3, len(k)), dtype=np.longdouble)
    mh = g.mh_apply(h.packed()).astype(np.longdouble)
    e, q = model.e_red.astype(np.longdouble), model.q.astype(np.longdouble)
    acc = np.zeros(len(k), dtype=np.longdouble)
    f1 = np.zeros_like(acc)
    for j in range(n_steps, -1, -1):
        z[..., k == j] = mh[..., None]
        dots = np.einsum("ik,icn->kcn", e, z[m:])
        f = model.sigma ** 2 * np.einsum("k,kcn->n", q, dots * dots)
        acc += (j < k) * (np.longdouble(dt) * (f + f1) / 2)
        f1 = f
        if j == 0:
            break
        mat = _generator(g, build_T(LAM, (j - 0.5) * dt, g))
        hl = np.longdouble(0.5) * np.longdouble(dt) * \
            mat.astype(np.longdouble)
        lu = lu_factor((np.eye(2 * m) - 0.5 * dt * mat).T)
        flat = z.reshape(2 * m, -1)
        y = lu_solve(lu, flat.astype(float)).astype(np.longdouble)
        for _ in range(2):
            y += lu_solve(lu, (flat - (eye - hl).T @ y).astype(float))
        z = ((eye + hl).T @ y).reshape(z.shape)
    return acc


@pytest.mark.parametrize("n", [16, 64])
def test_banded_sweep_is_no_less_accurate_than_dense(n):
    """The Ito quadrature of a banded chain's transposed sweep lies within
    twice the dense chain's error of an extended-precision walk, over
    100 steps of the bump tension, at the worst of three sample steps.
    Measured, relative: 2.1e-14 against 2.1e-14 at n = 16, and 4.9e-12
    against 4.6e-12 at n = 64."""
    g = build_grams(build_grid(1.0, n), 1.0)
    model = build_noise_model(g.grid, "k^-2", 12, sigma=1.0)
    h = sine_mode_state(g.grid, 1, 3, "v")
    steps, dt = [25, 60, 100], 1e-3
    ref = _extended_variance(g, model, h, 100, dt, steps)
    errs = [float(np.max(np.abs(ito_variance(build(LAM, g, 100, dt), model,
                                             h, steps) - ref) / ref))
            for build in (build_banded, build_propagator)]
    assert errs[0] <= 2 * errs[1], errs


def test_cayley_step_rejects_a_zero_step(g16):
    with pytest.raises(InvalidArgumentError):
        cayley_step(g16, _zero(g16), 0.0)


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
    P = build_propagator(TractiveForce(family="bump", c0=1.0), g16, 10, 1e-2)
    assert P.n_steps == 10
    assert all(s is P.steps[0] for s in P.steps)
    Pt = build_propagator(LAM, g16, 10, 1e-2)
    assert Pt.steps[0] is not Pt.steps[1]


def test_unmodulated_tabulated_profile_shares_steps(g16):
    table = TractiveForce(family="bump", c0=1.0).node_values(0.0, g16.grid)
    lam = TractiveForce(family="tabulated", table=table, c0=2.0, c1=0.0)
    assert lam.autonomous
    P = build_propagator(lam, g16, 10, 1e-2)
    assert all(s is P.steps[0] for s in P.steps)


def test_factorization_guards(g16, monkeypatch):
    """A band with an infinite entry is refused where its factor is built:
    in the one factor that an autonomous family shares, and in the last of
    many distinct factors of a modulated one.  It is refused before the
    LU, with no advice to reduce dt."""
    real = propagator.tension_bands
    times = []

    def infinite_last(lam, t, g):
        times.extend(t)
        bands = real(lam, t, g)
        if lam.autonomous or t[-1] > 0.39:  # the last of 40 midpoints: 0.395
            bands[-1, STIFFNESS_BANDWIDTH, 0] = np.inf
        return bands

    monkeypatch.setattr(propagator, "tension_bands", infinite_last)
    for lam, built in ((TractiveForce(family="bump", c0=1.0), 1), (LAM, 40)):
        # the banded chain refuses it as the dense one does
        for build in (build_propagator, build_banded):
            times.clear()
            with pytest.raises(InvalidArgumentError, match="non-finite"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                build(lam, g16, 40, 1e-2)
            assert len(times) == built


def test_windows_are_step_ranges_within_the_grid(g16, grid16):
    """A window is a range 0 <= i0 <= i1 <= n_steps of step indices, and a
    variance sample step lies in 0..n_steps; one outside is refused, where
    a negative index would otherwise wrap round to the last step factors
    or give a silent zero variance.  `walk` refuses it on its first
    `next`, either way."""
    P = build_propagator(LAM, g16, 10, 1e-2)
    assert np.array_equal(P.times, 1e-2 * np.arange(11))
    y = np.ones((2 * g16.m, 3))
    for i0, i1 in ((-1, 10), (0, 11), (6, 5)):
        for transpose in (False, True):
            with pytest.raises(InvalidArgumentError):
                P.apply(y, i0, i1, transpose)
            walk = P.walk(y, i0, i1, transpose)
            with pytest.raises(InvalidArgumentError):
                next(walk)
    model = build_noise_model(grid16, "k^-2", K=12)
    h = sine_mode_state(grid16, 1, 3, "v")
    for k in (-1, 11):
        with pytest.raises(InvalidArgumentError):
            ito_variance(P, model, h, [0, k])


def test_apply_matches_matrix(g16):
    P = build_propagator(LAM, g16, 5, 1e-2)
    rng = np.random.default_rng(8)
    y = rng.standard_normal((2 * g16.m, 3))
    G = [step_matrix(P, k) for k in range(P.n_steps)]
    full = np.linalg.multi_dot(G[::-1])
    window = G[3] @ G[2] @ G[1]
    assert np.allclose(P.apply(y), full @ y, atol=1e-12)
    assert np.allclose(P.apply(y, 1, 4), window @ y, atol=1e-12)


@pytest.mark.parametrize("transpose", [False, True])
def test_walk_steps_what_is_written_into_its_states(g16, transpose):
    """An array written into the latest state of `walk` is the input of
    the next step, both ways: each state is `step_rule` applied by hand to
    the one before it, write included, bit for bit, in reversed step order
    when transposed (as `ito_variance` writes into its states).  The walk
    starts from a broadcast block, as the solver's kernel hands it one."""
    P = build_propagator(LAM, g16, 4, 1e-2)
    m = g16.m
    x = np.random.default_rng(10).standard_normal((2 * m, 3, 1))
    y = np.broadcast_to(x, (2 * m, 3, 2))
    walk = P.walk(y, transpose=transpose)
    cur = next(walk)
    assert np.array_equal(cur, y)
    order = range(P.n_steps)
    for k in reversed(order) if transpose else order:
        cur[m:] += 1.0 + k  # a load on the velocity rows
        buf = np.zeros((3, m, 6))
        buf[:2] = cur.reshape(2, m, -1)
        want = np.empty((2, m, 6))
        step_rule(P.steps[k], P.dt, buf, want, transpose)
        cur = next(walk)
        assert np.array_equal(cur, want.reshape(y.shape))
    assert not np.allclose(cur, P.apply(y, transpose=transpose))
    assert next(walk, None) is None


def test_identity_and_cocycle_are_exact(g16):
    P = build_propagator(LAM, g16, 50, 2e-3)
    rng = np.random.default_rng(9)
    y = rng.standard_normal((2 * g16.m, 3))
    for i in (0, 25, 50):
        assert np.array_equal(P.apply(y, i, i), y)
    assert cocycle_defect(P, 0, 20, 50) == 0.0


def test_generator_residual_starts_at_zero(g16):
    P = build_propagator(LAM, g16, 50, 1e-3)
    w = bending_mode_state(g16, 1)
    r = generator_residual(P, LAM, w)
    assert r[0] == 0.0
    assert np.max(np.abs(r)) < 1e-5
    assert len(r) == P.n_steps + 1


def _per_state_residual(P, lam, w):
    """`generator_residual` as the per-state loop its stacked passes
    replaced: L, the trapezoid and the H-norm evaluated state by state
    along the walk."""
    g = P.g
    x0 = w.packed()
    tp = profile_T(lam, g)
    integral = np.zeros_like(x0)
    values, y_prev = [], None
    for t, cur in zip(P.times, P.walk(x0)):
        y = apply_L0(g, cur) + lam.c(float(t)) * apply_L1(tp, g, cur)
        if values:
            integral = integral + 0.5 * P.dt * (y_prev + y)
        r = cur - x0 - integral
        values.append(float(np.sqrt(max(packed_h_inner(r, r, g), 0.0))))
        y_prev = y
    return np.array(values)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lam", [TractiveForce(family="bump", c0=1.0), LAM],
                         ids=["autonomous", "modulated"])
def test_stacked_residual_equals_the_per_state_loop(n, lam):
    """The residual's stacked passes give the per-state loop's norms bit
    for bit, on walks shorter than one stack and across stacks."""
    g = build_grams(build_grid(1.0, n), 1.0)
    w = bending_mode_state(g, 1)
    size = propagator.stack_size(w.packed().nbytes)
    assert size < 201
    for n_steps, dt in ((200, 1e-3), (100, 2e-3), (size, 1e-3), (7, 1e-3)):
        P = build_propagator(lam, g, n_steps, dt)
        assert np.array_equal(generator_residual(P, lam, w),
                              _per_state_residual(P, lam, w))


def test_generator_residual_needs_domain_data(g16, grid16):
    P = build_propagator(LAM, g16, 50, 1e-3)
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((grid16.n + 2, 3))
    vals[-1] = 0.0
    with pytest.raises(PreconditionError):
        generator_residual(P, LAM, BeamState(grid16, vals, np.zeros_like(vals)))


def test_duality_identity(g16):
    P = build_propagator(LAM, g16, 50, 2e-3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal((2 * g16.m, 3))
        y = rng.standard_normal((2 * g16.m, 3))
        assert duality_defect(P, x, y) < 1e-11
        assert duality_defect(P, x, y, 10, 40) < 1e-11


def test_adjoint_factorization_pairing(g16):
    P = build_propagator(LAM, g16, 50, 2e-3)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2 * g16.m, 3))
    y = rng.standard_normal((2 * g16.m, 3))
    lhs = float(np.sum(P.apply(x) * g16.mh_apply(y)))
    rhs = float(np.sum(x * g16.mh_apply(P.apply_adjoint(y))))
    scale = packed_h_norm(x, g16) * packed_h_norm(y, g16)
    assert abs(lhs - rhs) < 1e-10 * scale


def test_backward_integration_free_flow_matches_transpose(g16):
    lam0 = TractiveForce.zero()
    P = build_propagator(lam0, g16, 50, 1e-3)
    rng = np.random.default_rng(13)
    y = rng.standard_normal((2 * g16.m, 3))
    y /= packed_h_norm(y, g16)
    ref = P.apply_adjoint(y)
    bwd = backward_adjoint_apply(lam0, g16, y, 50, 1e-3)
    assert packed_h_norm(ref - bwd, g16) < 1e-10


def test_backward_integration_solves_only_state_columns(monkeypatch):
    """The backward march applies C_j v = B^-1 (T_j v) - v to its (m, 3)
    state: every Gram solve has at most 3 right-hand sides, and at 200
    steps its peak stays below two dense (2m)x(2m) matrices."""
    g = build_grams(build_grid(1.0, 64), 1.0)
    y = bending_mode_state(g, 1).packed()
    shapes = []
    solve = GramSet.B_solve

    def recorded(self, rhs):
        shapes.append(np.shape(rhs))
        return solve(self, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(GramSet, "B_solve", recorded)
        backward_adjoint_apply(LAM, g, y, 200, 1e-3)
    assert len(shapes) == 400
    assert max(shape[1] for shape in shapes) <= 3
    tracemalloc.start()
    try:
        backward_adjoint_apply(LAM, g, y, 200, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * g.m) ** 2 * 8


def test_backward_integration_solves_as_solve_banded(g16, monkeypatch):
    """Each banded solve of the backward march, LAPACK gbsv called
    directly, returns the bits of `scipy.linalg.solve_banded` on the same
    band and right-hand side."""
    gbsv, same = propagator._gbsv, []

    def checked(kl, ku, ab, b, **kwargs):
        want = solve_banded((kl, ku), ab[kl:], b)  # before gbsv overwrites
        out = gbsv(kl, ku, ab, b, **kwargs)
        same.append(np.array_equal(out[2], want))
        return out

    monkeypatch.setattr(propagator, "_gbsv", checked)
    backward_adjoint_apply(LAM, g16, bending_mode_state(g16, 1).packed(), 20,
                           1e-3)
    assert same == [True] * 20


def test_cocycle_rejects_misordered_times(g16):
    P = build_propagator(LAM, g16, 50, 2e-3)
    with pytest.raises(InvalidArgumentError):
        cocycle_defect(P, 25, 0, 50)


def _free(g, n_steps, dt):
    """The zero-tension propagator that Picard takes as its free flow."""
    return build_propagator(TractiveForce.zero(), g, n_steps, dt)


def test_picard_requires_contraction_margin(g16):
    w = bending_mode_state(g16, 1)
    cst = estimate_constants(LAM, g16, 0.1)
    with pytest.raises(PreconditionError):
        picard_evolution(LAM, _free(g16, 100, 1e-3), w, alpha=0.5,
                         constants=cst)


def test_picard_rejects_rough_initial_data(g16, grid16):
    rng = np.random.default_rng(14)
    vals = rng.standard_normal((grid16.n + 2, 3))
    vals[-1] = 0.0
    w = BeamState(grid16, vals, np.zeros_like(vals))
    with pytest.raises(PreconditionError):
        picard_evolution(LAM, _free(g16, 100, 1e-3), w)


def test_picard_nonconvergence_reports(g16, monkeypatch):
    monkeypatch.setattr(propagator, "_PICARD_TOL", 1e-30)
    monkeypatch.setattr(propagator, "_PICARD_MAX_ITER", 2)
    w = bending_mode_state(g16, 1)
    with pytest.raises(NonConvergenceError):
        picard_evolution(LAM, _free(g16, 100, 1e-3), w)


def test_picard_holds_no_dense_tractive_generators():
    """Picard keeps one profile block M^-1 T_p and the modulations
    c(t_j), not a per-time stack: at n = 64 and 200 steps its peak stays
    below the size of a stack of the m x m blocks M^-1 T(t_j) alone
    (6.48 MiB), itself a quarter of a stack of dense (2m)x(2m) L1(t_j)."""
    g = build_grams(build_grid(1.0, 64), 1.0)
    w = bending_mode_state(g, 1)
    n_steps = 200
    S = _free(g, n_steps, 1e-3)
    tracemalloc.start()
    try:
        picard_evolution(LAM, S, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n_steps + 1) * g.m ** 2 * 8, peak


@pytest.mark.parametrize("n", [16, 64])
def test_picard_without_tension_is_the_free_flow(n):
    """With no tractive term the first sweep leaves the free flow as it
    is, and the fixed point is the free propagator's chain itself, bit
    for bit."""
    g = build_grams(build_grid(1.0, n), 1.0)
    w = bending_mode_state(g, 1)
    P0 = _free(g, 100, 1e-3)
    pr = picard_evolution(TractiveForce.zero(), P0, w)
    assert pr.iterations == 1
    assert np.array_equal(pr.final, P0.apply(w.packed()))


def test_picard_steps_only_through_the_step_rule(g16, monkeypatch):
    """Picard walks the free propagator's chain: one walk for the free
    flow and one per sweep, each step one `step_rule` call."""
    calls = []
    rule = propagator.step_rule

    def counted(*args, **kwargs):
        calls.append(1)
        rule(*args, **kwargs)

    S = _free(g16, 100, 1e-3)
    monkeypatch.setattr(propagator, "step_rule", counted)
    pr = picard_evolution(LAM, S, bending_mode_state(g16, 1))
    assert pr.iterations > 1
    assert len(calls) == (pr.iterations + 1) * 100


def _dense_picard(lam, g, w, n_steps, dt, alpha):
    """Picard's sweeps as the dense recurrence acc_j = S acc_{j-1} +
    (S g_{j-1} + g_j) / 2, two (2m)x(2m) products per step, with S the
    free step map materialized on the identity.  Returns the final state
    and the defects."""
    m = g.m
    P0 = build_propagator(TractiveForce.zero(), g, n_steps, dt)
    S = P0.apply(np.eye(2 * m), 0, 1)
    mt = profile_T(lam, g) / g.M[:, None]
    c = np.array([lam.c(j * dt) for j in range(n_steps + 1)])
    flow = np.empty((n_steps + 1, 2 * m, 3))
    flow[0] = w.packed()
    for j in range(n_steps):
        flow[j + 1] = S @ flow[j]
    weights = np.exp(-alpha * dt * np.arange(n_steps + 1))
    u, defects = flow, []
    for _ in range(propagator._PICARD_MAX_ITER):
        gj = np.zeros_like(u)
        for j in range(n_steps + 1):
            gj[j, m:] = c[j] * (mt @ u[j, :m])
        new = flow.copy()
        acc = np.zeros((2 * m, 3))
        for j in range(1, n_steps + 1):
            acc = S @ acc + 0.5 * (S @ gj[j - 1] + gj[j])
            new[j] += dt * acc
        defects.append(max(np.sqrt(packed_d_norm_sq(new[j] - u[j], g))
                           * weights[j] for j in range(n_steps + 1)))
        u = new
        if defects[-1] <= propagator._PICARD_TOL:
            break
    return u[-1], defects


@pytest.mark.parametrize("n", [16, 64])
def test_picard_matches_the_dense_step_recurrence(n):
    """The walked sweeps agree with the dense two-product recurrence they
    replaced: measured gaps of 9.3e-13 (n = 16) and 1.7e-11 (n = 64) for
    the final state, and at most 1.1e-8 for the first two defects, which
    the rounding of the walk moves relative to the dense products."""
    g = build_grams(build_grid(1.0, n), 1.0)
    w = bending_mode_state(g, 1)
    pr = picard_evolution(LAM, _free(g, 100, 1e-3), w)
    final, defects = _dense_picard(LAM, g, w, 100, 1e-3, pr.alpha)
    assert np.max(np.abs(pr.final - final)) <= 1e-10 * np.max(np.abs(final))
    assert np.allclose(pr.defects[:2], defects[:2], rtol=1e-6, atol=0.0)
