import ast
import collections
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stobeam import grid, operators, propagator, solver, verify
from stobeam.cli import main
from stobeam.config import parse_config
from stobeam.errors import StobeamError
from stobeam.noise import ito_variance
from stobeam.operators import TractiveForce, apply_L1, op_norm_H
from stobeam.solver import build_scene, sine_mode_state
from stobeam.verify import (_result, check_trace_bound,
                            free_variance_closed_form, run_checks)

from conftest import build_T

SMALL = """
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.1
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
"""


def _default_text(edits):
    """configs/default.cfg with the `key = value` lines of `edits`
    replaced."""
    text = (Path(__file__).resolve().parents[1] / "configs" /
            "default.cfg").read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}",
                              text, flags=re.M)
        assert count == 1, key
    return text


def test_check_result_status():
    assert _result("x", 1.0, 1.0).status == "pass"
    assert _result("x", None, 1.0, skip=True).status == "skip"
    assert _result("x", 2.0, 1.0).status == "fail"


def test_suite_green_on_well_posed_config():
    results = run_checks(parse_config(SMALL))
    failed = [r.name for r in results if r.status == "fail"]
    assert failed == []
    names = {r.name for r in results}
    # a few checks that must be present
    for expected in ("skew_adjoint", "norm_identity", "propagator_cocycle",
                     "trace_identity", "picard_agreement", "bc_conformity"):
        assert expected in names


def test_generator_integral_orders_clear_the_rounding_floor():
    """On the n = 8 grid of the CLI tests both Richardson orders read
    second order, well clear of the check's 1.8 threshold: the finest
    probe is not at the rounding floor."""
    tiny = (SMALL.replace("grid.n = 16", "grid.n = 8")
            .replace("time.T = 0.1", "time.T = 0.02")
            .replace("time.dt = 0.001", "time.dt = 0.005")
            .replace("noise.K = 12", "noise.K = 6")
            .replace("lambda.c1 = 0.3", "lambda.c1 = 0.2"))
    res = verify.check_generator_integral(build_scene(parse_config(tiny)))
    assert res.status == "pass" and res.threshold == 1.8
    orders = [float(o) for o in re.findall(r"'(\d\.\d+)'", res.note)]
    assert len(orders) == 2 and min(orders) >= 1.95, res.note
    assert res.defect >= 1.95


@pytest.mark.parametrize("horizon", ["0.001", "0.01"])
def test_generator_integral_probe_ignores_a_short_horizon(horizon):
    """The identity belongs to L(t), not to the run: a horizon of one or
    ten steps still probes the window [0, 0.2] at second order, where a
    probe clamped to the horizon would sit at the rounding floor."""
    cfg = parse_config(SMALL.replace("time.T = 0.1", f"time.T = {horizon}"))
    res = verify.check_generator_integral(build_scene(cfg))
    assert res.status == "pass" and res.threshold == 1.8
    assert res.defect >= 1.95, res.note


def test_suite_skips_noise_checks_when_deterministic():
    results = run_checks(parse_config(SMALL.replace("noise.sigma = 1.0",
                                                    "noise.sigma = 0.0")))
    by_name = {r.name: r for r in results}
    assert by_name["trace_identity"].status == "skip"
    assert by_name["ito_quadrature"].status == "skip"
    assert by_name["noise_orthonormality"].status == "skip"
    assert all(r.status != "fail" for r in results)


def test_suite_flags_broken_tension_table():
    table = ",".join(["0.5"] + ["0.1"] * 16 + ["0.0"])
    cfg_text = SMALL.replace(
        "lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.3",
        f"lambda.family = tabulated\nlambda.table = {table}")
    with pytest.warns(UserWarning):
        results = run_checks(parse_config(cfg_text))
    by_name = {r.name: r for r in results}
    assert by_name["tractive_invariants"].status == "fail"


def test_suite_flags_a_tension_negative_between_samples():
    """c(t) = 0.5 + sin(48 pi t) dips to -0.5 at its troughs, where the
    bump profile (max 0.0621 at the nodes) turns negative by 0.0310; at
    t = k/6 the modulation is 0.5, so a sampled check saw only the
    near-flat ends (1e-12 next to each end, slope 8.5e-12)."""
    table = TractiveForce(family="bump").node_values(
        0.0, grid.build_grid(1.0, 16))
    table[1] = table[-2] = 1e-12
    cfg_text = SMALL.replace("time.T = 0.1", "time.T = 1.0").replace(
        "lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.3",
        "lambda.family = tabulated\nlambda.c0 = 0.5\nlambda.c1 = 1.0\n"
        "lambda.freq = 24.0\nlambda.table = "
        + ",".join(repr(float(v)) for v in table))
    by_name = {r.name: r for r in run_checks(parse_config(cfg_text))}
    res = by_name["tractive_invariants"]
    assert res.status == "fail"
    assert res.defect == pytest.approx(0.5 * max(table), rel=1e-12)
    assert round(res.defect, 4) == 0.0310


def test_closed_form_variance_matches_quadrature():
    """Two independent routes to the same Ito integral: backward premetric
    quadrature against the eigenmode rotation sum."""
    cfg = parse_config(SMALL.replace("lambda.family = bump",
                                     "lambda.family = zero"))
    sc = build_scene(cfg)
    for mode, ch in ((1, 3), (2, 1)):
        h = sine_mode_state(sc.grid, mode, ch, "v")
        quads = ito_variance(sc.P, sc.model, h, [100, 50])
        for k, quad in zip((100, 50), quads):
            closed = free_variance_closed_form(sc, h, k, cfg.dt)
            assert quad == pytest.approx(closed, rel=1e-8)


def test_closed_form_variance_handles_displacement_parts():
    cfg = parse_config(SMALL.replace("lambda.family = bump",
                                     "lambda.family = zero"))
    sc = build_scene(cfg)
    h = sine_mode_state(sc.grid, 1, 3, "u")
    quad = ito_variance(sc.P, sc.model, h, [sc.P.n_steps])[0]
    closed = free_variance_closed_form(sc, h, 100, cfg.dt)
    assert quad == pytest.approx(closed, rel=1e-8)
    assert closed > 0.0


def test_trace_bound_uses_the_scene_growth_constant():
    """b = 1, T = 1, c0 = c1 = 200, freq = 20: a healthy run whose trace
    integral exceeds the C4 = 0 value by about 14 %."""
    cfg = parse_config(SMALL.replace("time.T = 0.1", "time.T = 1.0")
                       .replace("lambda.c0 = 1.0", "lambda.c0 = 200.0")
                       .replace("lambda.c1 = 0.3", "lambda.c1 = 200.0\n"
                                "lambda.freq = 20.0"))
    res = check_trace_bound(build_scene(cfg))
    assert res.status == "pass"
    flat_ratio = float(res.note.rsplit(None, 1)[-1])
    assert 1.1 < flat_ratio < 1.2


def test_verify_estimates_the_constants_once_per_scene(monkeypatch):
    calls = []
    estimate = operators.estimate_constants

    def counted(*args, **kwargs):
        calls.append(args[2])
        return estimate(*args, **kwargs)

    for module in (operators, propagator, solver, verify):
        monkeypatch.setattr(module, "estimate_constants", counted)
    run_checks(parse_config(SMALL))
    # one scene-wide estimate over [0, T] = [0, 0.1], shared by
    # tractive_norm_bound, growth_bound and trace_bound; the two Picard
    # checks estimate over their own fixed windows, 0.1 and 0.2
    assert sorted(calls) == [0.1, 0.1, 0.2]


@pytest.mark.parametrize("freq, c1, T", [(20.0, 1.0, 1.0), (7.0, 0.9, 0.25)])
def test_constants_read_the_crest_between_samples(freq, c1, T):
    """c(t) = 1 + c1 sin(2 pi freq t) peaks at 1 + c1 on its first crest
    t = 1/(4 freq).  Eleven even samples of [0, T] all hit sin = 0 at
    freq 20, T = 1, and miss the crest by 0.58 % at freq 7, T = 0.25."""
    sc = build_scene(parse_config(_default_text(
        {"lambda.freq": freq, "lambda.c1": c1, "time.T": T})))
    eye = np.eye(2 * sc.g.m)
    l1 = apply_L1(build_T(sc.lam, 1.0 / (4.0 * freq), sc.g), sc.g, eye)
    assert sc.constants.C4_numeric == pytest.approx(
        op_norm_H(sc.g, l1), rel=1e-12, abs=0.0)
    assert sc.constants.C4_formula == pytest.approx(
        (1.0 + c1) * np.sqrt(8.0 / 105.0), rel=1e-12, abs=0.0)


def test_zero_tension_default_config_passes_every_check(tmp_path, capsys):
    """configs/default.cfg with lambda.family = zero: C4 = 0 makes the
    growth bound of the trace integral its exact value, which the
    quadrature meets to rounding; Picard reaches its fixed point in one
    sweep and the variance quadrature runs on the 0.1 prefix of the
    scene's own chain."""
    text = _default_text({"lambda.family": "zero"})
    results = {r.name: r for r in run_checks(parse_config(text))}
    assert [r.name for r in results.values() if r.status == "fail"] == []
    assert results["trace_bound"].status == "pass"
    assert results["picard_agreement"].status == "pass"
    assert "after 1 sweeps" in results["picard_agreement"].note
    assert results["picard_contraction"].status == "skip"
    assert results["ito_quadrature"].status == "pass"
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(text)
    assert main(["trace-check", "--config", str(cfg_path)]) == 0
    assert "violated" not in capsys.readouterr().err


def test_cocycle_splits_the_chain_on_a_two_step_run(monkeypatch):
    """At T = 2 dt the check still splits the chain at an interior step,
    so a propagator whose windows from a later step are wrong fails it;
    a one-step run has no interior step and is skipped."""
    sc = build_scene(parse_config(_default_text({"time.T": "0.002"})))
    assert sc.P.n_steps == 2
    assert verify.check_propagator_cocycle(sc).status == "pass"
    apply = sc.P.apply

    def perturbed(y, i0=0, i1=None):
        out = apply(y, i0, i1)
        return out * (1.0 + 1e-6) if i0 > 0 else out

    monkeypatch.setattr(sc.P, "apply", perturbed)
    assert verify.check_propagator_cocycle(sc).status == "fail"
    one = build_scene(parse_config(_default_text({"time.T": "0.001"})))
    assert verify.check_propagator_cocycle(one).status == "skip"


@pytest.mark.parametrize("n", [32, 64])
def test_adjoint_and_contraction_pass_on_finer_grids(n):
    """Both checks stay above their rounding floors when only grid.n
    grows: the adjoint probe is a smooth mode, and the contraction ratios
    are counted only above a floor that grows with the grid."""
    sc = build_scene(parse_config(_default_text({"grid.n": str(n)})))
    adjoint = verify.check_adjoint_backward(sc)
    assert adjoint.status == "pass" and adjoint.defect > 1.9, adjoint.note
    contraction = verify.check_picard_contraction(sc)
    assert contraction.status == "pass", contraction.note
    assert "over 3 sweeps" in contraction.note


def test_a_check_that_raises_fails_and_the_suite_goes_on(monkeypatch,
                                                        tmp_path, capsys):
    """A check that raises a package error is reported as failed with the
    error text and no numbers, the checks after it still run, and the
    command prints its line with '-' for both numbers and exits 1."""
    def check_duality(scene):
        raise StobeamError("duality probe refused")

    names = [c.__name__.replace("check_", "") for c in verify._CHECKS]
    i = names.index("duality")
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS[:i] +
                        [check_duality] + verify._CHECKS[i + 1:])
    results = run_checks(parse_config(SMALL))
    assert [r.name for r in results] == names
    assert results[i] == verify.CheckResult("duality", "fail", None, None,
                                            "duality probe refused")
    assert [r.name for r in results if r.status == "fail"] == ["duality"]
    assert all(r.defect is not None for r in results[i + 1:]
               if r.status != "skip")
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL)
    assert main(["verify", "--config", str(cfg_path)]) == 1
    width = max(map(len, names))
    captured = capsys.readouterr()
    assert (f"FAIL {'duality':<{width}}  defect -  threshold -  "
            "(duality probe refused)") in captured.out.splitlines()
    assert "failed checks: duality" in captured.err


def test_picard_contraction_fails_when_c5_understates_the_map(monkeypatch):
    """The weight alpha = 2 C5 is too small for a map whose tractive term
    is 300 times the one C5 was estimated for: successive defects shrink
    by a factor of up to 0.86, above the C5/alpha + 0.1 = 0.6 the check
    allows.  (Scaling C5 itself down does not fail the check: on the 0.2
    window the sweeps converge faster than any alpha predicts.)"""
    profile_t = propagator.profile_T

    def amplified(*args):
        return 300.0 * profile_t(*args)

    monkeypatch.setattr(propagator, "profile_T", amplified)
    res = verify.check_picard_contraction(
        build_scene(parse_config(_default_text({}))))
    assert res.status == "fail" and res.defect > 0.8, res.note


def test_picard_contraction_skips_without_a_ratio(monkeypatch):
    """Sweeps that reach the rounding floor at once leave no defect ratio
    to judge, and the check is skipped, not passed."""
    evolve = verify.picard_evolution

    def one_sweep(*args, **kwargs):
        pr = evolve(*args, **kwargs)
        return replace(pr, defects=pr.defects[:1])

    monkeypatch.setattr(verify, "picard_evolution", one_sweep)
    res = verify.check_picard_contraction(
        build_scene(parse_config(_default_text({}))))
    assert res.status == "skip"
    assert res.note == "converged too fast to measure a ratio"


def test_verify_factor_builds_per_step_size(monkeypatch):
    """One suite on configs/default.cfg builds 475 step factors: the
    scene's 250 at dt = 0.001, of which `generator_integral`,
    `adjoint_backward` and `picard_agreement` walk prefixes; 50 at 0.2/50
    and 100 at 0.2/100 for `generator_integral`; 50 more at 0.1/50 ==
    0.2/100 for `adjoint_backward`; one free-flow factor each for both
    Picard checks, `trace_identity` and `ito_quadrature`; and 21 in the
    scenes of `bc_conformity` and `weak_identity_null`.  A scene keeps
    no probe factor, so a check that needs one builds it: the per-scene
    store this replaces built 422, and 53 of these builds are what it
    saved.  The batched set-up builds a stack of bands' factors in one
    call, so each call counts its stack."""
    dts = []
    build = propagator._factors_from_bands

    def counted(kb, mass, dt):
        dts.extend([dt] * len(kb))
        return build(kb, mass, dt)

    monkeypatch.setattr(propagator, "_factors_from_bands", counted)
    run_checks(parse_config(_default_text({})))
    assert collections.Counter(dts) == {0.001: 275, 0.2 / 50: 50,
                                        0.2 / 100: 150}


@pytest.mark.parametrize("text", [_default_text({}), SMALL],
                         ids=["default", "small"])
def test_store_propagators_equal_fresh_builds(monkeypatch, text):
    """Every propagator a check gets from `Scene.propagator`, a prefix
    of the scene's P or a fresh build, equals a fresh `build_propagator`
    of the scene's tension with the horizon lifted, n_steps and dt, step
    by step.  On SMALL (T = 0.1) the 200-step probe of
    `generator_integral` runs past the scene's horizon, so it is built
    afresh.  Free flows are fresh builds of the zero tension and do not
    ask, so a suite makes 6 requests."""
    got = []
    request = solver.Scene.propagator

    def recorded(scene, n_steps, dt):
        P = request(scene, n_steps, dt)
        got.append((scene, P))
        return P

    monkeypatch.setattr(solver.Scene, "propagator", recorded)
    run_checks(parse_config(text))
    assert len(got) == 6
    for scene, P in got:
        lam = replace(scene.lam, horizon=None)
        fresh = propagator.build_propagator(lam, scene.g, P.n_steps, P.dt)
        assert P.dt == fresh.dt and P.n_steps == fresh.n_steps
        assert all(np.array_equal(a, b) for a, b in zip(P.steps, fresh.steps))
    past = [P.n_steps for scene, P in got if P.n_steps > scene.P.n_steps]
    assert past == ([200] if text == SMALL else [])


@pytest.mark.parametrize("horizon", ["0.001", "0.002"])
def test_suite_passes_on_runs_of_one_and_two_steps(horizon):
    """Every probe of L(t) spans its fixed window whatever the horizon: with
    the windows clamped to T, `adjoint_backward` read its order from
    defects at the rounding floor (1.6e-13 to 4.6e-13) and failed on these
    runs."""
    results = run_checks(parse_config(_default_text({"time.T": horizon})))
    assert [r.name for r in results if r.status == "fail"] == []
    adjoint = next(r for r in results if r.name == "adjoint_backward")
    assert adjoint.defect > 1.9, adjoint.note


def test_picard_checks_do_not_depend_on_the_horizon():
    """Both Picard checks probe fixed windows of the lifted tension, on
    factors of the same bits whether they are a prefix of the scene's P
    or a fresh build, so a run of one step, of 0.1 and of 0.25 reports
    the same sweeps, alpha and defects."""
    by_horizon = {}
    for horizon in ("0.001", "0.1", "0.25"):
        sc = build_scene(parse_config(_default_text({"time.T": horizon})))
        by_horizon[horizon] = [verify.check_picard_agreement(sc),
                               verify.check_picard_contraction(sc)]
    assert by_horizon["0.001"] == by_horizon["0.1"] == by_horizon["0.25"]
    assert all(r.status == "pass" for r in by_horizon["0.001"])


def test_verify_factors_b_once(monkeypatch):
    """One suite on configs/default.cfg computes B's Cholesky factor once
    and the eigenpairs of (B, M) once: the Grams keep both (23 `cholesky`,
    1 `cho_factor` and 6 `eigh` calls when each caller made its own), and
    no package module other than `grid` calls either routine."""
    calls = collections.Counter()

    def counting(name):
        routine = getattr(grid, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return counted

    for name in ("cholesky", "eigh"):
        monkeypatch.setattr(grid, name, counting(name))
    run_checks(parse_config(_default_text({})))
    assert calls == {"cholesky": 1, "eigh": 1}
    src = Path(grid.__file__).parent
    others = [p for p in src.glob("*.py") if p.name != "grid.py"]
    routines = {"cholesky", "cho_factor", "eigh"}
    assert [p.name for p in others
            if routines & {getattr(n, "attr", getattr(n, "id", None))
                           for n in ast.walk(ast.parse(p.read_text()))}] == []


def test_factor_store_belongs_to_its_scene():
    """A suite run after another in the same process, on a grid of 32
    with the same dt, gives the results of a run on that grid alone: no
    factor built for one scene reaches a later scene."""
    finer = parse_config(_default_text({"grid.n": "32"}))
    alone = run_checks(finer)
    run_checks(parse_config(_default_text({})))
    assert run_checks(finer) == alone


def test_factor_store_peak_stays_below_the_probes_it_replaces():
    """At n = 64 the suite's traced peak stays below 400 factors' worth.
    When each check built its own propagators, the 100- and 200-step
    probes of `generator_integral` held 300 factors at once next to the
    scene's 250 (18.1 MiB, 561 factors' worth); a per-scene store that
    kept its 150 probe factors to the end peaked at 16.6 MiB (515).  A
    probe factor not in P lives only as long as its check, and the peak
    (11.7 MiB, 364) is the scene's 250 next to the 100-step probe of
    `generator_integral` at dt = 0.002."""
    cfg = parse_config(_default_text({"grid.n": "64"}))
    tracemalloc.start()
    try:
        run_checks(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 65 ** 2 * 8


def _norm_identity_loop(scene):
    """`check_norm_identity`'s worst defect as the loop over its 100
    states that the one stack replaced."""
    g = scene.g
    l0 = operators.apply_L0(g, np.eye(2 * g.m))
    rng = np.random.default_rng(verify._RNG_SEED)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal((2 * g.m, 3))
        lhs = float(np.sqrt(max(grid.packed_h_inner(l0 @ y, l0 @ y, g),
                                0.0))) ** 2
        rhs = grid.packed_d_norm_sq(y, g)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs))
    return worst


@pytest.mark.parametrize("n", [16, 64])
def test_norm_identity_stack_equals_the_loop(n):
    sc = build_scene(parse_config(_default_text({"grid.n": str(n)})))
    assert verify.check_norm_identity(sc).defect == _norm_identity_loop(sc)


def test_window_norms_from_one_walk_equal_the_per_window_route():
    """At n = 32 the norms of the growth check's 20 windows, each from one
    forward walk of the identity and one solve, agree to 1e-10 relative
    with walking the identity through each window, the route they
    replaced; the check's verdict and defect are unchanged."""
    sc = build_scene(parse_config(_default_text({"grid.n": "32"})))
    P, eye = sc.P, np.eye(2 * sc.g.m)
    rng = np.random.default_rng(verify._RNG_SEED + 2)
    windows = []
    for _ in range(20):
        i = int(rng.integers(0, P.n_steps))
        windows.append((i, int(rng.integers(i + 1, P.n_steps + 1))))
    want = [op_norm_H(sc.g, P.apply(eye, i, j)) for i, j in windows]
    got = verify._window_norms(P, windows)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    res = verify.check_growth_bound(sc)
    assert res.status == "pass" and res.defect == 0.0


def test_growth_bound_beyond_the_doubles_holds():
    """At beam.b = 1e-20, C4 (about 3.6e9) puts exp(C4 (t - tau)) beyond
    the doubles on every window: the bound is infinite and holds, and no
    OverflowError ends the check."""
    sc = build_scene(parse_config(_default_text({"beam.b": "1e-20"})))
    assert sc.constants.C4 * sc.P.dt > 710
    res = verify.check_growth_bound(sc)
    assert res.status == "pass" and res.defect == 0.0


def test_trace_identity_forward_walk_agrees_with_the_backward_one():
    """The check's forward sum over the noise columns and
    `trace_condition`'s backward walk of the identity give the same
    integral to rounding, both at span sigma^2 tr Q."""
    from stobeam.noise import trace_condition, trace_q
    sc = build_scene(parse_config(_default_text({})))
    res = verify.check_trace_identity(sc)
    P0 = verify._free_flow(sc, 0.25)
    exact = P0.times[-1] * sc.model.sigma ** 2 * trace_q(sc.model)
    backward = trace_condition(P0, sc.model).value
    assert res.status == "pass" and res.defect < 1e-12
    assert abs(backward - exact) / exact < 1e-12


def test_zero_tension_of_the_bump_family_skips_the_contraction(tmp_path,
                                                             capsys):
    """A bump with c0 = c1 = 0 has C5 = 0 on the Picard window, so the
    contraction check is skipped as for the zero family, where it used to
    fail on alpha = 2 C5 = 0; `verify` exits 0."""
    cfg_path = tmp_path / "flat.cfg"
    cfg_path.write_text(_default_text({"lambda.c0": "0.0",
                                       "lambda.c1": "0.0"}))
    assert main(["verify", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("SKIP picard_contraction") for line in lines)


def test_tractive_norm_bound_is_absolute_where_the_formula_is_zero():
    """A constant tabulated profile has no slope, so the analytic C4 is 0
    while the exact norm is not: the defect is the norm itself, not that
    norm over 1e-30."""
    table = ",".join(["1.0"] * 18)
    text = SMALL.replace(
        "lambda.family = bump\nlambda.c0 = 1.0\nlambda.c1 = 0.3",
        f"lambda.family = tabulated\nlambda.table = {table}")
    with pytest.warns(UserWarning):
        sc = build_scene(parse_config(text))
    assert sc.constants.C4_formula == 0.0 and sc.constants.C4_numeric > 1.0
    res = verify.check_tractive_norm_bound(sc)
    assert res.status == "fail"
    assert res.defect == sc.constants.C4_numeric
