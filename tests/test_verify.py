import re
from pathlib import Path

import numpy as np
import pytest

from stobeam import operators, propagator, solver, verify
from stobeam.cli import main
from stobeam.config import parse_config
from stobeam.noise import ito_variance
from stobeam.solver import build_scene, sine_mode_state
from stobeam.verify import (_result, check_trace_bound,
                            free_variance_closed_form, run_checks)

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
    """On the n = 8 grid of the CLI tests (time.T = 0.02, so dt goes down
    to 1e-4) both Richardson orders read second order, well clear of the
    check's 1.8 threshold: the finest probe is not at the rounding
    floor."""
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


def test_closed_form_variance_matches_quadrature():
    """Two independent routes to the same Ito integral: backward premetric
    quadrature against the eigenmode rotation sum."""
    cfg = parse_config(SMALL.replace("lambda.family = bump",
                                     "lambda.family = zero"))
    sc = build_scene(cfg)
    for mode, ch, t_end in ((1, 3, 0.1), (2, 1, 0.05)):
        h = sine_mode_state(sc.grid, mode, ch, "v")
        quad = ito_variance(sc.P, sc.model, h, t0=0.0, t=t_end)
        closed = free_variance_closed_form(sc, h, t_end, cfg.dt)
        assert quad == pytest.approx(closed, rel=1e-8)


def test_closed_form_variance_handles_displacement_parts():
    cfg = parse_config(SMALL.replace("lambda.family = bump",
                                     "lambda.family = zero"))
    sc = build_scene(cfg)
    h = sine_mode_state(sc.grid, 1, 3, "u")
    quad = ito_variance(sc.P, sc.model, h, t0=0.0, t=0.1)
    closed = free_variance_closed_form(sc, h, 0.1, cfg.dt)
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
    # one scene-wide estimate over [0, T], shared by tractive_norm_bound,
    # growth_bound and trace_bound; the two Picard checks sample their
    # own shorter windows
    assert len(calls) == 3
    assert sum(len(t) == 11 for t in calls) == 1


def test_zero_tension_default_config_passes_every_check(tmp_path, capsys):
    """configs/default.cfg with lambda.family = zero: C4 = 0 makes the
    growth bound of the trace integral its exact value, which the
    quadrature meets to rounding; Picard reaches its fixed point in one
    sweep and the variance quadrature runs on the scene's own flow."""
    text = (Path(__file__).resolve().parents[1] / "configs" /
            "default.cfg").read_text()
    text = text.replace("lambda.family = bump", "lambda.family = zero")
    assert "lambda.family = zero" in text
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
