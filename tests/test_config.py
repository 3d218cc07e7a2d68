"""Flat key=value configuration: parsing, defaults, round trips."""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from stobeam.config import (_KEYS, SimulationConfig, compile_expression,
                            parse_config, parse_observable_spec,
                            serialize_config)
from stobeam.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
# the five required keys
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.5
time.dt = 0.01
"""


def test_minimal_config_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.l == 1.0 and cfg.b == 1.0 and cfg.n == 16
    assert cfg.T == 0.5 and cfg.dt == 0.01
    assert cfg.n_steps == 50
    # documented defaults
    assert cfg.g_const == 9.81
    assert cfg.sigma == 1.0
    assert cfg.spectrum == "k^-2"
    assert cfg.K == 16  # min(64, grid.n)
    for n, K in ((8, 8), (100, 64)):
        assert SimulationConfig(l=1.0, b=1.0, n=n, T=1.0, dt=0.5).K == K
    assert cfg.seed == 0
    assert cfg.lam_family == "bump"
    assert cfg.lam_c0 == 1.0 and cfg.lam_c1 == 0.0
    assert cfg.fdet_family == "zero"
    assert cfg.init_family == "zero"
    assert cfg.bc_kind == "homogeneous"
    assert cfg.n_paths == 1
    assert cfg.threads == 1
    assert cfg.observables == ("1:3:v",)
    assert cfg.obs_stride == 1


def test_comments_and_blank_lines():
    cfg = parse_config(MINIMAL + "\n   \n# trailing comment\nnoise.K = 8  # inline\n")
    assert cfg.K == 8


def test_round_trip_is_identity():
    text = MINIMAL + """
beam.g = 0.125
noise.sigma = 0.3333333333333333
noise.K = 12
noise.seed = 99
lambda.family = bump
lambda.c0 = 1.5
lambda.c1 = -0.25
lambda.freq = 2.0
fdet.family = expression
fdet.expr3 = sin(pi*s/l)*t
init.family = mode
init.mode = 2
init.amplitude = 0.7
run.N = 5
run.threads = 2
run.observables = 1:3:v,2:1:u
run.obs_stride = 10
"""
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_preserves_tables(grid16):
    table = ",".join(repr(float(v)) for v in np.linspace(0.0, 1.0, 18) * 0.0)
    cfg = parse_config(MINIMAL + f"fdet.family = tabulated\nfdet.table = {table}\n")
    assert parse_config(serialize_config(cfg)) == cfg
    assert len(cfg.fdet_table) == 18


@pytest.mark.parametrize("line,key", [
    ("beam.l = 1.0", "beam.l"),                     # duplicate
    ("foo.bar = 1", "foo.bar"),                     # unknown
    ("grid.n = 2", "grid.n"),                       # too coarse
    ("time.dt = -0.01", "time.dt"),                 # sign
    ("noise.sigma = -1", "noise.sigma"),
    ("lambda.family = spline", "lambda.family"),
    ("run.observables = 1:9:v", "run.observables"),
    ("run.observables = 1:3:w", "run.observables"),
])
def test_rejected_lines(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + line + "\n")
    assert err.value.key == key
    assert err.value.line is not None


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("beam.l = 1\nbeam.b = 1\ngrid.n = 8\ntime.T = 1\n")
    assert err.value.key == "time.dt"


def test_syntax_error_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("beam.l = 1\nnot a key value pair\n")
    assert err.value.line == 2


def test_step_must_tile_horizon():
    with pytest.raises(ConfigError, match="divide"):
        parse_config("beam.l = 1\nbeam.b = 1\ngrid.n = 8\ntime.T = 1\ntime.dt = 0.3\n")


def test_bump_modulation_constraint():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "lambda.c0 = 0.2\nlambda.c1 = 0.5\n")
    assert err.value.key == "lambda.c1"


def test_tabulated_families_need_tables():
    with pytest.raises(ConfigError, match="lambda.table"):
        parse_config(MINIMAL + "lambda.family = tabulated\n")
    with pytest.raises(ConfigError, match="fdet.table"):
        parse_config(MINIMAL + "fdet.family = tabulated\n")
    with pytest.raises(ConfigError, match="noise.table"):
        parse_config(MINIMAL + "noise.spectrum = tabulated\n")


def test_nonhomogeneous_forbids_custom_initial_data():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "bc.kind = nonhomogeneous\ninit.family = mode\n")
    assert err.value.key == "init.family"


def test_observable_spec_parsing():
    assert parse_observable_spec("3:1:u") == (3, 1, "u")
    assert parse_observable_spec("12:3:v") == (12, 3, "v")
    for bad in ("0:1:u", "1:4:v", "1:1:x", "1:1", "a:b:c"):
        with pytest.raises(ValueError):
            parse_observable_spec(bad)


def test_expression_evaluation():
    f = compile_expression("sin(pi*s/l) * exp(-t)")
    s = np.linspace(0.0, 2.0, 7)
    out = f(s, 0.5, 2.0)
    assert out.shape == s.shape
    assert np.allclose(out, np.sin(np.pi * s / 2.0) * math.exp(-0.5))
    g = compile_expression("1.5")
    assert np.allclose(g(s, 0.0, 2.0), 1.5)
    assert g(s, 0.0, 2.0).shape == s.shape


def test_expression_rejects_non_whitelisted_code():
    # direct calls surface ValueError; parse_config wraps it in ConfigError
    for src in ("__import__('os').system('true')", "s.real", "[1,2][0]",
                "lambda x: x", "s if t else l", "open('x')", "q + 1"):
        with pytest.raises(ValueError):
            compile_expression(src)
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "fdet.family = expression\n"
                               "fdet.expr3 = open('x')\n")
    assert err.value.key == "fdet.expr3"


def test_direct_construction_equals_parse():
    cfg = parse_config(MINIMAL)
    direct = SimulationConfig(l=1.0, b=1.0, n=16, T=0.5, dt=0.01)
    assert cfg == direct


def test_every_construction_path_checks_the_rules():
    cfg = parse_config(MINIMAL)
    for change, key in (
            (dict(bc_kind="nonhomogeneous", init_family="mode"), "init.family"),
            (dict(bc_kind="periodic"), "bc.kind"),
            (dict(observables=("17:3:v",)), "run.observables"),
            (dict(observables=()), "run.observables")):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **change)
        assert err.value.key == key and err.value.line is None
    with pytest.raises(ConfigError) as err:
        SimulationConfig(l=1.0, b=1.0, n=16, T=0.5, dt=0.01,
                         fdet_family="tabulated")
    assert err.value.key == "fdet.table"
    assert "key 'fdet.table'" in str(err.value)


#: (key, bad text, the same bad value in Python), one or more per rule
BAD_VALUES = [
    ("beam.l", "-1.0", -1.0),
    # an int beyond float range: math.isfinite raises, and that is a refusal
    ("beam.l", "1" + "0" * 400, 10**400),
    ("beam.b", "0", 0.0),
    ("beam.g", "-9.81", -9.81),
    ("grid.n", "3", 3),
    ("grid.n", "8.0", 8.0),                        # not an integer
    ("grid.n", "016", "016"),                      # not as int() writes it
    ("time.T", "nan", math.nan),
    ("time.dt", "inf", math.inf),
    ("noise.sigma", "-1", -1.0),
    ("noise.K", "0", 0),
    ("noise.seed", "-1", -1),
    ("noise.seed", str(2**64), 2**64),
    ("noise.seed", str(10**400), 10**400),
    # beyond int()'s 4300-digit limit: still a ConfigError, and a short one
    ("noise.seed", "5" + "0" * 5000, 5 * 10**5000),
    ("noise.table", "1" + ",nan" * 15, (1.0,) + (math.nan,) * 15),
    ("lambda.c0", "-0.5", -0.5),
    ("lambda.c1", "nan", math.nan),
    ("lambda.freq", "0", 0.0),
    ("lambda.table", "0,inf" + ",0" * 16, (0.0, math.inf) + (0.0,) * 16),
    # a 256-node grid's table: the message names the entry, not the table
    ("lambda.table", "0,0,inf" + ",0" * 255,
     (0.0, 0.0, math.inf) + (0.0,) * 255),
    ("fdet.expr1", "__import__('os')", "__import__('os')"),
    ("fdet.expr3", "q + 1", "q + 1"),
    ("fdet.expr1", "sin(", "sin("),                # not Python syntax
    ("fdet.table", "nan" + ",0" * 17, (math.nan,) + (0.0,) * 17),
    ("init.mode", "0", 0),
    ("init.amplitude", "inf", math.inf),
    ("run.N", "0", 0),
    ("run.threads", "0", 0),
    ("run.obs_stride", "0", 0),
]


@pytest.mark.parametrize("key,text,value", [
    pytest.param(*case, id=f"{case[0]}={case[1][:12]}") for case in BAD_VALUES])
def test_one_rule_three_routes(key, text, value):
    """A bad value is refused naming its key whether it is parsed, passed
    to the constructor or set with `dataclasses.replace`, in an error line
    under 200 characters; for a table the line names the first bad entry,
    not the whole table, and a long value is cut."""
    lines = [t for t in MINIMAL.strip().splitlines()
             if not t.startswith(key + " =")] + [f"{key} = {text}"]
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines))
    assert err.value.key == key and err.value.line == len(lines)
    assert len(f"config error: {err.value}") < 200
    if isinstance(value, tuple):
        i = next(i for i, x in enumerate(value) if not math.isfinite(x))
        assert f"'{value[i]}' (entry {i + 1} of {len(value)})" in str(err.value)
    attr = _KEYS[key][0]
    base = dict(l=1.0, b=1.0, n=16, T=0.5, dt=0.01)
    with pytest.raises(ConfigError) as err:
        SimulationConfig(**{**base, attr: value})
    assert err.value.key == key
    assert len(f"config error: {err.value}") < 200
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(SimulationConfig(**base), **{attr: value})
    assert err.value.key == key
    assert len(f"config error: {err.value}") < 200


def _readme_defaults() -> dict:
    """key -> default cell of README's Configuration table."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = {}
    for line in itertools.takewhile(lambda t: t.startswith("|"),
                                    lines[start:]):
        key, default = (c.strip().strip("`") for c in line.split("|")[1:3])
        if key == "fdet.expr1..3":
            rows.update({f"fdet.expr{i}": default for i in (1, 2, 3)})
        else:
            rows[key] = default
    return rows


def test_readme_defaults_equal_the_dataclass_defaults():
    rows = _readme_defaults()
    assert sorted(rows) == sorted(_KEYS)
    defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
    for key, text in rows.items():
        attr, conv = _KEYS[key]
        if text == "required":
            assert defaults[attr] is dataclasses.MISSING, key
        elif text == "none":
            assert defaults[attr] is None, key
        elif key == "noise.K":
            assert text == "min(64, grid.n)" and defaults[attr] is None
        else:
            assert conv(text) == defaults[attr], key
