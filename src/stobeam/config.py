"""Flat key=value run configuration.

The file format is one `section.key = value` assignment per line, with
`#` comments and blank lines ignored.  No nesting, no quoting; values are
numbers, enum words, or comma-separated lists.  Unknown keys are
rejected, and every diagnostic carries the key and line number.

A `SimulationConfig` is valid from the moment it exists: its
`__post_init__` runs every rule (`_check_constraints`: each value's type
and range, the enum words, the expressions, the cross-key rules and the
observable specs) and raises `ConfigError` naming the key, whether the
config was parsed, built directly or derived with `dataclasses.replace`.
The converters of `parse_config` only turn a line's text into a float, an
integer, a tuple or a string; the parser adds the line of the named key
to a rule's error.  `parse_int` reads an integer as the file does, for
the command-line flags that override one.

Every default is stated once, on the dataclass; the required keys
(beam.l, beam.b, grid.n, time.T, time.dt) are the fields without one.
noise.K defaults to min(64, grid.n), resolved when the config is built.
Deterministic serialization emits every resolved key in a fixed order so
that configs round-trip losslessly and diff cleanly.
"""

from __future__ import annotations

import ast
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .noise import SPECTRUM_FAMILIES, spectrum_table
from .operators import TRACTIVE_FAMILIES

#: field -> the words it admits
_CHOICES = {
    "spectrum": SPECTRUM_FAMILIES,
    "lam_family": TRACTIVE_FAMILIES,
    "fdet_family": ("zero", "tabulated", "expression"),
    "init_family": ("zero", "mode"),
    "bc_kind": ("homogeneous", "nonhomogeneous"),
}


@dataclass(frozen=True)
class SimulationConfig:
    """Fully resolved run parameters (flat mirror of the config file).

    Construction checks every rule of `_check_constraints`.  K = None
    stands for the default min(64, n) and is resolved here.
    """

    l: float
    b: float
    n: int
    T: float
    dt: float
    g_const: float = 9.81
    sigma: float = 1.0
    spectrum: str = "k^-2"
    K: Optional[int] = None
    seed: int = 0
    noise_table: Optional[Tuple[float, ...]] = None
    lam_family: str = "bump"
    lam_c0: float = 1.0
    lam_c1: float = 0.0
    lam_freq: float = 1.0
    lam_table: Optional[Tuple[float, ...]] = None
    fdet_family: str = "zero"
    fdet_expr1: str = "0"
    fdet_expr2: str = "0"
    fdet_expr3: str = "0"
    fdet_table: Optional[Tuple[float, ...]] = None
    init_family: str = "zero"
    init_mode: int = 1
    init_amplitude: float = 1.0
    bc_kind: str = "homogeneous"
    n_paths: int = 1
    threads: int = 1
    observables: Tuple[str, ...] = ("1:3:v",)
    obs_stride: int = 1

    def __post_init__(self):
        if self.K is None and _integer(self.n):
            object.__setattr__(self, "K", min(64, self.n))
        _check_constraints(self)

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


def _strict_int(v):
    try:
        i = int(v)
    except ValueError:
        if v.lstrip("+-").isdigit():  # beyond int()'s digit limit
            raise ValueError(f"an integer of {len(v)} digits is out of "
                             "range") from None
        # int()'s own message would quote up to 200 characters of v
        raise ValueError("must be an integer") from None
    if str(i) != v:
        raise ValueError("must be an integer")
    return i


def parse_int(text: str) -> int:
    """An integer read from `text` as the config file reads one.

    Raises:
        ConfigError: `text` is not a plain integer; the refused text is
            quoted short.
    """
    try:
        return _strict_int(text)
    except ValueError as exc:
        raise ConfigError(f"bad value '{_shown(text)}': {exc}") from None


def _float_tuple(v):
    return tuple(float(p) for p in v.split(",") if p.strip())


def _str_tuple(v):
    return tuple(p.strip() for p in v.split(",") if p.strip())


def parse_observable_spec(spec: str) -> Tuple[int, int, str]:
    """Split 'mode:channel:part' into (mode >= 1, channel 1..3, 'u'|'v')."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"observable '{_shown(spec)}' is not mode:channel:part")
    try:
        mode = int(parts[0])
        channel = int(parts[1])
    except ValueError:
        raise ValueError(
            f"observable '{_shown(spec)}' needs integer mode and channel")
    part = parts[2].strip()
    if mode < 1 or channel not in (1, 2, 3) or part not in ("u", "v"):
        raise ValueError(
            f"observable '{_shown(spec)}' out of range (part must be u|v)")
    return mode, channel, part


#: file key -> (attribute, converter of the line's text)
_KEYS = {
    "beam.l": ("l", float),
    "beam.b": ("b", float),
    "beam.g": ("g_const", float),
    "grid.n": ("n", _strict_int),
    "time.T": ("T", float),
    "time.dt": ("dt", float),
    "noise.sigma": ("sigma", float),
    "noise.spectrum": ("spectrum", str),
    "noise.K": ("K", _strict_int),
    "noise.seed": ("seed", _strict_int),
    "noise.table": ("noise_table", _float_tuple),
    "lambda.family": ("lam_family", str),
    "lambda.c0": ("lam_c0", float),
    "lambda.c1": ("lam_c1", float),
    "lambda.freq": ("lam_freq", float),
    "lambda.table": ("lam_table", _float_tuple),
    "fdet.family": ("fdet_family", str),
    "fdet.expr1": ("fdet_expr1", str),
    "fdet.expr2": ("fdet_expr2", str),
    "fdet.expr3": ("fdet_expr3", str),
    "fdet.table": ("fdet_table", _float_tuple),
    "init.family": ("init_family", str),
    "init.mode": ("init_mode", _strict_int),
    "init.amplitude": ("init_amplitude", float),
    "bc.kind": ("bc_kind", str),
    "run.N": ("n_paths", _strict_int),
    "run.threads": ("threads", _strict_int),
    "run.observables": ("observables", _str_tuple),
    "run.obs_stride": ("obs_stride", _strict_int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def parse_config(text: str) -> SimulationConfig:
    """Parse and fully resolve a configuration.

    Raises:
        ConfigError: unknown key, bad value, missing required key, or a
            rule of `_check_constraints`; the message names the key and,
            where the file sets it, its line.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key", key=key, line=lineno)
        attr, conv = _KEYS[key]
        if attr in values:
            raise ConfigError("duplicate key", key=key, line=lineno)
        try:
            values[attr] = conv(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value '{_shown(val)}': {exc}", key=key,
                              line=lineno) from None
        lines[key] = lineno

    for f in fields(SimulationConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError("missing required key", key=_ATTR_TO_KEY[f.name])
    try:
        return SimulationConfig(**values)
    except ConfigError as exc:
        exc.line = lines.get(exc.key)
        raise


def _real(x) -> bool:
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _shown(value) -> str:
    """A refused value as an error message quotes it: at most 40
    characters, a longer one cut to its first 20 and its length.  A long
    integer is cut by arithmetic, as str() refuses one past 4300 digits."""
    if _integer(value) and abs(value) >= 10**40:
        digits = int(math.log10(abs(value))) + 1
        digits += (abs(value) >= 10**digits) - (abs(value) < 10**(digits - 1))
        lead = abs(value) // 10**(digits - 20)
        return f"{'-' * (value < 0)}{lead}... ({digits} digits)"
    text = str(value)
    if len(text) <= 40:
        return text
    return f"{text[:20]}... ({len(text)} characters)"


#: the single-value rules: (fields, test of one value, what it must be);
#: neither test admits a bool, and `_real` refuses an int beyond float range
_VALUE_RULES = (
    (("l", "b", "T", "dt", "lam_freq"), lambda x: _real(x) and x > 0,
     "a positive number"),
    (("g_const", "sigma", "lam_c0"), lambda x: _real(x) and x >= 0,
     "a nonnegative number"),
    (("lam_c1", "init_amplitude"), _real, "a finite number"),
    (("n",), lambda x: _integer(x) and x >= 4,
     "an integer >= 4 (interior nodes)"),
    (("K", "init_mode", "n_paths", "threads", "obs_stride"),
     lambda x: _integer(x) and x >= 1, "a positive integer"),
    (("seed",), lambda x: _integer(x) and 0 <= x < 2**64,
     "an integer in [0, 2^64)"),
    (("noise_table", "lam_table", "fdet_table"),
     lambda x: x is None or (isinstance(x, tuple) and all(map(_real, x))),
     "a list of finite numbers"),
    # the run raises these values to a power as Python floats, which raise
    # OverflowError or ZeroDivisionError where numpy would give inf: l**4
    # in the bump profile and ((n + 1) / l)**2 in the second difference,
    # b**2 in the graph norm, sigma**2 in the Ito variance and the trace
    # integral; so the power must stay within the normal doubles,
    # [2**-1022, 2**1024), except that sigma = 0 turns the noise off
    (("l",), lambda x: 2.0**-255 <= x < 2.0**256,
     "in [2**-255, 2**256), about 1.7e-77 to 1.2e77, so that l**4 is a "
     "normal double"),
    (("b",), lambda x: 2.0**-511 <= x < 2.0**512,
     "in [2**-511, 2**512), about 1.5e-154 to 1.3e154, so that b**2 is a "
     "normal double"),
    (("sigma",), lambda x: x == 0 or 2.0**-511 <= x < 2.0**512,
     "0 or in [2**-511, 2**512), about 1.5e-154 to 1.3e154, so that "
     "sigma**2 is a normal double"),
)


def _check_constraints(cfg: SimulationConfig):
    """Every rule on the values, alone and together; raises ConfigError
    naming the key to change."""
    for attrs, ok, what in _VALUE_RULES:
        for attr in attrs:
            value, where = getattr(cfg, attr), ""
            if ok(value):
                continue
            if isinstance(value, tuple):  # name the first bad entry only
                i = next(i for i, x in enumerate(value) if not _real(x))
                value, where = value[i], f" (entry {i + 1} of {len(value)})"
            raise ConfigError(f"bad value '{_shown(value)}'{where}: must be "
                              f"{what}", key=_ATTR_TO_KEY[attr])
    for attr in ("fdet_expr1", "fdet_expr2", "fdet_expr3"):
        value = getattr(cfg, attr)
        try:
            compile_expression(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value '{_shown(value)}': {exc}",
                              key=_ATTR_TO_KEY[attr]) from None
    for attr, words in _CHOICES.items():
        value = getattr(cfg, attr)
        if value not in words:
            raise ConfigError(f"bad value '{_shown(value)}': must be one of "
                              f"{', '.join(words)}", key=_ATTR_TO_KEY[attr])
    ratio = cfg.T / cfg.dt
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
        raise ConfigError("dt must divide T", key="time.dt")
    if cfg.lam_family == "bump" and cfg.lam_c0 - abs(cfg.lam_c1) < 0:
        raise ConfigError("bump modulation needs c0 >= |c1|", key="lambda.c1")
    for family, attr, what in ((cfg.lam_family, "lam_table", "tension"),
                               (cfg.spectrum, "noise_table", "spectrum"),
                               (cfg.fdet_family, "fdet_table", "force")):
        if family == "tabulated" and getattr(cfg, attr) is None:
            raise ConfigError(f"tabulated {what} needs {_ATTR_TO_KEY[attr]}",
                              key=_ATTR_TO_KEY[attr])
    if cfg.bc_kind == "nonhomogeneous" and cfg.init_family != "zero":
        raise ConfigError(
            "nonhomogeneous runs support only the built-in initial data "
            "(init.family = zero on top of the slope shift)",
            key="init.family")
    if cfg.init_family == "mode" and cfg.init_mode > cfg.n + 1:
        raise ConfigError(
            f"bending mode {cfg.init_mode} exceeds the {cfg.n + 1} modes of "
            "the grid; lower init.mode or refine grid.n", key="init.mode")
    if cfg.init_family == "mode" and cfg.n < 7:
        # below n = 7 the one-sided 5th-derivative stencil at l (7 nodes)
        # does not resolve even the first bending mode, so the h6bc
        # membership check would refuse it at run time
        raise ConfigError(f"mode initial data need grid.n >= 7 to meet the "
                          f"discrete h6bc conditions, got {cfg.n}; refine "
                          "grid.n to 7 or more", key="grid.n")
    if cfg.sigma > 0 and cfg.K > cfg.n:
        raise ConfigError(
            f"{cfg.K} noise modes exceed the {cfg.n} sine modes representable "
            "on the grid; lower noise.K or refine grid.n", key="noise.K")
    for attr, want, what in (("fdet_table", cfg.n + 2, "grid.n + 2"),
                             ("lam_table", cfg.n + 2, "grid.n + 2"),
                             ("noise_table", cfg.K, "noise.K")):
        table = getattr(cfg, attr)
        if table is not None and len(table) != want:
            raise ConfigError(f"{len(table)} values given, {what} = {want} "
                              "needed", key=_ATTR_TO_KEY[attr])
    if cfg.noise_table is not None:
        try:
            spectrum_table(cfg.noise_table)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc), key="noise.table") from None
    if not cfg.observables:
        raise ConfigError("needs at least one observable spec",
                          key="run.observables")
    for spec in cfg.observables:
        try:
            mode, _, _ = parse_observable_spec(spec)
        except ValueError as exc:
            raise ConfigError(str(exc), key="run.observables") from None
        if mode > cfg.n:
            raise ConfigError(
                f"observable '{_shown(spec)}' needs sine mode {mode}, above "
                f"the {cfg.n} modes representable on the grid",
                key="run.observables")


def serialize_config(cfg: SimulationConfig) -> str:
    """Canonical text form; parse_config inverts it losslessly."""
    out = []
    for key, (attr, _) in _KEYS.items():
        val = getattr(cfg, attr)
        if val is None:
            continue
        if isinstance(val, tuple):
            text = ",".join(repr(v) if isinstance(v, float) else str(v)
                            for v in val)
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"


_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                  "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
                  "tanh": np.tanh}
_ALLOWED_NAMES = {"pi": math.pi}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Call, ast.Load, ast.Add, ast.Sub, ast.Mult,
                  ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Mod)


def compile_expression(src: str) -> Callable:
    """Compile a deterministic force expression over (s, t).

    Only arithmetic, the names s/t/l/pi, and a short list of numpy
    functions are allowed; anything else is rejected.  Returns a callable
    (s_array, t, l) -> array.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression: {exc.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"expression element '{type(node).__name__}' is not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or \
                    node.func.id not in _ALLOWED_CALLS or node.keywords:
                raise ValueError("only plain calls to "
                                 f"{sorted(_ALLOWED_CALLS)} are allowed")
        if isinstance(node, ast.Name) and node.id not in ("s", "t", "l") \
                and node.id not in _ALLOWED_NAMES and node.id not in _ALLOWED_CALLS:
            raise ValueError(f"unknown name '{node.id}' in expression")
    code = compile(tree, "<fdet>", "eval")

    def evaluate(s, t, l):
        env = dict(_ALLOWED_CALLS)
        env.update(_ALLOWED_NAMES)
        env.update({"s": s, "t": t, "l": l, "__builtins__": {}})
        return np.broadcast_to(np.asarray(eval(code, env), dtype=float),
                               np.shape(s)).copy()

    return evaluate
