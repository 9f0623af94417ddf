"""Concrete network topologies (modified LeNet-5 and LeNet-7) built from
declarative configuration, plus key=value config file parsing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from . import nn

N_CLASSES = 3

ARCHITECTURES = ("lenet5", "lenet7")
POOLINGS = ("subs", "l2pool")


@dataclass(frozen=True)
class RunConfig:
    """Resolved architecture choice plus training hyperparameters and paths."""

    arch: str = "lenet5"
    input_side: int = 60
    pooling: str = "subs"
    eta0: float = 0.05
    decay: float = 0.1
    epochs: int = 20
    seed: int = 0
    imgs: str = "imgs"
    lists: str = "spectra_sets"
    out: str = "run"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling kind {self.pooling!r}")


def _pool(kind: str, n_maps: int, size: int) -> nn.Layer:
    if kind == "subs":
        return nn.SubsPool(n_maps, size)
    return nn.LpPool(size, p=2.0)


def _stage(conv: nn.Conv, pooling: str, pool_size: int, norm_side: int = 5) -> list[nn.Layer]:
    return [
        conv,
        nn.Tanh(),
        nn.SubtractiveNorm(norm_side),
        nn.DivisiveNorm(norm_side),
        _pool(pooling, conv.n_out, pool_size),
    ]


def build_lenet5(n: int, pooling: str = "subs") -> nn.Network:
    """Modified LeNet-5. n=60: 60->56->28->26->13->1; n=28: 28->24->12->10->5->1."""
    if n not in (60, 28):
        raise ValueError(f"LeNet-5 supports input side 60 or 28, not {n}")
    final_kernel = 13 if n == 60 else 5
    layers = _stage(nn.Conv(1, 6, 5, 5), pooling, 2) + _stage(nn.Conv(6, 16, 3, 3), pooling, 2)
    layers += [nn.Conv(16, 120, final_kernel, final_kernel), nn.Tanh(), nn.Flatten()]
    layers.append(nn.Full(120, N_CLASSES, activation="sigmoid"))
    return nn.Network(layers, (1, n, n))


def build_lenet7(n: int = 60, pooling: str = "subs") -> nn.Network:
    """Modified LeNet-7, single input map: 60->56->14->10->5->1."""
    if n != 60:
        raise ValueError(f"LeNet-7 supports input side 60, not {n}")
    layers = _stage(nn.Conv(1, 8, 5, 5), pooling, 4) + _stage(nn.Conv(8, 24, 5, 5), pooling, 2)
    layers += [nn.Conv(24, 100, 5, 5), nn.Tanh(), nn.Flatten()]
    layers.append(nn.Full(100, N_CLASSES, activation="sigmoid"))
    return nn.Network(layers, (1, n, n))


def build_network(cfg: RunConfig) -> nn.Network:
    if cfg.arch == "lenet5":
        return build_lenet5(cfg.input_side, cfg.pooling)
    return build_lenet7(cfg.input_side, cfg.pooling)


# config file handling ------------------------------------------------------

# the config key of each RunConfig field, in field order; `input` is the
# one key that differs from its field name
_FIELDS = {("input" if f.name == "input_side" else f.name): f for f in fields(RunConfig)}
# every config key with its default, whose type is the key's type
RUN_KEYS = {key: f.default for key, f in _FIELDS.items()}

_VAR_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(ValueError):
    pass


def _cast(key: str, value: str, default):
    """`value` as the type of `default`; a ConfigError naming the key otherwise."""
    try:
        return type(default)(value)
    except ValueError:
        raise ConfigError(f"invalid value {value!r} for key {key!r}") from None


def cast_keys(values: dict[str, str], defaults: dict, what: str = "key") -> dict:
    """Each of `values` cast to the type of its default in `defaults`; a key
    that `defaults` lacks is a ConfigError naming it."""
    typed = {}
    for key, value in values.items():
        if key not in defaults:
            raise ConfigError(f"unknown {what} {key!r}")
        typed[key] = _cast(key, value, defaults[key])
    return typed


def _run_config(cfg: RunConfig, values: dict) -> RunConfig:
    return replace(cfg, **{_FIELDS[key].name: value for key, value in values.items()})


def _substitute(key: str, raw: dict[str, str], stack: tuple[str, ...]) -> str:
    if key in stack:
        raise ConfigError(f"circular substitution involving ${{{key}}}")
    value = raw[key]

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in raw:
            raise ConfigError(f"undefined variable ${{{name}}} in key {key!r}")
        return _substitute(name, raw, stack + (key,))

    return _VAR_RE.sub(repl, value)


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines with '#' comments and ${var} substitution;
    `root` is a substitution-only variable."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in RUN_KEYS and key != "root":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    if "arch" not in raw:
        raise ConfigError("missing required key 'arch'")
    resolved = {k: _substitute(k, raw, ()) for k in raw if k != "root"}
    values = cast_keys(resolved, RUN_KEYS)
    try:
        return _run_config(RunConfig(), values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_readable(key: str, value) -> None:
    """Raise a ConfigError unless parse_config reads `value` back equal."""
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"{key} = nan is not a number")
    if isinstance(value, str) and (
        value != value.strip()
        or "#" in value
        or len(value.splitlines()) > 1
        or _VAR_RE.search(value)
    ):
        raise ConfigError(
            f"{key} = {value!r} would not read back from a config file, which cuts "
            "values at '#' and line breaks, strips them and expands ${name}"
        )


def serialize_config(cfg: RunConfig) -> str:
    """'key = value' text that parse_config reads back to `cfg`; a value it
    would not read back equal is a ConfigError naming the key."""
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        _check_readable(key, value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply CLI key=value overrides using the config key names."""
    return _run_config(cfg, cast_keys(overrides, RUN_KEYS, "override key"))
