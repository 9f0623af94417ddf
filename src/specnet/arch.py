"""Concrete network topologies (modified LeNet-5 and LeNet-7) built from
declarative configuration, plus key=value config file parsing and dimension
chain validation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

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


def lenet5_layers(n: int, pooling: str = "subs") -> list[nn.Layer]:
    if n not in (60, 28):
        raise ValueError(f"LeNet-5 supports input side 60 or 28, not {n}")
    final_kernel = 13 if n == 60 else 5
    layers: list[nn.Layer] = []
    layers += _stage(nn.Conv(1, 6, 5, 5), pooling, 2)
    layers += _stage(nn.Conv(6, 16, 3, 3), pooling, 2)
    layers += [nn.Conv(16, 120, final_kernel, final_kernel), nn.Tanh(), nn.Flatten()]
    layers.append(nn.Full(120, N_CLASSES, activation="sigmoid"))
    return layers


def lenet7_layers(n: int, pooling: str = "subs") -> list[nn.Layer]:
    if n != 60:
        raise ValueError(f"LeNet-7 supports input side 60, not {n}")
    layers: list[nn.Layer] = []
    layers += _stage(nn.Conv(1, 8, 5, 5), pooling, 4)
    layers += _stage(nn.Conv(8, 24, 5, 5), pooling, 2)
    layers += [nn.Conv(24, 100, 5, 5), nn.Tanh(), nn.Flatten()]
    layers.append(nn.Full(100, N_CLASSES, activation="sigmoid"))
    return layers


def build_lenet5(n: int, pooling: str = "subs") -> nn.Network:
    """Modified LeNet-5. n=60: 60->56->28->26->13->1; n=28: 28->24->12->10->5->1."""
    return nn.Network(lenet5_layers(n, pooling), (1, n, n))


def build_lenet7(n: int = 60, pooling: str = "subs") -> nn.Network:
    """Modified LeNet-7, single input map: 60->56->14->10->5->1."""
    return nn.Network(lenet7_layers(n, pooling), (1, n, n))


def build_network(cfg: RunConfig) -> nn.Network:
    if cfg.arch == "lenet5":
        return build_lenet5(cfg.input_side, cfg.pooling)
    return build_lenet7(cfg.input_side, cfg.pooling)


def validate_chain(layers: list[nn.Layer], input_shape: tuple) -> str:
    """Simulate the dimension chain; 'ok' or a diagnostic naming the layer."""
    shape = tuple(input_shape)
    for idx, layer in enumerate(layers):
        try:
            shape = layer.out_shape(shape)
        except ValueError as exc:
            return f"layer {idx} ({type(layer).__name__}): {exc} (input was {shape})"
    if len(shape) == 3 and shape[1:] != (1, 1):
        return f"classifier boundary: final maps are {shape[1]}x{shape[2]}, expected 1x1"
    return "ok"


# config file handling ------------------------------------------------------

_INT_KEYS = {"input", "epochs", "seed"}
_FLOAT_KEYS = {"eta0", "decay"}
_STR_KEYS = {"arch", "pooling", "imgs", "lists", "out", "root"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_VAR_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(ValueError):
    pass


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
    """Parse 'key = value' lines with '#' comments and ${var} substitution."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    if "arch" not in raw:
        raise ConfigError("missing required key 'arch'")
    resolved = {k: _substitute(k, raw, ()) for k in raw}
    resolved.pop("root", None)  # substitution-only variable
    kwargs: dict = {}
    for key, value in resolved.items():
        try:
            if key in _INT_KEYS:
                kwargs["input_side" if key == "input" else key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError:
            raise ConfigError(f"invalid value {value!r} for key {key!r}") from None
    try:
        return RunConfig(**kwargs)
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
    for key, value in vars(cfg).items():
        _check_readable("input" if key == "input_side" else key, value)
    return (
        f"arch = {cfg.arch}\n"
        f"input = {cfg.input_side}\n"
        f"pooling = {cfg.pooling}\n"
        f"eta0 = {cfg.eta0!r}\n"
        f"decay = {cfg.decay!r}\n"
        f"epochs = {cfg.epochs}\n"
        f"seed = {cfg.seed}\n"
        f"imgs = {cfg.imgs}\n"
        f"lists = {cfg.lists}\n"
        f"out = {cfg.out}\n"
    )


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply CLI key=value overrides using the config key names."""
    changes: dict = {}
    for key, value in overrides.items():
        if key not in KNOWN_KEYS or key == "root":
            raise ConfigError(f"unknown override key {key!r}")
        if key in _INT_KEYS:
            changes["input_side" if key == "input" else key] = int(value)
        elif key in _FLOAT_KEYS:
            changes[key] = float(value)
        else:
            changes[key] = value
    return replace(cfg, **changes)
