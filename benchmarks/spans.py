"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside the program, the public module functions of
the specnet modules, the forward/backward passes of every `nn.Layer`
subclass and the `nn.Network` pass methods. Each call becomes a span
(name, start, end, parent span, phase, attribute). Spans stay in memory
until `write` dumps them at the end of the run; `layer_metrics` reduces
them to the per-layer metrics the benchmark prints with `--trace 1`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from pathlib import Path

import numpy as np

from specnet import arch, catalog, cli, harness, nn, preprocess, sampler, synthgen

MODULES = (catalog, sampler, preprocess, synthgen, nn, arch, harness, cli)

#: metric names of the layer classes; other Layer subclasses use the
#: lower-cased class name
LAYER_NAMES = {"SubtractiveNorm": "subnorm", "DivisiveNorm": "divnorm"}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _count_arg(index: int):
    return lambda args, kwargs, result: len(args[index])


def _conv_name(direction: str):
    # a Conv whose kernel covers the whole input map is reported apart
    def name(args, result):
        out = result if direction == "fwd" else args[1]
        whole = out.shape[1:] == (1, 1)
        return f"nn.conv{'_wholemap' if whole else ''}.{direction}"

    return name


#: span attributes recorded per wrapped function: sample, image or point
#: counts and rejection reasons
ATTRIBUTES = {
    "harness.evaluate": _count_arg(1),
    "harness.classify": _count_arg(1),
    "harness.load_dataset": lambda args, kwargs, result: len(result),
    "preprocess.filter_impaired": lambda args, kwargs, result: result.reason,
    "sampler.ks_distance": lambda args, kwargs, result: len(args[0].points)
    + len(args[1].points),
}


class Tracer:
    """Records spans while installed and active; `install` patches the
    program's modules and classes, `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.phase: list[str] = []
        self.attr: list = []
        self.active = True
        self.current_phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # recording -----------------------------------------------------------

    def _wrap(self, fn, name, namer=None, attr=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.phase.append(tracer.current_phase)
            tracer.attr.append(None)
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.attr[idx] = type(exc).__name__
                raise
            tracer.end[idx] = time.perf_counter_ns()
            tracer._stack.pop()
            if namer is not None:
                tracer.names[idx] = namer(args, result)
            if attr is not None:
                tracer.attr[idx] = attr(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr_name, replacement) -> None:
        self._patches.append((owner, attr_name, getattr(owner, attr_name)))
        setattr(owner, attr_name, replacement)

    def install(self) -> None:
        # module functions, rebound everywhere a specnet module imported them
        for module in MODULES:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                span = f"{_short(module)}.{name}"
                wrapped = self._wrap(obj, span, attr=ATTRIBUTES.get(span))
                for other in MODULES:
                    for other_name, other_obj in list(vars(other).items()):
                        if other_obj is obj:
                            self._patch(other, other_name, wrapped)
        # layer passes
        for cls in vars(nn).values():
            if not (inspect.isclass(cls) and issubclass(cls, nn.Layer) and cls is not nn.Layer):
                continue
            label = LAYER_NAMES.get(cls.__name__, cls.__name__.lower())
            for method, direction in (("forward", "fwd"), ("backward", "bwd")):
                if method not in vars(cls):
                    continue
                namer = _conv_name(direction) if cls is nn.Conv else None
                fn = vars(cls)[method]
                self._patch(cls, method, self._wrap(fn, f"nn.{label}.{direction}", namer))
        for method in ("forward", "backward", "zero_grads"):
            fn = vars(nn.Network)[method]
            self._patch(nn.Network, method, self._wrap(fn, f"nn.Network.{method}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr_name, original = self._patches.pop()
            setattr(owner, attr_name, original)

    def write(self, path: Path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [
            [index[n], s, e, p, ph, a]
            for n, s, e, p, ph, a in zip(
                self.names, self.start, self.end, self.parent, self.phase, self.attr
            )
        ]
        path.write_text(json.dumps({"names": table, "spans": spans}))


# reduction to per-layer metrics ---------------------------------------------


class _Spans:
    """Column view of one phase's spans, with self times and the enclosing
    CLI command of each span."""

    def __init__(self, tracer: Tracer, phase: str):
        names = np.array(tracer.names, dtype=object)
        parent = np.array(tracer.parent, dtype=np.int64)
        dur = (np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)) / 1e9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # parents are opened, hence indexed, before their children
        command = np.full(len(dur), -1)
        for i, (name, p) in enumerate(zip(tracer.names, tracer.parent)):
            if name.startswith("cli.cmd_"):
                command[i] = i
            elif p >= 0:
                command[i] = command[p]
        keep = np.array(tracer.phase, dtype=object) == phase
        self.names = names[keep]
        self.dur = dur[keep]
        self.self_time = (dur - child)[keep]
        self.attr = np.array(tracer.attr, dtype=object)[keep]
        self.parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")[keep]
        self.command_name = np.where(command >= 0, names[np.maximum(command, 0)], "")[keep]
        self.command = command[keep]

    def has(self, name: str) -> bool:
        return bool((self.names == name).any())

    def sel(self, name: str) -> np.ndarray:
        return self.names == name


def layer_metrics(tracer: Tracer, reps: dict[str, int], overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Each metric comes from the timed rounds when they ran the traced call,
    else from the set-ups. `reps` gives the number of traced repetitions of
    each phase, for the per-round counts.
    """
    phases = {ph: _Spans(tracer, ph) for ph in ("round", "setup")}

    def pick(name: str) -> tuple[_Spans, int]:
        for ph in ("round", "setup"):
            if phases[ph].has(name):
                return phases[ph], reps[ph]
        raise KeyError(f"no traced call of {name}")

    out: dict[str, tuple[float, str]] = {}

    def median(metric: str, span: str, scale: float, unit: str, self_time: bool = False) -> None:
        s, _ = pick(span)
        values = (s.self_time if self_time else s.dur)[s.sel(span)]
        out[metric] = (statistics.median(values.tolist()) * scale, unit)

    def per_item(metric: str, span: str) -> None:
        s, _ = pick(span)
        m = s.sel(span)
        out[metric] = (s.dur[m].sum() * 1e3 / sum(s.attr[m]), "ms")

    for label in ("conv", "conv_wholemap", "subnorm", "divnorm", "subspool", "lppool", "tanh", "full"):
        for direction in ("fwd", "bwd"):
            median(f"nn.{label}.{direction}_ms", f"nn.{label}.{direction}", 1e3, "ms")
    median("nn.network.fwd_ms", "nn.Network.forward", 1e3, "ms")
    median("nn.network.bwd_ms", "nn.Network.backward", 1e3, "ms")
    median("nn.zero_grads_ms", "nn.Network.zero_grads", 1e3, "ms")
    median("nn.sgd_step_ms", "nn.sgd_step", 1e3, "ms")
    median("nn.save_checkpoint_ms", "nn.save_checkpoint", 1e3, "ms")
    median("nn.load_checkpoint_ms", "nn.load_checkpoint", 1e3, "ms")
    s, n = pick("nn.Network.forward")
    out["nn.forward_calls"] = (int(s.sel("nn.Network.forward").sum()) / n, "count")

    # harness: the SGD step outside the four network calls is overhead
    s, _ = pick("harness.train")
    in_train = s.parent_name == "harness.train"
    counted = np.isin(
        s.names,
        [
            "nn.Network.forward",
            "nn.Network.backward",
            "nn.Network.zero_grads",
            "nn.sgd_step",
            "harness.evaluate",
            "nn.save_checkpoint",
        ],
    )
    steps = int((in_train & (s.names == "nn.sgd_step")).sum())
    gap = s.dur[s.sel("harness.train")].sum() - s.dur[in_train & counted].sum()
    out["harness.step_overhead_ms"] = (gap * 1e3 / steps, "ms")
    validation = s.dur[in_train & (s.names == "harness.evaluate")].sum()
    out["harness.validation_s"] = (validation / int(s.sel("harness.train").sum()), "s")
    per_item("harness.evaluate_ms_per_sample", "harness.evaluate")
    per_item("harness.classify_ms_per_sample", "harness.classify")
    per_item("harness.load_dataset_ms_per_image", "harness.load_dataset")
    s, _ = pick("cli.cmd_classify")
    in_classify = s.command_name == "cli.cmd_classify"
    forwards = int((in_classify & (s.names == "nn.Network.forward")).sum())
    tested = sum(s.attr[in_classify & (s.names == "harness.classify")])
    out["harness.forwards_per_test_sample"] = (forwards / tested, "count")

    for fn in (
        "read_spectrum",
        "reduce_spectrum",
        "filter_impaired",
        "spectrum_to_image",
        "write_pgm",
        "read_pgm",
        "write_spectrum",
    ):
        median(f"preprocess.{fn}_ms", f"preprocess.{fn}", 1e3, "ms")
    # rejection counts of the last preprocess command; every command of a
    # phase sees the same inputs
    s, _ = pick("cli.cmd_preprocess")
    last = s.command[s.sel("cli.cmd_preprocess")][-1]
    in_last = s.command == last
    out["preprocess.kept"] = (int((in_last & (s.names == "preprocess.write_pgm")).sum()), "count")
    gaps = in_last & (s.names == "preprocess.reduce_spectrum") & (s.attr == "ImpairedSpectrum")
    out["preprocess.rejected.ImpairedSpectrum"] = (int(gaps.sum()), "count")
    verdicts = s.attr[in_last & (s.names == "preprocess.filter_impaired")]
    for reason in ("NonFinite", "ZeroFraction", "ZeroRun"):
        out[f"preprocess.rejected.{reason}"] = (int(sum(v == reason for v in verdicts)), "count")

    median("synthgen.synth_dataset_s", "synthgen.synth_dataset", 1.0, "s")
    median("catalog.parse_catalog_s", "catalog.parse_catalog", 1.0, "s")
    median("catalog.filter_good_s", "catalog.filter_good", 1.0, "s")
    median("sampler.build_splits_s", "sampler.build_splits", 1.0, "s")
    median("sampler.empirical_cdf_ms", "sampler.empirical_cdf", 1e3, "ms")
    median("sampler.ks_distance_s", "sampler.ks_distance", 1.0, "s")
    s, n = pick("sampler.ks_distance")
    out["sampler.ks_points"] = (sum(s.attr[s.sel("sampler.ks_distance")]) / n, "count")
    median("arch.build_network_ms", "arch.build_network", 1e3, "ms")
    for command in ("synth", "preprocess", "sample", "train", "classify"):
        median(f"cli.{command}.self_s", f"cli.cmd_{command}", 1.0, "s", self_time=True)
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
