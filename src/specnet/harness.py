"""Training and evaluation harness: epoch loop with validation tracking and
per-epoch checkpoints, confusion matrices, classification listings, and
training-curve emission.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .catalog import ObjectClass
from .preprocess import SpectralImage, read_pgm


def _net_input(image: SpectralImage) -> np.ndarray:
    # 8-bit pixels mapped into the nonlinearity's working range [-1, 1]
    return (image.pixels.astype(float) / 127.5 - 1.0)[None, :, :]


def _target(label: ObjectClass) -> np.ndarray:
    t = np.zeros(3)
    t[int(label)] = 1.0
    return t


@dataclass
class EpochStats:
    epoch: int
    eta: float
    train_loss: float
    val_rate: float
    class_rates: tuple[float, float, float]


@dataclass
class TrainReport:
    rows: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    checkpoints: dict[int, str] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "best_epoch": self.best_epoch,
            "wall_seconds": self.wall_seconds,
            "checkpoints": {str(k): v for k, v in self.checkpoints.items()},
            "rows": [
                {
                    "epoch": r.epoch,
                    "eta": r.eta,
                    "train_loss": r.train_loss,
                    "val_rate": r.val_rate,
                    "class_rates": list(r.class_rates),
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainReport":
        payload = json.loads(text)
        report = cls(
            best_epoch=payload["best_epoch"],
            wall_seconds=payload.get("wall_seconds", 0.0),
            checkpoints={int(k): v for k, v in payload.get("checkpoints", {}).items()},
        )
        for row in payload["rows"]:
            report.rows.append(
                EpochStats(
                    row["epoch"],
                    row["eta"],
                    row["train_loss"],
                    row["val_rate"],
                    tuple(row["class_rates"]),
                )
            )
        return report


@dataclass
class ConfusionMatrix:
    """3x3 counts; rows are catalog classes, columns predicted classes."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def overall_rate(self) -> float:
        return float(np.trace(self.counts)) / self.total if self.total else 0.0

    @property
    def class_rates(self) -> tuple[float, float, float]:
        rates = []
        for i in range(3):
            row = self.counts[i].sum()
            rates.append(float(self.counts[i, i]) / row if row else 0.0)
        return tuple(rates)


def predict(net: nn.Network, image: SpectralImage) -> ObjectClass:
    """Argmax of the three outputs; ties break toward the lowest class index.
    A non-finite output is a ValueError naming the sample."""
    y = net.forward(_net_input(image))
    if not np.isfinite(y).all():
        raise ValueError(f"sample {image.ident}: network output {y} is not finite")
    return ObjectClass(int(np.argmax(y)))


def evaluate(net: nn.Network, samples: list[SpectralImage]) -> ConfusionMatrix:
    counts = np.zeros((3, 3), dtype=int)
    for s in samples:
        counts[int(s.label), int(predict(net, s))] += 1
    return ConfusionMatrix(counts)


def train(
    net: nn.Network,
    train_set: list[SpectralImage],
    valid_set: list[SpectralImage],
    *,
    eta0: float,
    decay: float,
    epochs: int,
    seed: int,
    out_dir: str | Path | None = None,
    stop_at_val_rate: float | None = None,
) -> TrainReport:
    """Per-pattern SGD for `epochs` epochs with per-epoch validation.

    Epoch t (1-based) runs at eta_t = eta0 / (1 + decay*(t-1)); epoch 0 in
    the report is the untrained baseline. A checkpoint is saved every epoch
    when out_dir is given. Deterministic under `seed`. A non-finite loss
    stops the run with a ValueError naming the epoch and the sample.
    """
    if eta0 < 0 or decay < 0 or epochs < 0:
        raise ValueError("eta0, decay and epochs must be non-negative")
    if not train_set:
        raise ValueError("empty training set")
    for s in train_set + valid_set:
        if (1, s.side, s.side) != net.input_shape:
            raise ValueError(
                f"sample {s.ident} side {s.side} does not match "
                f"network input {net.input_shape}"
            )
        if s.label is None:
            raise ValueError(f"sample {s.ident} has no label")
    started = time.monotonic()
    report = TrainReport()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    def record(epoch: int, eta: float, loss: float) -> None:
        cm = evaluate(net, valid_set) if valid_set else ConfusionMatrix(np.zeros((3, 3), int))
        report.rows.append(EpochStats(epoch, eta, loss, cm.overall_rate, cm.class_rates))
        if out_path is not None:
            ckpt = out_path / f"net_epoch_{epoch:03d}.ckpt"
            nn.save_checkpoint(net, ckpt)
            report.checkpoints[epoch] = str(ckpt)

    record(0, nn.effective_eta(eta0, decay, 0), float("nan"))
    for epoch in range(1, epochs + 1):
        eta = nn.effective_eta(eta0, decay, epoch - 1)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(epoch,)))
        )
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        for idx in order:
            sample = train_set[idx]
            y = net.forward(_net_input(sample))
            target = _target(sample.label)
            loss = nn.mse_loss(y, target)
            if not math.isfinite(loss):
                raise ValueError(
                    f"epoch {epoch}: loss {loss} on sample {sample.ident} is not finite"
                )
            loss_sum += loss
            net.zero_grads()
            net.backward(nn.mse_loss_grad(y, target))
            nn.sgd_step(net, eta)
        record(epoch, eta, loss_sum)
        if stop_at_val_rate is not None and report.rows[-1].val_rate >= stop_at_val_rate:
            break

    best = max(report.rows, key=lambda r: (r.val_rate, -r.epoch))
    report.best_epoch = best.epoch
    report.wall_seconds = time.monotonic() - started
    return report


def classify(net: nn.Network, samples: list[SpectralImage]) -> tuple[str, str, ConfusionMatrix]:
    """Match and mismatch listings, and the confusion matrix of those predictions.

    Mismatch rows: 'PLATE\\tMJD\\tFIBERID\\tcatalog: <class>\\tconvnet: <class>';
    match rows omit the convnet column. Both listings end with a summary
    line carrying the overall success rate.
    """
    header = "#PLATE\tMJD\tFIBERID"
    match_rows, mismatch_rows = [header], [header]
    cm = ConfusionMatrix(np.zeros((3, 3), dtype=int))
    for s in samples:
        predicted = predict(net, s)
        cm.counts[int(s.label), int(predicted)] += 1
        p, m, f = s.ident
        if predicted == s.label:
            match_rows.append(f"{p}\t{m}\t{f}\tcatalog: {s.label.label}")
        else:
            mismatch_rows.append(
                f"{p}\t{m}\t{f}\tcatalog: {s.label.label}\tconvnet: {predicted.label}"
            )
    summary = f"# success rate: {cm.overall_rate:.4f}"
    match_rows.append(summary)
    mismatch_rows.append(summary)
    return "\n".join(match_rows) + "\n", "\n".join(mismatch_rows) + "\n", cm


def emit_curves(report: TrainReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Two-column (epoch, rate) and (epoch, loss) files for external plotting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rate_path = out / "val_rate.txt"
    loss_path = out / "train_loss.txt"
    rate_path.write_text(
        "".join(f"{r.epoch}\t{r.val_rate:.10f}\n" for r in report.rows)
    )
    loss_path.write_text(
        "".join(f"{r.epoch}\t{r.train_loss:.10f}\n" for r in report.rows)
    )
    return rate_path, loss_path


def load_dataset(
    imgs_dir: str | Path,
    split: str,
    rows: list[tuple[int, int, int, ObjectClass, float]],
) -> list[SpectralImage]:
    """Load the labeled PGM images of the split-list rows from imgs/<split>/<class>/."""
    base = Path(imgs_dir) / split
    samples = []
    for plate, mjd, fiberid, cls, _z in rows:
        path = base / cls.label / f"{plate}-{mjd}-{fiberid}.pgm"
        if not path.exists():
            raise FileNotFoundError(f"missing image {path}")
        samples.append(SpectralImage((plate, mjd, fiberid), read_pgm(path), cls))
    return samples
