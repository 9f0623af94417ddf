"""Command-line entry point wiring the pipeline stages:
sample, preprocess, synth, train, classify, report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import arch, harness, nn, preprocess, sampler, synthgen
from .catalog import CatalogRecord, ObjectClass, filter_good, parse_catalog, serialize_catalog

# the --set keys of synth and sample, with their defaults
SYNTH_KEYS = {"train": 100, "valid": 30, "test": 50, "zmin": 0.0, "zmax": 1.5, "noise": 0.05}
SAMPLE_KEYS = {"train": 100, "valid": 10, "test": 50, "intervals": 60}


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"error: --set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _set_keys(args, defaults: dict) -> dict:
    """`defaults` with the --set values, each cast to its default's type."""
    return {**defaults, **arch.cast_keys(_parse_overrides(args.set), defaults)}


def _load_config(args, config: Path | None = None) -> arch.RunConfig:
    """Defaults, or the config file (--config, else `config`), then --set,
    --seed and --out."""
    cfg = arch.RunConfig()
    config = args.config or config
    if config:
        try:
            cfg = arch.parse_config(Path(config).read_text())
        except FileNotFoundError:
            raise SystemExit(f"error: config file {config} not found")
        except arch.ConfigError as exc:
            raise arch.ConfigError(f"{config}: {exc}") from None
    cfg = arch.apply_overrides(cfg, _parse_overrides(args.set))
    if args.seed is not None:
        cfg = arch.apply_overrides(cfg, {"seed": str(args.seed)})
    if args.out is not None:
        cfg = arch.apply_overrides(cfg, {"out": args.out})
    return cfg


def cmd_synth(args) -> int:
    keys = _set_keys(args, SYNTH_KEYS)
    counts = {split: keys[split] for split in sampler.SPLIT_NAMES}
    seed = args.seed if args.seed is not None else 0
    out = Path(args.out or "synth")
    data = synthgen.synth_dataset(counts, (keys["zmin"], keys["zmax"]), keys["noise"], seed)
    for split, spectra in data.spectra.items():
        split_dir = out / "spectra" / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for spec in spectra:
            preprocess.write_spectrum(spec, split_dir / f"{spec.name}.txt")
    (out / "catalog.txt").write_text(serialize_catalog(data.records))
    sets_dir = out / "spectra_sets"
    sets_dir.mkdir(parents=True, exist_ok=True)
    for split_idx, split in enumerate(sampler.SPLIT_NAMES):
        recs = [r for r in data.records if r.mjd == 55000 + split_idx]
        (sets_dir / split).write_text(sampler.format_split_list(recs))
    print(f"synth: wrote {sum(len(v) for v in data.spectra.values())} spectra under {out}")
    return 0


def cmd_sample(args) -> int:
    if not args.catalog:
        raise SystemExit("error: sample requires --catalog FILE")
    try:
        records = parse_catalog(Path(args.catalog).read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: catalog file {args.catalog} not found")
    good = filter_good(records)
    if not good:
        raise SystemExit("error: no good records (specboss=1, zwarning=0) in catalog")
    keys = _set_keys(args, SAMPLE_KEYS)
    seed = args.seed if args.seed is not None else 0
    out = Path(args.out or "sample")
    per_class = {c: [r for r in good if r.obj_class == c] for c in ObjectClass}
    split = sampler.build_splits(
        per_class,
        {name: {c: keys[name] for c in ObjectClass} for name in sampler.SPLIT_NAMES},
        n_intervals=keys["intervals"],
        seed=seed,
    )
    sets_dir = out / "spectra_sets"
    sets_dir.mkdir(parents=True, exist_ok=True)
    for name in sampler.SPLIT_NAMES:
        (sets_dir / name).write_text(sampler.format_split_list(split.split(name)))
    # histogram / CDF diagnostics per class, raw pool vs training selection
    for cls in ObjectClass:
        pool = per_class[cls]
        chosen = [r for r in split.train if r.obj_class == cls]
        if not pool:
            continue
        (out / f"hist_{cls.label}_raw.txt").write_text(
            sampler.format_histogram(sampler.histogram(pool, 0.1))
        )
        (out / f"cdf_{cls.label}_raw.txt").write_text(
            sampler.format_cdf(sampler.empirical_cdf([r.z for r in pool]))
        )
        if chosen:
            (out / f"hist_{cls.label}_selected.txt").write_text(
                sampler.format_histogram(sampler.histogram(chosen, 0.1))
            )
            (out / f"cdf_{cls.label}_selected.txt").write_text(
                sampler.format_cdf(sampler.empirical_cdf([r.z for r in chosen]))
            )
    for note in split.shortfalls:
        print(f"sample: shortfall {note}")
    print(f"sample: wrote split lists under {sets_dir}")
    return 0


def cmd_preprocess(args) -> int:
    if not args.spectra or not args.lists:
        raise SystemExit("error: preprocess requires --spectra DIR and --lists DIR")
    side = args.side
    out = Path(args.out or "preprocessed")
    imgs_dir = out / "imgs"
    sets_dir = out / "spectra_sets"
    sets_dir.mkdir(parents=True, exist_ok=True)
    report = {}
    for split in sampler.SPLIT_NAMES:
        list_path = Path(args.lists) / split
        if not list_path.exists():
            raise SystemExit(f"error: split list {list_path} not found")
        rows = sampler.parse_split_list(list_path.read_text())
        rejected = dict.fromkeys(preprocess.REJECTION_REASONS, 0)
        surviving = []
        for plate, mjd, fiberid, cls, z in rows:
            spec_path = Path(args.spectra) / split / f"{plate}-{mjd}-{fiberid}.txt"
            if not spec_path.exists():
                raise SystemExit(f"error: spectrum file {spec_path} not found")
            spec = preprocess.read_spectrum(spec_path, (plate, mjd, fiberid), cls, z)
            try:
                reduced = preprocess.reduce_spectrum(spec)
            except preprocess.ImpairedSpectrum:
                rejected["ImpairedSpectrum"] += 1
                continue
            verdict = preprocess.filter_impaired(reduced)
            if not verdict.passed:
                rejected[verdict.reason] += 1
                continue
            img = preprocess.spectrum_to_image(reduced, side)
            img_dir = imgs_dir / split / cls.label
            img_dir.mkdir(parents=True, exist_ok=True)
            preprocess.write_pgm(img, img_dir / f"{reduced.name}.pgm")
            surviving.append((plate, mjd, fiberid, cls, z))
        recs = [CatalogRecord(p, m, f, 1, 0, c, z) for p, m, f, c, z in surviving]
        (sets_dir / split).write_text(sampler.format_split_list(recs))
        report[split] = {"total": len(rows), "kept": len(surviving), "rejected": rejected}
    (out / "preprocess_report.json").write_text(json.dumps(report, indent=2) + "\n")
    kept = sum(r["kept"] for r in report.values())
    total = sum(r["total"] for r in report.values())
    print(f"preprocess: {kept}/{total} spectra rasterized to {side}x{side} under {imgs_dir}")
    return 0


def _load_split(cfg: arch.RunConfig, split: str) -> list[preprocess.SpectralImage]:
    list_path = Path(cfg.lists) / split
    if not list_path.exists():
        raise SystemExit(f"error: split list {list_path} not found")
    rows = sampler.parse_split_list(list_path.read_text())
    return harness.load_dataset(cfg.imgs, split, rows)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    # a value run.conf cannot hold stops the run before its first epoch
    run_conf = arch.serialize_config(cfg)
    net = arch.build_network(cfg)
    net.initialize(cfg.seed)
    train_set = _load_split(cfg, "train")
    valid_set = _load_split(cfg, "valid")
    out = Path(cfg.out)
    report = harness.train(
        net, train_set, valid_set,
        eta0=cfg.eta0, decay=cfg.decay, epochs=cfg.epochs, seed=cfg.seed, out_dir=out / "net",
    )
    if not out.is_absolute():  # relative to the run dir, so classify works from any cwd
        report.checkpoints = {e: os.path.relpath(p, out) for e, p in report.checkpoints.items()}
    (out / "train_report.json").write_text(report.to_json())
    harness.emit_curves(report, out)
    (out / "run.conf").write_text(run_conf)
    best = report.rows[report.best_epoch]
    print(
        f"train: {cfg.arch} {cfg.input_side}x{cfg.input_side} {cfg.pooling}, "
        f"{cfg.epochs} epochs; best epoch {report.best_epoch} "
        f"val rate {best.val_rate:.4f}"
    )
    return 0


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    source = args.config or "defaults"
    run_conf = Path(cfg.out) / "run.conf"
    if args.config is None and run_conf.is_file():
        # the network the run dir's checkpoints were trained with; out stays
        # this dir, as the out recorded in run.conf may be relative to another cwd
        cfg = arch.apply_overrides(_load_config(args, run_conf), {"out": cfg.out})
        source = run_conf
    net = arch.build_network(cfg)
    checkpoint = args.checkpoint
    if checkpoint is None:
        report_path = Path(cfg.out) / "train_report.json"
        if not report_path.exists():
            raise SystemExit("error: classify needs --checkpoint or a prior train run in the out dir")
        report = harness.TrainReport.from_json(report_path.read_text())
        if report.best_epoch not in report.checkpoints:
            raise ValueError(f"{report_path}: no checkpoint for best epoch {report.best_epoch}")
        checkpoint = Path(cfg.out) / report.checkpoints[report.best_epoch]
        if not checkpoint.exists():  # older reports hold paths relative to the training cwd
            checkpoint = Path(report.checkpoints[report.best_epoch])
    try:
        nn.load_checkpoint(net, checkpoint)
    except FileNotFoundError:
        raise SystemExit(f"error: checkpoint {checkpoint} not found")
    except ValueError as exc:
        raise SystemExit(
            f"error: {exc} (the {cfg.arch} {cfg.input_side}x{cfg.input_side} "
            f"{cfg.pooling} network was built from {source} and --set)"
        )
    test_set = _load_split(cfg, "test")
    match_text, mismatch_text, cm = harness.classify(net, test_set)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "classify_match").write_text(match_text)
    (out / "classify_mismatch").write_text(mismatch_text)
    rates = cm.class_rates
    print(
        f"classify: {cm.total} objects, success rate {cm.overall_rate:.4f} "
        f"(galaxy {rates[0]:.4f}, qso {rates[1]:.4f}, star {rates[2]:.4f})"
    )
    return 0


def cmd_report(args) -> int:
    if not args.report:
        raise SystemExit("error: report requires --report FILE")
    try:
        report = harness.TrainReport.from_json(Path(args.report).read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: report file {args.report} not found")
    print(f"epochs: {len(report.rows) - 1}")
    print(f"best epoch: {report.best_epoch}")
    for row in report.rows:
        rates = ", ".join(f"{r:.4f}" for r in row.class_rates)
        print(
            f"epoch {row.epoch:3d}  eta {row.eta:.6f}  loss {row.train_loss:10.4f}  "
            f"val {row.val_rate:.4f}  per-class [{rates}]"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specnet",
        description="Spectral classification pipeline: dataset sampling, "
        "spectrum rasterization and ConvNet training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--config": dict(help="key=value config file"),
        "--seed": dict(type=int, help="override the seed"),
        "--out": dict(help="output directory"),
        "--set": dict(action="append", metavar="KEY=VALUE", help="set a key (see README)"),
    }

    def command(name, func, summary, *names):
        p = sub.add_parser(name, help=summary)
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "generate a synthetic labeled spectrum corpus",
            "--seed", "--out", "--set")

    p = command("sample", cmd_sample, "build stratified split lists from a catalog",
                "--seed", "--out", "--set")
    p.add_argument("--catalog", help="catalog text file")

    p = command("preprocess", cmd_preprocess, "reduce, filter and rasterize spectra to PGM images",
                "--out")
    p.add_argument("--spectra", help="directory with <split>/<id>.txt spectra")
    p.add_argument("--lists", help="directory with train/valid/test split lists")
    p.add_argument("--side", type=int, default=60, help="image side length (default 60)")

    run = ("--config", "--seed", "--out", "--set")
    command("train", cmd_train, "train a network and emit report, curves, checkpoints", *run)

    p = command("classify", cmd_classify, "classify the test split with a trained network", *run)
    p.add_argument("--checkpoint", help="checkpoint file (default: best epoch of the out dir)")

    p = command("report", cmd_report, "print a human-readable training report summary")
    p.add_argument("--report", help="train_report.json produced by the train subcommand")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
