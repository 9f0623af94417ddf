#!/usr/bin/env python3
"""specnet benchmark: three workloads driven through `specnet.cli.main`.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Every run first sets up its inputs three times (the
median is `setup_s`), then repeats whole rounds of the workload's commands
until S seconds of command time have been measured. Outputs are checked
against the benchmark's own computations (benchmarks/checks.py) outside the
timed regions. The last line of stdout is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics from traced calls with --trace 1.
See benchmarks/README.md for the workloads, sizes and metric meanings.
"""

from __future__ import annotations

import os

# one BLAS thread: per-pattern SGD runs small products, and a fixed thread
# count keeps runs on a shared machine comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3
SIDE = 60
ETA0, DECAY = 0.05, 0.1
CLASSES = ("galaxy", "qso", "star")
SPLITS = ("train", "valid", "test")
IMPAIRMENTS = ("ImpairedSpectrum", "NonFinite", "ZeroFraction", "ZeroRun")


@dataclass(frozen=True)
class Corpus:
    """`specnet synth` counts per class for train / valid / test, and the
    number of spectra per impairment kind the benchmark rewrites in each
    split."""

    train: int
    valid: int
    test: int
    impaired: tuple[int, int, int]


@dataclass(frozen=True)
class Catalog:
    """Benchmark-made catalog for `specnet sample`: records per class, the
    per-class split targets and the number of redshift intervals."""

    per_class: int
    targets: tuple[int, int, int]
    intervals: int


@dataclass(frozen=True)
class Net:
    arch: str
    pooling: str
    epochs: int
    per_class: tuple[int, int, int] | None  # split-list subset; None: all
    min_accuracy: float | None = None  # test accuracy floor


@dataclass(frozen=True)
class Workload:
    corpus: Corpus  # made in every set-up; the networks learn from it
    setup_nets: tuple[Net, ...]  # trained, then classified, in every set-up
    round_corpus: Corpus  # synth, impair, preprocess in every round
    round_catalog: Catalog  # sample and KS in every round
    round_train: Net  # trained, then classified, in every round ...
    round_classify: Net | None = None  # ... unless this set-up net classifies


# Every round runs all five commands, so every run reports every metric from
# several rounds; the sizes decide which command dominates. A set-up trains
# the other pooling kind, so every layer type is traced in every workload.
LENET5_SMALL = Net("lenet5", "subs", 1, (4, 2, 4))
LENET7_SMALL = Net("lenet7", "l2pool", 1, (4, 2, 4))
SMALL_CORPUS = Corpus(6, 3, 6, (1, 0, 0))
SMALL_CATALOG = Catalog(900, (30, 10, 20), 10)
#: above chance (1/3) by 1/6
ACCURACY_FLOOR = 0.5

WORKLOADS = {
    "train-lenet5-60": Workload(
        corpus=Corpus(15, 5, 15, (0, 0, 1)),
        setup_nets=(LENET7_SMALL,),
        round_corpus=SMALL_CORPUS,
        round_catalog=SMALL_CATALOG,
        round_train=Net("lenet5", "subs", 2, None, ACCURACY_FLOOR),
    ),
    "classify-lenet7-60": Workload(
        corpus=Corpus(15, 5, 45, (0, 0, 1)),
        # learns from the whole train split; set-up classifies 4 per class
        setup_nets=(Net("lenet7", "l2pool", 3, (15, 5, 4)),),
        round_corpus=SMALL_CORPUS,
        round_catalog=SMALL_CATALOG,
        round_train=LENET5_SMALL,
        round_classify=Net("lenet7", "l2pool", 3, None, ACCURACY_FLOOR),
    ),
    "prepare-corpus": Workload(
        corpus=Corpus(8, 4, 8, (0, 0, 0)),
        setup_nets=(LENET7_SMALL,),
        round_corpus=Corpus(15, 5, 10, (2, 1, 1)),
        round_catalog=Catalog(1500, (90, 30, 60), 30),
        round_train=LENET5_SMALL,
    ),
}
ROUND_COMMANDS = 5

#: end-to-end metric -> the command whose records give it
COMMAND_METRICS = {
    "synth_spectra_per_s": "synth",
    "preprocess_spectra_per_s": "preprocess",
    "sample_records_per_s": "sample",
    "train_samples_per_s": "train",
    "classify_samples_per_s": "classify",
}


class CommandFailed(Exception):
    pass


def _import_program() -> None:
    if not (SRC / "specnet" / "__init__.py").is_file():
        print(f"error: no specnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import specnet

    if SRC.resolve() not in Path(specnet.__file__).resolve().parents:
        print(f"error: specnet imported from {specnet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402

from specnet import arch, cli, nn, preprocess, sampler  # noqa: E402

import checks  # noqa: E402
from checks import require  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def ident_of(path: Path) -> tuple[int, int, int]:
    plate, mjd, fiber = path.stem.split("-")
    return int(plate), int(mjd), int(fiber)


@dataclass
class CorpusDir:
    root: Path
    injected: dict[tuple[int, int, int], str]

    @property
    def imgs(self) -> Path:
        return self.root / "imgs"

    @property
    def lists(self) -> Path:
        return self.root / "spectra_sets"


class Bench:
    """One benchmark run: runs CLI commands, records their wall times and
    checks their outputs."""

    def __init__(self, workload: Workload, seed: int, tracer: Tracer | None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.records: list[list] = []  # [command, phase, items, seconds]
        self.phase = "setup"
        self.attempted = self.failed = 0
        self.check_seconds = 0.0
        self._images: dict[str, np.ndarray] = {}
        self._nets_checked: set[tuple[str, str]] = set()
        self._listings: dict[tuple[Path, Path], tuple[str, str]] = {}

    # plumbing -----------------------------------------------------------

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, *key]))

    def cli(self, command: str, items: int, *args: str) -> str:
        """Run one `specnet` command in-process; returns its stdout."""
        self.attempted += 1
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([command, *args])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - started
        if rc != 0:
            self.failed += 1
            raise CommandFailed(f"specnet {command} exited with {rc}")
        self.records.append([command, self.phase, items, seconds])
        return out.getvalue()

    @contextlib.contextmanager
    def checking(self):
        """Checks run untraced, and their time is not set-up time."""
        started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = True
            self.check_seconds += time.perf_counter() - started

    # data pipeline ------------------------------------------------------

    def make_corpus(self, root: Path, spec: Corpus, key: int) -> CorpusDir:
        """`specnet synth`, impairment of a seeded share, `specnet preprocess`."""
        counts = (spec.train, spec.valid, spec.test)
        n = 3 * sum(counts)
        self.cli(
            "synth", n, "--out", str(root), "--seed", str(self.seed),
            *(f"--set={s}={c}" for s, c in zip(SPLITS, counts)),
        )
        injected = {}
        rng = self.rng(1, key)
        for split, per_kind in zip(SPLITS, spec.impaired):
            files = sorted((root / "spectra" / split).glob("*.txt"))
            chosen = rng.choice(len(files), size=per_kind * len(IMPAIRMENTS), replace=False)
            for kind, idx in zip(IMPAIRMENTS * per_kind, chosen):
                loglam, flux = checks.read_spectrum_file(files[idx])
                checks.write_spectrum_file(files[idx], *checks.impair(loglam, flux, kind))
                injected[ident_of(files[idx])] = kind
        corpus = CorpusDir(root, injected)
        with self.checking():
            self.check_synth(corpus, counts)
        self.cli(
            "preprocess", n, "--spectra", str(root / "spectra"), "--lists", str(corpus.lists),
            "--side", str(SIDE), "--out", str(root),
        )
        with self.checking():
            self.check_preprocess(corpus)
        return corpus

    def catalog_rows(self, spec: Catalog) -> list[tuple]:
        """Records (plate, mjd, fiber, specboss, zwarning, class, z) with a
        skewed redshift law: per class, half the records stratified-uniform
        on [0, 1.5] and half 1.5 * Beta(2, 6); 5% specboss=0 and 10% with
        zwarning bits set, independently."""
        rng = self.rng(2, spec.per_class)
        n, half = spec.per_class, spec.per_class // 2
        rows = []
        for code in range(3):
            flat = (np.arange(half) + rng.random(half)) * 1.5 / half
            zs = np.concatenate([flat, 1.5 * rng.beta(2.0, 6.0, n - half)])
            specboss = (rng.random(n) >= 0.05).astype(int)
            zwarning = np.where(rng.random(n) < 0.10, rng.integers(1, 256, n), 0)
            for k in range(n):
                z = float(f"{zs[k]:.10f}")
                rows.append((4000 + code, 56000, k + 1, int(specboss[k]), int(zwarning[k]), code, z))
        return rows

    def sample(self, root: Path, spec: Catalog) -> None:
        """`specnet sample` on a benchmark catalog, then the KS step: each
        class's train selection against its good-record pool."""
        rows = self.catalog_rows(spec)
        root.mkdir(parents=True, exist_ok=True)
        path = root / "catalog.txt"
        path.write_text(
            "#PLATE MJD FIBERID SPECBOSS ZWARNING CLASS Z\n"
            + "".join(f"{p} {m} {f} {sb} {zw} {c} {z:.10f}\n" for p, m, f, sb, zw, c, z in rows)
        )
        out = root / "sample"
        self.cli(
            "sample", len(rows), "--catalog", str(path), "--out", str(out),
            "--seed", str(self.seed), f"--set=intervals={spec.intervals}",
            *(f"--set={s}={t}" for s, t in zip(SPLITS, spec.targets)),
        )
        good = [r for r in rows if r[3] == 1 and r[4] == 0]
        pools = [[r[6] for r in good if r[5] == code] for code in range(3)]
        train = checks.read_split_list(out / "spectra_sets" / "train")
        chosen = [[z for _, c, z in train if c == code] for code in range(3)]
        started = time.perf_counter()
        distances = [
            sampler.ks_distance(sampler.empirical_cdf(pool), sampler.empirical_cdf(sel))
            for pool, sel in zip(pools, chosen)
        ]
        self.records[-1][3] += time.perf_counter() - started
        with self.checking():
            self.check_sample(out / "spectra_sets", spec, good, distances)

    # network ------------------------------------------------------------

    def net_lists(self, corpus: CorpusDir, net: Net, root: Path) -> Path:
        """The corpus split lists, or their first `per_class` rows per class."""
        if net.per_class is None:
            return corpus.lists
        lists = root / f"lists_{net.arch}"
        lists.mkdir(parents=True, exist_ok=True)
        for split, n in zip(SPLITS, net.per_class):
            header, *rows = (corpus.lists / split).read_text().splitlines()
            seen = {code: 0 for code in range(3)}
            kept = [header]
            for line in rows:
                code = int(line.split()[3])
                if seen[code] < n:
                    kept.append(line)
                    seen[code] += 1
            (lists / split).write_text("\n".join(kept) + "\n")
        return lists

    def net_args(self, net: Net, corpus: CorpusDir, lists: Path) -> list[str]:
        return [
            f"--set=arch={net.arch}", f"--set=pooling={net.pooling}", f"--set=input={SIDE}",
            f"--set=imgs={corpus.imgs}", f"--set=lists={lists}",
        ]

    def train(self, run: Path, corpus: CorpusDir, net: Net, lists: Path) -> None:
        patterns = net.epochs * len(checks.read_split_list(lists / "train"))
        self.cli(
            "train", patterns, "--out", str(run), "--seed", str(self.seed),
            f"--set=epochs={net.epochs}", f"--set=eta0={ETA0}", f"--set=decay={DECAY}",
            *self.net_args(net, corpus, lists),
        )
        with self.checking():
            self.check_train(run, corpus, net, lists)

    def classify(self, run: Path, corpus: CorpusDir, net: Net, lists: Path) -> None:
        n = len(checks.read_split_list(lists / "test"))
        stdout = self.cli("classify", n, "--out", str(run), *self.net_args(net, corpus, lists))
        with self.checking():
            self.check_classify(run, net, lists, stdout)

    # phases -------------------------------------------------------------

    def setup(self, root: Path) -> CorpusDir:
        corpus = self.make_corpus(root / "corpus", self.w.corpus, 0)
        for net in self.w.setup_nets:
            lists = self.net_lists(corpus, net, root)
            self.train(root / f"run_{net.arch}", corpus, net, lists)
            self.classify(root / f"run_{net.arch}", corpus, net, lists)
        return corpus

    def round(self, root: Path, setup_root: Path, corpus: CorpusDir) -> None:
        w = self.w
        self.make_corpus(root / "corpus", w.round_corpus, 1)
        self.sample(root / "catalog", w.round_catalog)
        lists = self.net_lists(corpus, w.round_train, root)
        self.train(root / "run", corpus, w.round_train, lists)
        if w.round_classify is None:
            self.classify(root / "run", corpus, w.round_train, lists)
        else:
            net = w.round_classify
            self.classify(setup_root / f"run_{net.arch}", corpus, net, corpus.lists)

    # checks -------------------------------------------------------------

    def check_synth(self, corpus: CorpusDir, counts: tuple[int, int, int]) -> None:
        for split, count in zip(SPLITS, counts):
            files = list((corpus.root / "spectra" / split).glob("*.txt"))
            require(len(files) == 3 * count, f"synth wrote {len(files)} {split} spectra, not {3 * count}")
            rows = checks.read_split_list(corpus.lists / split)
            require(len(rows) == 3 * count, f"synth listed {len(rows)} {split} spectra")
        lines = (corpus.root / "catalog.txt").read_text().splitlines()
        require(len(lines) == 1 + 3 * sum(counts), "synth catalog size")

    def check_preprocess(self, corpus: CorpusDir) -> None:
        for split in SPLITS:
            spectra = {ident_of(p): p for p in (corpus.root / "spectra" / split).glob("*.txt")}
            expected = spectra.keys() - corpus.injected.keys()
            listed = {ident for ident, _, _ in checks.read_split_list(corpus.lists / split)}
            require(listed == expected, f"{split}: kept set is not the written set minus the impaired")
            pgms = {ident_of(p): p for p in (corpus.imgs / split).glob("*/*.pgm")}
            require(pgms.keys() == expected, f"{split}: images are not the kept set")
            for ident, pgm in pgms.items():
                key = hashlib.sha1(spectra[ident].read_bytes()).hexdigest()
                if key not in self._images:
                    spectrum = checks.read_spectrum_file(spectra[ident])
                    self._images[key] = checks.reference_image(*spectrum, SIDE).astype(int)
                diff = np.abs(checks.read_pgm_file(pgm).astype(int) - self._images[key]).max()
                require(diff <= 1, f"{pgm}: differs from the reference by {diff} gray levels")
            for ident in spectra.keys() & corpus.injected.keys():
                kind = corpus.injected[ident]
                loglam, flux = checks.read_spectrum_file(spectra[ident])
                require(checks.impairment_reason(loglam, flux) == kind, f"{ident}: injection is not {kind}")
                # the command drops the reason; ask the filter it ran
                spec = preprocess.read_spectrum(spectra[ident])
                try:
                    reason = preprocess.filter_impaired(preprocess.reduce_spectrum(spec)).reason
                except preprocess.ImpairedSpectrum:
                    reason = "ImpairedSpectrum"
                require(reason == kind, f"{ident}: rejected as {reason}, injected {kind}")

    def check_sample(self, lists: Path, spec: Catalog, good: list[tuple], distances: list[float]) -> None:
        good_ids = {r[:3] for r in good}
        taken: set = set()
        pools = {code: [r[6] for r in good if r[5] == code] for code in range(3)}
        pool_ids = {code: [r[:3] for r in good if r[5] == code] for code in range(3)}
        for split, target in zip(SPLITS, spec.targets):
            rows = checks.read_split_list(lists / split)
            ids = {ident for ident, _, _ in rows}
            require(len(ids) == len(rows) and not taken & ids, f"{split}: splits overlap")
            require(ids <= good_ids, f"{split}: holds a record with specboss=0 or zwarning!=0")
            taken |= ids
            for code in range(3):
                zs = [z for _, c, z in rows if c == code]
                require(len(zs) == target, f"{split}/{CLASSES[code]}: {len(zs)} records, target {target}")
                counts = checks.interval_counts(zs, pools[code], spec.intervals)
                require(counts.max() - counts.min() <= 1, f"{split}/{CLASSES[code]}: interval counts {counts}")
                if split == "train":
                    ks = checks.ks_two_sample(pools[code], zs)
                    require(abs(ks - distances[code]) <= 1e-12, f"ks_distance {distances[code]} != {ks}")
                    lo, hi = min(pools[code]), max(pools[code])
                    require(
                        checks.ks_to_uniform(zs, lo, hi) <= checks.ks_to_uniform(pools[code], lo, hi),
                        f"{CLASSES[code]}: the selection is less uniform than its pool",
                    )
                left = [i not in ids for i in pool_ids[code]]
                pools[code] = [z for z, keep in zip(pools[code], left) if keep]
                pool_ids[code] = [i for i, keep in zip(pool_ids[code], left) if keep]

    def images(self, corpus: CorpusDir, lists: Path, split: str) -> list[tuple[np.ndarray, int]]:
        return [
            (checks.read_pgm_file(corpus.imgs / split / CLASSES[c] / f"{p}-{m}-{f}.pgm"), c)
            for (p, m, f), c, _ in checks.read_split_list(lists / split)
        ]

    def check_train(self, run: Path, corpus: CorpusDir, net: Net, lists: Path) -> None:
        report = json.loads((run / "train_report.json").read_text())
        require(len(report["rows"]) == net.epochs + 1, "one report row per epoch plus epoch 0")
        for row in report["rows"]:
            expected = ETA0 / (1.0 + DECAY * (max(row["epoch"], 1) - 1))
            require(abs(row["eta"] - expected) <= 1e-15, f"epoch {row['epoch']}: eta {row['eta']} != {expected}")
        best = report["best_epoch"]
        model = arch.build_network(arch.RunConfig(arch=net.arch, input_side=SIDE, pooling=net.pooling))
        nn.load_checkpoint(model, report["checkpoints"][str(best)])
        valid = self.images(corpus, lists, "valid")
        hits = sum(int(np.argmax(model.forward(checks.net_input(px)))) == c for px, c in valid)
        rate = report["rows"][best]["val_rate"]
        require(hits / len(valid) == rate, f"best checkpoint scores {hits}/{len(valid)}, report says {rate}")
        if (net.arch, net.pooling) in self._nets_checked:
            return
        self._nets_checked.add((net.arch, net.pooling))
        for px, _ in self.images(corpus, lists, "test")[:3]:
            x = checks.net_input(px)
            err = np.abs(checks.reference_forward(model, x) - model.forward(x)).max()
            require(err <= 1e-9, f"{net.arch}/{net.pooling}: forward differs from the reference by {err:.3e}")
        model.initialize(self.seed)
        px, label = valid[0]
        worst = checks.gradient_check(model, checks.net_input(px), label, self.rng(3))
        require(worst < 1e-4, f"{net.arch}/{net.pooling}: gradient check relative error {worst:.3e}")

    def check_classify(self, run: Path, net: Net, lists: Path, stdout: str) -> None:
        test = {ident: code for ident, code, _ in checks.read_split_list(lists / "test")}
        match = (run / "classify_match").read_text()
        mismatch = (run / "classify_mismatch").read_text()
        hits = {}
        for text, hit in ((match, True), (mismatch, False)):
            for line in text.splitlines():
                if line.startswith("#"):
                    continue
                fields = line.split("\t")
                ident = tuple(int(v) for v in fields[:3])
                require(ident in test and ident not in hits, f"listing row {line!r}")
                require(fields[3] == f"catalog: {CLASSES[test[ident]]}", f"listing row {line!r}")
                hits[ident] = hit
        require(len(hits) == len(test), "listings do not cover the test split")
        rate = f"{sum(hits.values()) / len(hits):.4f}"
        for text in (match, mismatch):
            require(text.splitlines()[-1] == f"# success rate: {rate}", "listing success-rate line")
        require(f"success rate {rate}" in stdout, f"classify printed {stdout.strip()!r}, listings say {rate}")
        if net.min_accuracy is not None:
            require(float(rate) >= net.min_accuracy, f"test accuracy {rate} below {net.min_accuracy}")
        # one network on the same inputs lists the same way every time
        first = self._listings.setdefault((run, lists), (match, mismatch))
        require(first == (match, mismatch), "listings changed between rounds")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def command_metrics(records: list[list]) -> dict[str, float]:
    """Items per second of each command, the median over the rounds."""
    return {
        name: statistics.median(n / s for cmd, phase, n, s in records if cmd == command and phase == "round")
        for name, command in COMMAND_METRICS.items()
    }


def measure(bench: Bench, work: Path, seconds: float) -> dict[str, tuple[float, str]]:
    """Set up SETUPS times, then run rounds for `seconds` of command time."""
    tracer, trace = bench.tracer, bench.tracer is not None
    if tracer is not None:
        tracer.install()
    setup_times = []
    for rep in range(SETUPS):
        bench.check_seconds = 0.0
        started = time.perf_counter()
        setup_root = fresh(work / f"setup{rep}")
        corpus = bench.setup(setup_root)
        setup_times.append(time.perf_counter() - started - bench.check_seconds)

    # rounds alternate untraced / traced in a traced run
    bench.phase = "round"
    round_seconds: dict[bool, list[float]] = {False: [], True: []}
    rounds = 0
    while sum(r[3] for r in bench.records if r[1] == "round") < seconds or rounds < 1 + trace:
        traced = trace and rounds % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
            tracer.current_phase = "round"
        before, attempted = len(bench.records), bench.attempted
        try:
            bench.round(fresh(work / "round"), setup_root, corpus)
        except CommandFailed as exc:
            print(f"round {rounds}: {exc}", file=sys.stderr)
            skipped = ROUND_COMMANDS - (bench.attempted - attempted)
            bench.attempted += skipped
            bench.failed += skipped
        round_seconds[traced].append(sum(r[3] for r in bench.records[before:]))
        rounds += 1
    if tracer is not None:
        tracer.uninstall()
    if trace:
        ratio = statistics.median(round_seconds[True]) / statistics.median(round_seconds[False])
        reps = {"setup": SETUPS, "round": len(round_seconds[True])}
        metrics = layer_metrics(tracer, reps, 100.0 * (ratio - 1.0))
        tracer.write(work.parent / f"trace-{work.name}.json")
        return metrics
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update({k: (v, "1/s") for k, v in command_metrics(bench.records).items()})
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MiB")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; a wrong output gives `correct: false` and no metrics."""
    work = fresh(OUT / f"{workload}-seed{seed}")
    bench = Bench(WORKLOADS[workload], seed, Tracer() if trace else None)
    try:
        metrics = measure(bench, work, seconds)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": bench.attempted, "failed": bench.failed, "metrics": {}}
    finally:
        if bench.tracer is not None:
            bench.tracer.uninstall()
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CommandFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
