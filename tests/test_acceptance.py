"""Acceptance suite: one test per criterion. Each test records a single
PASS/FAIL line printed in the terminal summary (see conftest), then asserts.

Stated tolerances:
  1. gradients: central differences, h = 1e-5, relative error < 1e-4,
     >= 100 perturbed entries per layer type, runtime < 60 s
  2. layer identities: 1e-12 (P = inf vs max: exact)
  3. synthetic learning: >= 0.90 validation within 50 epochs, < 15 min
  4. binning direction: 60x60 test accuracy > 28x28 for >= 2 of 3 seeds
  5. decay stability: final-20-epoch validation range strictly smaller
     with decay for >= 2 of 3 seeds; eta schedule non-increasing exactly
  6. sampler: per-interval counts differ <= 1, byte-identical re-run,
     KS(selection, uniform) <= KS(raw pool, uniform)
  7. preprocessing: 3601 samples, exact round trips, bit-exact PGM,
     flux-scaling invariance
  8. harness: trace/total == overall rate exactly, mismatch byte pattern,
     checkpoint restore reproduces validation rates exactly
"""

import re
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from specnet import arch, harness, nn, preprocess, sampler, synthgen
from specnet.catalog import CatalogRecord, ObjectClass
from _support import check_layer_gradients, check_network_gradients, tiny_network


@contextmanager
def verdict(acceptance, criterion: int, description: str):
    """Record PASS when the body completes, FAIL when any assertion fires.
    The body can refine the printed line through note()."""
    state = {"text": description}

    def note(text: str) -> None:
        state["text"] = text

    ok = False
    try:
        yield note
        ok = True
    finally:
        acceptance(criterion, state["text"], ok)


def images_for(spectra, side):
    return [preprocess.spectrum_to_image(s, side) for s in spectra]


def train_and_test_rate(seed, side, sets, eta0, decay, epochs):
    """Train LeNet-5 and evaluate the best-epoch checkpoint on the test split."""
    net = arch.build_lenet5(side, pooling="subs")
    net.initialize(seed)
    with tempfile.TemporaryDirectory() as td:
        report = harness.train(
            net, sets["train"], sets["valid"],
            eta0=eta0, decay=decay, epochs=epochs, seed=seed, out_dir=td,
        )
        nn.load_checkpoint(net, report.checkpoints[report.best_epoch])
        return harness.evaluate(net, sets["test"]).overall_rate


def test_criterion_1_gradient_correctness(acceptance):
    with verdict(acceptance, 1, "gradient correctness (rel err < 1e-4, h=1e-5)") as note:
        started = time.monotonic()
        cases = [
            ("conv", lambda: nn.Conv(3, 8, 3, 3), (3, 8, 8), False),
            ("tanh", lambda: nn.Tanh(), (4, 8, 8), False),
            ("rectified sigmoid", lambda: nn.RectifiedSigmoid(4), (4, 8, 8), False),
            ("subtractive norm", lambda: nn.SubtractiveNorm(5), (3, 8, 8), False),
            ("divisive norm", lambda: nn.DivisiveNorm(5), (3, 8, 8), False),
            ("subs pool", lambda: nn.SubsPool(4, 2), (4, 8, 8), False),
            ("lp pool P=1", lambda: nn.LpPool(2, p=1.0), (4, 8, 8), False),
            ("lp pool P=2", lambda: nn.LpPool(2, p=2.0), (4, 8, 8), False),
            ("full", lambda: nn.Full(20, 10), (20,), False),
        ]
        worst_overall = 0.0
        for name, make_layer, in_shape, nonneg in cases:
            worst, n_checked = check_layer_gradients(
                make_layer(), in_shape, seed=0, n_checks=330, h=1e-5, nonneg=nonneg
            )
            assert n_checked >= 100, f"{name}: only {n_checked} entries checked"
            assert worst < 1e-4, f"{name}: worst relative error {worst:.3e}"
            worst_overall = max(worst_overall, worst)
        net_worst = check_network_gradients(
            tiny_network(seed=1), seed=2, n_checks=120, h=1e-5
        )
        assert net_worst < 1e-4, f"composed network: worst relative error {net_worst:.3e}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f} s"
        note(
            f"analytic vs central-difference gradients, worst rel err "
            f"{max(worst_overall, net_worst):.2e} < 1e-4 (h=1e-5), {elapsed:.1f}s < 60s"
        )


def test_criterion_2_exact_layer_identities(acceptance):
    with verdict(
        acceptance, 2,
        "LpPool P=1 == Gaussian average (1e-12), P=inf == window max (exact), "
        "subtractive norm of constant == 0 (1e-12)",
    ):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 12, 12))

        pool1 = nn.LpPool(3, p=1.0)
        y1 = pool1.forward(x)
        gauss_avg = np.einsum(
            "abcpq,pq->abc",
            x.reshape(3, 4, 3, 4, 3).transpose(0, 1, 3, 2, 4),
            pool1.gauss,
        )
        assert np.max(np.abs(y1 - gauss_avg)) < 1e-12

        yinf = nn.LpPool(2, p=np.inf).forward(x)
        assert np.array_equal(yinf, x.reshape(3, 6, 2, 6, 2).max(axis=(2, 4)))

        const = nn.SubtractiveNorm(5).forward(np.full((4, 9, 9), 2.75))
        assert np.max(np.abs(const)) < 1e-12


def test_criterion_3_desk_scale_learning(acceptance):
    with verdict(acceptance, 3, "desk-scale learning on 3000/300/600 synthetic set") as note:
        started = time.monotonic()
        data = synthgen.synth_dataset(
            {"train": 1000, "valid": 100, "test": 200},  # totals 3000/300/600
            z_range=(0.0, 1.5),
            noise_sigma=0.05,
            seed=42,
        )
        sets = {split: images_for(specs, 60) for split, specs in data.spectra.items()}
        net = arch.build_lenet5(60, pooling="subs")
        net.initialize(42)
        report = harness.train(
            net, sets["train"], sets["valid"],
            eta0=0.05, decay=0.1, epochs=50, seed=42, stop_at_val_rate=0.90,
        )
        best = report.rows[report.best_epoch].val_rate
        elapsed = time.monotonic() - started
        assert best >= 0.90, f"best validation rate {best:.4f} below 0.90"
        assert report.best_epoch <= 50
        assert elapsed < 900.0, f"run took {elapsed:.0f} s"
        note(
            f"LeNet-5 60x60 subs+decay: validation {best:.4f} >= 0.90 at epoch "
            f"{report.best_epoch} <= 50, {elapsed:.0f}s < 900s"
        )


def test_criterion_4_binning_direction(acceptance):
    with verdict(acceptance, 4, "binning direction 60x60 vs 28x28") as note:
        templates = synthgen.line_dominated_templates()
        wins = 0
        details = []
        for seed in (0, 1, 2):
            data = synthgen.synth_dataset(
                {"train": 80, "valid": 20, "test": 40},
                z_range=(0.0, 1.5),
                noise_sigma=0.10,
                seed=seed,
                templates=templates,
            )
            r60 = train_and_test_rate(
                seed, 60, {k: images_for(v, 60) for k, v in data.spectra.items()},
                eta0=0.05, decay=0.1, epochs=16,
            )
            r28 = train_and_test_rate(
                seed, 28, {k: images_for(v, 28) for k, v in data.spectra.items()},
                eta0=0.05, decay=0.1, epochs=16,
            )
            wins += r60 > r28
            details.append(f"seed {seed}: {r60:.3f} vs {r28:.3f}")
        note(
            f"60x60 test accuracy > 28x28 on line-dominated set for {wins}/3 seeds "
            f"(need >= 2): " + "; ".join(details)
        )
        assert wins >= 2, "; ".join(details)


def test_criterion_5_decay_stability(acceptance):
    with verdict(acceptance, 5, "decay stability over 100 epochs") as note:
        etas = [nn.effective_eta(0.3, 0.5, t) for t in range(100)]
        assert all(a >= b for a, b in zip(etas, etas[1:])), "eta schedule increased"

        def tail_range(seed, decay):
            data = synthgen.synth_dataset(
                {"train": 40, "valid": 30, "test": 0},
                z_range=(0.0, 1.5),
                noise_sigma=0.40,
                seed=seed,
            )
            net = arch.build_lenet5(28, pooling="subs")
            net.initialize(seed)
            report = harness.train(
                net, images_for(data.spectra["train"], 28),
                images_for(data.spectra["valid"], 28),
                eta0=0.3, decay=decay, epochs=100, seed=seed,
            )
            tail = [r.val_rate for r in report.rows if r.epoch > 80]
            return max(tail) - min(tail)

        wins = 0
        details = []
        for seed in (0, 1, 2):
            r_decay = tail_range(seed, 0.5)
            r_const = tail_range(seed, 0.0)
            wins += r_decay < r_const
            details.append(f"seed {seed}: {r_decay:.4f} vs {r_const:.4f}")
        note(
            f"final-20-epoch validation range smaller with decay for {wins}/3 seeds "
            f"(need >= 2), eta non-increasing exact: " + "; ".join(details)
        )
        assert wins >= 2, "; ".join(details)


def test_criterion_6_sampler(acceptance):
    with verdict(acceptance, 6, "stratified sampler flatness and determinism") as note:
        n_intervals, target = 20, 100
        z_min, z_max = 0.0, 1.0
        width = (z_max - z_min) / n_intervals
        pool = []
        fiber = 1
        # skewed supply: low-z intervals much fuller, but every interval >= quota
        for i in range(n_intervals):
            count = 8 + 2 * (n_intervals - i)
            for k in range(count):
                z = z_min + width * (i + (k + 0.5) / count)
                pool.append(CatalogRecord(77, 55123, fiber, 1, 0, ObjectClass.GALAXY, z))
                fiber += 1
        plan = sampler.StratifiedPlan(n_intervals, z_min, z_max, target, seed=13)
        picked = sampler.stratified_select(pool, plan)
        assert len(picked) == target
        counts = np.histogram(
            [r.z for r in picked], bins=n_intervals, range=(z_min, z_max)
        )[0]
        assert counts.max() - counts.min() <= 1, counts

        again = sampler.stratified_select(pool, plan)
        assert (
            sampler.format_split_list(picked).encode()
            == sampler.format_split_list(again).encode()
        )

        def ks_to_uniform(zs):
            # brute-force one-sample KS against U(z_min, z_max)
            srt = np.sort(np.asarray(zs))
            n = len(srt)
            f = (srt - z_min) / (z_max - z_min)
            return max(
                float(np.max(np.arange(1, n + 1) / n - f)),
                float(np.max(f - np.arange(n) / n)),
            )

        ks_sel = ks_to_uniform([r.z for r in picked])
        ks_raw = ks_to_uniform([r.z for r in pool])
        assert ks_sel <= ks_raw, f"KS selection {ks_sel:.4f} > raw {ks_raw:.4f}"
        note(
            f"per-interval counts within 1, same-seed byte-identical lists, "
            f"KS(selection)={ks_sel:.4f} <= KS(raw)={ks_raw:.4f}"
        )


def test_criterion_7_preprocessing_exactness(acceptance, tmp_path):
    with verdict(
        acceptance, 7,
        "3601-sample reduction, exact rasterize/flatten round trip, min->0 max->255, "
        "bit-exact PGM round trip, flux-scaling invariance",
    ):
        assert len(preprocess.reduction_grid()) == 3601

        rng = np.random.default_rng(7)
        v = rng.standard_normal(60 * 60)
        assert np.array_equal(preprocess.flatten(preprocess.rasterize(v, 60)), v)

        mat = rng.standard_normal((9, 9))
        img = preprocess.normalize_8bit(mat)
        assert img[np.unravel_index(np.argmin(mat), mat.shape)] == 0
        assert img[np.unravel_index(np.argmax(mat), mat.shape)] == 255

        spectral = preprocess.SpectralImage((1, 2, 3), img)
        path = tmp_path / "img.pgm"
        preprocess.write_pgm(spectral, path)
        first = path.read_bytes()
        back = preprocess.read_pgm(path)
        assert np.array_equal(back, spectral.pixels)
        preprocess.write_pgm(preprocess.SpectralImage((1, 2, 3), back), path)
        assert path.read_bytes() == first

        grid = preprocess.reduction_grid()
        flux = rng.standard_normal(3601) + 5.0
        base = preprocess.spectrum_to_image(preprocess.Spectrum((1, 2, 3), grid, flux), 60)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = preprocess.spectrum_to_image(
                preprocess.Spectrum((1, 2, 3), grid, c * flux), 60
            )
            assert np.array_equal(base.pixels, scaled.pixels), f"scaling by {c} changed the image"


def test_criterion_8_harness_bookkeeping(acceptance, tmp_path):
    with verdict(
        acceptance, 8,
        "confusion trace/total == overall rate (exact), mismatch listing byte "
        "pattern, checkpoint restore reproduces validation rates exactly",
    ):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 500)
        predictions = rng.integers(0, 3, 500)
        counts = np.zeros((3, 3), dtype=int)
        for lab, pred in zip(labels, predictions):
            counts[lab, pred] += 1
        cm = harness.ConfusionMatrix(counts)
        brute = float(np.mean(labels == predictions))
        assert cm.overall_rate == brute
        assert np.trace(counts) / counts.sum() == cm.overall_rate

        def small_net():
            return nn.Network(
                [nn.Conv(1, 4, 5, 5), nn.Tanh(), nn.SubsPool(4, 2),
                 nn.Conv(4, 8, 2, 2), nn.Tanh(), nn.Flatten(), nn.Full(8, 3)],
                (1, 8, 8),
            )

        samples = []
        for cls in ObjectClass:
            for k in range(6):
                pixels = rng.integers(
                    85 * int(cls), 85 * int(cls) + 80, (8, 8)
                ).astype(np.uint8)
                ident = (100 + int(cls), 55000, k + 1)
                samples.append(preprocess.SpectralImage(ident, pixels, cls))
        net = small_net()
        net.initialize(0)
        _, mismatch_text, _ = harness.classify(net, samples)
        row_re = re.compile(
            r"^\d+\t\d+\t\d+\tcatalog: (galaxy|qso|star)\tconvnet: (galaxy|qso|star)$"
        )
        body = [l for l in mismatch_text.splitlines() if not l.startswith("#")]
        assert all(row_re.match(line) for line in body), body[:3]

        report = harness.train(
            net, samples, samples, eta0=0.2, decay=0.1, epochs=4, seed=0, out_dir=tmp_path
        )
        for row in report.rows:
            fresh = small_net()
            fresh.initialize(99)
            nn.load_checkpoint(fresh, report.checkpoints[row.epoch])
            assert harness.evaluate(fresh, samples).overall_rate == row.val_rate
