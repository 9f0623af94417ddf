import numpy as np
import pytest

from specnet import harness, nn
from specnet.catalog import ObjectClass
from specnet.harness import (
    ConfusionMatrix,
    TrainReport,
    classify,
    emit_curves,
    evaluate,
    load_dataset,
    predict,
    train,
)
from specnet.preprocess import SpectralImage, write_pgm


def tiny_net(side=8, seed=0):
    net = nn.Network(
        [
            nn.Conv(1, 4, 5, 5),
            nn.Tanh(),
            nn.SubsPool(4, 2),
            nn.Conv(4, 8, 2, 2),
            nn.Tanh(),
            nn.Flatten(),
            nn.Full(8, 3, activation="sigmoid"),
        ],
        (1, side, side),
    )
    net.initialize(seed)
    return net


def make_samples(n_per_class, side=8, seed=0):
    """Classes are separable by mean brightness bands."""
    rng = np.random.default_rng(seed)
    samples = []
    for cls in ObjectClass:
        lo = 85 * int(cls)
        for k in range(n_per_class):
            pixels = rng.integers(lo, lo + 80, size=(side, side), dtype=np.uint8)
            ident = (1000 + int(cls), 55000, k + 1)
            samples.append(SpectralImage(ident, pixels, cls))
    return samples


def test_target_and_net_input_scaling():
    s = make_samples(1)[1]
    assert s.label is ObjectClass.QSO
    assert np.array_equal(harness._target(s.label), [0.0, 1.0, 0.0])
    x = harness._net_input(s)
    assert x.shape == (1, 8, 8)
    assert x.min() >= -1.0 and x.max() <= 1.0


def test_confusion_matrix_rates():
    counts = np.array([[8, 1, 1], [2, 6, 2], [0, 0, 10]])
    cm = ConfusionMatrix(counts)
    assert cm.total == 30
    assert cm.overall_rate == pytest.approx(24 / 30)
    assert cm.class_rates == pytest.approx((0.8, 0.6, 1.0))
    empty = ConfusionMatrix(np.zeros((3, 3), dtype=int))
    assert empty.overall_rate == 0.0


def test_evaluate_rows_are_catalog_classes():
    net = tiny_net()
    samples = make_samples(4)
    cm = evaluate(net, samples)
    assert cm.counts.sum(axis=1).tolist() == [4, 4, 4]


def test_predict_tie_breaks_to_lowest_index():
    class Stub:
        input_shape = (1, 8, 8)

        def forward(self, x):
            return np.array([0.4, 0.4, 0.1])

    assert predict(Stub(), make_samples(1)[0]) is ObjectClass.GALAXY


def test_train_learns_separable_data(tmp_path):
    net = tiny_net()
    train_set = make_samples(12, seed=1)
    valid_set = make_samples(4, seed=2)
    report = train(net, train_set, valid_set,
                   eta0=0.2, decay=0.1, epochs=8, seed=0, out_dir=tmp_path)
    assert report.rows[0].epoch == 0 and np.isnan(report.rows[0].train_loss)
    assert report.rows[report.best_epoch].val_rate > report.rows[0].val_rate
    assert report.rows[report.best_epoch].val_rate >= 0.9
    # eta follows the decay schedule from eta0
    assert report.rows[1].eta == pytest.approx(0.2)
    assert report.rows[2].eta == pytest.approx(0.2 / 1.1)
    # checkpoints for every recorded epoch
    assert set(report.checkpoints) == {r.epoch for r in report.rows}


def test_train_deterministic():
    reports = []
    for _ in range(2):
        net = tiny_net(seed=5)
        reports.append(train(net, make_samples(6, seed=1), make_samples(3, seed=2),
                             eta0=0.2, decay=0.1, epochs=3, seed=5))
    a, b = reports
    assert [r.val_rate for r in a.rows] == [r.val_rate for r in b.rows]
    assert [r.train_loss for r in a.rows[1:]] == [r.train_loss for r in b.rows[1:]]


def test_train_early_stop():
    net = tiny_net()
    report = train(net, make_samples(12, seed=1), make_samples(4, seed=2),
                   eta0=0.2, decay=0.1, epochs=50, seed=0, stop_at_val_rate=0.9)
    assert report.rows[-1].val_rate >= 0.9
    assert len(report.rows) < 51


def test_train_best_epoch_earliest_tie():
    report = TrainReport()
    # synthetic tie: epochs 2 and 4 share the top rate
    from specnet.harness import EpochStats

    for epoch, rate in [(0, 0.3), (1, 0.5), (2, 0.8), (3, 0.6), (4, 0.8)]:
        report.rows.append(EpochStats(epoch, 0.1, 1.0, rate, (0, 0, 0)))
    best = max(report.rows, key=lambda r: (r.val_rate, -r.epoch))
    assert best.epoch == 2


CFG = dict(eta0=0.05, decay=0.1, epochs=2, seed=0)


def test_train_input_validation():
    net = tiny_net()
    with pytest.raises(ValueError, match="empty training set"):
        train(net, [], [], **CFG)
    wrong = make_samples(1, side=10)
    with pytest.raises(ValueError, match="does not match"):
        train(net, wrong, [], **CFG)
    unlabeled = [SpectralImage((1, 2, 3), make_samples(1)[0].pixels)]
    with pytest.raises(ValueError, match=r"sample \(1, 2, 3\) has no label"):
        train(net, unlabeled, [], **CFG)


def test_train_rejects_negative_hyperparameters():
    samples = make_samples(1)
    for bad in ({"eta0": -0.1}, {"decay": -0.1}, {"epochs": -1}):
        with pytest.raises(ValueError, match="must be non-negative"):
            train(tiny_net(), samples, [], **{**CFG, **bad})
    train(tiny_net(), samples, [], **{**CFG, "decay": 0.0})


def _poisoned_net():
    net = tiny_net()
    net.layers[-1].params["weights"][0, 0] = np.nan
    return net


def test_predict_rejects_a_non_finite_output():
    s = make_samples(1)[2]
    # np.argmax alone would read the NaN outputs as class 0, galaxy
    message = r"^sample \(1002, 55000, 1\): network output .* is not finite$"
    with pytest.raises(ValueError, match=message):
        predict(_poisoned_net(), s)
    with pytest.raises(ValueError, match="not finite"):
        evaluate(_poisoned_net(), [s])


def test_train_stops_on_a_non_finite_loss(tmp_path):
    samples = make_samples(2)
    message = r"^epoch 1: loss nan on sample \(\d+, 55000, \d\) is not finite$"
    with pytest.raises(ValueError, match=message):
        train(_poisoned_net(), samples, [], **CFG, out_dir=tmp_path)
    # the validation pass of epoch 0 already sees the non-finite output
    with pytest.raises(ValueError, match="network output"):
        train(_poisoned_net(), samples, samples, **CFG)


def test_classify_listing_formats():
    net = tiny_net()
    samples = make_samples(2)
    match_text, mismatch_text, _ = classify(net, samples)
    for text in (match_text, mismatch_text):
        lines = text.splitlines()
        assert lines[0] == "#PLATE\tMJD\tFIBERID"
        assert lines[-1].startswith("# success rate: ")
    cm = evaluate(net, samples)
    assert f"# success rate: {cm.overall_rate:.4f}" in match_text
    body = [l for l in mismatch_text.splitlines() if not l.startswith("#")]
    for line in body:
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[3].startswith("catalog: ")
        assert fields[4].startswith("convnet: ")
    n_match = len([l for l in match_text.splitlines() if not l.startswith("#")])
    assert n_match + len(body) == len(samples)


def test_train_report_json_round_trip(tmp_path):
    net = tiny_net()
    report = train(net, make_samples(4), make_samples(2),
                   eta0=0.2, decay=0.1, epochs=2, seed=0, out_dir=tmp_path)
    back = TrainReport.from_json(report.to_json())
    assert back.best_epoch == report.best_epoch
    assert back.checkpoints == report.checkpoints
    assert [r.val_rate for r in back.rows] == [r.val_rate for r in report.rows]


def test_checkpoint_restore_reproduces_val_rate(tmp_path):
    net = tiny_net()
    valid_set = make_samples(4, seed=2)
    report = train(net, make_samples(8, seed=1), valid_set,
                   eta0=0.2, decay=0.1, epochs=4, seed=0, out_dir=tmp_path)
    for row in report.rows:
        fresh = tiny_net(seed=77)  # different init; checkpoint must overwrite all
        nn.load_checkpoint(fresh, report.checkpoints[row.epoch])
        assert evaluate(fresh, valid_set).overall_rate == row.val_rate


def test_emit_curves_round_trip(tmp_path):
    net = tiny_net()
    report = train(net, make_samples(4), make_samples(2),
                   eta0=0.2, decay=0.1, epochs=2, seed=0)
    rate_path, loss_path = emit_curves(report, tmp_path)
    rates = np.loadtxt(rate_path)
    assert rates.shape == (3, 2)
    assert np.allclose(rates[:, 1], [r.val_rate for r in report.rows])
    losses = np.loadtxt(loss_path)
    assert np.allclose(losses[1:, 1], [r.train_loss for r in report.rows[1:]])


def test_load_dataset_reads_layout(tmp_path):
    samples = make_samples(2)
    rows = []
    for s in samples:
        d = tmp_path / "train" / s.label.label
        d.mkdir(parents=True, exist_ok=True)
        p, m, f = s.ident
        write_pgm(s, d / f"{p}-{m}-{f}.pgm")
        rows.append((p, m, f, s.label, 0.5))
    loaded = load_dataset(tmp_path, "train", rows)
    assert len(loaded) == len(samples)
    for got, want in zip(loaded, samples):
        assert got.ident == want.ident and got.label is want.label
        assert np.array_equal(got.pixels, want.pixels)
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path, "train", [(9, 9, 9, ObjectClass.STAR, 0.1)])
