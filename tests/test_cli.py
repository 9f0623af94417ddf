"""End-to-end CLI tests on a tiny synthetic corpus: synth -> preprocess ->
train -> classify -> report, plus sample on a parsed catalog.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from specnet import nn
from specnet.cli import main
from specnet.preprocess import Spectrum, read_pgm, read_spectrum, write_spectrum
from specnet.sampler import parse_split_list


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rc = main([
        "synth", "--out", str(root / "synth"), "--seed", "3",
        "--set", "train=6", "--set", "valid=3", "--set", "test=3",
        "--set", "noise=0.05",
    ])
    assert rc == 0
    rc = main([
        "preprocess",
        "--spectra", str(root / "synth" / "spectra"),
        "--lists", str(root / "synth" / "spectra_sets"),
        "--side", "28",
        "--out", str(root / "prep"),
    ])
    assert rc == 0
    return root


def test_synth_outputs(corpus):
    synth = corpus / "synth"
    assert (synth / "catalog.txt").exists()
    train_rows = parse_split_list((synth / "spectra_sets" / "train").read_text())
    assert len(train_rows) == 18  # 6 per class
    for plate, mjd, fiberid, _cls, _z in train_rows[:2]:
        assert (synth / "spectra" / "train" / f"{plate}-{mjd}-{fiberid}.txt").exists()


def test_preprocess_outputs(corpus):
    prep = corpus / "prep"
    pgms = list((prep / "imgs").rglob("*.pgm"))
    assert len(pgms) == 36  # (6+3+3) spectra x 3 classes
    img = read_pgm(pgms[0])
    assert img.shape == (28, 28)
    rows = parse_split_list((prep / "spectra_sets" / "valid").read_text())
    assert len(rows) == 9


def _impair(spec: Spectrum, kind: str) -> Spectrum:
    """`spec` damaged so that exactly `kind` drops it."""
    n, mid = len(spec.flux), len(spec.flux) // 2
    loglam, flux = spec.loglam, spec.flux.copy()
    if kind == "ImpairedSpectrum":  # a coverage gap of 40 native steps
        keep = np.r_[0:mid, mid + 40 : n]
        loglam, flux = loglam[keep], flux[keep]
    elif kind == "NonFinite":
        flux[mid] = np.nan
    elif kind == "ZeroFraction":
        flux[::4] = 0.0
    else:  # ZeroRun
        flux[mid : mid + n // 16] = 0.0
    return Spectrum(spec.ident, loglam, flux)


def test_preprocess_report_counts_rejections(tmp_path):
    synth, prep = tmp_path / "synth", tmp_path / "prep"
    assert main([
        "synth", "--out", str(synth), "--seed", "5",
        "--set", "train=2", "--set", "valid=1", "--set", "test=1",
    ]) == 0
    kinds = ["ImpairedSpectrum", "NonFinite", "ZeroFraction", "ZeroRun"]
    for kind, path in zip(kinds, sorted((synth / "spectra" / "train").glob("*.txt"))):
        write_spectrum(_impair(read_spectrum(path), kind), path)
    assert main([
        "preprocess", "--spectra", str(synth / "spectra"), "--lists", str(synth / "spectra_sets"),
        "--side", "28", "--out", str(prep),
    ]) == 0
    report = json.loads((prep / "preprocess_report.json").read_text())
    assert report == {
        "train": {"total": 6, "kept": 2, "rejected": dict.fromkeys(kinds, 1)},
        "valid": {"total": 3, "kept": 3, "rejected": dict.fromkeys(kinds, 0)},
        "test": {"total": 3, "kept": 3, "rejected": dict.fromkeys(kinds, 0)},
    }
    for split, counts in report.items():
        assert counts["kept"] == len(list((prep / "imgs" / split).rglob("*.pgm")))


def test_train_classify_report(corpus, capsys):
    prep = corpus / "prep"
    out = corpus / "run"
    rc = main([
        "train",
        "--out", str(out),
        "--seed", "0",
        "--set", "arch=lenet5", "--set", "input=28", "--set", "epochs=2",
        "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
    ])
    assert rc == 0
    report = json.loads((out / "train_report.json").read_text())
    assert len(report["rows"]) == 3  # baseline + 2 epochs
    assert (out / "run.conf").exists()
    assert (out / "val_rate.txt").exists()
    ckpts = list((out / "net").glob("net_epoch_*.ckpt"))
    assert len(ckpts) == 3

    rc = main([
        "classify",
        "--out", str(out),
        "--set", "arch=lenet5", "--set", "input=28",
        "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
    ])
    assert rc == 0
    mismatch = (out / "classify_mismatch").read_text()
    assert mismatch.startswith("#PLATE\tMJD\tFIBERID\n")
    assert "# success rate: " in mismatch

    rc = main(["report", "--report", str(out / "train_report.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "best epoch:" in text
    assert "epoch   0" in text


def _train_args(prep, out):
    return [
        "train", "--out", str(out), "--seed", "0",
        "--set", "arch=lenet5", "--set", "input=28", "--set", "epochs=1",
        "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
    ]


def _classify_args(prep, out):
    return [
        "classify", "--out", str(out), "--set", "arch=lenet5", "--set", "input=28",
        "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
    ]


def test_classify_forwards_each_test_sample_once(corpus, tmp_path, monkeypatch, capsys):
    prep = corpus / "prep"
    out = tmp_path / "run"
    assert main(_train_args(prep, out)) == 0
    calls = []
    forward = nn.Network.forward

    def counting(self, x):
        calls.append(1)
        return forward(self, x)

    monkeypatch.setattr(nn.Network, "forward", counting)
    capsys.readouterr()
    assert main(_classify_args(prep, out)) == 0
    n_test = len(parse_split_list((prep / "spectra_sets" / "test").read_text()))
    assert len(calls) == n_test
    summary = capsys.readouterr().out
    rate = (out / "classify_match").read_text().splitlines()[-1].split(": ")[1]
    assert summary.startswith(f"classify: {n_test} objects, success rate {rate} (galaxy ")


def test_classify_from_a_sibling_directory(corpus, tmp_path, monkeypatch, capsys):
    prep = corpus / "prep"
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert main(_train_args(prep, "c/run")) == 0
    report = json.loads(Path("c/run/train_report.json").read_text())
    assert report["checkpoints"]["0"] == str(Path("net") / "net_epoch_000.ckpt")
    monkeypatch.chdir(tmp_path / "b")
    assert main(_classify_args(prep, "../a/c/run")) == 0
    assert (tmp_path / "a" / "c" / "run" / "classify_match").exists()

    # a report written with paths relative to the training cwd still loads
    # from that cwd
    monkeypatch.chdir(tmp_path / "a")
    report["checkpoints"] = {k: f"c/run/{v}" for k, v in report["checkpoints"].items()}
    Path("c/run/train_report.json").write_text(json.dumps(report))
    assert main(_classify_args(prep, "c/run")) == 0

    # a report without a checkpoint for its best epoch is an error naming it
    report["checkpoints"].pop(str(report["best_epoch"]))
    Path("c/run/train_report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(_classify_args(prep, "c/run")) == 1
    err = capsys.readouterr().err
    assert "train_report.json" in err and "best epoch" in err


def test_classify_reads_run_conf(corpus, tmp_path, capsys):
    prep = corpus / "prep"
    out = tmp_path / "run"
    train = _train_args(prep, out)
    train[train.index("epochs=1")] = "epochs=2"
    assert main(train) == 0
    # arch, input and the data paths all come from run.conf
    assert main(["classify", "--out", str(out)]) == 0
    match = (out / "classify_match").read_bytes()
    assert main(_classify_args(prep, out)) == 0
    assert (out / "classify_match").read_bytes() == match

    # --set still wins over run.conf: a 60x60 network does not fit the checkpoint
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--out", str(out), "--set", "input=60"])
    message = str(exc.value)
    assert "run.conf" in message and "net_epoch_" in message and "60x60" in message

    # a malformed run.conf is an error naming it
    (out / "run.conf").write_text("arch = lenet5\nwidth = 3\n")
    assert main(["classify", "--out", str(out)]) == 1
    assert f"{out / 'run.conf'}: line 2: unknown key 'width'" in capsys.readouterr().err


def test_classify_rejects_a_truncated_checkpoint(corpus, tmp_path):
    prep = corpus / "prep"
    out = tmp_path / "run"
    assert main(_train_args(prep, out)) == 0
    checkpoint = out / "net" / "net_epoch_001.ckpt"
    checkpoint.write_bytes(checkpoint.read_bytes()[:30])
    with pytest.raises(SystemExit) as exc:
        main(_classify_args(prep, out) + ["--checkpoint", str(checkpoint)])
    message = str(exc.value)
    assert message.startswith(f"error: {checkpoint}: file ends at byte 30")


def test_train_stops_before_training_on_a_value_run_conf_cannot_hold(corpus, tmp_path, capsys):
    prep = corpus / "prep"
    out = tmp_path / "run"
    args = _train_args(prep, out) + ["--set", "lists=data#1/sets"]
    assert main(args) == 1
    assert "lists = 'data#1/sets' would not read back" in capsys.readouterr().err
    assert not out.exists()


def test_train_is_deterministic(corpus):
    prep = corpus / "prep"
    reports = []
    for name in ("runA", "runB"):
        out = corpus / name
        rc = main([
            "train", "--out", str(out), "--seed", "4",
            "--set", "arch=lenet5", "--set", "input=28", "--set", "epochs=1",
            "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
        ])
        assert rc == 0
        reports.append(json.loads((out / "train_report.json").read_text()))
    a, b = reports
    assert [r["train_loss"] for r in a["rows"][1:]] == [r["train_loss"] for r in b["rows"][1:]]
    assert [r["val_rate"] for r in a["rows"]] == [r["val_rate"] for r in b["rows"]]


def test_sample_subcommand(corpus, tmp_path):
    out = tmp_path / "sampled"
    rc = main([
        "sample",
        "--catalog", str(corpus / "synth" / "catalog.txt"),
        "--out", str(out),
        "--seed", "1",
        "--set", "train=4", "--set", "valid=2", "--set", "test=2",
        "--set", "intervals=4",
    ])
    assert rc == 0
    train_rows = parse_split_list((out / "spectra_sets" / "train").read_text())
    valid_rows = parse_split_list((out / "spectra_sets" / "valid").read_text())
    assert len(train_rows) == 12 and len(valid_rows) == 6
    ids = {r[:3] for r in train_rows} | {r[:3] for r in valid_rows}
    assert len(ids) == 18  # splits disjoint
    assert list(out.glob("hist_*_raw.txt")) and list(out.glob("cdf_*_selected.txt"))


def test_sample_same_seed_byte_identical(corpus, tmp_path):
    texts = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        rc = main([
            "sample", "--catalog", str(corpus / "synth" / "catalog.txt"),
            "--out", str(out), "--seed", "9",
            "--set", "train=4", "--set", "valid=2", "--set", "test=2",
        ])
        assert rc == 0
        texts.append((out / "spectra_sets" / "train").read_bytes())
    assert texts[0] == texts[1]


def test_config_file_and_override(tmp_path, corpus):
    conf = tmp_path / "run.conf"
    conf.write_text("arch = lenet5\ninput = 28\nepochs = 1\n")
    prep = corpus / "prep"
    out = tmp_path / "out"
    rc = main([
        "train", "--config", str(conf), "--out", str(out),
        "--set", f"imgs={prep / 'imgs'}", "--set", f"lists={prep / 'spectra_sets'}",
    ])
    assert rc == 0
    assert "input = 28" in (out / "run.conf").read_text()


def test_cli_error_paths(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sample"])  # missing --catalog
    with pytest.raises(SystemExit):
        main(["train", "--config", str(tmp_path / "absent.conf")])
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main(["synth", "--set", "malformed"])


@pytest.mark.parametrize(
    "args,message",
    [
        (["synth", "--set", "train=x"], "invalid value 'x' for key 'train'"),
        (["synth", "--set", "zmax=high"], "invalid value 'high' for key 'zmax'"),
        (["synth", "--set", "intervals=4"], "unknown key 'intervals'"),
        (["train", "--set", "epochs=x"], "invalid value 'x' for key 'epochs'"),
        (["train", "--set", "width=3"], "unknown override key 'width'"),
        (["sample", "--set", "trian=5"], "unknown key 'trian'"),
        (["sample", "--set", "intervals=1.5"], "invalid value '1.5' for key 'intervals'"),
    ],
)
def test_set_keys_are_checked_and_typed(corpus, tmp_path, capsys, args, message):
    if args[0] == "sample":
        args = args + ["--catalog", str(corpus / "synth" / "catalog.txt")]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "--config", "run.conf"],
        ["sample", "--config", "run.conf"],
        ["preprocess", "--config", "run.conf"],
        ["preprocess", "--seed", "1"],
        ["preprocess", "--set", "side=28"],
        ["report", "--config", "run.conf"],
        ["report", "--seed", "1"],
        ["report", "--set", "epochs=1"],
        ["report", "--out", "run"],
    ],
)
def test_options_a_command_does_not_read_are_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
