import pytest
from hypothesis import given, settings, strategies as st

from specnet import nn
from specnet.arch import (
    ARCHITECTURES,
    POOLINGS,
    ConfigError,
    RunConfig,
    apply_overrides,
    build_lenet5,
    build_lenet7,
    build_network,
    parse_config,
    serialize_config,
)


def map_sides(net):
    return [shape[1] for shape in net.shapes if len(shape) == 3]


def test_lenet5_60_dimension_chain():
    net = build_lenet5(60)
    assert map_sides(net) == [60, 56, 56, 56, 56, 28, 26, 26, 26, 26, 13, 1, 1]
    assert net.shapes[-1] == (3,)


def test_lenet5_28_dimension_chain():
    net = build_lenet5(28)
    assert map_sides(net) == [28, 24, 24, 24, 24, 12, 10, 10, 10, 10, 5, 1, 1]
    assert net.shapes[-1] == (3,)


def test_lenet7_dimension_chain():
    net = build_lenet7(60)
    assert map_sides(net) == [60, 56, 56, 56, 56, 14, 10, 10, 10, 10, 5, 1, 1]
    assert net.shapes[-1] == (3,)


def n_parameters(net):
    return sum(v.size for _, _, v, _ in net.parameters())


def test_parameter_counts():
    assert n_parameters(build_lenet5(60)) == 326043
    assert n_parameters(build_lenet7(60)) == 65499
    # the 28x28 variant only shrinks the final convolution
    n60, n28 = n_parameters(build_lenet5(60)), n_parameters(build_lenet5(28))
    assert n60 - n28 == 16 * 120 * (13 * 13 - 5 * 5)


def test_l2_pooling_variant_builds():
    net = build_lenet5(60, pooling="l2pool")
    assert any(isinstance(layer, nn.LpPool) for layer in net.layers)
    assert not any(isinstance(layer, nn.SubsPool) for layer in net.layers)
    assert map_sides(net)[-1] == 1


def test_unsupported_input_sides_rejected():
    with pytest.raises(ValueError, match="60 or 28"):
        build_lenet5(32)
    with pytest.raises(ValueError, match="60"):
        build_lenet7(28)


def test_network_names_the_layer_that_breaks_the_chain():
    with pytest.raises(ValueError) as exc:
        nn.Network(build_lenet5(60).layers, (1, 59, 59))
    msg = str(exc.value)
    assert msg.startswith("layer 4 (SubsPool): ")
    assert "55x55" in msg and msg.endswith("(input was (6, 55, 55))")
    # maps left larger than 1x1 at the classifier are rejected by Full
    # maps left larger than 1x1 at the classifier are rejected by Full:
    # 9x9 and 2x2 here
    for layers, side in ((build_lenet5(28).layers, 60), (build_lenet7(60).layers, 68)):
        with pytest.raises(ValueError, match=r"^layer 13 \(Full\): expected input length"):
            nn.Network(layers, (1, side, side))


def test_build_network_dispatch():
    assert build_network(RunConfig(arch="lenet5", input_side=28)).shapes[0] == (1, 28, 28)
    assert n_parameters(build_network(RunConfig(arch="lenet7"))) == 65499


def test_run_config_validation():
    with pytest.raises(ValueError, match="architecture"):
        RunConfig(arch="alexnet")
    with pytest.raises(ValueError, match="pooling"):
        RunConfig(pooling="avg")


CONFIG = """\
# training setup
root = /data/run7
arch = lenet5
input = 28
pooling = l2pool
eta0 = 0.02
decay = 0.5   # inverse-time decay
epochs = 30
seed = 7
imgs = ${root}/imgs
lists = ${root}/spectra_sets
out = ${root}/out
"""


def test_parse_config_full():
    cfg = parse_config(CONFIG)
    assert cfg == RunConfig(
        arch="lenet5",
        input_side=28,
        pooling="l2pool",
        eta0=0.02,
        decay=0.5,
        epochs=30,
        seed=7,
        imgs="/data/run7/imgs",
        lists="/data/run7/spectra_sets",
        out="/data/run7/out",
    )


def test_parse_config_defaults_and_round_trip():
    cfg = parse_config("arch = lenet7\n")
    assert cfg.input_side == 60 and cfg.pooling == "subs"
    assert parse_config(serialize_config(cfg)) == cfg
    full = parse_config(CONFIG)
    assert parse_config(serialize_config(full)) == full


def test_serialize_config_rejects_values_that_do_not_read_back():
    for key, value in [
        ("imgs", "data#1/imgs"),
        ("lists", "${root}/sets"),
        ("out", "run "),
        ("out", "a\nseed = 3"),
    ]:
        with pytest.raises(ConfigError, match=f"^{key} = "):
            serialize_config(RunConfig(**{key: value}))
    with pytest.raises(ConfigError, match="^eta0 = nan"):
        serialize_config(RunConfig(eta0=float("nan")))


# text that the parser cuts, strips, splits or substitutes, often enough to
# reach every rejection
_CONFIG_TEXT = st.text(
    st.sampled_from("ab/_.-=$#{} \t\n\x0c\x85\u2028") | st.characters(),
    max_size=12,
) | st.sampled_from(["${out}", "${root}/x", "a#b", " a", "a "])


@given(
    st.builds(
        RunConfig,
        arch=st.sampled_from(ARCHITECTURES),
        input_side=st.integers(),
        pooling=st.sampled_from(POOLINGS),
        eta0=st.floats(),
        decay=st.floats(),
        epochs=st.integers(),
        seed=st.integers(),
        imgs=_CONFIG_TEXT,
        lists=_CONFIG_TEXT,
        out=_CONFIG_TEXT,
    )
)
@settings(max_examples=300, deadline=None)
def test_serialize_config_raises_or_round_trips(cfg):
    try:
        text = serialize_config(cfg)
    except ConfigError:
        return
    assert parse_config(text) == cfg


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("arch lenet5\n", "key = value"),
        ("arch = lenet5\nwidth = 3\n", "unknown key"),
        ("input = 60\n", "missing required key"),
        ("arch = lenet5\nepochs = soon\n", "invalid value"),
        ("arch = lenet5\nout = ${nowhere}\n", "undefined variable"),
        ("arch = lenet5\nimgs = ${out}\nout = ${imgs}\n", "circular"),
        ("arch = resnet\n", "architecture"),
    ],
)
def test_parse_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_apply_overrides():
    cfg = parse_config("arch = lenet5\n")
    cfg = apply_overrides(cfg, {"input": "28", "eta0": "0.5", "out": "elsewhere"})
    assert cfg.input_side == 28 and cfg.eta0 == 0.5 and cfg.out == "elsewhere"
    with pytest.raises(ConfigError, match="unknown override"):
        apply_overrides(cfg, {"root": "/x"})
    with pytest.raises(ConfigError, match="^invalid value 'x' for key 'epochs'$"):
        apply_overrides(cfg, {"epochs": "x"})
