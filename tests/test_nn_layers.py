import re

import numpy as np
import pytest

from specnet import arch, nn


def rng_of(seed=0):
    return np.random.default_rng(seed)


def test_gaussian_window_normalized_and_symmetric():
    for side in (2, 3, 5, 6):
        w = nn.gaussian_window(side)
        assert w.shape == (side, side)
        assert w.sum() == pytest.approx(1.0)
        assert np.allclose(w, w.T)
        assert np.allclose(w, w[::-1, ::-1])
    with pytest.raises(ValueError):
        nn.gaussian_window(0)


def test_conv_ones_kernel_counts_window():
    conv = nn.Conv(1, 1, 5, 5)
    conv.params["kernels"][...] = 1.0
    y = conv.forward(np.ones((1, 6, 6)))
    assert y.shape == (1, 2, 2)
    assert np.allclose(y, 25.0)


def test_conv_matches_direct_cross_correlation():
    rng = rng_of(3)
    conv = nn.Conv(2, 3, 3, 2)
    conv.init_params(rng)
    x = rng.standard_normal((2, 7, 6))
    y = conv.forward(x)
    k = conv.params["kernels"]
    direct = np.zeros_like(y)
    for j in range(3):
        for r in range(y.shape[1]):
            for c in range(y.shape[2]):
                direct[j, r, c] = (k[j] * x[:, r : r + 3, c : c + 2]).sum()
    assert np.allclose(y, direct + conv.params["biases"][:, None, None])


def test_conv_connection_table_masks_kernels():
    table = [(0, 0), (1, 1), (0, 1)]
    conv = nn.Conv(2, 2, 2, 2, table=table)
    conv.init_params(rng_of(0))
    assert np.all(conv.params["kernels"][0, 1] == 0.0)  # (1, 0) not connected
    x = rng_of(1).standard_normal((2, 4, 4))
    y = conv.forward(x)
    conv.zero_grads()
    conv.backward(np.ones_like(y))
    assert np.all(conv.grads["kernels"][0, 1] == 0.0)
    with pytest.raises(ValueError, match="at least one connection"):
        nn.Conv(2, 2, 2, 2, table=[(0, 0)])


def test_conv_whole_map_fast_path_matches_windowed():
    rng = rng_of(5)
    conv = nn.Conv(3, 4, 5, 5)
    conv.init_params(rng)
    x = rng.standard_normal((3, 5, 5))  # output is 1x1: fast path
    y_fast = conv.forward(x)
    k = conv.params["kernels"]
    direct = (k * x[None]).sum(axis=(1, 2, 3)) + conv.params["biases"]
    assert np.allclose(y_fast[:, 0, 0], direct)


def test_conv_shape_validation():
    conv = nn.Conv(1, 2, 5, 5)
    with pytest.raises(ValueError, match="input maps"):
        conv.out_shape((2, 8, 8))
    with pytest.raises(ValueError, match="larger than input"):
        conv.out_shape((1, 4, 4))


def test_tanh_forward_backward():
    t = nn.Tanh()
    x = np.array([[[0.0, 1.0]]])
    y = t.forward(x)
    assert np.allclose(y, np.tanh(x))
    dx = t.backward(np.ones_like(y))
    assert np.allclose(dx, 1.0 - np.tanh(x) ** 2)


def test_rectified_sigmoid_is_nonnegative_and_uses_gain():
    layer = nn.RectifiedSigmoid(2)
    layer.params["gains"][...] = [2.0, -1.5]
    x = rng_of(2).standard_normal((2, 4, 4))
    y = layer.forward(x)
    assert np.all(y >= 0.0)
    assert np.allclose(y[0], np.abs(2.0 * np.tanh(x[0])))
    assert np.allclose(y[1], np.abs(1.5 * np.tanh(x[1])))


def test_subtractive_norm_constant_input_is_zero():
    layer = nn.SubtractiveNorm(5)
    x = np.full((4, 9, 9), 3.7)
    assert np.max(np.abs(layer.forward(x))) < 1e-12


def test_subtractive_norm_removes_across_map_mean():
    layer = nn.SubtractiveNorm(3)
    # per-map constants: window mean equals the across-map mean everywhere
    x = np.stack([np.full((6, 6), 1.0), np.full((6, 6), 3.0)])
    y = layer.forward(x)
    assert np.allclose(y[0], -1.0)
    assert np.allclose(y[1], 1.0)


def test_norm_layers_require_odd_window():
    with pytest.raises(ValueError):
        nn.SubtractiveNorm(4)
    with pytest.raises(ValueError):
        nn.DivisiveNorm(2)


def test_divisive_norm_bounds_output_variance():
    layer = nn.DivisiveNorm(5)
    x = rng_of(4).standard_normal((3, 10, 10)) * 50.0
    y = layer.forward(x)
    assert np.std(y) < np.std(x)
    # scaling up the input barely changes the output (contrast invariance)
    y2 = nn.DivisiveNorm(5).forward(2.0 * x)
    assert np.allclose(y2, 2.0 * x / np.maximum(2.0 * layer._denom[None], 1e-8), atol=1e-6)


def test_divisive_norm_constant_zero_input():
    layer = nn.DivisiveNorm(3, epsilon=1e-8)
    y = layer.forward(np.zeros((2, 6, 6)))
    assert np.all(y == 0.0)


def test_subs_pool_average_and_params():
    layer = nn.SubsPool(1, 2)
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    assert layer.forward(x)[0, 0, 0] == pytest.approx(2.5)
    layer.params["coeffs"][...] = 3.0
    layer.params["biases"][...] = -1.0
    assert layer.forward(x)[0, 0, 0] == pytest.approx(2.5 * 3.0 - 1.0)
    with pytest.raises(ValueError, match="not divisible"):
        layer.out_shape((1, 3, 3))


def test_lp_pool_p1_equals_gaussian_average():
    layer = nn.LpPool(3, p=1.0)
    x = rng_of(6).standard_normal((2, 9, 9))
    y = layer.forward(x)
    g = layer.gauss
    for m in range(2):
        for r in range(3):
            for c in range(3):
                win = x[m, 3 * r : 3 * r + 3, 3 * c : 3 * c + 3]
                assert y[m, r, c] == pytest.approx((win * g).sum(), abs=1e-12)


def test_lp_pool_pinf_equals_max():
    layer = nn.LpPool(2, p=np.inf)
    x = rng_of(7).standard_normal((3, 8, 8))
    y = layer.forward(x)
    direct = x.reshape(3, 4, 2, 4, 2).max(axis=(2, 4))
    assert np.array_equal(y, direct)


def test_lp_pool_large_p_approaches_max():
    x = np.abs(rng_of(8).standard_normal((1, 4, 4))) + 0.1
    y64 = nn.LpPool(2, p=64.0).forward(x)
    ymax = nn.LpPool(2, p=np.inf).forward(x)
    # Gaussian weights < 1 pull the p-norm slightly under the max
    assert np.all(y64 <= ymax + 1e-12)
    assert np.allclose(y64, ymax, rtol=0.2)


def test_lp_pool_rejects_p_below_one():
    with pytest.raises(ValueError):
        nn.LpPool(2, p=0.5)


def test_flatten_round_trip():
    layer = nn.Flatten()
    x = rng_of(9).standard_normal((2, 3, 4))
    y = layer.forward(x)
    assert y.shape == (24,)
    assert np.array_equal(layer.backward(y), x)


def test_full_layer_formula():
    layer = nn.Full(3, 2, activation="sigmoid", beta=2.0)
    layer.params["weights"][...] = [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]
    layer.params["thetas"][...] = [0.5, -0.5]
    x = np.array([1.0, 2.0, 3.0])
    u = x @ layer.params["weights"] - layer.params["thetas"]
    assert np.allclose(layer.forward(x), 1.0 / (1.0 + np.exp(-2.0 * u)))
    tanh_layer = nn.Full(3, 2, activation="tanh")
    tanh_layer.params["weights"][...] = layer.params["weights"]
    assert np.allclose(tanh_layer.forward(x), np.tanh(x @ layer.params["weights"]))
    with pytest.raises(ValueError):
        nn.Full(3, 2, activation="relu")


def test_mse_loss_and_grad():
    y = np.array([0.2, 0.9, 0.1])
    t = np.array([0.0, 1.0, 0.0])
    assert nn.mse_loss(y, t) == pytest.approx(0.04 + 0.01 + 0.01)
    assert np.allclose(nn.mse_loss_grad(y, t), 2.0 * (y - t))
    with pytest.raises(ValueError):
        nn.mse_loss(y, t[:2])


def test_effective_eta_schedule():
    assert nn.effective_eta(0.1, 0.5, 0) == pytest.approx(0.1)
    assert nn.effective_eta(0.1, 0.5, 2) == pytest.approx(0.05)
    etas = [nn.effective_eta(0.3, 0.2, t) for t in range(100)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))
    assert len(set(etas)) == len(etas)  # strictly decreasing for d > 0
    flat = [nn.effective_eta(0.3, 0.0, t) for t in range(10)]
    assert set(flat) == {0.3}


def test_sgd_step_moves_against_gradient():
    net = nn.Network([nn.Full(2, 1, activation="tanh")], (2,))
    net.initialize(0)
    x = np.array([1.0, -1.0])
    target = np.array([0.5])
    before = nn.mse_loss(net.forward(x), target)
    net.zero_grads()
    net.backward(nn.mse_loss_grad(net.forward(x), target))
    grads = [g.copy() for _, _, _, g in net.parameters()]
    values = [v.copy() for _, _, v, _ in net.parameters()]
    nn.sgd_step(net, 0.1)
    assert nn.mse_loss(net.forward(x), target) < before
    # the step consumes the gradients: they hold eta * dE/dW afterwards
    for (_, _, v, g), g0, v0 in zip(net.parameters(), grads, values):
        assert np.array_equal(g, 0.1 * g0)
        assert np.array_equal(v, v0 - 0.1 * g0)


@pytest.mark.parametrize(
    "name, side, pooling", [("lenet5", 60, "subs"), ("lenet5", 28, "subs"), ("lenet7", 60, "l2pool")]
)
def test_network_backward_skips_only_the_input_gradient(name, side, pooling, monkeypatch):
    net = arch.build_network(arch.RunConfig(arch=name, input_side=side, pooling=pooling))
    net.initialize(1)
    rng = rng_of(4)
    x = rng.uniform(-1.0, 1.0, net.input_shape)
    dy = nn.mse_loss_grad(net.forward(x), np.array([0.0, 1.0, 0.0]))
    # reference: every layer's backward in turn, the first one's dx included
    net.zero_grads()
    d = dy
    for layer in reversed(net.layers):
        d = layer.backward(d)
    assert d.shape == net.input_shape
    walked = [g.copy() for _, _, _, g in net.parameters()]

    first = net.layers[0]
    calls = []
    backward = first.backward

    def recording(dy, **kwargs):
        result = backward(dy, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(first, "backward", recording)
    net.zero_grads()
    assert net.backward(dy) is None
    assert calls == [({"need_dx": False}, None)]
    for (_, _, _, g), ref in zip(net.parameters(), walked):
        assert np.array_equal(g, ref)


def test_network_validates_chain_eagerly():
    with pytest.raises(ValueError):
        nn.Network([nn.Conv(1, 2, 5, 5)], (1, 4, 4))
    net = nn.Network([nn.Conv(1, 2, 3, 3), nn.Tanh()], (1, 6, 6))
    assert net.shapes == [(1, 6, 6), (2, 4, 4), (2, 4, 4)]
    with pytest.raises(ValueError, match="input shape"):
        net.forward(np.zeros((1, 5, 5)))


def test_network_init_deterministic():
    def build():
        net = nn.Network([nn.Conv(1, 2, 3, 3), nn.Tanh(), nn.Flatten(), nn.Full(32, 3)], (1, 6, 6))
        return net

    a, b = build(), build()
    a.initialize(11)
    b.initialize(11)
    for (_, _, va, _), (_, _, vb, _) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(va, vb)
    c = build()
    c.initialize(12)
    assert not all(
        np.array_equal(va, vc)
        for (_, _, va, _), (_, _, vc, _) in zip(a.parameters(), c.parameters())
    )


def test_weight_init_respects_fan_in_bound():
    conv = nn.Conv(2, 4, 5, 5)
    conv.init_params(rng_of(0))
    bound = 1.0 / np.sqrt(2 * 25)
    assert np.max(np.abs(conv.params["kernels"])) <= bound
    full = nn.Full(100, 3)
    full.init_params(rng_of(0))
    assert np.max(np.abs(full.params["weights"])) <= 0.1


def test_checkpoint_round_trip(tmp_path):
    net = nn.Network([nn.Conv(1, 2, 3, 3), nn.Tanh(), nn.Flatten(), nn.Full(32, 3)], (1, 6, 6))
    net.initialize(3)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    assert path.read_bytes().startswith(b"SPECNET1")
    other = nn.Network([nn.Conv(1, 2, 3, 3), nn.Tanh(), nn.Flatten(), nn.Full(32, 3)], (1, 6, 6))
    other.initialize(99)
    nn.load_checkpoint(other, path)
    for (_, _, va, _), (_, _, vb, _) in zip(net.parameters(), other.parameters()):
        assert np.array_equal(va, vb)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    net = nn.Network([nn.Full(4, 2)], (4,))
    net.initialize(0)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    wrong = nn.Network([nn.Full(4, 3)], (4,))
    with pytest.raises(ValueError, match="expected layer"):
        nn.load_checkpoint(wrong, path)
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        nn.load_checkpoint(net, path)


def test_malformed_checkpoint_leaves_network_unchanged(tmp_path):
    net = arch.build_lenet5(28)
    net.initialize(0)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    data = path.read_bytes()
    other = arch.build_lenet5(28)
    other.initialize(1)
    before = [v.copy() for _, _, v, _ in other.parameters()]
    first_payload = 8 + 4 + 4 + 6 + len("kernels") + 1 + 4 * 4
    damaged = [data[:cut] for cut in (0, 8, 12, 30, first_payload + 100, len(data) // 2, len(data) - 1)]
    damaged.append(data + b"\x00")
    name = data.index(b"kernels")
    damaged.append(data[:name] + b"\xffernels" + data[name + 7 :])
    for bad in damaged:
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*byte") as exc:
            nn.load_checkpoint(other, path)
        assert not isinstance(exc.value, UnicodeDecodeError)
        for old, (_, _, v, _) in zip(before, other.parameters()):
            assert np.array_equal(old, v)
    # the undamaged file still loads
    path.write_bytes(data)
    nn.load_checkpoint(other, path)
    for (_, _, a, _), (_, _, b, _) in zip(net.parameters(), other.parameters()):
        assert np.array_equal(a, b)
