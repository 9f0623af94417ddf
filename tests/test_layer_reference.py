"""The normalization layers and Conv against per-map reference formulas.

The normalization layers' backward passes work in 2-D where every map shares
a gradient and scatter the pad adjoint with one bincount, and their forward
window sums gather each clamped window into a row; Conv skips the mask
multiply for full connection tables. The references below compute the same
quantities map by map, the direct way, from an explicit pad, with np.add.at
scatters, so any change of semantics shows as a disagreement.
"""

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from specnet import nn

TOL = 1e-12


def _pad_clamped(x, r):
    ri = np.clip(np.arange(-r, x.shape[1] + r), 0, x.shape[1] - 1)
    ci = np.clip(np.arange(-r, x.shape[2] + r), 0, x.shape[2] - 1)
    return x[:, ri[:, None], ci[None, :]], ri, ci


def _unpad_scatter(dxp, shape, ri, ci):
    dx = np.zeros(shape)
    np.add.at(dx, (np.arange(shape[0])[:, None, None], ri[None, :, None], ci[None, None, :]), dxp)
    return dx


def _window_sum(xp, w):
    win = sliding_window_view(xp, w.shape, axis=(1, 2))
    return np.tensordot(win, w, axes=([3, 4], [0, 1]))


def _window_sum_adjoint(d, w, padded_shape):
    out = np.zeros(padded_shape)
    n2, n3 = d.shape[-2:]
    for p in range(w.shape[0]):
        for q in range(w.shape[1]):
            out[..., p : p + n2, q : q + n3] += d * w[p, q]
    return out


def ref_subnorm(layer, x, dy):
    """Window sum of every padded map, then the mean over maps."""
    n1 = x.shape[0]
    xp, ri, ci = _pad_clamped(x, layer.side // 2)
    y = x - _window_sum(xp, layer.window).mean(axis=0)[None]
    dmu = -dy.sum(axis=0) / n1
    dxp = _window_sum_adjoint(np.broadcast_to(dmu, x.shape), layer.window, xp.shape)
    return y, dy + _unpad_scatter(dxp, x.shape, ri, ci)


def ref_divnorm(layer, v, dy):
    """Per-map window sums of pad(v)^2; the pad adjoint scatters 2 pad(v) D."""
    n1 = v.shape[0]
    vp, ri, ci = _pad_clamped(v, layer.side // 2)
    sig = np.sqrt(_window_sum(vp**2, layer.window).mean(axis=0))
    m = sig.mean()
    denom = np.maximum(np.maximum(sig, m), layer.epsilon)
    y = v / denom[None]
    dv = dy / denom[None]
    ddenom = -(dy * v).sum(axis=0) / denom**2
    sig_branch = (sig >= m) & (sig >= layer.epsilon)
    m_branch = (~sig_branch) & (m >= layer.epsilon)
    dsig = np.where(sig_branch, ddenom, 0.0) + ddenom[m_branch].sum() / sig.size
    with np.errstate(divide="ignore", invalid="ignore"):
        ds2 = np.where(sig > 0.0, dsig / (2.0 * sig * n1), 0.0)
    dvp2 = _window_sum_adjoint(np.broadcast_to(ds2, v.shape), layer.window, vp.shape)
    return y, dv + _unpad_scatter(2.0 * vp * dvp2, v.shape, ri, ci)


def ref_conv(layer, x, dy):
    """Direct loops over kernel offsets, masking kernels and gradients."""
    mask4 = layer.mask[:, :, None, None]
    k = layer.params["kernels"] * mask4
    kh, kw = layer.kh, layer.kw
    oh, ow = dy.shape[1:]
    y = np.zeros(dy.shape) + layer.params["biases"][:, None, None]
    dk = np.zeros_like(k)
    dx = np.zeros_like(x)
    for p in range(kh):
        for q in range(kw):
            xs = x[:, p : p + oh, q : q + ow]
            y += np.einsum("ji,irc->jrc", k[:, :, p, q], xs)
            dk[:, :, p, q] = np.einsum("jrc,irc->ji", dy, xs)
            dx[:, p : p + oh, q : q + ow] += np.einsum("ji,jrc->irc", k[:, :, p, q], dy)
    return y, dx, {"kernels": dk * mask4, "biases": dy.sum(axis=(1, 2))}


def run_layer(layer, x, dy):
    y = layer.forward(x)
    layer.zero_grads()
    dx = layer.backward(dy)
    return y, dx, {k: g.copy() for k, g in layer.grads.items()}


def assert_close(a, b):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= TOL


@pytest.mark.parametrize("shape", [(6, 56, 56), (16, 26, 26)])
@pytest.mark.parametrize("side", [5, 9])
def test_subtractive_norm_matches_per_map_reference(shape, side):
    rng = np.random.default_rng(side)
    layer = nn.SubtractiveNorm(side)
    x, dy = rng.standard_normal(shape), rng.standard_normal(shape)
    y, dx, grads = run_layer(layer, x, dy)
    y_ref, dx_ref = ref_subnorm(layer, x, dy)
    assert_close(y, y_ref)
    assert_close(dx, dx_ref)
    assert grads == {}


@pytest.mark.parametrize("shape", [(6, 56, 56), (16, 26, 26)])
@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_divisive_norm_matches_per_map_reference(shape, scale):
    # scale 1e-9 puts the whole stack under epsilon, the third branch of max()
    rng = np.random.default_rng(len(shape) + shape[0])
    layer = nn.DivisiveNorm(5)
    x = scale * np.tanh(rng.standard_normal(shape))
    x[:, :4, :4] = 0.0  # sigma is exactly 0 near the corner: the subgradient branch
    dy = rng.standard_normal(shape)
    y, dx, grads = run_layer(layer, x, dy)
    y_ref, dx_ref = ref_divnorm(layer, x, dy)
    assert_close(y, y_ref)
    assert_close(dx * scale, dx_ref * scale)
    assert grads == {}


def test_divisive_norm_zero_sigma_backward_raises_no_float_error():
    rng = np.random.default_rng(5)
    layer = nn.DivisiveNorm(5)
    x = np.tanh(rng.standard_normal((6, 24, 24)))
    x[:, :4, :4] = 0.0
    with np.errstate(all="raise"):
        layer.forward(x)
        assert not (layer._sig > 0.0).all()
        layer.backward(rng.standard_normal(x.shape))


@pytest.mark.parametrize(
    "shape", [(6, 56, 56), (16, 26, 26), (8, 56, 56), (24, 10, 10), (6, 24, 24), (16, 10, 10)]
)
@pytest.mark.parametrize("side", [5, 9])
def test_clamped_window_sum_is_bitwise_the_padded_tensordot(shape, side):
    rng = np.random.default_rng(shape[0] * 100 + side)
    x = rng.standard_normal(shape)
    w = nn.gaussian_window(side)
    xp, _, _ = _pad_clamped(x, side // 2)
    assert np.array_equal(nn._clamped_window_sum(x, w), _window_sum(xp, w))


PARTIAL = [(i, j) for j in range(5) for i in range(6) if (i + j) % 3 != 0]

CONV_CASES = {
    "lenet5-c1": (1, 6, 5, 60, None),
    "lenet5-c3": (6, 16, 3, 28, None),
    "lenet5-wholemap": (16, 120, 13, 13, None),
    "lenet7-wholemap": (24, 100, 5, 5, None),
    "partial": (6, 5, 3, 12, PARTIAL),
    "partial-wholemap": (6, 5, 5, 5, PARTIAL),
}


@pytest.mark.parametrize("case", CONV_CASES.values(), ids=CONV_CASES.keys())
def test_conv_matches_direct_reference(case):
    n_in, n_out, kside, in_side, table = case
    rng = np.random.default_rng(n_in * 100 + kside)
    layer = nn.Conv(n_in, n_out, kside, kside, table=table)
    layer.init_params(rng)
    layer.params["biases"][...] = rng.standard_normal(n_out)
    x = rng.standard_normal((n_in, in_side, in_side))
    dy = rng.standard_normal(layer.out_shape(x.shape))
    y, dx, grads = run_layer(layer, x, dy)
    y_ref, dx_ref, grads_ref = ref_conv(layer, x, dy)
    assert_close(y, y_ref)
    assert_close(dx, dx_ref)
    for name in ("kernels", "biases"):
        assert_close(grads[name], grads_ref[name])
    assert np.all(grads["kernels"][~layer.mask] == 0.0)


def test_conv_partial_table_ignores_stray_disconnected_weights():
    # a loaded checkpoint may carry values in disconnected entries; the
    # connection table, not the stored value, decides what contributes
    rng = np.random.default_rng(7)
    for in_side in (5, 12):
        layer = nn.Conv(6, 5, 5, 5, table=PARTIAL)
        layer.init_params(rng)
        x = rng.standard_normal((6, in_side, in_side))
        clean = layer.forward(x)
        layer.params["kernels"][~layer.mask] = 3.0
        assert np.array_equal(layer.forward(x), clean)
