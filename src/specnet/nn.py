"""From-scratch ConvNet core: layer forward/backward passes, squared-error
loss, per-pattern SGD with inverse-time learning-rate decay, and binary
parameter checkpoints.

Feature stacks are float64 ndarrays of shape (maps, height, width). Layers
cache their forward inputs; backward(dy) returns dx and accumulates
parameter gradients into the layer's grad arrays. Network.backward fills the
grad arrays of every layer and returns nothing: the input gradient is never
computed. sgd_step consumes the gradients it applies, so zero_grads must run
before the next backward.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def gaussian_window(side: int, sigma: float | None = None) -> np.ndarray:
    """Normalized truncated Gaussian window, odd or even side, sum 1."""
    if side <= 0:
        raise ValueError("window side must be positive")
    if sigma is None:
        sigma = max(side / 4.0, 0.5)
    c = (side - 1) / 2.0
    d = np.arange(side) - c
    g1 = np.exp(-0.5 * (d / sigma) ** 2)
    w = np.outer(g1, g1)
    return w / w.sum()


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base layer. Subclasses fill `params` and `grads` dicts (same keys)."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return dx. With need_dx False
        the caller discards dx, and a layer may skip it and return None."""
        raise NotImplementedError

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError


def full_table(n_in: int, n_out: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n_out) for i in range(n_in)]


class Conv(Layer):
    """Valid (no-padding) cross-correlation with a connection table.

    y_j = b_j + sum over connected i of k_ij star x_i. Kernel entries for
    disconnected (i, j) pairs stay zero and receive zero gradient.
    """

    def __init__(self, n_in, n_out, kh, kw, table=None):
        super().__init__()
        self.n_in, self.n_out, self.kh, self.kw = n_in, n_out, kh, kw
        table = full_table(n_in, n_out) if table is None else list(table)
        mask = np.zeros((n_out, n_in), dtype=bool)
        for i, j in table:
            mask[j, i] = True
        if not mask.any(axis=1).all():
            raise ValueError("every output map needs at least one connection")
        self.mask = mask
        self._full = bool(mask.all())
        self.params = {
            "kernels": np.zeros((n_out, n_in, kh, kw)),
            "biases": np.zeros(n_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _masked(self, k: np.ndarray) -> np.ndarray:
        # zero the disconnected (i, j) entries; a full table has none
        return k if self._full else k * self.mask[:, :, None, None]

    def init_params(self, rng):
        fan_in = self.mask.sum(axis=1) * self.kh * self.kw  # per output map
        k = np.empty((self.n_out, self.n_in, self.kh, self.kw))
        for j in range(self.n_out):
            k[j] = _uniform_init(rng, (self.n_in, self.kh, self.kw), int(fan_in[j]))
        self.params["kernels"][...] = self._masked(k)
        self.params["biases"][...] = 0.0

    def out_shape(self, in_shape):
        n1, n2, n3 = in_shape
        if n1 != self.n_in:
            raise ValueError(f"expected {self.n_in} input maps, got {n1}")
        if self.kh > n2 or self.kw > n3:
            raise ValueError(f"kernel {self.kh}x{self.kw} larger than input {n2}x{n3}")
        return (self.n_out, n2 - self.kh + 1, n3 - self.kw + 1)

    def forward(self, x):
        oshape = self.out_shape(x.shape)
        self._x = x
        k = self._masked(self.params["kernels"])
        if oshape[1:] == (1, 1):
            # kernel covers the whole map: a single dot product per output
            y = np.einsum("jipq,ipq->j", k, x)[:, None, None]
        else:
            self._win = sliding_window_view(x, (self.kh, self.kw), axis=(1, 2))
            y = np.tensordot(k, self._win, axes=([1, 2, 3], [0, 3, 4]))
        return y + self.params["biases"][:, None, None]

    def backward(self, dy, need_dx=True):
        self.grads["biases"] += dy.sum(axis=(1, 2))
        k = self._masked(self.params["kernels"])
        if dy.shape[1:] == (1, 1):
            d = dy[:, 0, 0]
            self.grads["kernels"] += self._masked(np.outer(d, self._x).reshape(k.shape))
            return np.einsum("j,jipq->ipq", d, k) if need_dx else None
        dk = np.tensordot(dy, self._win, axes=([1, 2], [1, 2]))
        self.grads["kernels"] += self._masked(dk)
        if not need_dx:
            return None
        # full correlation of dy with flipped kernels
        ph, pw = self.kh - 1, self.kw - 1
        dy_pad = np.pad(dy, ((0, 0), (ph, ph), (pw, pw)))
        dyw = sliding_window_view(dy_pad, (self.kh, self.kw), axis=(1, 2))
        return np.tensordot(k[:, :, ::-1, ::-1], dyw, axes=([0, 2, 3], [0, 3, 4]))


class Tanh(Layer):
    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, dy, need_dx=True):
        return dy * (1.0 - self._y**2)

    def out_shape(self, in_shape):
        return in_shape


class RectifiedSigmoid(Layer):
    """y = |g_i * tanh(x)| per map, with a trainable gain per map.

    The subgradient of |.| at exactly 0 is taken as 0.
    """

    def __init__(self, n_maps):
        super().__init__()
        self.n_maps = n_maps
        self.params = {"gains": np.ones(n_maps)}
        self.grads = {"gains": np.zeros(n_maps)}

    def init_params(self, rng):
        self.params["gains"][...] = 1.0

    def forward(self, x):
        self._t = np.tanh(x)
        g = self.params["gains"][:, None, None]
        self._s = g * self._t
        return np.abs(self._s)

    def backward(self, dy, need_dx=True):
        sign = np.sign(self._s)
        g = self.params["gains"][:, None, None]
        self.grads["gains"] += (dy * sign * self._t).sum(axis=(1, 2))
        return dy * sign * g * (1.0 - self._t**2)

    def out_shape(self, in_shape):
        if in_shape[0] != self.n_maps:
            raise ValueError(f"expected {self.n_maps} maps, got {in_shape[0]}")
        return in_shape


def _clamped_indices(n: int, r: int) -> np.ndarray:
    return np.clip(np.arange(-r, n + r), 0, n - 1)


def _pad_index(n2: int, n3: int, r: int) -> np.ndarray:
    """Flat index into an (n2, n3) map of each position of its clamped pad."""
    return _clamped_indices(n2, r)[:, None] * n3 + _clamped_indices(n3, r)


def _pad_clamped(x: np.ndarray, r: int) -> np.ndarray:
    n1, n2, n3 = x.shape
    return np.take(x.reshape(n1, -1), _pad_index(n2, n3, r), axis=1)


def _unpad_scatter(dxp: np.ndarray, r: int) -> np.ndarray:
    """Adjoint of _pad_clamped over the last two axes: each padded
    position's gradient is added to the position it copies, in the order
    np.add.at would add them."""
    lead, (h, w) = dxp.shape[:-2], dxp.shape[-2:]
    n2, n3 = h - 2 * r, w - 2 * r
    idx = _pad_index(n2, n3, r)
    maps = np.arange(dxp.size // (h * w))[:, None, None] * (n2 * n3)
    return np.bincount((maps + idx).ravel(), weights=dxp.ravel()).reshape(lead + (n2, n3))


@functools.lru_cache(maxsize=16)
def _window_index(n2: int, n3: int, side: int) -> np.ndarray:
    """Flat index into an (n2, n3) map of every clamped side x side window,
    window by window in row-major order, offsets within a window row-major.
    Read-only: every caller with the same sizes shares it."""
    idx = sliding_window_view(_pad_index(n2, n3, side // 2), (side, side)).reshape(-1)
    idx.flags.writeable = False
    return idx


def _clamped_window_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of every clamped (edge-replicated) side x side window of each map,
    weighted by w; shape (n1, n2, n3). The gather lays each window out as
    one row of a C-contiguous (n1 n2 n3, side^2) matrix, the matrix a
    tensordot of the padded stack's sliding windows copies out, and makes
    the same BLAS product with w, so the sums are bit for bit the same."""
    n1, n2, n3 = x.shape
    side = w.shape[0]
    rows = np.take(x.reshape(n1, -1), _window_index(n2, n3, side), axis=1)
    return np.dot(rows.reshape(-1, side * side), w.reshape(-1, 1)).reshape(n1, n2, n3)


def _window_sum_adjoint(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of a 2-D window sum: d of shape (n2, n3) back onto the padded map."""
    side = w.shape[0]
    n2, n3 = d.shape
    out = np.zeros((n2 + side - 1, n3 + side - 1))
    for p in range(side):
        for q in range(side):
            out[p : p + n2, q : q + n3] += d * w[p, q]
    return out


class SubtractiveNorm(Layer):
    """Local mean removal: v = x - weighted window mean across maps and space.

    The Gaussian window weights are additionally normalized by the map
    count; borders use clamped (edge-replicated) windows. The mean's gradient
    is the same for every map, so backward works in 2-D and broadcasts.
    """

    def __init__(self, side: int, sigma: float | None = None):
        super().__init__()
        if side % 2 == 0:
            raise ValueError("normalization window side must be odd")
        self.side = side
        self.window = gaussian_window(side, sigma)
        self.r = side // 2

    def forward(self, x):
        mu = _clamped_window_sum(x, self.window).mean(axis=0)  # (n2, n3)
        return x - mu[None]

    def backward(self, dy, need_dx=True):
        dmp = _window_sum_adjoint(-dy.sum(axis=0) / dy.shape[0], self.window)
        return dy + _unpad_scatter(dmp, self.r)[None]

    def out_shape(self, in_shape):
        return in_shape


class DivisiveNorm(Layer):
    """Local standard-deviation division:

    sigma_jk = sqrt(window-weighted mean of v^2 across maps);
    y = v / max(mean(sigma), sigma_jk, epsilon), the mean taken over the
    spatial positions of the stack. Backward takes the window adjoint once
    in 2-D, as that gradient is the same for every map.
    """

    def __init__(self, side: int, sigma: float | None = None, epsilon: float = 1e-8):
        super().__init__()
        if side % 2 == 0:
            raise ValueError("normalization window side must be odd")
        self.side = side
        self.window = gaussian_window(side, sigma)
        self.r = side // 2
        self.epsilon = epsilon

    def forward(self, v):
        self._v = v
        # the gather of v^2 holds the values of pad(v)^2
        local2 = _clamped_window_sum(v**2, self.window)  # (n1, n2, n3)
        self._sig = np.sqrt(local2.mean(axis=0))  # (n2, n3)
        self._m = float(self._sig.mean())
        self._denom = np.maximum(np.maximum(self._sig, self._m), self.epsilon)
        return v / self._denom[None]

    def backward(self, dy, need_dx=True):
        n1 = self._v.shape[0]
        dv = dy / self._denom[None]
        ddenom = -(dy * self._v).sum(axis=0) / self._denom**2
        sig_branch = (self._sig >= self._m) & (self._sig >= self.epsilon)
        m_branch = (~sig_branch) & (self._m >= self.epsilon)
        dsig = np.where(sig_branch, ddenom, 0.0)
        dsig += ddenom[m_branch].sum() / self._sig.size
        # subgradient 0 where sigma is 0
        ds2 = np.divide(
            dsig, 2.0 * self._sig * n1, out=np.zeros_like(self._sig), where=self._sig > 0.0
        )
        vp = _pad_clamped(self._v, self.r)
        dv += _unpad_scatter(2.0 * vp * _window_sum_adjoint(ds2, self.window), self.r)
        return dv

    def out_shape(self, in_shape):
        return in_shape


class SubsPool(Layer):
    """Non-overlapping window average times a trainable coefficient plus a
    trainable bias, one of each per map."""

    def __init__(self, n_maps: int, size: int):
        super().__init__()
        self.n_maps, self.size = n_maps, size
        self.params = {"coeffs": np.ones(n_maps), "biases": np.zeros(n_maps)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def init_params(self, rng):
        self.params["coeffs"][...] = 1.0
        self.params["biases"][...] = 0.0

    def out_shape(self, in_shape):
        n1, n2, n3 = in_shape
        if n1 != self.n_maps:
            raise ValueError(f"expected {self.n_maps} maps, got {n1}")
        if n2 % self.size or n3 % self.size:
            raise ValueError(f"map side {n2}x{n3} not divisible by {self.size}")
        return (n1, n2 // self.size, n3 // self.size)

    def forward(self, x):
        n1, oh, ow = self.out_shape(x.shape)
        s = self.size
        self._avg = x.reshape(n1, oh, s, ow, s).mean(axis=(2, 4))
        c = self.params["coeffs"][:, None, None]
        return self._avg * c + self.params["biases"][:, None, None]

    def backward(self, dy, need_dx=True):
        self.grads["coeffs"] += (dy * self._avg).sum(axis=(1, 2))
        self.grads["biases"] += dy.sum(axis=(1, 2))
        s = self.size
        n1, oh, ow = dy.shape
        davg = dy * self.params["coeffs"][:, None, None] / (s * s)
        return np.broadcast_to(
            davg[:, :, None, :, None], (n1, oh, s, ow, s)
        ).reshape(n1, oh * s, ow * s).copy()


class LpPool(Layer):
    """Windowed Gaussian-weighted p-norm over non-overlapping windows:
    O = (sum I^P G)^(1/P). P=1 is Gaussian averaging, P=inf is max pooling.

    Non-integer P requires non-negative inputs (use after RectifiedSigmoid).
    """

    def __init__(self, size: int, p: float = 2.0, sigma: float | None = None):
        super().__init__()
        if p < 1:
            raise ValueError("P must be >= 1")
        self.size, self.p = size, p
        self.gauss = gaussian_window(size, sigma)

    def out_shape(self, in_shape):
        n1, n2, n3 = in_shape
        if n2 % self.size or n3 % self.size:
            raise ValueError(f"map side {n2}x{n3} not divisible by {self.size}")
        return (n1, n2 // self.size, n3 // self.size)

    def _windows(self, x):
        n1, oh, ow = self.out_shape(x.shape)
        s = self.size
        return x.reshape(n1, oh, s, ow, s).transpose(0, 1, 3, 2, 4)

    def forward(self, x):
        win = self._windows(x)
        self._win = win
        if np.isinf(self.p):
            flat = win.reshape(win.shape[:3] + (-1,))
            self._argmax = flat.argmax(axis=-1)
            return np.take_along_axis(flat, self._argmax[..., None], axis=-1)[..., 0]
        if self.p == 1.0:
            # linear case, valid for any sign
            return np.einsum("abcpq,pq->abc", win, self.gauss)
        t = np.einsum("abcpq,pq->abc", np.power(win, self.p), self.gauss)
        self._t = t
        self._y = np.power(t, 1.0 / self.p)
        return self._y

    def backward(self, dy, need_dx=True):
        s = self.size
        n1, oh, ow = dy.shape
        if np.isinf(self.p):
            dflat = np.zeros(self._win.shape[:3] + (s * s,))
            np.put_along_axis(dflat, self._argmax[..., None], dy[..., None], axis=-1)
            dwin = dflat.reshape(self._win.shape)
        elif self.p == 1.0:
            dwin = dy[..., None, None] * self.gauss
        else:
            # dO/dI = t^(1/P - 1) * I^(P-1) * G, with subgradient 0 at t = 0
            safe_t = np.where(self._t > 0.0, self._t, 1.0)
            outer = np.where(self._t > 0.0, np.power(safe_t, 1.0 / self.p - 1.0), 0.0)
            dwin = (
                (dy * outer)[..., None, None]
                * np.power(self._win, self.p - 1.0)
                * self.gauss
            )
        return dwin.transpose(0, 1, 3, 2, 4).reshape(n1, oh * s, ow * s).copy()


class Flatten(Layer):
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(-1)

    def backward(self, dy, need_dx=True):
        return dy.reshape(self._shape)

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class Full(Layer):
    """Fully connected layer: u = x . w - theta, y = f(u).

    f is sigmoid 1/(1+exp(-beta u)) or tanh.
    """

    def __init__(self, n_in: int, n_out: int, activation: str = "sigmoid", beta: float = 1.0):
        super().__init__()
        if activation not in ("sigmoid", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n_in, self.n_out = n_in, n_out
        self.activation, self.beta = activation, beta
        self.params = {"weights": np.zeros((n_in, n_out)), "thetas": np.zeros(n_out)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def init_params(self, rng):
        self.params["weights"][...] = _uniform_init(rng, (self.n_in, self.n_out), self.n_in)
        self.params["thetas"][...] = 0.0

    def out_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ValueError(f"expected input length {self.n_in}, got {in_shape}")
        return (self.n_out,)

    def forward(self, x):
        if x.shape != (self.n_in,):
            raise ValueError(f"expected input length {self.n_in}, got {x.shape}")
        self._x = x
        u = x @ self.params["weights"] - self.params["thetas"]
        if self.activation == "sigmoid":
            self._y = 1.0 / (1.0 + np.exp(-self.beta * u))
        else:
            self._y = np.tanh(u)
        return self._y

    def backward(self, dy, need_dx=True):
        if self.activation == "sigmoid":
            du = dy * self.beta * self._y * (1.0 - self._y)
        else:
            du = dy * (1.0 - self._y**2)
        self.grads["weights"] += np.outer(self._x, du)
        self.grads["thetas"] += -du
        return self.params["weights"] @ du if need_dx else None


def mse_loss(y: np.ndarray, target: np.ndarray) -> float:
    """Per-pattern squared error ||T - y||^2."""
    if y.shape != target.shape:
        raise ValueError("output and target lengths differ")
    d = target - y
    return float(d @ d)


def mse_loss_grad(y: np.ndarray, target: np.ndarray) -> np.ndarray:
    if y.shape != target.shape:
        raise ValueError("output and target lengths differ")
    return 2.0 * (y - target)


class Network:
    """Ordered layer pipeline with shared forward/backward bookkeeping."""

    def __init__(self, layers: list[Layer], input_shape: tuple):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        # validates the whole dimension chain eagerly, naming the layer that breaks it
        shape = self.input_shape
        self.shapes = [shape]
        for i, layer in enumerate(layers):
            try:
                shape = layer.out_shape(shape)
            except ValueError as exc:
                raise ValueError(
                    f"layer {i} ({type(layer).__name__}): {exc} (input was {shape})"
                ) from None
            self.shapes.append(shape)

    def initialize(self, seed: int) -> None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        for layer in self.layers:
            layer.init_params(rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.input_shape:
            raise ValueError(f"input shape {x.shape} != expected {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dLdy: np.ndarray) -> None:
        """Accumulate dE/dW into every layer's grads; the input gradient,
        which no caller uses, is not computed."""
        for layer in reversed(self.layers[1:]):
            dLdy = layer.backward(dLdy)
        self.layers[0].backward(dLdy, need_dx=False)

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    def parameters(self):
        for li, layer in enumerate(self.layers):
            for name in layer.params:
                yield li, name, layer.params[name], layer.grads[name]


def effective_eta(eta0: float, decay: float, t: int) -> float:
    """Inverse-time decay eta_t = eta0 / (1 + d * t)."""
    return eta0 / (1.0 + decay * t)


def sgd_step(net: Network, eta: float) -> None:
    """W <- W - eta * dE/dW for every trainable parameter.

    Consumes the gradients: each grad array is scaled in place and holds
    eta * dE/dW afterwards.
    """
    for _, _, value, grad in net.parameters():
        if value.shape != grad.shape:
            raise ValueError("parameter/gradient shape mismatch")
        grad *= eta
        value -= grad


_MAGIC = b"SPECNET1"


def save_checkpoint(net: Network, path) -> None:
    """Versioned binary checkpoint: magic, layer count, per-parameter shape
    headers, little-endian float64 payloads. Round trips bit-exactly."""
    chunks = [_MAGIC, struct.pack("<I", len(net.layers))]
    entries = list(net.parameters())
    chunks.append(struct.pack("<I", len(entries)))
    for li, name, value, _ in entries:
        nb = name.encode("ascii")
        chunks.append(struct.pack("<IH", li, len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(net: Network, path) -> None:
    """Load a checkpoint written by save_checkpoint into `net`.

    Every entry is parsed and checked before any parameter is assigned, so a
    file that does not fit leaves `net` as it was. A malformed, truncated or
    overlong file is a ValueError naming the file and the byte offset.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    off = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal off
        if off + size > len(data):
            raise ValueError(
                f"{path}: file ends at byte {len(data)}, inside {what} "
                f"(bytes {off}-{off + size - 1})"
            )
        chunk = data[off : off + size]
        off += size
        return chunk

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    if take(8, "the magic") != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    (n_layers,) = unpack("<I", "the layer count")
    if n_layers != len(net.layers):
        raise ValueError(f"{path}: checkpoint has {n_layers} layers, network has {len(net.layers)}")
    (n_entries,) = unpack("<I", "the parameter count")
    expected = list(net.parameters())
    if n_entries != len(expected):
        raise ValueError(f"{path}: parameter count mismatch")
    loaded = []
    for li, name, value, _ in expected:
        entry = off
        got_li, name_len = unpack("<IH", f"the header of layer {li} param {name}")
        try:
            got_name = bytes(take(name_len, "a parameter name")).decode("ascii")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: bad parameter name at byte {entry + 6}") from None
        (ndim,) = unpack("<B", "a parameter rank")
        shape = unpack(f"<{ndim}I", "a parameter shape")
        if (got_li, got_name, shape) != (li, name, value.shape):
            raise ValueError(
                f"{path}: expected layer {li} param {name}{value.shape}, "
                f"found layer {got_li} param {got_name}{shape} at byte {entry}"
            )
        payload = take(8 * value.size, f"the values of layer {li} param {name}")
        loaded.append((value, np.frombuffer(payload, dtype="<f8").reshape(shape)))
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes after byte {off}")
    for value, new in loaded:
        value[...] = new
