"""Correctness checks computed apart from the program.

Readers, the reference forward pass, image rasterization, KS distances and
the interval counts here are the benchmark's own code, written from the
formats and definitions in the specnet docstrings. The benchmark runs them
outside its timed regions; any disagreement raises CheckError.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: reduction window and native step of the log10 wavelength grid
LOGLAM_LO, LOGLAM_HI, LOGLAM_STEP = 3.6, 3.96, 1e-4
#: impaired-spectrum thresholds of the filter, as its docstring states them
MAX_GAP, ZERO_FRAC, ZERO_RUN_FRAC = 10, 0.20, 0.05


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# file formats ---------------------------------------------------------------


def read_spectrum_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Two whitespace-separated columns (log10 wavelength, flux); '#' comments."""
    rows = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    values = np.array(" ".join(rows).split(), dtype=float).reshape(-1, 2)
    return values[:, 0], values[:, 1]


def write_spectrum_file(path: Path, loglam: np.ndarray, flux: np.ndarray) -> None:
    lines = ["#LOGLAM\tFLUX"] + [f"{ll:.5f}\t{fx:.8e}" for ll, fx in zip(loglam, flux)]
    path.write_text("\n".join(lines) + "\n")


def read_pgm_file(path: Path) -> np.ndarray:
    """Binary PGM: 'P5', width, height, maxval 255, then raw row-major bytes."""
    data = path.read_bytes()
    fields = data.split(maxsplit=4)
    require(fields[0] == b"P5" and int(fields[3]) == 255, f"{path}: not an 8-bit P5 image")
    w, h = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(data[-w * h :], dtype=np.uint8)
    require(len(data) == len(b" ".join(fields[:4])) + 1 + w * h, f"{path}: bad PGM size")
    return pixels.reshape(h, w)


def read_split_list(path: Path) -> list[tuple[tuple[int, int, int], int, float]]:
    """Rows '(plate, mjd, fiberid), class code, z' of a split list."""
    rows = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            plate, mjd, fiber, code, z = line.split()
            rows.append(((int(plate), int(mjd), int(fiber)), int(code), float(z)))
    return rows


# impairment -----------------------------------------------------------------


def impairment_reason(loglam: np.ndarray, flux: np.ndarray) -> str | None:
    """The filter's rejection cause for a spectrum, or None when it passes."""
    steps = np.rint(np.diff(loglam) / LOGLAM_STEP) - 1
    if steps.max() > MAX_GAP:
        return "ImpairedSpectrum"
    if not np.isfinite(flux).all():
        return "NonFinite"
    zeros = flux == 0.0
    if zeros.sum() >= ZERO_FRAC * len(flux):
        return "ZeroFraction"
    run = longest = 0
    for z in zeros:
        run = run + 1 if z else 0
        longest = max(longest, run)
    if longest >= ZERO_RUN_FRAC * len(flux):
        return "ZeroRun"
    return None


def impair(loglam: np.ndarray, flux: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Damage a clean spectrum so that exactly `kind` rejects it."""
    n, mid = len(flux), len(flux) // 2
    flux = flux.copy()
    if kind == "ImpairedSpectrum":
        keep = np.r_[0:mid, mid + 4 * MAX_GAP : n]  # a gap of 40 native steps
        return loglam[keep], flux[keep]
    if kind == "NonFinite":
        flux[mid :: n // 7] = np.nan
    elif kind == "ZeroFraction":
        flux[::4] = 0.0  # 25% zeros, runs of one
    elif kind == "ZeroRun":
        flux[mid : mid + int(0.06 * n)] = 0.0  # one run of 6%
    else:
        raise ValueError(f"unknown impairment {kind!r}")
    return loglam, flux


# rasterization --------------------------------------------------------------


def reference_image(loglam: np.ndarray, flux: np.ndarray, side: int) -> np.ndarray:
    """Window the spectrum onto the native grid, average m^2 contiguous
    chunks (the first L mod m^2 one sample longer), fill rows, map min..max
    to 0..255 rounding half up."""
    n_grid = int(round((LOGLAM_HI - LOGLAM_LO) / LOGLAM_STEP)) + 1
    idx = np.rint((loglam - LOGLAM_LO) / LOGLAM_STEP).astype(int)
    inside = (idx >= 0) & (idx < n_grid)
    require(np.array_equal(np.sort(idx[inside]), np.arange(n_grid)), "spectrum not on the native grid")
    v = np.empty(n_grid)
    v[idx[inside]] = flux[inside]
    base, extra = divmod(n_grid, side * side)
    sizes = base + (np.arange(side * side) < extra)
    edges = np.concatenate([[0], np.cumsum(sizes)])
    sums = np.concatenate([[0.0], np.cumsum(v)])
    mat = ((sums[edges[1:]] - sums[edges[:-1]]) / sizes).reshape(side, side)
    lo, hi = mat.min(), mat.max()
    return np.floor(255.0 * (mat - lo) / (hi - lo) + 0.5).astype(np.uint8)


# network ----------------------------------------------------------------------


def net_input(pixels: np.ndarray) -> np.ndarray:
    return (pixels.astype(float) / 127.5 - 1.0)[None]


def _clamped_window_mean(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Window-weighted sum over maps and space, edge-replicated borders,
    divided by the map count."""
    n1, h, wd = x.shape
    r = w.shape[0] // 2
    out = np.zeros((h, wd))
    for p in range(w.shape[0]):
        rows = np.clip(np.arange(h) + p - r, 0, h - 1)
        for q in range(w.shape[1]):
            cols = np.clip(np.arange(wd) + q - r, 0, wd - 1)
            out += w[p, q] * x[:, rows][:, :, cols].sum(axis=0)
    return out / n1


def reference_forward(net, x: np.ndarray) -> np.ndarray:
    """Forward pass from the layer definitions, with explicit loops over
    kernel and window offsets."""
    for layer in net.layers:
        kind, par = type(layer).__name__, layer.params
        if kind == "Conv":
            k = par["kernels"] * layer.mask[:, :, None, None]
            n_out, _, kh, kw = k.shape
            oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
            y = np.zeros((n_out, oh, ow)) + par["biases"][:, None, None]
            for p in range(kh):
                for q in range(kw):
                    y += np.tensordot(k[:, :, p, q], x[:, p : p + oh, q : q + ow], axes=1)
            x = y
        elif kind == "Tanh":
            x = np.tanh(x)
        elif kind == "SubtractiveNorm":
            x = x - _clamped_window_mean(x, layer.window)[None]
        elif kind == "DivisiveNorm":
            sigma = np.sqrt(_clamped_window_mean(x * x, layer.window))
            x = x / np.maximum(np.maximum(sigma, sigma.mean()), layer.epsilon)[None]
        elif kind in ("SubsPool", "LpPool"):
            s = layer.size
            acc = np.zeros((x.shape[0], x.shape[1] // s, x.shape[2] // s))
            for p in range(s):
                for q in range(s):
                    win = x[:, p::s, q::s]
                    acc += win / (s * s) if kind == "SubsPool" else layer.gauss[p, q] * win**2
            if kind == "SubsPool":
                x = acc * par["coeffs"][:, None, None] + par["biases"][:, None, None]
            else:
                require(layer.p == 2.0, "reference covers L2 pooling only")
                x = np.sqrt(acc)
        elif kind == "Flatten":
            x = x.reshape(-1)
        elif kind == "Full":
            require(layer.activation == "sigmoid", "reference covers sigmoid outputs only")
            u = x @ par["weights"] - par["thetas"]
            x = 1.0 / (1.0 + np.exp(-layer.beta * u))
        else:
            raise CheckError(f"no reference for layer {kind}")
    return x


def gradient_check(net, x: np.ndarray, label: int, rng: np.random.Generator, h: float = 1e-5) -> float:
    """Worst relative error between backprop and central differences of the
    squared error, over the largest-gradient entry and two random entries
    of every parameter tensor.

    DivisiveNorm's max(mean(sigma), sigma) makes the loss piecewise smooth.
    An entry that disagrees at step h is measured again at h/10: a kink
    within +-h spoils the first difference only, a wrong gradient both.
    """
    target = np.zeros(3)
    target[label] = 1.0

    def loss() -> float:
        d = target - net.forward(x)
        return float(d @ d)

    def rel_error(flat: np.ndarray, i: int, analytic: float, step: float) -> float:
        old = flat[i]
        flat[i] = old + step
        fp = loss()
        flat[i] = old - step
        fm = loss()
        flat[i] = old
        numeric = (fp - fm) / (2 * step)
        return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-4)

    y = net.forward(x)
    net.zero_grads()
    net.backward(2.0 * (y - target))
    worst = 0.0
    for _, _, value, grad in net.parameters():
        flat, gflat = value.reshape(-1), grad.reshape(-1).copy()
        picks = {int(np.argmax(np.abs(gflat)))} | set(rng.integers(0, flat.size, 2).tolist())
        for i in picks:
            err = rel_error(flat, i, gflat[i], h)
            if err >= 1e-4:
                err = rel_error(flat, i, gflat[i], h / 10)
            worst = max(worst, err)
    return worst


# sampling -------------------------------------------------------------------


def ks_two_sample(a, b) -> float:
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    xs = np.union1d(a, b)
    fa = np.searchsorted(a, xs, side="right") / len(a)
    fb = np.searchsorted(b, xs, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_to_uniform(zs, lo: float, hi: float) -> float:
    s = np.sort(np.asarray(zs, float))
    n = len(s)
    f = (s - lo) / (hi - lo)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def interval_counts(zs, pool_zs, n_intervals: int) -> np.ndarray:
    """Counts of zs per equal interval of [min(pool), max(pool) + 1e-12]."""
    lo, hi = min(pool_zs), max(pool_zs) + 1e-12
    width = (hi - lo) / n_intervals
    counts = np.zeros(n_intervals, dtype=int)
    for z in zs:
        counts[min(max(int((z - lo) / width), 0), n_intervals - 1)] += 1
    return counts
