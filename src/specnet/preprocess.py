"""Spectrum preprocessing: reduction, impairment filtering, binning,
rasterization, 8-bit normalization and binary PGM image I/O.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import ObjectClass

#: default reduction window, log10 Angstrom
LOGLAM_LO = 3.60000
LOGLAM_HI = 3.96000
#: native grid step, log10 Angstrom
LOGLAM_STEP = 1e-4


class ImpairedSpectrum(ValueError):
    pass


@dataclass
class Spectrum:
    """Log-wavelength grid with a calibrated flux vector."""

    ident: tuple[int, int, int]
    loglam: np.ndarray
    flux: np.ndarray
    label: ObjectClass | None = None
    z: float | None = None

    def __post_init__(self):
        self.loglam = np.asarray(self.loglam, dtype=float)
        self.flux = np.asarray(self.flux, dtype=float)
        if self.loglam.shape != self.flux.shape or self.loglam.ndim != 1:
            raise ValueError("loglam and flux must be 1-D and the same length")
        if len(self.loglam) > 1 and not np.all(np.diff(self.loglam) > 0):
            raise ValueError("loglam must be strictly increasing")

    @property
    def name(self) -> str:
        p, m, f = self.ident
        return f"{p}-{m}-{f}"


@dataclass
class SpectralImage:
    ident: tuple[int, int, int]
    pixels: np.ndarray  # n x n, uint8
    label: ObjectClass | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2 or self.pixels.shape[0] != self.pixels.shape[1]:
            raise ValueError("pixels must be a square matrix")

    @property
    def side(self) -> int:
        return self.pixels.shape[0]


def reduction_grid(lo: float = LOGLAM_LO, hi: float = LOGLAM_HI) -> np.ndarray:
    n = int(round((hi - lo) / LOGLAM_STEP)) + 1
    return lo + LOGLAM_STEP * np.arange(n)


def reduce_spectrum(
    s: Spectrum, lo: float = LOGLAM_LO, hi: float = LOGLAM_HI, max_gap: int = 10
) -> Spectrum:
    """Resample onto the fixed window grid by nearest-grid-point lookup.

    A coverage gap larger than `max_gap` native steps inside the window is an
    ImpairedSpectrum error.
    """
    grid = reduction_grid(lo, hi)
    margin = (max_gap + 1) * LOGLAM_STEP
    near = (s.loglam >= lo - margin) & (s.loglam <= hi + margin)
    covering = s.loglam[near]
    if len(covering) < 2:
        raise ImpairedSpectrum(f"{s.name}: no coverage of the reduction window")
    # missing native samples between consecutive source points
    gaps = np.rint(np.diff(covering) / LOGLAM_STEP).astype(int) - 1
    if np.any(gaps > max_gap):
        worst = covering[int(np.argmax(gaps))]
        raise ImpairedSpectrum(
            f"{s.name}: coverage gap at loglam {worst:.5f} exceeds {max_gap} native steps"
        )
    idx = np.searchsorted(s.loglam, grid)
    idx_lo = np.clip(idx - 1, 0, len(s.loglam) - 1)
    idx_hi = np.clip(idx, 0, len(s.loglam) - 1)
    d_lo = np.abs(s.loglam[idx_lo] - grid)
    d_hi = np.abs(s.loglam[idx_hi] - grid)
    nearest = np.where(d_lo <= d_hi, idx_lo, idx_hi)
    dist = np.minimum(d_lo, d_hi)
    if np.any(dist > max_gap * LOGLAM_STEP):
        worst = grid[int(np.argmax(dist))]
        raise ImpairedSpectrum(
            f"{s.name}: window edge not covered within {max_gap} native steps "
            f"of loglam {worst:.5f}"
        )
    return Spectrum(s.ident, grid, s.flux[nearest], s.label, s.z)


#: why a spectrum is dropped: reduce_spectrum raises ImpairedSpectrum, and
#: filter_impaired's verdict names the others
REJECTION_REASONS = ("ImpairedSpectrum", "NonFinite", "ZeroFraction", "ZeroRun")


@dataclass(frozen=True)
class FilterResult:
    passed: bool
    reason: str | None = None


def filter_impaired(
    s: Spectrum, zero_frac: float = 0.20, zero_run_frac: float = 0.05
) -> FilterResult:
    """Flag impaired spectra: non-finite flux, too many zeros, long zero runs."""
    if not np.all(np.isfinite(s.flux)):
        return FilterResult(False, "NonFinite")
    n = len(s.flux)
    zeros = s.flux == 0.0
    if zeros.sum() >= zero_frac * n:
        return FilterResult(False, "ZeroFraction")
    if zeros.any():
        # longest run of consecutive zeros
        padded = np.concatenate(([False], zeros, [False]))
        edges = np.flatnonzero(np.diff(padded.astype(int)))
        run = int((edges[1::2] - edges[::2]).max())
        if run >= zero_run_frac * n:
            return FilterResult(False, "ZeroRun")
    return FilterResult(True)


def bin_spectrum(v: np.ndarray, m: int) -> np.ndarray:
    """Mean over m^2 nearly equal contiguous chunks (sizes differ by <= 1).

    Chunk sizes follow largest remainder: the first L mod m^2 chunks get one
    extra sample. For L=3601, m=60 that is one chunk of 2 and 3599 of 1.
    """
    v = np.asarray(v, dtype=float)
    n_chunks = m * m
    L = len(v)
    if n_chunks > L:
        raise ValueError(f"m^2={n_chunks} exceeds vector length {L}")
    base, extra = divmod(L, n_chunks)
    sizes = np.full(n_chunks, base, dtype=int)
    sizes[:extra] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.add.reduceat(v, starts) / sizes


def rasterize(v: np.ndarray, m: int) -> np.ndarray:
    """Row-major fill of a length-m^2 vector into an m x m matrix."""
    v = np.asarray(v, dtype=float)
    if len(v) != m * m:
        raise ValueError(f"vector length {len(v)} != {m}^2")
    return v.reshape(m, m).copy()


def flatten(mat: np.ndarray) -> np.ndarray:
    """Row-major flatten; inverse of rasterize."""
    return np.asarray(mat, dtype=float).reshape(-1).copy()


def normalize_8bit(mat: np.ndarray) -> np.ndarray:
    """Linear min-max map to 0..255, round half up; constant input maps to 0."""
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite matrix entry")
    lo, hi = mat.min(), mat.max()
    if hi == lo:
        return np.zeros_like(mat, dtype=np.uint8)
    scaled = np.floor(255.0 * (mat - lo) / (hi - lo) + 0.5)
    return scaled.astype(np.uint8)


def spectrum_to_image(s: Spectrum, m: int = 60) -> SpectralImage:
    """Full reduce-less pipeline step: bin, rasterize, normalize."""
    binned = bin_spectrum(s.flux, m)
    mat = rasterize(binned, m)
    return SpectralImage(s.ident, normalize_8bit(mat), s.label)


def write_pgm(img: SpectralImage, path: str | Path) -> None:
    """Binary PGM (P5), maxval 255, row-major raw bytes."""
    n = img.side
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5\n"):
        raise ValueError(f"{path}: not a binary PGM")
    rest = data[3:]
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(t) for t in dims.split())
    maxval, raw = rest.split(b"\n", 1)
    if int(maxval) != 255:
        raise ValueError(f"{path}: unsupported maxval {int(maxval)}")
    if len(raw) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()


def write_spectrum(s: Spectrum, path: str | Path) -> None:
    """Two-column text file (log10 wavelength, flux), '#' comments."""
    values = np.column_stack((s.loglam, s.flux)).ravel().tolist()
    rows = ("%.5f\t%.8e\n" * len(s.loglam)) % tuple(values)
    Path(path).write_text("#LOGLAM\tFLUX\n" + rows)


def read_spectrum(
    path: str | Path,
    ident: tuple[int, int, int] | None = None,
    label: ObjectClass | None = None,
    z: float | None = None,
) -> Spectrum:
    """Read a two-column text spectrum. Blank lines and lines starting with
    '#' are skipped; every other line holds exactly two numbers. A line with
    another number of fields is a ValueError naming the file and the line."""
    path = Path(path)
    if ident is None:
        parts = path.stem.split("-")
        if len(parts) != 3:
            raise ValueError(f"{path}: cannot infer PLATE-MJD-FIBERID from name")
        ident = (int(parts[0]), int(parts[1]), int(parts[2]))
    text = path.read_text()
    columns = _parse_tab_rows(text)
    if columns is None:
        columns = _parse_lines(path, text)
    return Spectrum(ident, *columns, label, z)


#: line breaks of str.splitlines other than newline (read_text folds '\r'
#: into newlines); the line-by-line parser takes text that holds one
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


def _parse_tab_rows(text: str) -> np.ndarray | None:
    """Columns of the layout write_spectrum makes: leading '#' lines, then
    tab-separated pairs. None for any other text.

    np.loadtxt splits fields on the tab only, strips whitespace around them
    and parses each with the parser float() uses, less its '_' and non-ASCII
    digit rules. So the line parser reads any text that this one takes to
    the same rows and float64 bits, given ASCII text whose only line break
    is the newline.
    """
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        return None
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    body = text[start:]
    if not body or body.isspace():
        return None
    try:
        values = np.loadtxt(io.StringIO(body), delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != 2:
        return None
    return np.ascontiguousarray(values.T)


def _parse_lines(path: Path, text: str) -> tuple[np.ndarray, np.ndarray]:
    loglam, flux = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path} line {lineno}: expected 2 columns")
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise ValueError(f"{path} line {lineno}: non-numeric field in {line!r}") from None
        loglam.append(x)
        flux.append(y)
    return np.array(loglam), np.array(flux)
