import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specnet.catalog import ObjectClass
from specnet.preprocess import (
    LOGLAM_HI,
    LOGLAM_LO,
    LOGLAM_STEP,
    ImpairedSpectrum,
    Spectrum,
    SpectralImage,
    bin_spectrum,
    filter_impaired,
    flatten,
    normalize_8bit,
    rasterize,
    read_pgm,
    read_spectrum,
    reduce_spectrum,
    reduction_grid,
    spectrum_to_image,
    write_pgm,
    write_spectrum,
)


def native_spectrum(flux=None, lo=3.59, hi=3.97):
    n = int(round((hi - lo) / LOGLAM_STEP)) + 1
    loglam = lo + LOGLAM_STEP * np.arange(n)
    if flux is None:
        flux = np.sin(np.linspace(0, 20, n)) + 2.0
    return Spectrum((1, 2, 3), loglam, flux)


def test_reduction_grid_has_3601_samples():
    grid = reduction_grid()
    assert len(grid) == 3601
    assert grid[0] == pytest.approx(LOGLAM_LO)
    assert grid[-1] == pytest.approx(LOGLAM_HI)
    assert np.allclose(np.diff(grid), LOGLAM_STEP)


def test_reduce_spectrum_nearest_grid_point():
    s = native_spectrum()
    reduced = reduce_spectrum(s)
    assert len(reduced.flux) == 3601
    # reduced values must come from the source flux
    k = np.searchsorted(s.loglam, reduced.loglam[1800]) - 1
    assert reduced.flux[1800] in s.flux[k : k + 2]


def test_reduce_spectrum_gap_raises():
    s = native_spectrum()
    keep = np.ones(len(s.loglam), dtype=bool)
    keep[1100 : 1100 + 11] = False  # 11 missing native samples
    gappy = Spectrum(s.ident, s.loglam[keep], s.flux[keep])
    with pytest.raises(ImpairedSpectrum, match="coverage gap"):
        reduce_spectrum(gappy)
    # a gap at or under the limit is tolerated
    keep = np.ones(len(s.loglam), dtype=bool)
    keep[1100 : 1100 + 10] = False
    reduce_spectrum(Spectrum(s.ident, s.loglam[keep], s.flux[keep]))


def test_reduce_spectrum_without_window_coverage():
    s = native_spectrum(lo=3.0, hi=3.2)
    with pytest.raises(ImpairedSpectrum, match="no coverage"):
        reduce_spectrum(s)


def test_filter_impaired_reasons():
    n = 1000
    good = Spectrum((1, 2, 3), np.arange(n) * 1e-4, np.ones(n))
    assert filter_impaired(good).passed

    flux = np.ones(n)
    flux[5] = np.nan
    assert filter_impaired(Spectrum((1, 2, 3), np.arange(n) * 1e-4, flux)).reason == "NonFinite"

    flux = np.ones(n)
    flux[::5] = 0.0  # 20% zeros, scattered
    assert filter_impaired(Spectrum((1, 2, 3), np.arange(n) * 1e-4, flux)).reason == "ZeroFraction"

    flux = np.ones(n)
    flux[100:150] = 0.0  # 5% in one run
    assert filter_impaired(Spectrum((1, 2, 3), np.arange(n) * 1e-4, flux)).reason == "ZeroRun"

    flux = np.ones(n)
    flux[100:149] = 0.0  # just under the run threshold
    assert filter_impaired(Spectrum((1, 2, 3), np.arange(n) * 1e-4, flux)).passed


def test_bin_spectrum_largest_remainder():
    v = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    assert np.array_equal(bin_spectrum(v, 2), [1.0, 2.0, 3.0, 4.0])
    # L=10 over 4 chunks: sizes 3,3,2,2
    v = np.arange(10, dtype=float)
    expected = [v[:3].mean(), v[3:6].mean(), v[6:8].mean(), v[8:].mean()]
    assert np.allclose(bin_spectrum(v, 2), expected)


def test_bin_spectrum_3601_to_60():
    v = np.arange(3601, dtype=float)
    binned = bin_spectrum(v, 60)
    assert len(binned) == 3600
    assert binned[0] == 0.5  # first chunk holds two samples
    assert binned[1] == 2.0
    assert binned[-1] == 3600.0


def test_bin_spectrum_rejects_short_vector():
    with pytest.raises(ValueError):
        bin_spectrum(np.arange(8), 3)


def test_rasterize_flatten_round_trip():
    v = np.arange(16, dtype=float)
    mat = rasterize(v, 4)
    assert mat[0, 3] == 3.0 and mat[1, 0] == 4.0  # row-major
    assert np.array_equal(flatten(mat), v)


def test_normalize_8bit_endpoints_and_rounding():
    mat = np.array([[0.0, 5.0], [10.0, 5.0]])
    out = normalize_8bit(mat)
    assert out.dtype == np.uint8
    assert np.array_equal(out, [[0, 128], [255, 128]])  # 127.5 rounds half up


def test_normalize_8bit_constant_input_is_zero():
    assert np.array_equal(normalize_8bit(np.full((3, 3), 7.0)), np.zeros((3, 3)))


def test_normalize_8bit_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_8bit(np.array([[1.0, np.inf]]))


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-50.0, max_value=50.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_normalize_8bit_affine_invariance(scale, shift, seed):
    mat = np.random.default_rng(seed).normal(size=(6, 6))
    assert np.array_equal(normalize_8bit(mat), normalize_8bit(mat * scale + shift))


def test_spectrum_to_image_shape():
    s = Spectrum((9, 8, 7), reduction_grid(), np.linspace(0, 1, 3601), ObjectClass.STAR)
    img = spectrum_to_image(s, 60)
    assert img.side == 60
    assert img.label is ObjectClass.STAR
    assert img.pixels.dtype == np.uint8


def test_pgm_round_trip_and_header(tmp_path):
    pixels = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    img = SpectralImage((1, 2, 3), pixels)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    raw = path.read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
    assert np.array_equal(read_pgm(path), pixels)


def test_read_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValueError, match="not a binary PGM"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n..")
    with pytest.raises(ValueError, match="pixel bytes"):
        read_pgm(path)


def test_spectrum_text_round_trip(tmp_path):
    s = Spectrum((12, 55001, 7), reduction_grid()[:50], np.linspace(1, 2, 50))
    path = tmp_path / "12-55001-7.txt"
    write_spectrum(s, path)
    back = read_spectrum(path)
    assert back.ident == (12, 55001, 7)
    assert np.allclose(back.loglam, s.loglam)
    assert np.allclose(back.flux, s.flux)


def test_read_spectrum_requires_parseable_name(tmp_path):
    path = tmp_path / "whatever.txt"
    path.write_text("3.6 1.0\n")
    with pytest.raises(ValueError, match="cannot infer"):
        read_spectrum(path)
    assert read_spectrum(path, ident=(1, 2, 3)).ident == (1, 2, 3)


def test_spectrum_validates_grid():
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum((1, 2, 3), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="same length"):
        Spectrum((1, 2, 3), np.array([1.0, 2.0]), np.array([0.0]))
