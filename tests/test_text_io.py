"""The spectrum text reader and writer against the line-by-line versions
they replaced, kept here as references: the writer must give the same
text for every float64, and the reader must accept the same files with the
same float64 bits, or raise the same ValueError.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from specnet.preprocess import Spectrum, read_spectrum, write_spectrum

IDENT = (1, 2, 3)


def reference_write_spectrum(s: Spectrum, path: Path) -> None:
    lines = ["#LOGLAM\tFLUX"]
    for ll, fx in zip(s.loglam, s.flux):
        lines.append(f"{ll:.5f}\t{fx:.8e}")
    Path(path).write_text("\n".join(lines) + "\n")


def reference_read_spectrum(path: Path) -> Spectrum:
    loglam, flux = [], []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path} line {lineno}: expected 2 columns")
        try:
            loglam.append(float(fields[0]))
            flux.append(float(fields[1]))
        except ValueError:
            # float()'s own message names neither the file nor the line
            raise ValueError(f"{path} line {lineno}: non-numeric field in {line!r}") from None
    return Spectrum(IDENT, np.array(loglam), np.array(flux))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("text_io")


SPECIAL = [
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    1e308,
    -1e308,
    np.finfo(float).max,
    3.6000049999999997,
    0.5e-5,
]
FLOAT64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(SPECIAL)


@given(
    arrays(np.float64, st.integers(0, 30), elements=FLOAT64),
    arrays(np.float64, st.integers(0, 30), elements=FLOAT64),
)
@settings(max_examples=300, deadline=None)
def test_write_spectrum_matches_reference(scratch, loglam, flux):
    n = min(len(loglam), len(flux))
    s = Spectrum(IDENT, np.arange(n, dtype=float), np.zeros(n))
    # any float64 in either column, past the grid check of Spectrum
    s.loglam, s.flux = loglam[:n], flux[:n]
    write_spectrum(s, scratch / "new.txt")
    reference_write_spectrum(s, scratch / "ref.txt")
    assert (scratch / "new.txt").read_bytes() == (scratch / "ref.txt").read_bytes()


def test_write_spectrum_of_an_empty_spectrum(tmp_path):
    write_spectrum(Spectrum(IDENT, [], []), tmp_path / "e.txt")
    assert (tmp_path / "e.txt").read_text() == "#LOGLAM\tFLUX\n"


# numbers as write_spectrum writes them and other spellings float() takes
VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda x: f"{x:.8e}"),
    st.floats(min_value=-10, max_value=10).map(lambda x: f"{x:.5f}"),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(
        ["nan", "-nan", "+inf", "-Infinity", "1e500", "-1e-400", "4.9e-324", ".5", "5.", "-0",
         "1_0", "1_000.5", "١", "１"]
    ),
)
# spellings float() rejects, some of which a faster parser could take
ODD_VALUE = st.sampled_from(
    ["0x1p3", "nan(1)", "1d5", "1.0j", "", "#", "1#2", "1\x00", "e5", "--1", "1__0"]
)
SEPARATOR = st.sampled_from(["\t"] * 30 + [" ", "  ", " \t ", "\x1f", "\xa0", "\u2003", "\u3000"])
EDGE = st.sampled_from([""] * 30 + [" ", "\t", "\x1f", "\u2003"])
BREAK = st.sampled_from(["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\n\n"])
ROW = st.tuples(EDGE, VALUE, SEPARATOR, VALUE, EDGE).map("".join)
# an increasing log-wavelength column, so that valid rows make a Spectrum
LOGLAM = st.lists(st.floats(-1e6, 1e6), unique=True, max_size=10).map(sorted)
LOGLAM_FORMAT = st.sampled_from(["{!r}", "{:.17e}", "{:.5f}"])
# first lines; in some a line break other than newline ends the comment
# before a row that comes first in loglam order
HEADER = st.sampled_from(
    ["", "#LOGLAM\tFLUX\n"]
    + [f"#LOGLAM{br}-2e6\t1.0\n" for br in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")]
)
# lines to mix into valid rows: the line parser skips some and rejects others
ODD_LINE = st.one_of(
    st.sampled_from(["", " ", "\t", "#LOGLAM\tFLUX", " # indented", "#\x0c1.0\t2.0", "#\x851.0\t2.0"]),
    st.text(st.characters(codec="utf-8"), max_size=8).map(lambda t: "#" + t),
    st.tuples(ODD_VALUE, SEPARATOR, VALUE).map("".join),
    st.tuples(VALUE, SEPARATOR, ODD_VALUE).map("".join),
    VALUE,  # one column
    st.tuples(ROW, SEPARATOR, VALUE).map("".join),  # three columns
    ROW.map(lambda r: r + " # note"),  # an inline comment
    ROW.map(lambda r: r + "#"),
)


@st.composite
def spectrum_text(draw):
    """Valid rows with up to three odd lines or line breaks mixed in."""
    lines = [
        draw(EDGE) + draw(LOGLAM_FORMAT).format(x) + draw(SEPARATOR) + draw(VALUE) + draw(EDGE)
        for x in draw(LOGLAM)
    ]
    breaks = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) or at == len(lines):
            lines.insert(at, draw(ODD_LINE))
            breaks.insert(at, "\n")
        else:
            breaks[at] = draw(BREAK)
    text = "".join(line + br for line, br in zip(lines, breaks))
    text = draw(HEADER) + text
    if text and draw(st.booleans()):
        text = text[:-1]  # no final line break
    return text


def _read(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return exc


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@given(spectrum_text())
@settings(max_examples=800, deadline=None)
def test_read_spectrum_matches_reference(scratch, text):
    path = scratch / "spectrum.txt"
    path.write_bytes(text.encode("utf-8"))
    ref = _read(reference_read_spectrum, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # np.loadtxt warns on empty input
        new = _read(lambda p: read_spectrum(p, IDENT), path)
    if isinstance(ref, ValueError):
        assert isinstance(new, ValueError) and type(new) is type(ref)
        assert str(new) == str(ref)
        return
    assert not isinstance(new, ValueError), new
    for a, b in ((new.loglam, ref.loglam), (new.flux, ref.flux)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(_bits(a), _bits(b))


def test_read_spectrum_reads_what_write_spectrum_wrote(tmp_path):
    flux = np.array([1.5, np.nan, -np.inf, 0.0, -0.0, 5e-324, 1e308])
    s = Spectrum(IDENT, 3.6 + 1e-4 * np.arange(len(flux)), flux)
    path = tmp_path / "1-2-3.txt"
    write_spectrum(s, path)
    back, ref = read_spectrum(path), reference_read_spectrum(path)
    assert np.array_equal(_bits(back.loglam), _bits(ref.loglam))
    assert np.array_equal(_bits(back.flux), _bits(ref.flux))
    assert np.array_equal(back.flux, flux, equal_nan=True)


def test_read_spectrum_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "1-2-3.txt"
    path.write_text("#LOGLAM\tFLUX\n3.6\t1.0\n3.6001\t1.0\t7\n")
    with pytest.raises(ValueError, match=f"^{path} line 3: expected 2 columns$"):
        read_spectrum(path)
    path.write_text("#LOGLAM\tFLUX\n3.6\t1.0\n3.6001\tabc\n")
    with pytest.raises(ValueError) as exc:
        read_spectrum(path)
    assert str(exc.value) == f"{path} line 3: non-numeric field in '3.6001\\tabc'"
