import numpy as np
import pytest

from mubtools import io as mio
from mubtools.catalog import bjorck_c
from mubtools.constructions import fourier


def test_complex_roundtrip_byte_identical():
    payload = mio.complex_matrix_payload(fourier(6).matrix)
    text = mio.dumps(payload)
    reparsed = mio.loads(text)
    assert mio.dumps(mio.complex_matrix_payload(mio.as_complex_matrix(reparsed))) == text


def test_complex_roundtrip_preserves_values():
    m = bjorck_c()
    text = mio.dumps(mio.complex_matrix_payload(m))
    back = mio.as_complex_matrix(mio.loads(text))
    assert np.array_equal(back, m)


def test_root_form_interchange():
    exps = np.array([[0, 0, 0], [0, 1, 2], [0, 2, 1]])
    payload = mio.root_matrix_payload(exps, 3)
    parsed = mio.parse_matrix(mio.loads(mio.dumps(payload)))
    assert isinstance(parsed, mio.RootMatrix)
    assert np.array_equal(parsed.exponents, exps)
    assert np.allclose(parsed.to_complex(), fourier(3).matrix)


def test_malformed_inputs():
    with pytest.raises(mio.FileFormatError, match="line"):
        mio.loads("{not json")
    with pytest.raises(mio.FileFormatError):
        mio.loads("[1, 2, 3]")
    with pytest.raises(mio.FileFormatError, match="form"):
        mio.parse_matrix({"n": 2, "form": "sparse"})
    with pytest.raises(mio.FileFormatError, match="header"):
        mio.parse_matrix({"n": 3, "form": "complex", "entries": [[[1.0, 0.0]]]})


@pytest.mark.parametrize("header", [{"k": 2.5}, {"n": 1.9}, {"n": True}, {"k": True}, {"n": "1"}, {"k": 2.0}])
def test_header_integers_are_not_truncated(header):
    payload = {"n": 1, "form": "roots", "k": 2, "exponents": [[0]], **header}
    with pytest.raises(mio.FileFormatError, match="integer"):
        mio.parse_matrix(payload)
    if "n" in header:
        with pytest.raises(mio.FileFormatError, match="integer"):
            mio.parse_matrix({"form": "complex", "entries": [[[1.0, 0.0]]], **header})


def test_float_formatting_has_17_significant_digits():
    text = mio.dumps({"x": 1 / 3})
    assert "0.33333333333333331" in text


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        mio.dumps({"x": float("nan")})


def test_distance_csv_shape():
    table = np.array([[0.0, 2.0], [2.0, 0.0]])
    csv = mio.distance_csv(["a", "b"], table)
    lines = csv.strip().split("\n")
    assert lines[0] == "basis,a,b"
    assert lines[1].startswith("a,0,2")
