import numpy as np
import pytest

from mubtools import io as mio
from mubtools.biunimodular import CensusResult
from mubtools.catalog import bjorck_c
from mubtools.constructions import fourier, prime_mub_set


@pytest.mark.parametrize("case", ["matrix", "basis-list", "census"])
def test_complex_roundtrip_byte_identical(case, request):
    """write -> read -> write gives the same text."""
    if case == "matrix":
        obj, write, read = fourier(6).matrix, mio.complex_matrix_payload, mio.as_complex_matrix
    elif case == "basis-list":
        obj = list(prime_mub_set(5).bases)
        write, read = (lambda bases: mio.basis_list_payload(bases, 5)), (lambda payload: mio.parse_bases(payload, "f"))
    else:
        obj, write, read = request.getfixturevalue("assembled6"), CensusResult.to_dict, CensusResult.from_dict
    text = mio.dumps(write(obj))
    back = read(mio.loads(text))
    assert mio.dumps(write(back)) == text
    if case == "basis-list":  # labels and matrices come back exactly
        assert [b.label for b in back] == [b.label for b in obj]
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(back, obj, strict=True))


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


@pytest.mark.parametrize("exponents, match", [
    ([[0, 0], [0, 1]], "3 x 3"),
    ([[0, 0, 0], [0, 1, 2]], "3 x 3"),
    ([[0, 0, 0], [0, 1, 2], [0, 2]], "3 x 3"),
    ([[0, 0, 0], [0, True, 2], [0, 2, 1]], "integers"),
    ([[0, 0, 0], [0, 1.0, 2], [0, 2, 1]], "integers"),
])
def test_root_exponent_grid_is_checked(exponents, match):
    with pytest.raises(mio.FileFormatError, match=match):
        mio.parse_matrix({"n": 3, "form": "roots", "k": 3, "exponents": exponents})


def test_float_formatting_has_17_significant_digits():
    text = mio.dumps({"x": 1 / 3})
    assert "0.33333333333333331" in text


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        mio.dumps({"x": float("nan")})


def test_numpy_float32_has_17_digits_and_unknown_types_raise():
    assert mio.dumps([np.float32(0.1)]) == "[0.10000000149011612]"
    with pytest.raises(TypeError, match="cannot serialize"):
        mio.dumps({"x": 1j})


@pytest.mark.parametrize("depth", ["hadamards", "triplets", "quartets"])
def test_checkpoint_text_is_dumps_text(depth, tmp_path):
    """The standard encoder behind `checkpoint_text` and `search_lines` writes what `dumps` writes,
    numpy spec integers included, and `read_checkpoint` gives each unit's int16 array back."""
    grids = [(np.arange(36, dtype=np.int16).reshape(6, 6) * shift) % 12 for shift in (1, 5, 7)]
    result = grids[0] if depth == "hadamards" else np.stack(grids[: mio.result_shape(depth, 6)[0]])
    assert result.shape == mio.result_shape(depth, 6)
    spec = {"n": np.int64(6), "k": 12, "depth": depth}
    completed = [(0, result[None][:0]), (1, result[None]), (2, np.stack([result, result]))]
    payload = {"spec": spec, "completed": [{"unit": unit, "results": [np.asarray(r).tolist() for r in found]}
                                           for unit, found in completed]}
    text = mio.checkpoint_text(spec, completed)
    assert text == mio.dumps(payload)
    (tmp_path / "cp.json").write_text(text)
    done = mio.read_checkpoint(str(tmp_path / "cp.json"), {**spec, "n": 6})
    assert list(done) == [0, 1, 2]
    for unit, found in completed:
        assert done[unit].dtype == np.int16 and done[unit].shape == found.shape
        assert np.array_equal(done[unit], found)
    for results in (completed[0][1], completed[2][1]):
        summary = {"depth": depth, "n": 6, "k": 12, "complete": False, "nodes": 7, "resume_token": None}
        payloads = [mio.root_matrix_payload(r, 12) if depth == "hadamards" else
                    {name: mio.root_matrix_payload(mat, 12) for name, mat in zip(("h1", "h2", "h3"), r)}
                    for r in results] + [{"summary": summary}]
        assert list(mio.search_lines(results, summary)) == [mio.dumps(p) + "\n" for p in payloads]


def test_distance_csv_shape():
    table = np.array([[0.0, 2.0], [2.0, 0.0]])
    csv = mio.distance_csv(["a", "b"], table)
    lines = csv.strip().split("\n")
    assert lines[0] == "basis,a,b"
    assert lines[1].startswith("a,0,2")
