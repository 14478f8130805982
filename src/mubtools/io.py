"""File formats: matrix JSON (complex and root forms), basis lists, census
JSON, search result lines and checkpoints, distance CSV.  This is the one
module that opens a file or touches stdin or stdout (the path "-"):
`write_text` streams every output, `write_checkpoint` replaces atomically.

Writers are deterministic (sorted keys, fixed separators) and emit floats
with 17 significant digits so that write -> read -> write round-trips are
byte-identical.  Payloads with no float (search lines, checkpoints) are built
here and written by `_encode`, the standard encoder, several times faster
than `dumps` for the same bytes; `dumps` would have to walk a payload to know
it holds no float.  Readers check every field they return and raise
FileFormatError for anything else; this is the only module that parses JSON.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EQ_TOL, Basis

GAUSSIAN = "gaussian"  # the two kinds of census sequence
BJORCK = "bjorck"


class FileFormatError(ValueError):
    """A file or stream does not match the expected schema."""


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {x}")
    # normalize -0.0 so equal matrices serialize identically
    return format(x + 0.0, ".17g")


def _dump(obj) -> str:
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dump(v) for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _dump(obj)


def _encode(payload) -> str:
    """`dumps` text of a payload with no float in it, by the standard encoder (numpy integers through int)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=int)


def complex_entries(values) -> list:
    """[re, im] pairs in the shape of a complex scalar, vector or matrix."""
    a = np.asarray(values, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def parse_complex_entries(grid) -> np.ndarray:
    """Inverse of complex_entries for a matrix grid; each pair goes through complex(re, im), so strings, bare
    numbers and ragged rows raise TypeError or ValueError."""
    return np.array([[complex(re, im) for re, im in row] for row in grid])


def complex_matrix_payload(matrix: np.ndarray, provenance: dict | None = None) -> dict:
    m = np.asarray(matrix, dtype=complex)
    payload = {"n": int(m.shape[0]), "form": "complex", "entries": complex_entries(m)}
    if provenance:
        payload["provenance"] = provenance
    return payload


def root_matrix_payload(exponents: np.ndarray, k: int) -> dict:
    grid = np.asarray(exponents, dtype=int).tolist()
    return {"n": len(grid), "form": "roots", "k": int(k), "exponents": grid}


@dataclass(frozen=True)
class RootMatrix:
    """A matrix whose (i, j) entry is zeta_k^{exponents[i, j]} / sqrt(n)."""

    n: int
    k: int
    exponents: np.ndarray

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.exponents / self.k) / np.sqrt(self.n)


def _header_int(payload: dict, name: str) -> int:
    value = payload.get(name)
    if type(value) is not int:  # no bools, no truncated floats
        raise FileFormatError(f"header {name!r} must be an integer, got {value!r}")
    return value


def _label(item: dict, default: str) -> str:
    """The label of a basis entry, `default` if it has none."""
    label = item.get("label", default)
    if not isinstance(label, str):
        raise FileFormatError(f"basis label must be a string, got {label!r}")
    return label


def _exponent_array(value, shape: tuple[int, ...], k: int | None = None) -> np.ndarray:
    """Nested lists of Python-int exponents in the given shape, as an array; given k, each must lie in [0, k)
    and the array is int16."""
    items = [value]
    for size in shape:
        if not all(isinstance(item, list) and len(item) == size for item in items):
            raise FileFormatError(f"exponents must form a {' x '.join(map(str, shape))} array")
        items = [e for item in items for e in item]
    if not all(type(e) is int for e in items):
        raise FileFormatError("exponents must be integers")
    if k is not None and not all(0 <= e < k for e in items):
        raise FileFormatError(f"exponents must lie in [0, {k})")
    return np.array(value, dtype=int if k is None else np.int16).reshape(shape)


def parse_matrix(payload: dict) -> np.ndarray | RootMatrix:
    """Parse a matrix payload; complex form yields an ndarray, root form a RootMatrix."""
    try:
        form = payload["form"]
        n = _header_int(payload, "n")
        if form == "complex":
            m = parse_complex_entries(payload["entries"])
            if m.shape != (n, n):
                raise FileFormatError(f"entry grid is {m.shape}, header says n = {n}")
            if not np.isfinite(m).all():
                raise FileFormatError("matrix entries must be finite")
            return m
        if form == "roots":
            k = _header_int(payload, "k")
            if k < 1 or n < 1:  # the complex form's n = 0 fails its shape check
                raise FileFormatError(f"a root-form matrix needs n >= 1 and k >= 1, got n = {n}, k = {k}")
            return RootMatrix(n=n, k=k, exponents=_exponent_array(payload["exponents"], (n, n)))
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed matrix payload: {exc}") from exc
    raise FileFormatError(f"unknown matrix form {form!r}")


def as_complex_matrix(payload: dict) -> np.ndarray:
    parsed = parse_matrix(payload)
    return parsed.to_complex() if isinstance(parsed, RootMatrix) else parsed


def basis_list_payload(bases: list[Basis], n: int) -> dict:
    return {
        "format": "basis-list",
        "n": n,
        "bases": [{"label": b.label, "matrix": complex_matrix_payload(b.matrix)} for b in bases],
    }


def parse_bases(payload: dict, label: str) -> list[Basis]:
    """The bases of a basis-list payload (one or more, each n x n for its integer header n),
    or the one basis of a matrix payload; label names unlabelled ones."""
    if payload.get("format") != "basis-list":
        return [Basis(as_complex_matrix(payload), label=label)]
    n = _header_int(payload, "n")
    items = payload.get("bases")
    if not isinstance(items, list) or not items or not all(isinstance(item, dict) for item in items):
        raise FileFormatError(f"{label}: basis-list needs a non-empty list of basis objects")
    bases = [Basis(as_complex_matrix(item.get("matrix")), label=_label(item, label)) for item in items]
    if any(b.dim != n for b in bases):
        raise FileFormatError(f"{label}: basis-list header says n = {n}, but not every basis is n x n")
    return bases


def census_payload(census) -> dict:
    """The census JSON of a `biunimodular.CensusResult`: its sequences and bases as complex entries."""
    return {"format": "census", "n": census.n, "metadata": census.metadata,
            "sequences": [{"kind": s.kind, "entries": complex_entries(s.entries)} for s in census.sequences],
            "bases": [{"label": b.label, "n": b.dim, "entries": complex_entries(b.matrix)} for b in census.bases]}


def parse_census(payload: dict, sequence) -> dict:
    """The fields (n, sequences, bases, metadata) of the census a census JSON holds, each sequence made by
    sequence(entries=..., kind=...); anything that is not a well-formed census raises FileFormatError."""
    if payload.get("format") != "census":
        raise FileFormatError("not a census payload")
    try:
        n = _header_int(payload, "n")
        items = payload["sequences"]
        kinds = [item["kind"] for item in items]
        bad = [kind for kind in kinds if kind not in (GAUSSIAN, BJORCK)]
        if bad:
            raise FileFormatError(f"sequence kind must be {GAUSSIAN!r} or {BJORCK!r}, got {bad[0]!r}")
        rows = parse_complex_entries([item["entries"] for item in items])  # the sequences are the rows of one grid
        bases = tuple(Basis(parse_complex_entries(item["entries"]), label=_label(item, ""))
                      for item in payload.get("bases", []))
        metadata = payload["metadata"]
        if not isinstance(metadata, dict):
            raise FileFormatError(f"census metadata must be a JSON object, got {metadata!r}")
        _dump(metadata)  # what cannot be written back, such as NaN, is refused here and not on output
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FileFormatError(f"malformed census payload: {exc}") from exc
    if any(len(row) != n for row in rows) or any(b.dim != n for b in bases):
        raise FileFormatError(f"census entries do not all have length n = {n}")
    if not (np.isfinite(rows).all() and all(np.isfinite(b.matrix).all() for b in bases)):
        raise FileFormatError("census entries must be finite")
    if np.abs(np.abs(rows) - 1).max(initial=0) > DEFAULT_EQ_TOL:
        raise FileFormatError("census sequence entries must have modulus 1")  # so no product of them overflows
    sequences = tuple(sequence(entries=tuple(row), kind=kind) for row, kind in zip(rows, kinds))
    return {"n": n, "sequences": sequences, "bases": bases, "metadata": dict(metadata)}


def result_shape(depth: str, n: int) -> tuple[int, ...]:
    """The shape of one result of a search stage: an n x n exponent matrix, or a tuple of 2 or 3 of them."""
    return {"hadamards": (n, n), "triplets": (2, n, n), "quartets": (3, n, n)}[depth]


def search_lines(results: np.ndarray, summary: dict):
    """The `search` output, one line at a time: per row of a stage's `results` a root-form matrix or {"h1": ...,
    "h2": ...[, "h3": ...]}, then {"summary": summary}, which names k; each grid becomes lists only for its line."""
    k = summary["k"]
    for item in results:
        yield _encode(root_matrix_payload(item, k) if results.ndim == 3 else
                      {f"h{i}": root_matrix_payload(grid, k) for i, grid in enumerate(item, 1)}) + "\n"
    yield _encode({"summary": summary}) + "\n"


def checkpoint_text(spec: dict, completed: list[tuple[int, np.ndarray]]) -> str:
    """A search checkpoint: the spec (n, k, depth) and each completed unit with its results' exponent grids."""
    return _encode({"spec": spec, "completed": [{"unit": unit, "results": found.tolist()} for unit, found in completed]})


def write_checkpoint(path: str, spec: dict, completed: list[tuple[int, np.ndarray]]) -> None:
    """Write `checkpoint_text` to `path` through a temporary file in its directory that then replaces it, never
    over a device or a pipe; an empty path, or a temporary file that cannot be made, fails naming `path`."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"not a regular file: {path}")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        try:
            data = memoryview(checkpoint_text(spec, completed).encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path: str, spec: dict) -> dict[int, np.ndarray]:
    """Completed unit -> its results, from a checkpoint written for the search `spec` ("-": stdin).

    A result is one n x n exponent grid (hadamards) or a list of 2 (triplets)
    or 3 (quartets), every exponent a Python int in [0, k); a unit's results
    come back as one int16 array of `result_shape`s, as a fresh run gives them;
    a unit listed twice is refused.
    """
    payload = loads(read_text(path))
    if payload.get("spec") != spec:
        raise FileFormatError(f"checkpoint {path} does not belong to the search {spec}")
    if "completed" not in payload:
        raise FileFormatError(f"checkpoint {path} stores no results; rerun the search from the start")
    shape = result_shape(spec["depth"], spec["n"])
    try:
        done = {}
        for item in payload["completed"]:
            unit = item["unit"]
            if type(unit) is not int:
                raise FileFormatError(f"unit index must be an integer, got {unit!r}")
            if unit in done:
                raise FileFormatError(f"unit {unit} is listed twice")
            results = item["results"]
            done[unit] = _exponent_array(results, (len(results), *shape), spec["k"])
        return done
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed checkpoint {path}: {exc}") from exc


def read_text(path: str) -> str:
    """The text of a file, or of stdin for "-"; input that cannot be read or decoded is a FileFormatError."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | None, text: str | Iterable[str]) -> None:
    """Write a text, or its lines as they come, to `path` or to stdout for None or "-" (where a text ends in a
    newline)."""
    lines = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(lines)
        if isinstance(text, str) and not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as handle:
        handle.writelines(lines)


def loads(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise FileFormatError("top-level JSON value must be an object")
    return payload


def distance_csv(labels: list[str], table: np.ndarray) -> str:
    """CSV with row/column labels and 12-significant-digit distances."""
    rows = (label + "," + ",".join(format(v, ".12g") for v in row) for label, row in zip(labels, np.asarray(table)))
    return "\n".join(["basis," + ",".join(labels), *rows]) + "\n"


def scan_csv(param_names: list[str], against_labels: list[str], rows) -> str:
    """CSV for family scans: parameters, defect, distances, extension score."""
    header = [*param_names, "admissible", "hadamard_defect", *(f"d2_to_{label}" for label in against_labels),
              "extension_score"]
    lines = [",".join(header)]
    for row in rows:
        cells = [format(p, ".12g") for p in row.params]
        cells.append("1" if row.admissible else "0")
        cells.append(format(row.hadamard_defect, ".12g"))
        cells.extend(format(d, ".12g") for d in row.distances)
        cells.append(format(row.extension_score, ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
