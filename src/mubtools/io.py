"""File formats: matrix JSON (complex and root forms), basis lists, the
complex entries and header rules of census JSON, search result lines and
checkpoints, distance CSV.

Writers are deterministic (sorted keys, fixed separators) and emit floats
with 17 significant digits so that write -> read -> write round-trips are
byte-identical.  Readers check every field they return and raise
FileFormatError for anything else; this is the only module that parses JSON.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .core import Basis


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


def complex_entries(values) -> list:
    """[re, im] pairs in the shape of a complex scalar, vector or matrix."""
    a = np.asarray(values, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def parse_complex_entries(grid) -> np.ndarray:
    """Inverse of complex_entries for a matrix grid.

    Each pair goes through complex(re, im), so strings, bare numbers and
    ragged rows raise TypeError or ValueError.
    """
    return np.array([[complex(re, im) for re, im in row] for row in grid])


def complex_matrix_payload(matrix: np.ndarray, provenance: dict | None = None) -> dict:
    m = np.asarray(matrix, dtype=complex)
    payload = {"n": int(m.shape[0]), "form": "complex", "entries": complex_entries(m)}
    if provenance:
        payload["provenance"] = provenance
    return payload


def root_matrix_payload(exponents: np.ndarray, k: int) -> dict:
    e = np.asarray(exponents, dtype=int)
    return {
        "n": int(e.shape[0]),
        "form": "roots",
        "k": int(k),
        "exponents": [[int(v) for v in row] for row in e],
    }


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


def _exponent_grid(value, n: int, k: int | None = None) -> np.ndarray:
    """An n x n grid of Python-int exponents; given k, each must lie in [0, k) and the grid is int16."""
    if not isinstance(value, list) or len(value) != n or not all(
            isinstance(row, list) and len(row) == n for row in value):
        raise FileFormatError(f"exponent grid must be {n} x {n}")
    if not all(type(e) is int for row in value for e in row):
        raise FileFormatError("exponents must be integers")
    if k is None:
        return np.array(value, dtype=int)
    if not all(0 <= e < k for row in value for e in row):
        raise FileFormatError(f"exponents must lie in [0, {k})")
    return np.array(value, dtype=np.int16)


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
            if k < 1:
                raise FileFormatError(f"root order k must be >= 1, got {k}")
            return RootMatrix(n=n, k=k, exponents=_exponent_grid(payload["exponents"], n))
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


_STAGE_MATRICES = {"hadamards": 1, "triplets": 2, "quartets": 3}  # exponent matrices per search result


def search_result_payload(result, k: int) -> dict:
    """One `search` output line: a root-form matrix, or {"h1": ..., "h2": ...[, "h3": ...]} for a tuple."""
    if isinstance(result, np.ndarray):
        return root_matrix_payload(result, k)
    return {name: root_matrix_payload(mat, k) for name, mat in zip(("h1", "h2", "h3"), result)}


def checkpoint_text(spec: dict, completed: list[tuple[int, list]]) -> str:
    """A search checkpoint: the spec (n, k, depth) and each completed unit with its results as exponent grids.

    The payload holds only integers and strings, for which the standard encoder
    (numpy integers through int) writes the same bytes as `dumps`, several times faster.
    """
    payload = {
        "spec": spec,
        "completed": [{"unit": unit, "results": [np.asarray(r).tolist() for r in found]}
                      for unit, found in completed],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=int)


def read_checkpoint(path: str, spec: dict) -> dict[int, list]:
    """Completed unit -> its results, from a checkpoint written for the search `spec`.

    A result is one n x n exponent grid (hadamards) or a list of 2 (triplets)
    or 3 (quartets), every exponent a Python int in [0, k); the grids come
    back as int16 arrays, as a fresh run gives them.
    """
    try:
        with open(path) as handle:
            payload = loads(handle.read())
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if payload.get("spec") != spec:
        raise FileFormatError(f"checkpoint {path} does not belong to the search {spec}")
    if "completed" not in payload:
        raise FileFormatError(f"checkpoint {path} stores no results; rerun the search from the start")
    n, k, count = spec["n"], spec["k"], _STAGE_MATRICES[spec["depth"]]

    def result(value):
        grids = [value] if count == 1 else value
        if not isinstance(grids, list) or len(grids) != count:
            raise FileFormatError(f"a {spec['depth']} result must hold {count} exponent matrices")
        mats = tuple(_exponent_grid(grid, n, k) for grid in grids)
        return mats[0] if count == 1 else mats

    try:
        done = {}
        for item in payload["completed"]:
            if type(item["unit"]) is not int:
                raise FileFormatError(f"unit index must be an integer, got {item['unit']!r}")
            done[item["unit"]] = [result(r) for r in item["results"]]
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
    header = "basis," + ",".join(labels)
    lines = [header]
    for label, row in zip(labels, np.asarray(table)):
        lines.append(label + "," + ",".join(format(v, ".12g") for v in row))
    return "\n".join(lines) + "\n"


def scan_csv(param_names: list[str], against_labels: list[str], rows) -> str:
    """CSV for family scans: parameters, defect, distances, extension score."""
    header = (
        param_names
        + ["admissible", "hadamard_defect"]
        + [f"d2_to_{label}" for label in against_labels]
        + ["extension_score"]
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [format(p, ".12g") for p in row.params]
        cells.append("1" if row.admissible else "0")
        cells.append(format(row.hadamard_defect, ".12g"))
        cells.extend(format(d, ".12g") for d in row.distances)
        cells.append(format(row.extension_score, ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
