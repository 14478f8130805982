"""File formats: matrix JSON (complex and root forms), basis lists, the
complex entries of census JSON, distance CSV.

Writers are deterministic (sorted keys, fixed separators) and emit floats
with 17 significant digits so that write -> read -> write round-trips are
byte-identical.
"""

from __future__ import annotations

import json
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


def root_matrix_payload(exponents: np.ndarray, k: int, provenance: dict | None = None) -> dict:
    e = np.asarray(exponents, dtype=int)
    payload = {
        "n": int(e.shape[0]),
        "form": "roots",
        "k": int(k),
        "exponents": [[int(v) for v in row] for row in e],
    }
    if provenance:
        payload["provenance"] = provenance
    return payload


@dataclass(frozen=True)
class RootMatrix:
    """A matrix whose (i, j) entry is zeta_k^{exponents[i, j]} / sqrt(n)."""

    n: int
    k: int
    exponents: np.ndarray

    def to_complex(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.exponents / self.k) / np.sqrt(self.n)


def _header_int(payload: dict, name: str) -> int:
    value = payload[name]
    if type(value) is not int:  # no bools, no truncated floats
        raise FileFormatError(f"header {name!r} must be an integer, got {value!r}")
    return value


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
            if not all(type(e) is int for row in payload["exponents"] for e in row):
                raise FileFormatError("exponents must be integers")
            exps = np.asarray(payload["exponents"], dtype=int)
            if exps.shape != (n, n):
                raise FileFormatError(f"exponent grid is {exps.shape}, header says n = {n}")
            return RootMatrix(n=n, k=k, exponents=exps)
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
    """The bases of a basis-list payload, or the one basis of a matrix payload; label names unlabelled ones."""
    if payload.get("format") != "basis-list":
        return [Basis(as_complex_matrix(payload), label=label)]
    items = payload.get("bases")
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise FileFormatError(f"{label}: basis-list needs a list of basis objects")
    return [Basis(as_complex_matrix(item.get("matrix")), label=item.get("label", label)) for item in items]


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
