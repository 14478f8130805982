"""The named 6x6 (and 4x4) Hadamard families, as normalized unitary generators."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import InadmissibleParameterError
from .io import RootMatrix
from .search import root_hadamard_enumerate


def h4(phi: float) -> np.ndarray:
    """The one-parameter 4x4 Hadamard family, normalized to unitary."""
    e = np.exp(1j * phi)
    return np.array(
        [
            [1, 1, 1, 1],
            [1, e, -1, -e],
            [1, -1, 1, -1],
            [1, -e, -1, e],
        ],
        dtype=complex,
    ) / 2.0


def f6(phi1: float, phi2: float) -> np.ndarray:
    """Fourier 6x6 matrix with two free phases, normalized to unitary.

    Entry (a, b) is q^{ab}/sqrt(6) times e^{i phi1} when a is odd and
    b = 1 mod 3, and times e^{i phi2} when a is odd and b = 2 mod 3.
    At zero phases this is the plain Fourier matrix.
    """
    q = np.exp(2j * np.pi / 6)
    a = np.arange(6)
    m = q ** np.outer(a, a)
    odd = (a % 2 == 1)[:, None]
    m = np.where(odd & (a[None, :] % 3 == 1), m * np.exp(1j * phi1), m)
    m = np.where(odd & (a[None, :] % 3 == 2), m * np.exp(1j * phi2), m)
    return m / np.sqrt(6)


def f6_transpose(phi1: float, phi2: float) -> np.ndarray:
    """Transpose of the two-parameter Fourier family."""
    return f6(phi1, phi2).T


def bjorck_d() -> complex:
    """The unimodular constant d = (1-sqrt(3))/2 + i*sqrt(sqrt(3)/2).

    It satisfies d^2 - (1-sqrt(3))d + 1 = 0.
    """
    s3 = np.sqrt(3.0)
    return complex((1.0 - s3) / 2.0, np.sqrt(s3 / 2.0))


def bjorck_c() -> np.ndarray:
    """The circulant 6x6 Hadamard built on d, normalized to unitary.

    Column j is the cyclic shift of column 0 by j; the first row reads
    (1, id, -d, -i, -conj(d), i*conj(d)) over sqrt(6).
    """
    d = bjorck_d()
    first_row = np.array([1, 1j * d, -d, -1j, -np.conj(d), 1j * np.conj(d)])
    m = np.empty((6, 6), dtype=complex)
    for i in range(6):
        for j in range(6):
            m[i, j] = first_row[(j - i) % 6]
    return m / np.sqrt(6)


def beauchamp_nicoara(y: complex, branch: int = +1) -> tuple[np.ndarray, tuple[complex, complex, complex]]:
    """Hermitian one-parameter 6x6 Hadamard family; returns (matrix, (x, z, t)).

    The free parameter y must be unimodular and admissible: the derived x
    must come out unimodular (an arc around y = 1 is excluded).  Both square
    root branches (branch = +1 or -1) are available.
    """
    y = complex(y)
    if abs(abs(y) - 1.0) > 1e-10:
        raise InadmissibleParameterError(f"parameter must be unimodular, got |y| = {abs(y):.6f}")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    denom_x = 1 + 2 * y - y * y
    denom_z = y * (-1 + 2 * y + y * y)
    if min(abs(denom_x), abs(denom_z)) < 1e-12:
        raise InadmissibleParameterError("parameter makes a defining denominator vanish")
    x = (1 + 2 * y + y * y + branch * np.sqrt(2) * np.sqrt(complex(1 + 2 * y + 2 * y**3 + y**4))) / denom_x
    if abs(abs(x) - 1.0) > 1e-8:
        raise InadmissibleParameterError(
            f"inadmissible parameter: derived |x| = {abs(x):.6f} (an arc around y = 1 is excluded)"
        )
    z = denom_x / denom_z
    t = x * y * z
    m = np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, -1 / x, -y, y, 1 / x],
            [1, -x, 1, y, 1 / z, -1 / t],
            [1, -1 / y, 1 / y, -1, -1 / t, 1 / t],
            [1, 1 / y, z, -t, 1, -1 / x],
            [1, x, -t, t, -x, -1],
        ],
        dtype=complex,
    )
    return m / np.sqrt(6), (complex(x), complex(z), complex(t))


def bn_admissible(y: complex) -> bool:
    """Whether the family parameter y yields a unimodular x."""
    try:
        beauchamp_nicoara(y)
        return True
    except InadmissibleParameterError:
        return False


_FIXTURE_ROOT_ORDERS = {"S": 3, "DITA0": 4}


@lru_cache(maxsize=None)
def _least_root_hadamard(k: int) -> np.ndarray:
    """The lexicographically least exponent matrix of the complete (6, k) root search."""
    return min(root_hadamard_enumerate(6, k).matrices, key=lambda m: tuple(m.ravel()))


def load_fixture(name: str) -> np.ndarray:
    """A named root-of-unity Hadamard (names: S, DITA0), normalized to unitary.

    S and DITA0 are the lexicographically least exponent matrices of the
    exhaustive root-restricted search at (n, k) = (6, 3) and (6, 4), so their
    columns are orthogonal in exact cyclotomic arithmetic by construction.
    """
    if name not in _FIXTURE_ROOT_ORDERS:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(_FIXTURE_ROOT_ORDERS)}")
    k = _FIXTURE_ROOT_ORDERS[name]
    return RootMatrix(6, k, _least_root_hadamard(k)).to_complex()


def _dita(phi: float) -> np.ndarray:
    # Only the zero-phase point is available: the family's free-phase entry
    # placement is not published, so there is nothing to evaluate away from zero.
    if abs(phi) > 1e-12:
        raise InadmissibleParameterError("DITA family is only available at zero phase (fixture DITA0)")
    return load_fixture("DITA0")


# name -> (dimension, parameter names, generator taking the parameters as phases in radians)
FAMILIES = {
    "H4": (4, ("phi",), h4),
    "F6": (6, ("phi1", "phi2"), f6),
    "F6_transpose": (6, ("phi1", "phi2"), f6_transpose),
    "DITA": (6, ("phi",), _dita),
    "S": (6, (), lambda: load_fixture("S")),
    "BJORCK_C": (6, (), bjorck_c),
    "BN": (6, ("theta",), lambda theta: beauchamp_nicoara(np.exp(1j * theta))[0]),
}


def family_matrix(family: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Evaluate a catalog family at a parameter point."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    _, names, generator = FAMILIES[family]
    if len(params) != len(names):
        raise ValueError(f"family {family} takes {len(names)} parameter(s), got {len(params)}")
    return generator(*(float(p) for p in params))
