"""Matrix, weight, and graph file handling for the command-line tools.

Formats: Matrix Market (``.mtx``, sparse or dense) and headerless CSV for
matrices; one-column CSV for right-hand sides; whitespace edge lists for
graphs.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.io as sio
import scipy.sparse as sp


class InputError(Exception):
    """Unreadable or malformed input file."""


def load_matrix(path):
    """Load a matrix from .mtx (kept sparse) or headerless .csv (dense)."""
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    ext = os.path.splitext(path)[1].lower()
    try:
        if ext in (".mtx", ".mm"):
            rows, cols, _, fmt, _, _ = sio.mminfo(path)
            if fmt == "array" and rows * cols == 0:
                # an array file with no entries holds nothing to read, and
                # mmread dies with SIGFPE on one with no rows
                return np.zeros((rows, cols))
            mat = sio.mmread(path)
            return mat.tocsr() if sp.issparse(mat) else np.asarray(mat, dtype=float)
        if ext in (".csv", ".txt"):
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
            return np.asarray(arr, dtype=float)
    except InputError:
        raise
    except Exception as exc:
        raise InputError(f"failed to parse {path}: {exc}") from exc
    raise InputError(f"unsupported matrix format: {path} (use .mtx or .csv)")


def load_vector(path) -> np.ndarray:
    """Load a one-column CSV, such as a right-hand side."""
    arr = load_matrix(path)
    if sp.issparse(arr):
        arr = np.asarray(arr.todense())
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2:
        if 1 not in arr.shape:
            raise InputError(f"{path} is not a vector (shape {arr.shape})")
        arr = arr.ravel()
    return arr


def save_matrix_market(path, a, comment: str = "") -> None:
    mat = a if sp.issparse(a) else np.asarray(a, dtype=float)
    sio.mmwrite(path, sp.coo_matrix(mat) if not sp.issparse(mat) else mat,
                comment=comment)
