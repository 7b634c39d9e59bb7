"""Complex matrix file formats.

JSON: a nested array of [re, im] pairs, one pair per entry.
CSV:  one row per matrix row with interleaved re/im columns, so a d x d
      complex matrix becomes d rows of 2d floats.

Parse failures report the offending line so config errors are actionable.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, ParameterError
from .spectral import require_hermitian_pair

__all__ = ["load_matrix", "load_matrix_json", "load_matrix_csv", "load_hermitian_pair",
           "save_matrix_json", "save_matrix_csv"]


def save_matrix_json(path, M) -> None:
    M = np.asarray(M, dtype=complex)
    payload = [[[float(z.real), float(z.imag)] for z in row] for row in M]
    Path(path).write_text(json.dumps(payload))


def load_matrix_json(path) -> np.ndarray:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        M = np.asarray(
            [[complex(pair[0], pair[1]) for pair in row] for row in data],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: expected nested arrays of [re, im] pairs") from exc
    if M.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-d matrix, got shape {M.shape}")
    return M


def save_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=complex)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in M:
            flat = []
            for z in row:
                flat.extend([repr(float(z.real)), repr(float(z.imag))])
            writer.writerow(flat)


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            if len(rec) % 2:
                raise ConfigError(
                    f"{path}: line {lineno}: odd column count, expected re/im pairs"
                )
            try:
                vals = [float(x) for x in rec]
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    if not rows:
        raise ConfigError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: rows have inconsistent lengths {sorted(widths)}")
    return np.asarray(rows, dtype=complex)


def load_matrix(path) -> np.ndarray:
    """Dispatch on file extension (.json or .csv); a file that cannot be read is a ConfigError."""
    suffix = Path(path).suffix.lower()
    loader = {".json": load_matrix_json, ".csv": load_matrix_csv}.get(suffix)
    if loader is None:
        raise ConfigError(f"{path}: unsupported matrix format {suffix!r}")
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read matrix file: {exc.strerror or exc}") from None


def load_hermitian_pair(path_a, path_b):
    """Load a pair (A, B) of Hermitian matrices of one shape; a file that cannot
    be read, or a pair that is not of one shape, Hermitian and finite, is a
    ConfigError."""
    A, B = load_matrix(path_a), load_matrix(path_b)
    try:
        return require_hermitian_pair(A, B)
    except (DimensionMismatchError, ParameterError) as exc:
        raise ConfigError(f"{path_a}, {path_b}: {exc}") from None
