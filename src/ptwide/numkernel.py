"""Seeded randomness, dense symmetric eigenvalue extraction, formatting and CSV.

Matrices are plain float64 numpy arrays throughout the package. Random
draws go through named :class:`RngStream` objects so that, e.g., changing
the hidden width never perturbs the dataset stream.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericError, StructuralError

SYMMETRY_TOL = 1e-12


def fmt(v) -> str:
    """A value as written to CSV and printed: floats with 17 significant digits."""
    return "%.17g" % v if isinstance(v, float) else str(v)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` to the CSV file ``path``, every
    value through ``fmt``, in the csv module's default dialect (CRLF row ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


@dataclass(frozen=True)
class RngStream:
    """A named, independently-seeded random stream.

    Two streams with equal (seed, stream) produce identical sequences;
    distinct stream names give independent draws even under the same seed.
    """

    seed: int
    stream: str

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")

    def generator(self) -> np.random.Generator:
        # Fold the stream name into the entropy so streams are isolated.
        tag = int.from_bytes(
            hashlib.sha256(self.stream.encode("utf-8")).digest()[:8], "little"
        )
        return np.random.default_rng(np.random.SeedSequence([self.seed, tag]))


def gaussian_matrix(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    """i.i.d. standard-normal (rows, cols) matrix, reproducible per stream."""
    return rng.generator().standard_normal((rows, cols))


def rademacher_vector(rng: RngStream, length: int, scale: float) -> np.ndarray:
    """Vector of +-scale signs, each with probability 1/2."""
    if scale <= 0:
        raise InvalidConfigError(f"scale must be positive, got {scale}")
    signs = rng.generator().integers(0, 2, size=length) * 2 - 1
    return scale * signs.astype(np.float64)


def sym_eig_extremes(a: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of a symmetric matrix.

    Uses LAPACK's tridiagonalization + implicit-QL solver (numpy eigvalsh)
    over the full spectrum.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.abs(a - a.T) <= SYMMETRY_TOL):
        raise StructuralError("matrix is not symmetric to within 1e-12")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    return float(vals[0]), float(vals[-1])
