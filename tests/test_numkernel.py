import math

import numpy as np
import pytest

from ptwide.errors import InvalidConfigError, StructuralError
from ptwide.numkernel import (RngStream, gaussian_matrix, rademacher_vector,
                              sym_eig_extremes, write_csv)


class TestWriteCsv:
    def test_every_value_through_fmt_in_crlf_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(3, 0.1, np.float64(1 / 3), "", True),
                (np.int64(-2), 1e300, np.float64(-0.0), "na", False)]
        write_csv(path, ["i", "x", "y", "empty", "flag"], iter(rows))
        assert path.read_bytes() == (
            b"i,x,y,empty,flag\r\n"
            b"3,0.10000000000000001,0.33333333333333331,,True\r\n"
            b"-2,1.0000000000000001e+300,-0,na,False\r\n")


class TestRngStream:
    def test_same_stream_identical(self):
        a = gaussian_matrix(RngStream(7, "w"), 3, 3)
        b = gaussian_matrix(RngStream(7, "w"), 3, 3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_matrix(RngStream(7, "w"), 1, 10)
        b = gaussian_matrix(RngStream(7, "z"), 1, 10)
        assert not np.any(a == b)

    def test_gaussian_moments(self):
        # 3 standard errors around N(0,1) moments at 200x200 samples
        a = gaussian_matrix(RngStream(7, "w"), 200, 200)
        assert -0.02 < a.mean() < 0.02
        assert 0.97 < a.var() < 1.03


class TestRademacher:
    def test_support(self):
        v = rademacher_vector(RngStream(1, "c"), 4, 1.0)
        assert set(v) <= {-1.0, 1.0}

    def test_scale_equivariance(self):
        v1 = rademacher_vector(RngStream(1, "c"), 4, 1.0)
        v2 = rademacher_vector(RngStream(1, "c"), 4, 2.5)
        np.testing.assert_array_equal(v2, 2.5 * v1)

    def test_mean_bound(self):
        v = rademacher_vector(RngStream(3, "c"), 10_000, 1.0)
        assert -0.03 < v.mean() < 0.03

    def test_bad_scale(self):
        with pytest.raises(InvalidConfigError):
            rademacher_vector(RngStream(1, "c"), 4, 0.0)


def _count_eigs_below(A, lam):
    """Inertia of A - lam I via an LDL^T factorization (Sylvester's law)."""
    import scipy.linalg

    n = A.shape[0]
    _, Dm, _ = scipy.linalg.ldl(A - lam * np.eye(n))
    count = 0
    i = 0
    while i < n:
        if i + 1 < n and Dm[i, i + 1] != 0.0:
            a, b, c = Dm[i, i], Dm[i, i + 1], Dm[i + 1, i + 1]
            disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
            for ev in ((a + c + disc) / 2.0, (a + c - disc) / 2.0):
                if ev < 0:
                    count += 1
            i += 2
        else:
            if Dm[i, i] < 0:
                count += 1
            i += 1
    return count


def _bisect_eigen(A, lo, hi, smallest, tol=1e-12):
    """Independent oracle: bisection on the eigenvalue-counting function."""
    n = A.shape[0]
    target = 1 if smallest else n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(A, mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestSymEig:
    def test_identity(self):
        assert sym_eig_extremes(np.eye(5)) == (1.0, 1.0)

    def test_two_by_two(self):
        lo, hi = sym_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(lo - 1.0) < 1e-12 and abs(hi - 3.0) < 1e-12

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(19)
        B = rng.standard_normal((6, 6))
        A = B @ B.T  # PSD
        lo, hi = sym_eig_extremes(A)
        bound = np.abs(A).sum(axis=1).max()  # Gershgorin radius
        lo_ref = _bisect_eigen(A, -bound, bound, smallest=True)
        hi_ref = _bisect_eigen(A, -bound, bound, smallest=False)
        assert abs(lo - lo_ref) < 1e-9
        assert abs(hi - hi_ref) < 1e-9

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((8, 8))
        A = 0.5 * (B + B.T)
        lo, hi = sym_eig_extremes(A)
        for _ in range(50):
            v = rng.standard_normal(8)
            q = v @ A @ v
            nv = v @ v
            assert lo * nv - 1e-10 <= q <= hi * nv + 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((7, 7))
        A = 0.5 * (B + B.T)
        perm = rng.permutation(7)
        P = np.eye(7)[perm]
        lo1, hi1 = sym_eig_extremes(A)
        lo2, hi2 = sym_eig_extremes(P.T @ A @ P)
        assert abs(lo1 - lo2) < 1e-10 and abs(hi1 - hi2) < 1e-10

    def test_non_symmetric_rejected(self):
        with pytest.raises(StructuralError):
            sym_eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(StructuralError):
            sym_eig_extremes(np.ones((2, 3)))
