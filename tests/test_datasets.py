import numpy as np
import pytest

from ptwide.datasets import (gen_quadratic_teacher, gen_random_label, gen_wei,
                             teacher_config, to_csv)
from ptwide.errors import InvalidConfigError
from ptwide.model import forward, init_params


class TestRandomLabel:
    def test_determinism(self):
        a = gen_random_label(10, 4, seed=3)
        b = gen_random_label(10, 4, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_label_support(self):
        ds = gen_random_label(1000, 3, seed=1)
        assert np.all(ds.y >= -0.5) and np.all(ds.y <= 0.5)
        assert abs(ds.y.mean()) < 0.03  # ~3 standard errors

    def test_labels_independent_of_inputs(self):
        # the label stream is separate, so the labels do not change with d
        a = gen_random_label(20, 3, seed=2)
        b = gen_random_label(20, 7, seed=2)
        np.testing.assert_array_equal(a.y, b.y)

    def test_splits_differ(self):
        tr = gen_random_label(10, 3, seed=4, split="train")
        te = gen_random_label(10, 3, seed=4, split="test")
        assert not np.allclose(tr.X, te.X)

    def test_base_gram_positive_definite(self):
        # n = d = 20 Gaussian rows: X X^T / d is nonsingular a.s.
        for seed in (0, 1, 2):
            ds = gen_random_label(20, 20, seed=seed)
            G0 = ds.X @ ds.X.T / 20
            assert np.linalg.eigvalsh(G0).min() > 1e-4

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            gen_random_label(0, 3, seed=0)


class TestQuadraticTeacher:
    def test_labels_reproduce_teacher(self):
        ds = gen_quadratic_teacher(15, 6, teacher_seed=99, data_seed=1)
        cfg = teacher_config(6, 99)
        params = init_params(cfg)
        np.testing.assert_array_equal(ds.y, forward(cfg, params, ds.X).f)

    def test_teacher_fixed_across_data_seeds(self):
        a = gen_quadratic_teacher(5, 4, teacher_seed=7, data_seed=1)
        b = gen_quadratic_teacher(5, 4, teacher_seed=7, data_seed=2)
        cfg = teacher_config(4, 7)
        params = init_params(cfg)
        # same teacher function applied to different inputs
        np.testing.assert_array_equal(b.y, forward(cfg, params, b.X).f)
        assert not np.array_equal(a.X, b.X)

    def test_teacher_width(self):
        cfg = teacher_config(4, 0)
        assert cfg.m == 5 and cfg.embedding.kind == "quadratic"


class TestWei:
    def test_requires_three_dims(self):
        with pytest.raises(InvalidConfigError):
            gen_wei(10, 2, seed=0)

    def test_atom_structure(self):
        ds = gen_wei(500, 5, seed=3)
        assert set(np.unique(ds.y)) == {-1.0, 1.0}
        # label is +1 exactly when the signal lies on the x1 axis
        on_x1 = (np.abs(ds.X[:, 0]) == 1.0) & (ds.X[:, 1] == 0.0)
        np.testing.assert_array_equal(on_x1, ds.y == 1.0)

    def test_atom_frequencies(self):
        ds = gen_wei(4000, 3, seed=5)
        pairs = ds.X[:, :2]
        for atom in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            frac = np.mean(np.all(pairs == atom, axis=1))
            assert abs(frac - 0.25) < 0.03

    def test_noise_coordinates(self):
        ds = gen_wei(2000, 6, seed=1)
        noise = ds.X[:, 2:]
        assert np.all(noise > -1.0) and np.all(noise < 1.0)
        assert abs(noise.mean()) < 0.04

    def test_determinism_and_split_isolation(self):
        a = gen_wei(50, 4, seed=8, split="test")
        b = gen_wei(50, 4, seed=8, split="test")
        np.testing.assert_array_equal(a.X, b.X)
        tr = gen_wei(50, 4, seed=8, split="train")
        assert not np.array_equal(tr.X, a.X)


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        ds = gen_random_label(3, 2, seed=0)
        path = tmp_path / "data.csv"
        to_csv(ds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_1,x_2,y"
        assert len(lines) == 4

    def test_round_trip_precision(self, tmp_path):
        ds = gen_random_label(5, 3, seed=2)
        path = tmp_path / "data.csv"
        to_csv(ds, path)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(body[:, :3], ds.X)
        np.testing.assert_array_equal(body[:, 3], ds.y)
