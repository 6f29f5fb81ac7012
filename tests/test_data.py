import numpy as np
import pytest

from greedyreg.core import Dataset
from greedyreg.data import (
    EmptyFile,
    MissingTarget,
    ParseError,
    gen_sinc,
    load_csv,
    sinc,
    split_half,
    zscore_fit_apply,
)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == pytest.approx(1.0)

    def test_zero_at_pi(self):
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_matches_ratio_away_from_zero(self):
        x = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(sinc(x), np.sin(x) / x)


class TestGenSinc:
    def test_noiseless_train_targets(self):
        train, _ = gen_sinc(50, 10, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(train.targets, sinc(train.inputs[:, 0]))

    def test_test_targets_always_noiseless(self):
        _, test = gen_sinc(30, 40, 2.0, np.random.default_rng(1))
        np.testing.assert_allclose(test.targets, sinc(test.inputs[:, 0]))

    def test_roles_and_sizes(self):
        train, test = gen_sinc(7, 9, 0.5, np.random.default_rng(2))
        assert (train.m, test.m) == (7, 9)

    def test_inputs_in_range(self):
        train, test = gen_sinc(200, 200, 1.0, np.random.default_rng(3))
        for ds in (train, test):
            assert ds.inputs.min() >= -np.pi and ds.inputs.max() <= np.pi

    def test_test_targets_in_sinc_range(self):
        _, test = gen_sinc(10, 500, 1.0, np.random.default_rng(4))
        assert test.targets.min() >= -0.218
        assert test.targets.max() <= 1.0

    def test_deterministic_under_seed(self):
        a_train, a_test = gen_sinc(20, 20, 0.5, np.random.default_rng(7))
        b_train, b_test = gen_sinc(20, 20, 0.5, np.random.default_rng(7))
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_train.targets, b_train.targets)
        assert np.array_equal(a_test.targets, b_test.targets)

    def test_rejects_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_sinc(0, 5, 0.1, rng)
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                gen_sinc(5, 5, sigma, rng)


class TestLoadCsv(object):
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_shape(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path)
        assert (ds.m, ds.d) == (3, 2)
        np.testing.assert_array_equal(ds.targets, [3.0, 6.0, 9.0])

    def test_target_by_name(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n3,4\n")
        ds = load_csv(path, target_column="y")
        np.testing.assert_array_equal(ds.targets, [1.0, 3.0])
        np.testing.assert_array_equal(ds.inputs[:, 0], [2.0, 4.0])

    def test_target_by_index(self, tmp_path):
        path = self._write(tmp_path, "1,2\n3,4\n", name="nh.csv")
        ds = load_csv(path, target_column=0, header=False)
        np.testing.assert_array_equal(ds.targets, [1.0, 3.0])

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 3 and err.value.column == 2

    def test_target_out_of_range(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(path, target_column=5)

    def test_missing_named_target(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(path, target_column="z")

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(EmptyFile):
            load_csv(path)
        path2 = self._write(tmp_path, "a,b\n", name="header_only.csv")
        with pytest.raises(EmptyFile):
            load_csv(path2)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((6, 4))
        lines = ["f0,f1,f2,target"] + [",".join(repr(float(v)) for v in row) for row in values]
        back = load_csv(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert np.array_equal(back.inputs, values[:, :3])
        assert np.array_equal(back.targets, values[:, 3])


class TestZScore:
    def test_hand_values(self):
        train = Dataset([[0.0], [2.0]], [10.0, 20.0])
        test = Dataset([[1.0]], [15.0])
        train2, test2, params = zscore_fit_apply(train, test)
        assert params.feature_means[0] == pytest.approx(1.0)
        assert params.feature_stds[0] == pytest.approx(1.0)  # population std
        np.testing.assert_allclose(train2.inputs[:, 0], [-1.0, 1.0])
        assert test2.inputs[0, 0] == pytest.approx(0.0)

    def test_already_standardized(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2000, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = rng.standard_normal(2000)
        y = (y - y.mean()) / y.std()
        train = Dataset(x, y)
        _, _, params = zscore_fit_apply(train, train)
        np.testing.assert_allclose(params.feature_means, 0.0, atol=1e-12)
        np.testing.assert_allclose(params.feature_stds, 1.0, atol=1e-12)

    def test_test_uses_train_params(self):
        train = Dataset([[0.0], [2.0]], [0.0, 2.0])
        test = Dataset([[4.0]], [4.0])
        _, test2, _ = zscore_fit_apply(train, test)
        assert test2.inputs[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1
        assert test2.targets[0] == pytest.approx(3.0)

    def test_transformed_train_moments(self):
        rng = np.random.default_rng(6)
        train = Dataset(rng.uniform(0, 9, size=(40, 3)), rng.uniform(-5, 5, size=40))
        train2, _, _ = zscore_fit_apply(train, train)
        np.testing.assert_allclose(train2.inputs.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(train2.inputs.std(axis=0), 1.0, atol=1e-10)
        assert train2.targets.mean() == pytest.approx(0.0, abs=1e-10)
        assert train2.targets.std() == pytest.approx(1.0, abs=1e-10)

    def test_constant_feature_pinned(self):
        train = Dataset([[5.0, 1.0], [5.0, 3.0]], [1.0, 2.0])
        train2, _, params = zscore_fit_apply(train, train)
        assert params.feature_stds[0] == 1.0
        np.testing.assert_array_equal(train2.inputs[:, 0], 0.0)


class TestSplitHalf:
    def test_even_split(self):
        ds = Dataset(np.arange(4.0).reshape(-1, 1), np.arange(4.0))
        train, test = split_half(ds, np.random.default_rng(0))
        assert (train.m, test.m) == (2, 2)

    def test_odd_split_ceiling(self):
        ds = Dataset(np.arange(5.0).reshape(-1, 1), np.arange(5.0))
        train, test = split_half(ds, np.random.default_rng(0))
        assert (train.m, test.m) == (3, 2)

    def test_deterministic_under_seed(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1), np.arange(10.0))
        a = split_half(ds, np.random.default_rng(3))
        b = split_half(ds, np.random.default_rng(3))
        assert np.array_equal(a[0].targets, b[0].targets)

    def test_disjoint_and_exhaustive_all_sizes(self):
        for m in range(2, 101):
            ds = Dataset(np.arange(float(m)).reshape(-1, 1), np.arange(float(m)))
            train, test = split_half(ds, np.random.default_rng(m))
            merged = sorted(train.targets.tolist() + test.targets.tolist())
            assert merged == list(range(m))

    def test_too_small(self):
        ds = Dataset([[1.0]], [1.0])
        with pytest.raises(ValueError):
            split_half(ds, np.random.default_rng(0))
