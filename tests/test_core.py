import tracemalloc

import numpy as np
import pytest

from greedyreg.core import (
    Dataset,
    DesignMatrix,
    EmptyData,
    FitReport,
    LengthMismatch,
    NonFinite,
    SparseModel,
    validate_dataset,
)


class TestValidateDataset:
    def test_minimal_valid(self):
        d = Dataset([[0.0]], [1.0])
        assert validate_dataset(d) is d

    def test_length_mismatch(self):
        d = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            validate_dataset(d)

    def test_nan_target(self):
        d = Dataset([[0.0], [1.0]], [1.0, np.nan])
        with pytest.raises(NonFinite):
            validate_dataset(d)

    def test_inf_input(self):
        d = Dataset([[np.inf], [1.0]], [1.0, 2.0])
        with pytest.raises(NonFinite):
            validate_dataset(d)

    def test_empty(self):
        d = Dataset(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(EmptyData):
            validate_dataset(d)

    def test_1d_inputs_reshaped(self):
        d = Dataset([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert d.inputs.shape == (3, 1)
        assert d.d == 1 and d.m == 3


def test_dataset_arrays_are_readonly():
    d = Dataset([[0.0], [1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        d.targets[0] = 5.0
    with pytest.raises(ValueError):
        d.inputs[0, 0] = 5.0


class TestDesignMatrix:
    def test_from_columns_norms(self):
        dm = DesignMatrix.from_columns(np.array([[3.0, 0.0], [4.0, 0.0]]))
        assert dm.column_norms[0] == pytest.approx(np.sqrt(12.5))
        assert dm.column_norms[1] == 0.0
        assert dm.live.tolist() == [True, False]

    @pytest.mark.parametrize("shape", [(1, 5), (37, 11), (64, 3), (65, 3), (129, 7), (500, 1000)])
    def test_norms_keep_the_bits_of_the_squared_mean(self, shape):
        rng = np.random.default_rng(shape[0])
        cols = rng.standard_normal(shape) * rng.uniform(0.1, 10.0, shape[1])
        dm = DesignMatrix.from_columns(cols)
        assert np.array_equal(dm.column_norms, np.sqrt(np.mean(cols**2, axis=0)))

    def test_norms_need_no_design_sized_temporary(self):
        cols = np.random.default_rng(0).standard_normal((500, 1000))
        cols.setflags(write=False)  # handed over, so not copied
        tracemalloc.start()
        try:
            DesignMatrix.from_columns(cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cols.nbytes / 4

    def test_norms_must_match_columns(self):
        with pytest.raises(LengthMismatch):
            DesignMatrix(np.ones((3, 2)), np.ones(3))

    def test_raw_scales_are_ones(self):
        dm = DesignMatrix.from_columns(np.array([[3.0], [4.0]]))
        assert dm.scales().tolist() == [1.0]
        np.testing.assert_allclose(dm.to_raw_coefficients([2.0]), [2.0])


class TestSparseModel:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SparseModel((1, 1), np.array([0.5, 0.5]))

    def test_coefficient_count_must_match(self):
        with pytest.raises(LengthMismatch):
            SparseModel((1, 2), np.array([0.5]))


def test_fit_report_round_trip_is_structural():
    from greedyreg.bench import report_row_from_line, report_row_to_line

    row = FitReport(
        method="dtogl:first",
        parameter=1.234e-4,
        sigma=0.5,
        seed=3,
        test_rmse=0.04071234567890123,
        train_rmse=0.39,
        sparsity=7,
        iterations=9,
        termination="no_active_atom",
        seconds=0.01234,
    )
    assert report_row_from_line(report_row_to_line(row)) == row


class TestDesignOwnership:
    """DesignMatrix copies what its caller may still write, and takes what is handed over."""

    def test_writeable_caller_array_is_copied(self):
        cols = np.array([[1.0, 2.0], [3.0, 4.0]])
        dm = DesignMatrix.from_columns(cols)
        cols[0, 0] = 99.0
        assert dm.columns[0, 0] == 1.0
        assert not np.shares_memory(cols, dm.columns)
        assert not dm.columns.flags.writeable

    def test_read_only_owning_array_is_shared(self):
        cols = np.array([[1.0, 2.0], [3.0, 4.0]])
        cols.setflags(write=False)
        dm = DesignMatrix.from_columns(cols)
        assert dm.columns is cols
        norms = np.sqrt(np.mean(cols**2, axis=0))
        norms.setflags(write=False)
        assert DesignMatrix(cols, norms).column_norms is norms

    def test_read_only_view_and_other_dtype_are_copied(self):
        base = np.arange(6.0).reshape(2, 3)
        view = base[:, :2]
        view.setflags(write=False)
        assert not np.shares_memory(DesignMatrix.from_columns(view).columns, base)
        ints = np.arange(4).reshape(2, 2)
        ints.setflags(write=False)
        dm = DesignMatrix.from_columns(ints)
        assert dm.columns.dtype == float and not np.shares_memory(dm.columns, ints)
