import numpy as np
import pytest

from greedyreg.algorithms import fit_delta_togl, fit_ogl, fit_togl
from greedyreg.bench import parse_method
from greedyreg.core import (
    DesignMatrix,
    DICTIONARY_EXHAUSTED,
    FIXED_K,
    NO_ACTIVE_ATOM,
    RESIDUAL_RATIO,
    ZERO_RESIDUAL,
)
from greedyreg.greedy import (
    CandidatePool,
    Criterion,
    ResidualScan,
    ZeroResidual,
    correlation,
    select_atom,
    validate_delta,
)
from greedyreg.linalg import empirical_norm
from oracles import correlations


def _design(columns):
    return DesignMatrix.from_columns(np.asarray(columns, dtype=float))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / empirical_norm(v)


class TestCorrelation:
    def test_parallel_unit_column(self):
        r = np.array([0.5, -1.0, 2.0])
        assert correlation(r, empirical_norm(r), _unit(r)) == pytest.approx(1.0)

    def test_orthogonal(self):
        r = np.array([1.0, -1.0])
        assert correlation(r, empirical_norm(r), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_45_degrees(self):
        # residual [1, 0], column [1, 1] (already unit empirical norm, m=2)
        r = np.array([1.0, 0.0])
        col = np.array([1.0, 1.0])
        assert empirical_norm(col) == pytest.approx(1.0)
        value = correlation(r, empirical_norm(r), col)
        assert value == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_zero_residual_rejected(self):
        with pytest.raises(ZeroResidual):
            correlation(np.zeros(2), 0.0, np.ones(2))


def _two_atom_instance(c_strong=0.9, c_weak=0.1):
    """Design with two unit atoms at prescribed correlations to the residual.

    Atom order in the dictionary puts the weak atom first.
    """
    r = np.array([1.0, 0.0])
    strong = np.array([c_strong, np.sqrt(1 - c_strong**2)]) * np.sqrt(2)
    weak = np.array([c_weak, np.sqrt(1 - c_weak**2)]) * np.sqrt(2)
    dm = _design(np.column_stack([weak, strong]))
    return dm, r, empirical_norm(r)


class TestSelectAtom:
    def test_max_picks_largest(self):
        dm, r, rn = _two_atom_instance()
        assert select_atom(dm, r, rn, Criterion("max")) == 1

    def test_first_skips_below_threshold(self):
        # scan order has the 0.1 atom first; threshold 0.5 rejects it
        dm, r, rn = _two_atom_instance()
        assert select_atom(dm, r, rn, Criterion("first", 0.5)) == 1

    def test_first_takes_scan_order_below_max(self):
        # with a permissive threshold the weak atom comes first in scan order
        dm, r, rn = _two_atom_instance()
        assert select_atom(dm, r, rn, Criterion("first", 0.05)) == 0

    def test_thresholded_pool_empty(self):
        dm, r, rn = _two_atom_instance(0.3, 0.2)
        for kind in ("max", "max2", "max3", "rand", "first"):
            assert select_atom(dm, r, rn, Criterion(kind, 0.5), rng=np.random.default_rng(0)) is None

    def test_second_max(self):
        r = np.array([1.0, 0.0])
        atoms = [
            np.array([0.9, np.sqrt(1 - 0.81)]) * np.sqrt(2),
            np.array([0.8, np.sqrt(1 - 0.64)]) * np.sqrt(2),
            np.array([0.7, np.sqrt(1 - 0.49)]) * np.sqrt(2),
        ]
        dm = _design(np.column_stack(atoms))
        assert select_atom(dm, r, empirical_norm(r), Criterion("max2")) == 1
        assert select_atom(dm, r, empirical_norm(r), Criterion("max3")) == 2

    def test_rank_fallback_when_pool_small(self):
        dm, r, rn = _two_atom_instance()
        # only two candidates: third-max falls back to the weakest
        assert select_atom(dm, r, rn, Criterion("max3")) == 0

    def test_excluded_atoms_skipped(self):
        dm, r, rn = _two_atom_instance()
        assert select_atom(dm, r, rn, Criterion("max"), excluded=[1]) == 0
        assert select_atom(dm, r, rn, Criterion("max"), excluded=[0, 1]) is None

    def test_rand_requires_rng_and_respects_pool(self):
        dm, r, rn = _two_atom_instance()
        with pytest.raises(ValueError):
            select_atom(dm, r, rn, Criterion("rand"))
        rng = np.random.default_rng(0)
        picks = {select_atom(dm, r, rn, Criterion("rand", 0.5), rng=rng) for _ in range(20)}
        assert picks == {1}  # only the 0.9 atom passes the threshold

    def test_rank_agrees_with_brute_force_sort(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = int(rng.integers(5, 16))
            n = int(rng.integers(3, 11))
            cols = rng.standard_normal((m, n))
            cols /= np.sqrt(np.mean(cols**2, axis=0))
            dm = _design(cols)
            r = rng.standard_normal(m)
            rn = empirical_norm(r)
            corr = correlations(dm.columns, r)
            order = sorted(range(n), key=lambda j: (-corr[j], j))
            assert select_atom(dm, r, rn, Criterion("max")) == order[0]
            assert select_atom(dm, r, rn, Criterion("max2")) == order[min(1, n - 1)]
            assert select_atom(dm, r, rn, Criterion("max3")) == order[min(2, n - 1)]

    def test_threshold_consistency(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            cols = rng.standard_normal((12, 8))
            cols /= np.sqrt(np.mean(cols**2, axis=0))
            dm = _design(cols)
            r = rng.standard_normal(12)
            rn = empirical_norm(r)
            delta = float(rng.uniform(0.05, 0.6))
            for kind in ("max", "max2", "max3", "first"):
                idx = select_atom(dm, r, rn, Criterion(kind, delta))
                if idx is not None:
                    assert correlation(r, rn, dm.columns[:, idx]) > delta

    def test_first_scan_is_deterministic(self):
        dm, r, rn = _two_atom_instance()
        crit = Criterion("first", 0.05)
        results = {select_atom(dm, r, rn, crit) for _ in range(5)}
        assert len(results) == 1

    def test_pool_is_read_until_reset_and_counts_correlations(self):
        # 600 atoms: only atoms 10 and 590 correlate with the residual
        cols = np.zeros((2, 600))
        cols[1] = np.sqrt(2.0)
        cols[:, [10, 590]] = [[np.sqrt(2.0)], [0.0]]
        dm = _design(cols)
        r = np.array([1.0, 0.0])
        rn = empirical_norm(r)
        excluded = np.zeros(600, dtype=bool)

        pool = CandidatePool()
        assert select_atom(dm, r, rn, Criterion("max"), excluded, pool=pool) == 10
        excluded[10] = True
        pool.skip(10)
        assert select_atom(dm, r, rn, Criterion("max"), excluded, pool=pool) == 590
        assert pool.scanned == 600  # one scan served both picks
        pool.reset()
        assert select_atom(dm, r, rn, Criterion("max"), excluded, pool=pool) == 590
        assert pool.scanned == 1200

        pool = CandidatePool()
        excluded[:] = False
        assert select_atom(dm, r, rn, Criterion("first", 0.5), excluded, pool=pool) == 10
        assert pool.scanned == 16  # stopped after the first block
        excluded[10] = True
        pool.skip(10)
        # resumes after the skipped atom: reads the block it has, computes the rest
        assert select_atom(dm, r, rn, Criterion("first", 0.5), excluded, pool=pool) == 590
        assert pool.scanned == 600

    def test_screened_pool_flags_blocks_and_pops_runs(self):
        # 40 atoms, correlations decreasing with the index: the order is 0..39
        cols = np.tile(np.linspace(2.0, 1.0, 40), (2, 1))
        cols[1] = 0.0
        dm = _design(cols)
        r = np.array([1.0, 0.0])
        excluded = np.zeros(40, dtype=bool)
        pool = CandidatePool()
        assert select_atom(dm, r, empirical_norm(r), Criterion("max"), excluded, pool=pool) == 0
        blocks = []

        def degenerate(atoms):  # every atom but 5 and 20 is clearly degenerate
            blocks.append(atoms.tolist())
            return ~np.isin(atoms, [5, 20])

        pool.skip(0)  # the head leaves in O(1): the order is a view past it
        assert pool.order.base is not None and pool.order[0] == 1
        pool.screen(degenerate)
        assert blocks == [list(range(1, 9))] and pool.screened == 8
        assert pool.flagged(1) and not pool.flagged(5) and not pool.flagged(9)
        assert pool.pop_flagged(None).tolist() == [1, 2, 3, 4]  # stops before 5
        assert pool.screened == 4 and pool.order[0] == 5
        pool.skip(7)  # a screened atom off the head
        assert pool.screened == 3
        pool.skip(5)
        pool.screen(degenerate)  # twice as wide
        assert blocks[1] == list(range(9, 25)) and pool.screened == 2 + 16
        # a run stops before the first atom at or below delta
        values = pool.scan.values
        assert pool.pop_flagged(values[8]).tolist() == [6]
        assert pool.pop_flagged(None).tolist() == list(range(8, 20))
        pool.reset()
        assert not pool.flagged(9) and pool.pop_flagged(None).size == 0

    def test_dead_columns_never_selected(self):
        cols = np.column_stack([np.zeros(3), np.ones(3)])
        dm = _design(cols)
        r = np.ones(3)
        assert select_atom(dm, r, empirical_norm(r), Criterion("max")) == 1
        assert select_atom(dm, r, empirical_norm(r), Criterion("max"), excluded=[1]) is None


def _orthonormal_problem(weights, live=4, dead=0):
    """The first ``live`` of four orthogonal unit-norm atoms plus ``dead``
    zero columns, and the target sum_j weights[j] atom_j."""
    atoms = 2.0 * np.eye(4)
    columns = np.column_stack([atoms[:, :live], np.zeros((4, dead))])
    return _design(columns), atoms @ np.asarray(weights, dtype=float)


class TestShouldStop:
    """The stop rule of the orthogonal fits, through fit_ogl, fit_togl and
    fit_delta_togl on orthonormal atoms whose correlations are known."""

    def test_zero_residual_always_stops(self):
        dm, y = _orthonormal_problem([0.0, 3.0, 0.0, 0.0])
        for trace in (
            fit_ogl(dm, y, Criterion("max"), 4),
            fit_togl(dm, y, Criterion("max", 0.1), 4),
            fit_delta_togl(dm, y, 0.1, "max"),
        ):
            assert trace.selected == [1]
            assert trace.termination_reason == ZERO_RESIDUAL

    def test_residual_ratio(self):
        # ||y|| = sqrt(21.25); after atoms 0 and 1 the residual ratio is
        # sqrt(1.25 / 21.25) = 0.243 <= 0.3 while atom 2 still correlates 0.89
        dm, y = _orthonormal_problem([4.0, 2.0, 1.0, 0.5])
        trace = fit_delta_togl(dm, y, 0.3, "max")
        assert trace.selected == [0, 1]
        assert trace.termination_reason == RESIDUAL_RATIO

    def test_no_active_atom(self):
        # after atom 0 the residual (0.1, 2) mostly lies outside the span:
        # atom 1 correlates 0.05 < 0.3 while the ratio is 0.555 > 0.3
        dm, y = _orthonormal_problem([3.0, 0.1, 2.0, 0.0], live=2)
        for trace in (
            fit_delta_togl(dm, y, 0.3, "max"),
            fit_togl(dm, y, Criterion("first", 0.3), 2),
        ):
            assert trace.selected == [0]
            assert trace.termination_reason == NO_ACTIVE_ATOM

    def test_dictionary_exhausted(self):
        # two live atoms and a dead one; the target has a component
        # outside their span, so only running out of atoms stops the fit
        dm, y = _orthonormal_problem([3.0, 2.0, 1.0, 0.0], live=2, dead=1)
        for trace in (
            fit_ogl(dm, y, Criterion("max"), 3),
            fit_delta_togl(dm, y, 0.01, "max"),
        ):
            assert trace.selected == [0, 1]
            assert trace.termination_reason == DICTIONARY_EXHAUSTED

    def test_all_clauses_continue(self):
        # every step has an atom above 0.05 and a residual ratio above 0.05
        # until the last atom leaves a zero residual
        dm, y = _orthonormal_problem([4.0, 2.0, 1.0, 0.5])
        trace = fit_delta_togl(dm, y, 0.05, "max")
        assert trace.selected == [0, 1, 2, 3]
        assert trace.termination_reason == ZERO_RESIDUAL

    def test_fixed_k(self):
        dm, y = _orthonormal_problem([4.0, 2.0, 1.0, 0.5])
        for trace in (
            fit_ogl(dm, y, Criterion("max"), 2),
            fit_togl(dm, y, Criterion("max", 0.05), 2),
        ):
            assert trace.selected == [0, 1]
            assert trace.termination_reason == FIXED_K

    def test_stop_monotone_in_delta(self):
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((10, 6))
        cols /= np.sqrt(np.mean(cols**2, axis=0))
        dm = _design(cols)
        y = rng.standard_normal(10)
        deltas = np.linspace(0.01, 0.95, 30)
        counts = [fit_delta_togl(dm, y, float(d), "max").k_fitted for d in deltas]
        # a larger threshold never lets the fit run longer
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]


class TestEncodings:
    def test_criterion_round_trip(self):
        for text in ("ogl:max", "ogl:max2", "ogl:rand", "togl:first", "dtogl:max3", "pgl"):
            assert parse_method(text).label == text

    def test_first_requires_delta(self):
        with pytest.raises(ValueError):
            Criterion("first")

    def test_bad_encodings(self):
        with pytest.raises(ValueError):
            Criterion("best")
        with pytest.raises(ValueError):
            parse_method("ogl:best")


class TestDeltaValidation:
    def test_default_accepts_small_and_large(self):
        validate_delta(1e-6)
        validate_delta(0.9)

    def test_default_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                validate_delta(bad)


class TestBlockProducts:
    """What the windowed "first" scans and pure greedy's exact blocks rest on: on
    this BLAS, a block product that starts at a multiple of 4 and is a multiple
    of 4 wide, or ends the dictionary, gives the full product's entries bit for bit."""

    @pytest.mark.parametrize("which", [0, 1], ids=["sinc-greedy", "csv-greedy"])
    def test_aligned_blocks_equal_the_full_product(self, benchmark_designs, which):
        dm, y = benchmark_designs[which]
        trace = fit_ogl(dm, y, Criterion("max"), 12)
        residuals = [np.asarray(y, dtype=float), trace.state.residual]
        residuals.append(np.random.default_rng(2).standard_normal(dm.m))
        columns, n = dm.columns, dm.n
        differing = 0
        for r in residuals:
            full = columns.T @ r
            for start in range(0, n, 4):
                for width in (4, 16, 32, 64, 128, 256):
                    stop = min(start + width, n)
                    differing += int(np.sum(columns[:, start:stop].T @ r != full[start:stop]))
        assert differing == 0


class TestFirstScanWindow:
    """A "first" scan starts at the fit's first unexcluded atom, rounded down to a
    multiple of 4, and fills the rest of its residual's correlations as asked."""

    @staticmethod
    def _instance():
        cols = np.random.default_rng(7).standard_normal((30, 600))
        dm = _design(cols)
        r = np.random.default_rng(8).standard_normal(30)
        return dm, r, empirical_norm(r), correlations(dm.columns, r)

    @staticmethod
    def _expected_first(corr, excluded, delta):
        return int(np.flatnonzero((corr > delta) & ~excluded)[0])

    def test_window_opens_at_first_unexcluded_atom_and_blocks_restart(self, monkeypatch):
        dm, r, rn, corr = self._instance()
        blocks = []
        cover = ResidualScan.cover

        def spy(scan, dm, residual, norm, start, stop):
            blocks.append((start, stop))
            return cover(scan, dm, residual, norm, start, stop)

        monkeypatch.setattr(ResidualScan, "cover", spy)
        excluded = np.zeros(600, dtype=bool)
        excluded[:37] = True
        pool = CandidatePool()
        delta = 0.99  # above every correlation: the scan reads the whole rest
        assert select_atom(dm, r, rn, Criterion("first", delta), excluded, pool=pool) is None
        assert blocks == [(36, 52), (52, 68), (68, 100), (100, 164), (164, 292), (292, 548),
                          (548, 600)]
        assert (pool.scan.lo, pool.scan.upto, pool.scanned) == (36, 600, 564)
        assert np.array_equal(pool.scan.values[36:], corr[36:])

    def test_pick_matches_full_scan_and_ranked_fills_below(self):
        dm, r, rn, corr = self._instance()
        excluded = np.zeros(600, dtype=bool)
        excluded[:101] = True
        delta = float(np.sort(corr[101:])[-3])  # two atoms past 100 lie above it
        pool = CandidatePool()
        pick = select_atom(dm, r, rn, Criterion("first", delta), excluded, pool=pool)
        assert pick == self._expected_first(corr, excluded, delta)
        scan = pool.scan
        assert scan.lo == 100 and pool.scanned == scan.upto - 100

        # a ranked selection on the same residual computes [0, 100) and the rest
        ranked = CandidatePool(scan)
        none_excluded = np.zeros(600, dtype=bool)
        assert select_atom(dm, r, rn, Criterion("max"), none_excluded, pool=ranked) == int(
            np.argmax(corr)
        )
        assert ranked.scanned == 600 - pool.scanned
        assert (scan.lo, scan.upto) == (0, 600)
        assert np.array_equal(scan.values, corr)

    def test_fit_sharing_a_window_fills_below_it(self):
        dm, r, rn, corr = self._instance()
        late = np.zeros(600, dtype=bool)
        late[:37] = True
        shared = CandidatePool()
        delta = 0.3
        select_atom(dm, r, rn, Criterion("first", delta), late, pool=shared)
        assert shared.scan.lo == 36

        early = np.zeros(600, dtype=bool)
        early[:9] = True
        pool = CandidatePool(shared.scan)
        pick = select_atom(dm, r, rn, Criterion("first", delta), early, pool=pool)
        assert pick == self._expected_first(corr, early, delta)
        assert pool.scan.lo == 8 and pool.scanned == 36 - 8
        upto = pool.scan.upto
        assert np.array_equal(pool.scan.values[8:upto], corr[8:upto])

    def test_all_excluded_scans_nothing(self):
        dm, r, rn, _ = self._instance()
        pool = CandidatePool()
        excluded = np.ones(600, dtype=bool)
        assert select_atom(dm, r, rn, Criterion("first", 0.1), excluded, pool=pool) is None
        assert pool.scanned == 0
