"""Atom-selection criteria.

A criterion ranks atoms by the normalized correlation
|<r, g>_m| / ||r||_m (the cosine of the angle between residual and atom
when columns have unit empirical norm).  Thresholded criteria restrict
the candidate pool to atoms whose correlation strictly exceeds delta;
the "first" criterion scans in dictionary order and stops at the first
atom above threshold, which is what makes large dictionaries cheap.

The correlations of one residual live in a ResidualScan, filled in
blocks as far as a scan needs them: a full scan fills it at once, a
"first" scan block by block from the fit's first unexcluded atom until
its first hit.  Nothing is computed twice for the same residual.  Every
block starts at a multiple of 4 and, unless it ends the dictionary, is
a multiple of 4 wide; on the OpenBLAS this was tested with, the product
of such a block equals those entries of the full product bit for bit
(tests/test_greedy.py checks it on the benchmark designs), so a
correlation does not depend on which scan computed it.

A fit may pass a CandidatePool that it owns.  The pool keeps the
current residual's scan and what the criterion made of it: the ranked
order of the eligible atoms (ranked kinds), the eligible atoms in index
order ("rand"), or the index where the next scan starts ("first").  An
atom whose column turns out to be degenerate is skipped, and the
residual and every correlation stay the same; so after a skip the fit
takes that atom out of the pool, and the next attempt reads the pool
instead of scanning again (as in Batch-OMP, Rubinstein, Zibulevsky &
Elad 2008).  After a successful append the fit resets the pool, with
the scan of the new residual if another fit computed one already.
Picks from a pool equal those of a fresh scan bit for bit: sorting is
stable, and a "first" scan reads the same correlations.

Past the numerical rank of the design a residual stalls: column after
column is degenerate and leaves it unchanged.  So after a degenerate
skip the fit screens the next block of the pool's order with one
batched product (linalg.clearly_degenerate), and the pool flags the
columns found clearly inside the span; the fit skips a flagged atom
without appending it.  Each further skip of the same residual screens a
block twice as wide, so an isolated skip costs about one more append's
work; the flags go with the residual on reset.  A column is flagged
only where its append would certainly fail, so every pick, skip and
append is what it would be without the screen.  Only ordered pools
screen: a "first" pick exceeds delta, and a degenerate column, inside
the span that the residual is orthogonal to, almost never does.
"""

from dataclasses import dataclass

import numpy as np

from .core import DesignMatrix

CRITERION_KINDS = ("max", "max2", "max3", "rand", "first")
_RANK = {"max": 1, "max2": 2, "max3": 3}

# Blocks of a "first" scan: the first is _FIRST_BLOCK atoms wide and
# each next one as wide as all before it in the scan's window, up to
# _SCAN_BLOCK, so an early hit is cheap; all are multiples of 4.  The
# cap keeps each product small enough that OpenBLAS runs it on the
# calling thread (for m up to about 1800): a threaded product waits for
# its worker thread, which in a fresh process on a two-core VM took
# about 8 ms, against 0.1 ms for a 256-atom block.
_FIRST_BLOCK = 16
_SCAN_BLOCK = 256

# Screens of a stalled residual: the first is _SCREEN_FIRST candidates
# wide and each next one twice the last, up to _SCAN_BLOCK, which also
# bounds the temporaries of the batched product to a few m-by-256 arrays.
_SCREEN_FIRST = 8


class ZeroResidual(ArithmeticError):
    """Correlations are undefined for a zero residual."""


def validate_delta(delta: float) -> float:
    """Accept delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return float(delta)


@dataclass(frozen=True)
class Criterion:
    """Selection rule: kind in {max, max2, max3, rand, first}.

    delta=None means unthresholded; "first" always requires a delta.
    """

    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "first" and self.delta is None:
            raise ValueError("'first' criterion requires a threshold")
        if self.delta is not None:
            validate_delta(self.delta)

    @property
    def thresholded(self) -> bool:
        return self.delta is not None


def correlation(residual, residual_norm: float, column) -> float:
    """|<residual, column>_m| / ||residual||_m."""
    if residual_norm <= 0:
        raise ZeroResidual("residual norm must be positive")
    residual = np.asarray(residual, dtype=float)
    column = np.asarray(column, dtype=float)
    return abs(float(residual @ column)) / (residual.shape[0] * residual_norm)


class ResidualScan:
    """Correlations of one residual with the atoms, computed as far as scans needed.

    ``values[lo:upto]`` hold the correlations of atoms lo..upto-1, the
    window; the rest is not computed yet.  ``lo`` is a multiple of 4.
    """

    def __init__(self, n: int):
        self.values = np.empty(n)
        self.lo = self.upto = 0

    def cover(self, dm: DesignMatrix, residual, residual_norm: float, start: int, stop: int) -> int:
        """Compute the atoms of start..stop-1 outside the window; returns their number.

        The window must meet or touch the range, and ``start`` be a
        multiple of 4.  One product computes the part below the window,
        one the part above it.
        """
        computed = 0
        for lo, hi in ((start, self.lo), (self.upto, stop)):
            if lo < hi:
                block = dm.columns[:, lo:hi]
                self.values[lo:hi] = np.abs(block.T @ residual) / (dm.m * residual_norm)
                computed += hi - lo
        self.lo, self.upto = min(self.lo, start), max(self.upto, stop)
        return computed


def _as_mask(excluded, n: int) -> np.ndarray:
    if excluded is None:
        return np.zeros(n, dtype=bool)
    excluded = np.asarray(excluded)
    if excluded.dtype == bool:
        return excluded
    mask = np.zeros(n, dtype=bool)
    mask[excluded.astype(int)] = True
    return mask


class CandidatePool:
    """Candidates of one residual, kept by a fit across degenerate skips.

    ``scan`` holds the residual's correlations (a ResidualScan, made on
    first use when None); ``order`` is None until a ranked or "rand"
    selection fills it; ``resume`` is the first index the next "first"
    scan may return.  ``scanned`` counts the correlations this pool
    computed over its lifetime, through every reset; those it read from
    a scan filled elsewhere are not counted.  The leading ``screened``
    entries of ``order`` have been screened, and ``_flags`` marks the
    atoms a screen found clearly degenerate (None before any screen).
    """

    def __init__(self, scan=None):
        self.scanned = 0
        self.reset(scan)

    def reset(self, scan=None):
        """Forget the candidates: the residual has changed, and ``scan`` holds its correlations."""
        self.scan = scan
        self.order = None
        self.resume = 0
        self.screened = 0
        self._flags = None
        self._width = _SCREEN_FIRST

    def skip(self, idx: int):
        """Drop atom ``idx``, which the fit could not use; the residual is unchanged."""
        order = self.order
        if order is None:
            self.resume = idx + 1
        elif order[0] == idx:
            self.order = order[1:]
            self.screened = max(self.screened - 1, 0)
        else:
            keep = order != idx
            self.screened -= not keep[: self.screened].all()
            self.order = order[keep]

    def screen(self, degenerate):
        """Screen the next block of the order; call after a degenerate skip.

        ``degenerate(atoms)`` returns a boolean array: which of ``atoms``
        are clearly degenerate.  Each call screens a block twice as wide
        as the one before, up to _SCAN_BLOCK.
        """
        if self.order is None:
            return
        block = self.order[self.screened : self.screened + self._width]
        if block.size == 0:
            return
        if self._flags is None:
            self._flags = np.zeros(self.scan.values.shape[0], dtype=bool)
        self._flags[block] = degenerate(block)
        self.screened += block.size
        self._width = min(2 * self._width, _SCAN_BLOCK)

    def flagged(self, idx: int) -> bool:
        """Whether a screen found atom ``idx`` clearly degenerate."""
        return self._flags is not None and bool(self._flags[idx])

    def pop_flagged(self, delta) -> np.ndarray:
        """Drop and return the flagged atoms that lead the order, as many skips would.

        The run stops before the first atom that is not flagged or, when
        ``delta`` is not None, that does not correlate above it.
        """
        if self._flags is None:
            return np.zeros(0, dtype=int)
        head = self.order[: self.screened]
        go_on = self._flags[head]
        if delta is not None:
            go_on &= self.scan.values[head] > delta
        run = head if go_on.all() else head[: int(go_on.argmin())]
        self.order = self.order[run.size :]
        self.screened -= run.size
        return run


def select_atom(
    dm: DesignMatrix,
    residual,
    residual_norm: float,
    criterion: Criterion,
    excluded=None,
    rng=None,
    pool=None,
):
    """Pick the next atom index, or None when no candidate remains.

    Candidates are live, non-excluded atoms; thresholded criteria keep
    only those with correlation strictly above delta.  Ranked kinds take
    the 1st/2nd/3rd largest correlation (ties to the lower index),
    falling back to the last candidate when the pool is smaller than the
    rank.  "rand" draws uniformly from the pool; "first" returns the
    lowest-index atom above threshold without scanning the rest.
    ``pool`` (a CandidatePool) is read instead of scanning when it holds
    candidates of this residual, and is filled when it does not.
    """
    if residual_norm <= 0:
        raise ZeroResidual("residual norm must be positive")
    if pool is None:
        pool = CandidatePool()
    if pool.scan is None:
        pool.scan = ResidualScan(dm.n)
    mask = _as_mask(excluded, dm.n)

    if criterion.kind == "first":
        return _first_above(dm, residual, residual_norm, criterion.delta, mask, pool)

    if pool.order is None:
        pool.scanned += pool.scan.cover(dm, residual, residual_norm, 0, dm.n)
        pool.order = _eligible_order(dm, pool.scan.values, criterion, mask)
    order = pool.order
    if order.size == 0:
        return None

    if criterion.kind == "rand":
        if rng is None:
            raise ValueError("'rand' criterion requires an rng")
        return int(order[rng.choice(order.size)])

    rank = _RANK[criterion.kind]
    return int(order[min(rank, order.size) - 1])


def _eligible_order(dm, corr, criterion, mask):
    """Eligible atoms: best first for ranked kinds, by index for "rand"."""
    eligible = dm.live & ~mask
    if criterion.thresholded:
        eligible &= corr > criterion.delta
    candidates = np.flatnonzero(eligible)
    if criterion.kind == "rand":
        return candidates
    # Stable sort on -corr: descending values, ties by ascending index.
    return candidates[np.argsort(-corr[candidates], kind="stable")]


def _first_unexcluded(mask, start: int) -> int:
    """The first atom from ``start`` on that ``mask`` does not exclude, or its size if none."""
    rest = mask[start:]
    return mask.size if rest.all() else start + int(rest.argmin())


def _first_above(dm, residual, residual_norm, delta, mask, pool):
    scan = pool.scan
    start = pool.resume  # never past scan.upto: a skipped atom was read from the scan
    if scan.lo == scan.upto or start < scan.lo:
        # A fresh residual, or a window that a fit sharing it opened further
        # on: scan from this fit's first unexcluded atom, since no atom
        # before it can be picked (in an orthogonal fit, most are selected).
        start = _first_unexcluded(mask, start)
        if scan.lo == scan.upto:
            scan.lo = scan.upto = start - start % 4
        elif start < scan.lo:
            pool.scanned += scan.cover(dm, residual, residual_norm, start - start % 4, scan.lo)
    while start < dm.n:
        while start >= scan.upto:
            width = min(max(scan.upto - scan.lo, _FIRST_BLOCK), _SCAN_BLOCK)
            stop = min(scan.upto + width, dm.n)
            pool.scanned += scan.cover(dm, residual, residual_norm, scan.upto, stop)
        stop = scan.upto
        above = scan.values[start:stop] > delta
        above &= dm.live[start:stop]
        hit = int(above.argmax())
        while above[hit]:
            if not mask[start + hit]:
                return start + hit
            # Excluded: selected or degenerate, so about orthogonal to the residual; rare here.
            above[hit] = False
            hit = int(above.argmax())
        start = stop
    return None
