"""Property tests: the columnar SeqPoint k-sweep against the Fig 10 loop.

``reference_select`` is the per-bin loop the selector ran before its
sweep became columnar (``bin_stats`` + ``select_from_bin`` +
``project_logged_time``).  The selector must reproduce it exactly: the
same k, points and weights, and bitwise-equal projected totals and
identification errors.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.binning import bin_stats
from repro.core.projection import project_logged_time
from repro.core.selection import SelectedPoint, Selection, select_from_bin
from repro.core.seqpoint import SeqPointSelector
from repro.core.sl_stats import SlStatistics
from repro.util.stats import percent_error
from tests.conftest import make_trace


def reference_select(selector: SeqPointSelector, frame):
    """The per-bin k-loop: ``(selection, k, error, projected, actual)``."""
    statistics = SlStatistics.from_trace(frame)
    actual = statistics.total_time_s
    if len(statistics) <= selector.max_unique:
        selection = Selection(
            method="seqpoint",
            points=tuple(
                SelectedPoint(
                    record=stat.representative, weight=float(stat.iterations)
                )
                for stat in statistics
            ),
        )
        projected = project_logged_time(selection)
        return selection, 0, percent_error(projected, actual), projected, actual
    ceiling = min(
        selector.max_bins if selector.max_bins is not None else len(statistics),
        len(statistics),
    )
    k = min(selector.initial_bins, ceiling)
    while True:
        selection = Selection(
            method="seqpoint",
            points=tuple(select_from_bin(b) for b in bin_stats(statistics, k)),
        )
        projected = project_logged_time(selection)
        error = percent_error(projected, actual)
        if error < selector.error_threshold_pct or k >= ceiling:
            return selection, k, error, projected, actual
        k += 1


def assert_matches_reference(selector: SeqPointSelector, frame) -> None:
    result = selector.select(frame)
    selection, k, error, projected, actual = reference_select(selector, frame)
    assert result.k == k
    assert [(p.record, p.weight) for p in result.seqpoints] == [
        (p.record, p.weight) for p in selection.points
    ]
    assert result.projected_total_s.hex() == projected.hex()
    assert result.identification_error_pct.hex() == error.hex()
    assert result.actual_total_s.hex() == actual.hex()
    # The result's own points reproduce its projection (Equation 1).
    assert project_logged_time(result.selection).hex() == projected.hex()


#: Runtimes on a coarse grid, so equal means (and hence tied
#: deviations from a bin's mean) are common.
grid_times = st.integers(min_value=1, max_value=12).map(lambda n: n / 4)
fine_times = st.floats(min_value=1e-4, max_value=50.0, allow_nan=False)


@st.composite
def selectors(draw):
    initial_bins = draw(st.integers(min_value=1, max_value=6))
    max_bins = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=initial_bins, max_value=initial_bins + 12),
        )
    )
    return SeqPointSelector(
        max_unique=draw(st.integers(min_value=1, max_value=12)),
        initial_bins=initial_bins,
        # 1e-12 forces every sweep to its ceiling.
        error_threshold_pct=draw(st.sampled_from([1e-12, 0.01, 0.5, 1.0, 5.0])),
        max_bins=max_bins,
    )


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=200), grid_times | fine_times),
        min_size=1,
        max_size=80,
    ),
    selectors(),
)
@settings(max_examples=150, deadline=None)
def test_sweep_matches_the_per_bin_loop(pairs, selector):
    assert_matches_reference(selector, make_trace(pairs).frame())


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=40), grid_times),
        min_size=12,
        max_size=80,
    ),
    selectors(),
)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_on_tied_deviations(pairs, selector):
    frame = make_trace(pairs).frame()
    statistics = SlStatistics.from_trace(frame)
    assume(len(statistics) > selector.max_unique)
    assert_matches_reference(selector, frame)


@given(
    st.integers(min_value=1, max_value=300),
    st.lists(grid_times | fine_times, min_size=1, max_size=20),
    selectors(),
)
@settings(max_examples=40, deadline=None)
def test_single_unique_sl_matches(seq_len, times, selector):
    frame = make_trace([(seq_len, time_s) for time_s in times]).frame()
    assert_matches_reference(selector, frame)


def test_tied_deviation_picks_the_first_sl():
    # One bin of SLs 10/20/30 with means 1, 3, 2: the bin mean is 2, so
    # SL 30 wins outright; with means 1, 3 only, 10 and 20 tie and the
    # lower SL wins, as np.argmin's first minimum does.
    for pairs, expected in (
        ([(10, 1.0), (20, 3.0), (30, 2.0)], 30),
        ([(10, 1.0), (20, 3.0)], 10),
    ):
        result = SeqPointSelector(
            max_unique=1, initial_bins=1, max_bins=1
        ).select(make_trace(pairs))
        assert [p.seq_len for p in result.seqpoints] == [expected]


def test_ceiling_reached_under_an_unreachable_threshold():
    pairs = [(sl, 0.01 * sl + (0.3 if sl % 20 else 0.0)) for sl in range(10, 200, 5)]
    frame = make_trace(pairs).frame()
    selector = SeqPointSelector(error_threshold_pct=1e-12, max_bins=9)
    assert selector.select(frame).k == 9
    assert_matches_reference(selector, frame)
