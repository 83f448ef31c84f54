import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from kernel_oracle import reference_any_overlap, reference_window
from lorascale import kernels

# the backend fixture holds constant state for the whole test, so not
# resetting it between generated examples is fine
fixture_ok = [HealthCheck.function_scoped_fixture]


def brute_any_overlap(starts, ends):
    n = len(starts)
    lost = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and starts[j] < ends[i] and ends[j] > starts[i]:
                lost[i] = True
    return lost


def brute_window(starts, ends, factor):
    n = len(starts)
    lost = np.zeros(n, dtype=bool)
    for i in range(n):
        w_lo = ends[i] - factor * (ends[i] - starts[i])
        for j in range(n):
            if i != j and w_lo < starts[j] < ends[i]:
                lost[i] = True
    return lost


event_sets = st.lists(
    st.tuples(
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        st.floats(0.01, 3.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=30,
)


def unpack(events):
    events = sorted(events)
    starts = np.array([s for s, _ in events], dtype=np.float64)
    ends = starts + np.array([d for _, d in events], dtype=np.float64)
    return starts, ends


@given(events=event_sets)
@settings(max_examples=200, suppress_health_check=fixture_ok)
def test_any_overlap_matches_brute_force(kernel_backend, events):
    starts, ends = unpack(events)
    assert np.array_equal(kernels.mark_any_overlap(starts, ends), brute_any_overlap(starts, ends))


@given(events=event_sets, factor=st.floats(0.05, 2.0))
@settings(max_examples=200, suppress_health_check=fixture_ok)
def test_window_matches_brute_force(kernel_backend, events, factor):
    starts, ends = unpack(events)
    assert np.array_equal(
        kernels.mark_window(starts, ends, factor), brute_window(starts, ends, factor)
    )


@given(events=event_sets, factor=st.floats(0.05, 2.0))
@settings(max_examples=100)
def test_backends_agree(events, factor):
    if len(kernels.available_backends()) < 2:
        pytest.skip("only one backend built")
    starts, ends = unpack(events)
    results = {}
    for backend in kernels.available_backends():
        kernels.use_backend(backend)
        results[backend] = (
            kernels.mark_any_overlap(starts, ends),
            kernels.mark_window(starts, ends, factor),
        )
    (a1, w1), (a2, w2) = results.values()
    assert np.array_equal(a1, a2)
    assert np.array_equal(w1, w2)


@given(
    starts=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=40),
    airtime=st.floats(0.05, 2.0),
)
@settings(suppress_health_check=fixture_ok)
def test_factor_two_window_equals_any_overlap_for_equal_airtimes(
    kernel_backend, starts, airtime
):
    starts = np.sort(np.asarray(starts, dtype=np.float64))
    # the equivalence holds in exact arithmetic; keep pairwise gaps away
    # from the open/closed boundary where float rounding can flip it
    gaps = np.diff(starts)
    assume(np.all(gaps > 1e-9))
    assume(np.all(np.abs(gaps - airtime) > 1e-9))
    ends = starts + airtime
    assert np.array_equal(
        kernels.mark_window(starts, ends, 2.0), kernels.mark_any_overlap(starts, ends)
    )


def test_empty_and_singleton(kernel_backend):
    empty = np.empty(0)
    assert kernels.mark_any_overlap(empty, empty).shape == (0,)
    one = np.array([1.0])
    assert not kernels.mark_any_overlap(one, one + 0.5).any()
    assert not kernels.mark_window(one, one + 0.5, 2.0).any()


def test_touching_intervals_do_not_collide(kernel_backend):
    # half-open semantics: one packet may start exactly when another ends
    starts = np.array([0.0, 1.0])
    ends = np.array([1.0, 2.0])
    assert not kernels.mark_any_overlap(starts, ends).any()
    assert not kernels.mark_window(starts, ends, 2.0).any()


# Timelines of up to a few thousand events on a coarse grid, so that
# starts tie and ends land exactly on other starts (the open/closed
# boundaries of both rules); numpy draws them from a hypothesis seed.
timeline_params = dict(
    n=st.integers(0, 3000),
    grid=st.sampled_from([0.25, 0.1, 1.0]),
    slots_per_event=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    durations=st.sampled_from(["equal", "grid", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
factors = st.one_of(st.just(1.0), st.just(2.0),
                    st.floats(0.0, 2.0, exclude_min=True, allow_nan=False))


def grid_timeline(n, grid, slots_per_event, durations, seed):
    rng = np.random.default_rng(seed)
    slots = max(1, int(n * slots_per_event))
    starts = np.sort(rng.integers(0, slots, n)) * grid
    if durations == "equal":
        length = np.full(n, grid * rng.integers(1, 4))
    elif durations == "grid":
        length = grid * rng.integers(1, 6, n)
    else:
        length = rng.uniform(0.01, 5.0, n)
    return starts, starts + length


@given(**timeline_params)
@example(n=0, grid=0.25, slots_per_event=1.0, durations="equal", seed=0)
@example(n=1, grid=0.25, slots_per_event=1.0, durations="equal", seed=0)
@example(n=2, grid=0.25, slots_per_event=0.05, durations="equal", seed=0)
@example(n=2, grid=0.25, slots_per_event=3.0, durations="mixed", seed=1)
@settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
def test_any_overlap_matches_search_oracle(kernel_backend, n, grid, slots_per_event,
                                           durations, seed):
    starts, ends = grid_timeline(n, grid, slots_per_event, durations, seed)
    assert np.array_equal(kernels.mark_any_overlap(starts, ends),
                          reference_any_overlap(starts, ends))


@given(**timeline_params, factor=factors)
@example(n=0, grid=0.25, slots_per_event=1.0, durations="equal", seed=0, factor=1.0)
@example(n=1, grid=0.25, slots_per_event=1.0, durations="equal", seed=0, factor=2.0)
@example(n=2, grid=0.25, slots_per_event=0.05, durations="equal", seed=0, factor=1.0)
@example(n=2, grid=0.25, slots_per_event=0.05, durations="equal", seed=0, factor=2.0)
@example(n=2, grid=0.25, slots_per_event=3.0, durations="mixed", seed=1, factor=0.5)
@settings(max_examples=300, deadline=None, suppress_health_check=fixture_ok)
def test_window_matches_search_oracle(kernel_backend, n, grid, slots_per_event, durations,
                                      seed, factor):
    starts, ends = grid_timeline(n, grid, slots_per_event, durations, seed)
    assert np.array_equal(kernels.mark_window(starts, ends, factor),
                          reference_window(starts, ends, factor))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        kernels.use_backend("fortran")
