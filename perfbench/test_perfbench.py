"""Tests of the benchmark's own arithmetic: percentiles, self times, failures.

    python3 -m pytest perfbench -q
"""
import types

import pytest

import measure
from tracing import Tracer, self_times


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.percentile(range(1, 100), 90) is None      # rank 90 of 99: 9 beyond
    assert measure.percentile(range(1, 101), 90) == 90        # rank 90 of 100: 10 beyond
    assert measure.percentile(range(1, 201), 90) == 180
    assert measure.percentile([], 90) is None


def test_percentile_is_nearest_rank_and_ignores_order():
    xs = [5.0 * k for k in range(120)]
    shuffled = xs[::2] + xs[1::2]
    assert measure.percentile(shuffled, 90) == xs[107]        # ceil(0.9 * 120) = 108
    assert measure.percentile(shuffled, 50) == xs[59]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["unit", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],      # nested in a, so not subtracted from unit
        ["c", 6.0, 8.0, 0, 0],
        ["unit", 10.0, 11.0, None, 1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 1.0, 2.0, 1.0])


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3                   # inactive: no spans
    assert tracer.spans == []
    tracer.active, tracer.unit = True, 7
    assert outer(1) == 3
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("outer", None, 7), ("inner", 0, 7), ("inner", 0, 7)]
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1]
                                   - sum(s[2] - s[1] for s in tracer.spans[1:]))


def test_tracer_patches_every_module_holding_the_function_and_restores_them():
    def f():
        return 1

    owner = types.ModuleType("pkg.owner")
    owner.f = f
    user = types.ModuleType("pkg.user")
    user.g = f                             # bound by name under another name
    tracer = Tracer()
    tracer.install_function((owner, user), owner, "f")
    tracer.active = True
    owner.f(), user.g()
    assert [s[0] for s in tracer.spans] == ["owner.f", "owner.f"]
    tracer.uninstall()
    assert owner.f is f and user.g is f


class _Flaky:
    """Unit k raises when k % 3 == 1; its check rejects k % 3 == 2."""

    def inputs(self, k):
        return k

    def unit(self, k):
        if k % 3 == 1:
            raise ValueError("boom")
        return k

    def check(self, k, output):
        return k % 3 != 2


def test_error_ratio_counts_raised_and_rejected_units():
    units = measure.run_units(_Flaky(), seconds=1e-3)
    assert len(units) >= 1
    raised = [u for u in units if u.error is not None]
    assert [u.index for u in raised] == [k for k in range(len(units)) if k % 3 == 1]
    assert all("ValueError: boom" in u.error for u in raised)
    expected = sum(1 for k in range(len(units)) if k % 3 != 0)
    assert measure.count_failures(units, _Flaky().check) == expected


def test_reference_is_timed_outside_units_and_rescales_them():
    calls = []
    units = measure.run_units(_Flaky(), seconds=1e-3, reference=lambda: calls.append(1))
    assert len(calls) == measure.REFERENCE_REPEATS           # once, before the first unit
    assert all(u.reference is not None for u in units)
    unit = measure.Unit(0, None, None, seconds=0.3, reference=0.02)
    assert measure.normalized(unit, nominal=0.01) == pytest.approx(0.15)


def test_a_raising_check_counts_as_a_failure():
    units = [measure.Unit(0, 0, 0, 0.1), measure.Unit(1, 3, 3, 0.1)]

    def check(args, output):
        if args:
            raise RuntimeError("bad check")
        return True

    assert measure.count_failures(units, check) == 1
