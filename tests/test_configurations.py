import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilib as eq
from equilib.configurations import _line_gaps, _own_bounds_config

TAU = 2.0 * math.pi


def line(window, left=None, right=None, c=None, C=None):
    window = tuple(float(p) for p in window)
    g = np.diff(window)
    lo = min(g) if len(g) else 1.0
    hi = max(g) if len(g) else 1.0
    return eq.LineConfig(
        window=window,
        left_tail=left or eq.TailModel.none(),
        right_tail=right or eq.TailModel.none(),
        c=c if c is not None else min(lo, 1.0),
        C=C if C is not None else max(hi, 1.0),
    )


def test_line_gaps_are_differences():
    assert eq.gaps(line([0, 1, 2])) == (1.0, 1.0)


def test_circle_gaps_equal_spacing():
    cfg = eq.CircleConfig(angles=(0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
    assert eq.gaps(cfg) == pytest.approx((math.pi / 2,) * 4)


def test_circle_gaps_include_wrap_arc():
    cfg = eq.CircleConfig(angles=(0.0, 1.0, 4.0))
    assert eq.gaps(cfg) == pytest.approx((1.0, 3.0, TAU - 4.0))


def test_extremal_gaps_unique_max():
    ex = eq.extremal_gaps(line([0, 1, 3, 4]))
    assert ex.max_value == 2.0
    assert ex.max_indices == (1,)
    assert ex.max_strict
    assert ex.min_value == 1.0
    # Strictness is local: each shortest gap sits next to a longer one.
    assert ex.min_indices == (0, 2)
    assert ex.min_strict


def test_extremal_gaps_trivial_all_tied():
    ex = eq.extremal_gaps(line([0, 1, 2, 3]))
    assert ex.max_value == ex.min_value == 1.0
    assert not ex.max_strict
    assert not ex.min_strict


def test_extremal_gaps_circle_wrap_arc_wins():
    ex = eq.extremal_gaps(eq.CircleConfig(angles=(0.0, 1.0, 2.0, 4.0)))
    assert ex.max_value == pytest.approx(TAU - 4.0)
    assert ex.max_indices == (3,)
    assert ex.max_strict


def test_extremal_gaps_see_tail_gaps():
    # A tail gap larger than anything in the window must be reported.
    cfg = line([0, 1, 2], right=eq.TailModel.arithmetic(first=5.0, gap=3.0), C=3.0)
    ex = eq.extremal_gaps(cfg)
    assert ex.max_value == 3.0
    assert ex.max_in_tail


def neighbour_strict_flags(seq, cyclic):
    """Whether some maximal (resp. minimal) gap has a strictly smaller
    (larger) neighbour, the wrap neighbour included on the circle."""
    hi, lo = max(seq), min(seq)

    def neighbours(i):
        if cyclic:
            return [seq[(i - 1) % len(seq)], seq[(i + 1) % len(seq)]]
        return seq[max(i - 1, 0):i] + seq[i + 1:i + 2]

    return (any(g == hi and any(h < hi for h in neighbours(i)) for i, g in enumerate(seq)),
            any(g == lo and any(h > lo for h in neighbours(i)) for i, g in enumerate(seq)))


def test_extremal_gap_strict_flags_match_the_neighbour_rule(monkeypatch):
    rng = np.random.default_rng(20261020)
    for _ in range(300):
        # Few distinct values, so ties at the extremes are common.
        values = rng.choice([0.5, 1.0, 2.0, 3.0], size=int(rng.integers(1, 4)), replace=False)
        seq = rng.choice(values, size=int(rng.integers(1, 9))).tolist()
        ex = eq.extremal_gaps(eq.LineConfig.finite(np.cumsum([0.0] + seq).tolist()))
        assert (ex.max_strict, ex.min_strict) == neighbour_strict_flags(seq, False), seq
        # Float angles rarely tie arcs exactly, the wrap arc least of all, so
        # the circle's arc list is substituted.
        monkeypatch.setattr(eq.CircleConfig, "arc_gaps", lambda self: tuple(seq))
        ex = eq.extremal_gaps(eq.CircleConfig((0.0, 1.0)))
        monkeypatch.undo()
        assert (ex.max_strict, ex.min_strict) == neighbour_strict_flags(seq, True), seq


def test_canonicalize_antipodal_pair():
    cfg = eq.canonicalize_circle(eq.CircleConfig(angles=(0.3, 0.3 + math.pi)))
    assert cfg.angles == pytest.approx((0.0, math.pi))


def test_canonicalize_rotation():
    cfg = eq.canonicalize_circle(eq.CircleConfig(angles=(1.0, 2.0, 3.0)))
    assert cfg.angles == pytest.approx((0.0, 1.0, 2.0))


def test_canonicalize_idempotent():
    cfg = eq.canonicalize_circle(eq.CircleConfig(angles=(0.5, 1.7, 4.0)))
    again = eq.canonicalize_circle(cfg)
    assert again.angles == pytest.approx(cfg.angles, abs=1e-15)


def test_line_window_must_increase():
    with pytest.raises(eq.InvalidInput):
        line([0.0, 2.0, 1.0])


def test_line_gap_list_runs_left_to_right():
    # Left tail pattern (outermost first) and junction, window gaps, right
    # junction and pattern; the own-bounds config takes [c, C] from it.
    left, right = eq.TailModel.periodic(-2.0, (1.0, 2.0)), eq.TailModel.arithmetic(4.5, 1.5)
    gaps, offset = _line_gaps((0.0, 1.0, 3.0), left, right, periods=2)
    assert (gaps, offset) == ([2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.5], 5)
    cfg = _own_bounds_config([0.0, 1.0, 3.0], left, right)
    assert (cfg.c, cfg.C) == (1.0, 2.0)
    single = eq.LineConfig.finite([0.5])
    assert (single.c, single.C) == (1.0, 1.0)
    with pytest.raises(eq.InvalidInput, match="strictly increasing"):
        _line_gaps((0.0, 0.0), left, right)
    with pytest.raises(eq.InvalidInput, match="right tail overlaps"):
        _line_gaps((0.0, 5.0), left, right)


def test_reals_name_the_first_item_float_rejects():
    # One float() pass converts a clean list; when it fails, the per-item
    # loop names the first bad item, whichever error float() raised.
    from equilib.errors import _reals

    assert _reals([1, "2.5", True, 3.0], "x") == [1.0, 2.5, 1.0, 3.0]
    for value, bad in (([0.0, "a", None], "'a'"), ([0.0, None, "a"], "None"),
                       ([0.0, 10**400, "a"], "1000"), ((0.0, [1.0]), r"\[1.0\]")):
        with pytest.raises(eq.InvalidInput, match=f"^x: expected a number, got {bad}"):
            _reals(value, "x")


def test_line_gap_bounds_enforced():
    with pytest.raises(eq.InvalidInput):
        eq.LineConfig(
            window=(0.0, 1.0, 3.0),
            left_tail=eq.TailModel.none(),
            right_tail=eq.TailModel.none(),
            c=1.0,
            C=1.5,
        )


def test_tail_positions_march_outward():
    left = eq.TailModel.arithmetic(first=-1.0, gap=1.0)
    assert left.positions("left", 4) == pytest.approx([-1.0, -2.0, -3.0, -4.0])
    right = eq.TailModel.arithmetic(first=5.0, gap=2.0)
    assert right.positions("right", 4) == pytest.approx([5.0, 7.0, 9.0, 11.0])


def test_periodic_tail_pattern_repeats():
    tail = eq.TailModel.periodic(anchor=-1.0, pattern=(1.0, 2.0))
    assert tail.positions("left", 5) == pytest.approx([-1.0, -2.0, -4.0, -5.0, -7.0])
    assert tail.gap_values() == (1.0, 2.0)


def test_tail_json_round_trip():
    for tail in (
        eq.TailModel.none(),
        eq.TailModel.arithmetic(first=3.0, gap=0.5),
        eq.TailModel.periodic(anchor=-2.0, pattern=(1.0, 0.25, 0.5)),
    ):
        again = eq.TailModel.from_json_dict(tail.to_json_dict())
        assert again == tail


def test_config_json_round_trip():
    cfg = line(
        [0, 1, 3],
        left=eq.TailModel.arithmetic(first=-1.0, gap=1.0),
        right=eq.TailModel.periodic(anchor=4.0, pattern=(1.0, 2.0)),
        c=1.0,
        C=2.0,
    )
    again = eq.config_from_json(eq.config_to_json(cfg))
    assert isinstance(again, eq.LineConfig)
    assert again == cfg

    circ = eq.CircleConfig(angles=(0.0, 1.0, 4.0))
    again = eq.config_from_json(eq.config_to_json(circ))
    assert isinstance(again, eq.CircleConfig)
    assert again.angles == pytest.approx(circ.angles)


def test_config_csv_lists_positions_and_gaps():
    text = eq.config_to_csv(line([0, 1, 3]))
    rows = text.strip().splitlines()
    assert rows[0].startswith("index,position")
    assert len(rows) == 4


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0.05, 2.0, allow_nan=False), min_size=2, max_size=9),
    st.floats(0.0, TAU, allow_nan=False),
)
def test_circle_gaps_sum_to_full_turn(arcs, rot):
    angles = np.cumsum([0.0] + arcs[:-1])
    total = angles[-1] + arcs[-1]
    angles = (angles / total * TAU + rot) % TAU
    cfg = eq.CircleConfig(angles=tuple(sorted(angles)))
    assert math.fsum(eq.gaps(cfg)) == pytest.approx(TAU, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.05, 2.0, allow_nan=False), min_size=2, max_size=9))
def test_canonicalize_preserves_gap_multiset(arcs):
    angles = np.cumsum([0.0] + arcs[:-1])
    total = angles[-1] + arcs[-1]
    cfg = eq.CircleConfig(angles=tuple(angles / total * TAU))
    canon = eq.canonicalize_circle(cfg)
    assert canon.angles[0] == pytest.approx(0.0, abs=1e-12)
    assert sorted(eq.gaps(canon)) == pytest.approx(sorted(eq.gaps(cfg)), abs=1e-9)
