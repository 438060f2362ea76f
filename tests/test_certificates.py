import math
import warnings

import numpy as np
import pytest

import equilib as eq
from equilib import certificates

COULOMB = eq.InversePowerLaw(2)
TAU = 2.0 * math.pi


def finite_line(window):
    window = tuple(float(p) for p in window)
    g = np.diff(window)
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=float(min(g)) if len(g) else 1.0,
        C=float(max(g)) if len(g) else 1.0,
    )


def trivial_line(n=9, gap=1.0):
    window = tuple(i * gap for i in range(n))
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.arithmetic(first=-gap, gap=gap),
        right_tail=eq.TailModel.arithmetic(first=window[-1] + gap, gap=gap),
        c=gap,
        C=gap,
    )


def widest_gap_line():
    # Unique widest gap [0, 3] inside a periodic surround; every other gap is
    # 1 or 2 on both sides out to infinity.
    return eq.LineConfig(
        window=(-2.0, -1.0, 0.0, 3.0, 5.0, 6.0),
        left_tail=eq.TailModel.periodic(anchor=-3.0, pattern=(1.0, 2.0)),
        right_tail=eq.TailModel.periodic(anchor=7.0, pattern=(1.0, 2.0)),
        c=1.0,
        C=3.0,
    )


def test_widest_gap_yields_pass():
    cert = eq.certify_extremal_gap(widest_gap_line(), COULOMB, 2)
    assert cert.kind == "extremal_gap_line"
    assert cert.verdict == "pass"
    assert cert.details["variant"] == "max"
    assert cert.details["gap_index"] == 2
    assert all(row.satisfied for row in cert.evidence)
    assert any(row.relation == "<" for row in cert.evidence)


def test_widest_gap_pass_agrees_with_side_sums():
    # The chain's conclusion restated directly: the right endpoint of the
    # widest gap feels strictly less from the left than the left endpoint.
    cfg = widest_gap_line()
    f_minus_x = eq.side_forces(cfg, 2, COULOMB)[0]
    f_minus_y = eq.side_forces(cfg, 3, COULOMB)[0]
    assert f_minus_y < f_minus_x


def test_narrowest_gap_yields_pass():
    cfg = eq.LineConfig(
        window=(-2.0, -1.0, 0.0, 0.4, 1.4, 2.4),
        left_tail=eq.TailModel.arithmetic(first=-3.0, gap=1.0),
        right_tail=eq.TailModel.arithmetic(first=3.4, gap=1.0),
        c=0.4,
        C=1.0,
    )
    cert = eq.certify_extremal_gap(cfg, COULOMB, 2)
    assert cert.verdict == "pass"
    assert cert.details["variant"] == "min"


def test_trivial_configuration_is_inapplicable():
    with pytest.raises(eq.Inapplicable):
        eq.certify_extremal_gap(trivial_line(), COULOMB, 3)


def test_non_extremal_index_is_inapplicable():
    with pytest.raises(eq.Inapplicable):
        eq.certify_extremal_gap(widest_gap_line(), COULOMB, 0)


def test_missing_tail_is_inapplicable():
    cfg = eq.LineConfig(
        window=(-2.0, -1.0, 0.0, 3.0, 5.0, 6.0),
        left_tail=eq.TailModel.periodic(anchor=-3.0, pattern=(1.0, 2.0)),
        right_tail=eq.TailModel.none(),
        c=1.0,
        C=3.0,
    )
    with pytest.raises(eq.Inapplicable):
        eq.certify_extremal_gap(cfg, COULOMB, 2)


def test_circle_wrap_arc_yields_pass():
    cfg = eq.CircleConfig(angles=(0.0, 1.0, 2.0, 4.0))
    cert = eq.certify_extremal_gap(cfg, COULOMB, 3)
    assert cert.kind == "extremal_gap_circle"
    assert cert.verdict == "pass"
    assert cert.details["variant"] == "max"
    assert all(row.satisfied for row in cert.evidence)
    # Cross-check: this circle really is out of equilibrium.
    report = eq.circle_residual_report(cfg, COULOMB)
    assert report.max_abs_net > report.max_error_bound


def test_circle_narrowest_arc_yields_pass():
    cfg = eq.CircleConfig(angles=(0.0, 1.0, 2.0, 2.5))
    cert = eq.certify_extremal_gap(cfg, COULOMB, 2)
    assert cert.verdict == "pass"
    assert cert.details["variant"] == "min"


def test_circle_equal_spacing_is_inapplicable():
    cfg = eq.CircleConfig(angles=(0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
    with pytest.raises(eq.Inapplicable):
        eq.certify_extremal_gap(cfg, COULOMB, 0)


def narrowest_gap_line():
    # Minimal gap 0.4 with a 1.0 gap on its left and a 1.5 gap on its right:
    # the strict row is backed by the right side.
    return eq.LineConfig(
        window=(-2.0, -1.0, 0.0, 0.4, 1.9, 2.9),
        left_tail=eq.TailModel.arithmetic(first=-3.0, gap=1.0),
        right_tail=eq.TailModel.periodic(anchor=4.4, pattern=(1.5, 1.0)),
        c=0.4,
        C=1.5,
    )


def test_non_strict_chain_rows_report_their_own_outcome(monkeypatch):
    # With every non-strict comparison failing, every non-strict near and
    # far row must say so, on both geometries and both strict sides.
    monkeypatch.setattr(certificates, "_loose_holds", lambda *args: False)
    cases = [
        (widest_gap_line(), 2),
        (narrowest_gap_line(), 2),
        (eq.CircleConfig(angles=(0.0, 1.0, 2.0, 4.0)), 3),
        (eq.CircleConfig(angles=(0.0, 1.0, 2.0, 2.5)), 2),
    ]
    for cfg, index in cases:
        cert = eq.certify_extremal_gap(cfg, COULOMB, index)
        rows = [
            row
            for row in cert.evidence
            if row.chain in ("near", "far") and row.relation in ("<=", ">=")
        ]
        # A line chain always has its full length; a circle chain may stop
        # at the half circle.
        expect = {"near", "far"} if isinstance(cfg, eq.LineConfig) else {"far"}
        assert {row.chain for row in rows} >= expect
        assert not any(row.satisfied for row in rows), cert.details
        assert cert.verdict == "inconclusive"


def test_law_that_is_not_decreasing_is_inapplicable():
    # The deep chain terms are certified by gap comparisons alone, which
    # presume F decreasing; a bump far out (F(26) > F(24)) must not yield
    # a pass, while the same 1/d^2 samples without it do.
    ds = [0.5] + [float(d) for d in range(1, 23)] + [24.0, 26.0, 28.0, 30.0]
    tail = eq.TabulatedTail("inverse_power", 2.0)
    smooth = eq.TabulatedLaw(tuple((d, d**-2) for d in ds), tail)
    assert eq.certify_extremal_gap(widest_gap_line(), smooth, 2).verdict == "pass"
    fs = [d**-2 for d in ds]
    fs[ds.index(24.0)] = 0.0017
    fs[ds.index(26.0)] = 0.01
    bumped = eq.TabulatedLaw(tuple(zip(ds, fs)), tail)
    assert not eq.verify_law(bumped).strictly_decreasing
    for cfg, index in ((widest_gap_line(), 2), (eq.CircleConfig(angles=(0.0, 1.0, 2.0, 4.0)), 3)):
        with pytest.raises(eq.Inapplicable, match="strictly decreasing"):
            eq.certify_extremal_gap(cfg, bumped, index)


def test_certificate_round_trips_to_json():
    cert = eq.certify_extremal_gap(widest_gap_line(), COULOMB, 2)
    data = cert.to_json_dict()
    assert data["verdict"] == "pass"
    assert data["kind"] == "extremal_gap_line"
    assert len(data["evidence"]) == len(cert.evidence)
    assert {"chain", "lhs", "rhs", "relation", "satisfied"} <= set(data["evidence"][0])


def build_planted_line(rng, variant):
    pattern = tuple(float(g) for g in rng.uniform(0.5, 1.5, size=int(rng.integers(1, 4))))
    reps = int(rng.integers(2, 4))
    side = list(pattern) * reps
    if variant == "max":
        planted = max(pattern) * float(rng.uniform(1.3, 2.5))
    else:
        planted = min(pattern) * float(rng.uniform(0.3, 0.7))
    all_gaps = side + [planted] + side
    window = tuple(np.concatenate([[0.0], np.cumsum(all_gaps)]))
    values = list(pattern) + [planted]
    cfg = eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.periodic(anchor=window[0] - pattern[0], pattern=pattern),
        right_tail=eq.TailModel.periodic(anchor=window[-1] + pattern[0], pattern=pattern),
        c=min(values),
        C=max(values),
    )
    return cfg, len(side)


def build_planted_circle(rng, variant):
    n = int(rng.integers(3, 9))
    arcs = rng.uniform(0.5, 1.5, size=n)
    j = int(rng.integers(0, n))
    if variant == "max":
        arcs[j] = arcs.max() * float(rng.uniform(1.4, 2.0))
    else:
        arcs[j] = arcs.min() * float(rng.uniform(0.3, 0.7))
    arcs *= TAU / arcs.sum()
    angles = tuple(np.concatenate([[0.0], np.cumsum(arcs[:-1])]))
    return eq.CircleConfig(angles=angles), j


def test_planted_extremal_gaps_always_certify():
    """Configurations built around a strictly extremal gap must never come
    back inconclusive: the chain argument applies whenever its hypotheses
    hold, and a pass always coincides with a measurable imbalance."""
    rng = np.random.default_rng(20260814)
    for trial in range(30):
        variant = "max" if trial % 2 == 0 else "min"
        cfg, gap_index = build_planted_line(rng, variant)
        cert = eq.certify_extremal_gap(cfg, COULOMB, gap_index)
        assert cert.verdict == "pass", (trial, cert.conclusion)
        assert all(row.satisfied for row in cert.evidence)
        report = eq.residual_report(cfg, COULOMB)
        assert report.max_abs_net > report.max_error_bound

        circle, arc_index = build_planted_circle(rng, variant)
        cert = eq.certify_extremal_gap(circle, COULOMB, arc_index)
        assert cert.verdict == "pass", (trial, cert.conclusion)
        report = eq.circle_residual_report(circle, COULOMB)
        assert report.max_abs_net > report.max_error_bound


def test_monotone_internal_forces_even_triple():
    cert = eq.check_internal_force_monotonicity(finite_line([0, 1, 2]), COULOMB, (0, 3))
    assert cert.kind == "monotone_internal_forces"
    assert cert.verdict == "pass"
    assert cert.details["forces"] == pytest.approx([-1.25, 0.0, 1.25])
    assert cert.details["first_violation"] is None


def test_monotone_internal_forces_distant_third():
    # Oracle by direct summation: (-(1 + 1/100), 1 - 1/81, 1/100 + 1/81).
    cert = eq.check_internal_force_monotonicity(finite_line([0, 1, 10]), COULOMB, (0, 3))
    assert cert.verdict == "fail"
    assert cert.details["forces"] == pytest.approx(
        [-(1.0 + 0.01), 1.0 - 1.0 / 81.0, 0.01 + 1.0 / 81.0]
    )
    assert cert.details["first_violation"] == [1, 2]


def test_monotone_internal_forces_pair_passes():
    cert = eq.check_internal_force_monotonicity(finite_line([0, 1]), COULOMB, (0, 2))
    assert cert.verdict == "pass"


def test_monotone_window_forms_agree():
    cfg = finite_line([0, 1, 10])
    by_range = eq.check_internal_force_monotonicity(cfg, COULOMB, (0, 3))
    by_list = eq.check_internal_force_monotonicity(cfg, COULOMB, [0, 1, 2])
    assert by_range.verdict == by_list.verdict == "fail"
    sub = eq.check_internal_force_monotonicity(cfg, COULOMB, (1, 3))
    assert sub.verdict == "pass"


def test_monotone_check_is_quiet_at_sub_1e154_gaps():
    # 1/d**2 overflows at these gaps: the rows come back as inf/NaN without
    # a RuntimeWarning, and the verdict cannot be a pass.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = eq.check_internal_force_monotonicity(
            finite_line([0.0, 1e-200, 2e-200, 1.0]), COULOMB, (0, 4)
        )
    assert cert.verdict == "inconclusive"


def test_monotone_check_does_not_pass_on_infinite_bounds():
    # Six particles 0.9e-154 apart under 1/d**2: the end forces are -inf and
    # inf with infinite bounds, and no pair reads as a violation, which
    # returned a pass.
    cert = eq.check_internal_force_monotonicity(
        finite_line([i * 0.9e-154 for i in range(6)]), COULOMB, (0, 6)
    )
    assert all(math.isinf(row.lhs_err) for row in cert.evidence)
    assert cert.verdict == "inconclusive"


def test_extremal_gap_is_quiet_and_inconclusive_at_sub_1e154_gaps():
    # The widest gap of a 1e-200 lattice: every chain force overflows, which
    # warned, and no row can clear its infinite bound.
    g = 1e-200
    cfg = eq.LineConfig((0.0, g, 3 * g, 4 * g), eq.TailModel.arithmetic(-g, g),
                        eq.TailModel.arithmetic(5 * g, g), g, 2 * g)
    assert eq.certify_extremal_gap(cfg, COULOMB, 1).verdict == "inconclusive"


def rule_verdict(cert):
    """The verdict and first violation that the rows imply, by the rule the
    certificates module states for the certificate's kind."""
    rows = cert.evidence
    if cert.kind == "monotone_internal_forces":
        bad = [row for row in rows if not row.satisfied]
        if bad:
            return "fail", [bad[0].term, bad[0].term + 1]
        unsure = any(row.rhs < row.lhs or not math.isfinite(row.lhs_err)
                     or not math.isfinite(row.rhs_err) for row in rows)
        return ("inconclusive" if unsure else "pass"), None
    if any(row.chain.startswith("into_gap_") for row in rows):
        passed = any(row.satisfied for row in rows)
    else:
        passed = (any(row.relation in ("<", ">") for row in rows)
                  and all(row.satisfied for row in rows))
    return ("pass" if passed else "inconclusive"), None


RULE_LAWS = (
    COULOMB,
    eq.InversePowerLaw(3),
    eq.StretchedExponentialLaw(1.0),
    eq.TabulatedLaw(tuple((d, d**-2) for d in (0.25 * 2**k for k in range(6))),
                    eq.TabulatedTail("inverse_power", 2.0)),
)


def near_antipodal_ring(eps):
    return eq.CircleConfig(angles=(0.0, math.pi - eps))


def verdict_rule_corpus():
    """Line and circle certificates of maximal and minimal gaps and
    monotonicity checks over RULE_LAWS, from a fixed seed, then the cases
    the rules single out: near-antipodal rings, a line lattice at 1e-200 and
    a window whose forces are not separated."""
    rng = np.random.default_rng(20261020)

    def weights(count):
        w = rng.choice([1.0, 1.5, 2.0, 3.0], size=count)
        return w * (1.0 + rng.uniform(-1e-3, 1e-3, size=count)) if rng.random() < 0.5 else w

    for law in RULE_LAWS:
        for _ in range(20):
            width = rng.choice([0.0, 3.0, 200.0], p=[0.5, 0.25, 0.25])  # decades of scale
            unit = float(10.0 ** rng.uniform(-width, width))
            gs = (unit * weights(int(rng.integers(1, 8)))).tolist()
            window = np.cumsum([0.0] + gs).tolist()
            left_gap, right_gap = (float(g) for g in rng.choice(gs, size=2))
            cfg = eq.LineConfig(window, eq.TailModel.arithmetic(window[0] - left_gap, left_gap),
                                eq.TailModel.arithmetic(window[-1] + right_gap, right_gap),
                                min(gs), max(gs))
            w = weights(int(rng.integers(2, 9)))
            circle = eq.CircleConfig(tuple(TAU * np.cumsum([0.0, *w[:-1]]) / w.sum()))
            cases = [(cfg, int(np.argmax(gs))), (cfg, int(np.argmin(gs))),
                     (circle, int(np.argmax(w))), (circle, int(np.argmin(w)))]
            for config, index in cases:
                try:
                    yield eq.certify_extremal_gap(config, law, index)
                except (eq.Inapplicable, eq.DomainError):
                    pass
            start = int(rng.integers(len(window) - 1))
            try:
                yield eq.check_internal_force_monotonicity(
                    finite_line(window), law, (start, len(window)))
            except eq.DomainError:
                pass
        for eps in (1e-10, 1e-9, 4e-9, 6e-9, 1e-6):
            for index in (0, 1):
                yield eq.certify_extremal_gap(near_antipodal_ring(eps), law, index)
    g = 1e-200
    yield eq.certify_extremal_gap(
        eq.LineConfig((0.0, g, 3 * g, 4 * g), eq.TailModel.arithmetic(-g, g),
                      eq.TailModel.arithmetic(5 * g, g), g, 2 * g), COULOMB, 1)
    yield eq.check_internal_force_monotonicity(
        finite_line([i * 0.9e-154 for i in range(6)]), COULOMB, (0, 6))
    # The internal forces on particles 1 and 2 of this window round to
    # 0.5775846953935722 and 0.5775846953935709: a decrease of 1.3e-15
    # against bounds of 1.8e-15 each.
    yield eq.check_internal_force_monotonicity(
        finite_line([0.0, 1.0, 2.5386157635491773]), COULOMB, (0, 3))


def test_verdicts_follow_the_stated_rules():
    seen = set()
    for cert in verdict_rule_corpus():
        assert (cert.verdict, cert.details.get("first_violation")) == rule_verdict(cert), (
            cert.kind, cert.details)
        seen.add((cert.kind, cert.verdict))
    assert seen == {
        (kind, verdict)
        for kind in ("extremal_gap_line", "extremal_gap_circle")
        for verdict in ("pass", "inconclusive")
    } | {("monotone_internal_forces", v) for v in ("pass", "inconclusive", "fail")}


@pytest.mark.parametrize("eps", [1e-10, 1e-9, 4e-9, 6e-9, 1e-6])
def test_rings_inside_the_antipodal_band_are_inconclusive(eps):
    # Both arcs of the ring (0, pi - eps) lie within ANTIPODAL_BAND of pi
    # when eps is below it: both summands of the strict row drop out, and
    # the minimal arc's remaining rows, all satisfied, must not pass.
    for law in RULE_LAWS:
        for index in (0, 1):
            cert = eq.certify_extremal_gap(near_antipodal_ring(eps), law, index)
            expect = "inconclusive" if eps < eq.ANTIPODAL_BAND else "pass"
            assert cert.verdict == expect, (law, index)
            assert rule_verdict(cert) == (expect, None)


def test_monotone_window_must_be_consecutive():
    with pytest.raises(eq.InvalidInput):
        eq.check_internal_force_monotonicity(finite_line([0, 1, 10]), COULOMB, [0, 2])


def test_gap_ratio_values():
    assert eq.gap_ratio_report(trivial_line()).details["max_ratio"] == 1.0
    assert eq.gap_ratio_report(finite_line([0, 1, 3])).details["max_ratio"] == 2.0
    cert = eq.gap_ratio_report(finite_line([0, 2, 3, 9]))
    assert cert.kind == "gap_ratio"
    assert cert.verdict == "pass"
    assert cert.details["max_ratio"] == 6.0
    assert sorted(cert.details["pair"]) == [1, 2]


def test_gap_ratio_circle_uses_cyclic_pairs():
    cert = eq.gap_ratio_report(eq.CircleConfig(angles=(0.0, 1.0, 2.0, 4.0)))
    # The wrap arc sits next to an arc of length 1.
    assert cert.details["max_ratio"] == pytest.approx(TAU - 4.0)


def test_gap_ratio_needs_three_particles():
    with pytest.raises(eq.InvalidInput):
        eq.gap_ratio_report(finite_line([0, 1]))


def test_detect_periodic_tail_trivial():
    found = eq.detect_periodic_tail(trivial_line(14))
    assert found is not None
    assert found.period == 1
    assert found.pattern == pytest.approx((1.0,))


def test_detect_periodic_tail_alternating():
    gaps = [1.0, 2.0] * 7
    window = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
    cfg = eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=1.0,
        C=2.0,
    )
    found = eq.detect_periodic_tail(cfg, side="right")
    assert found is not None
    assert found.period == 2
    assert sorted(found.pattern) == pytest.approx([1.0, 2.0])
    data = found.to_json_dict()
    assert data["kind"] == "periodic_tail"
    assert data["period"] == 2


def test_detect_periodic_tail_aperiodic_is_none():
    gaps = [1.0 + 0.1 / (k + 1) for k in range(14)]
    window = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
    cfg = eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=1.0,
        C=1.2,
    )
    assert eq.detect_periodic_tail(cfg) is None
