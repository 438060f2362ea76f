"""certify_extremal_gap evidence rows against a 50-digit oracle.

Each near and far row pairs two forces.  The oracle re-derives both
distances from the configuration alone (exact tail positions on the line,
exact arcs between the float angles on the circle), evaluates F in mpmath,
and checks that each float lies within its stated error of the exact value
and that `satisfied` is the row's relation applied with those errors.
"""

import mpmath as mp
import numpy as np
import pytest
from test_certificates import build_planted_circle, build_planted_line
from test_residual_oracle import LAWS, exact_force

import equilib as eq
from equilib.residuals import ANTIPODAL_BAND

CONFIGS_PER_LAW = 50


def exact_beyond(cfg, index, side, count):
    """Exact positions of `count` particles beyond window[index] on `side`."""
    if side == "left":
        out, tail, sign = list(cfg.window[:index][::-1]), cfg.left_tail, -1
    else:
        out, tail, sign = list(cfg.window[index + 1 :]), cfg.right_tail, 1
    out = [mp.mpf(p) for p in out]
    steps = (tail.gap,) if tail.kind == "arithmetic" else tail.pattern
    p = mp.mpf(tail.first)
    for k in range(count):
        out.append(p)
        p += sign * mp.mpf(steps[k % len(steps)])
    return out[:count]


def line_distances(cert, cfg):
    """{(chain, term): (exact lhs distance, exact rhs distance)}."""
    gi, side = cert.details["gap_index"], cert.details["strict_side"]
    other = "right" if side == "left" else "left"
    ends = {"left": gi, "right": gi + 1}
    s, o = (mp.mpf(cfg.window[ends[k]]) for k in (side, other))
    out = {}
    for chain, own, across, end in (("near", s, o, side), ("far", o, s, other)):
        src = exact_beyond(cfg, ends[end], end, 20)
        for j in range(len(src)):
            out[chain, j] = (abs(across - (own if j == 0 else src[j - 1])), abs(own - src[j]))
    return out


def circle_distances(cert, cfg):
    n, gi = cfg.n, cert.details["gap_index"]
    theta = [mp.mpf(a) for a in cfg.angles]
    two_pi = 2 * mp.pi
    s_idx, o_idx = cert.details["strict_endpoint"], cert.details["other_endpoint"]
    # Walking away from the gap: clockwise (decreasing index) from the arc's
    # first endpoint, counterclockwise from its second.
    step = {gi: -1, (gi + 1) % n: 1}

    def arc(a, b, direction):
        return ((theta[b] - theta[a]) * direction) % two_pi

    out = {}
    for chain, own, across in (("near", s_idx, o_idx), ("far", o_idx, s_idx)):
        d = step[own]
        src = [(own + d * (k + 1)) % n for k in range(n - 2)]
        for j in range(max(len(src), 1)):
            lhs = arc(across, own, d) if j == 0 else arc(across, src[j - 1], d)
            rhs = arc(own, src[j], d) if j < len(src) else mp.inf
            out[chain, j] = (lhs, rhs)
    return out


def holds(row):
    lhs, le, rhs, re_ = row.lhs, row.lhs_err, row.rhs, row.rhs_err
    return {
        "<": lhs + le < rhs - re_,
        "<=": lhs - le <= rhs + re_,
        ">": lhs - le > rhs + re_,
        ">=": lhs + le >= rhs - re_,
    }[row.relation]


@pytest.mark.parametrize("law_name", list(LAWS))
def test_evidence_rows_within_bound_of_exact(law_name):
    law = LAWS[law_name]
    rng = np.random.default_rng([7, list(LAWS).index(law_name)])
    violations, worst, checked = [], 0.0, 0
    for trial in range(CONFIGS_PER_LAW):
        variant = "max" if trial % 2 == 0 else "min"
        cfg, gi = build_planted_line(rng, variant)
        circle, ai = build_planted_circle(rng, variant)
        for config, index, distances in (
            (cfg, gi, line_distances),
            (circle, ai, circle_distances),
        ):
            cert = eq.certify_extremal_gap(config, law, index)
            exact = distances(cert, config)
            for row in cert.evidence:
                if row.chain not in ("near", "far"):
                    continue
                # A dropped summand on the side that must dominate fails its row.
                unpaired = False
                for value, err, d, must_dominate in (
                    (row.lhs, row.lhs_err, exact[row.chain, row.term][0], row.relation[0] == ">"),
                    (row.rhs, row.rhs_err, exact[row.chain, row.term][1], row.relation[0] == "<"),
                ):
                    checked += 1
                    if row.note == "dropped antipodal term" and value == 0.0 and err == 0.0:
                        # An absent summand lies at or beyond the antipode.
                        assert d >= mp.pi - ANTIPODAL_BAND - mp.mpf(1e-12), (cert.details, row)
                        unpaired |= must_dominate
                        continue
                    miss = abs(mp.mpf(value) - exact_force(law, d))
                    ratio = float(miss / err) if err > 0 else (0.0 if miss == 0 else np.inf)
                    worst = max(worst, ratio)
                    if ratio > 1.0:
                        violations.append((config, index, row, ratio))
                assert row.satisfied == (not unpaired and holds(row)), (cert.details, row)
    assert checked > 1000
    assert not violations, f"{len(violations)} values outside their bound, worst ratio {worst:.3g}"
