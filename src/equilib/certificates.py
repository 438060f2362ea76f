"""Machine-checkable certificates for non-equilibrium and gap structure.

The extremal-gap certificate turns the comparison argument into data: the
two force sums around an extremal gap are paired term by term, each pair
is recorded with certified rounding errors, and the verdict is "pass"
only when the one strict inequality clears its error margins.  A pass is
a witness that the two particles spanning the gap cannot both be in
equilibrium.  Fail is never emitted by that certificate: when the
hypotheses hold the chain is a theorem, so the only honest alternatives
are "inconclusive" (floating point cannot separate the sides) and the
:class:`~equilib.errors.Inapplicable` error (hypotheses absent).

Evidence rows carry plain numbers so a checker can recompute every row
from the configuration and the law alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import (
    CircleConfig,
    LineConfig,
    TailModel,
    extremal_gaps,
)
from .errors import Inapplicable, InvalidInput
from .force_laws import ForceLaw
from .residuals import ANTIPODAL_BAND, _certified_rows

__all__ = [
    "Certificate",
    "EvidenceRow",
    "PeriodicTail",
    "certify_extremal_gap",
    "check_internal_force_monotonicity",
    "gap_ratio_report",
    "detect_periodic_tail",
]

_EPS = float(np.finfo(float).eps)

# Explicit comparison rows emitted per chain; deeper terms are covered by
# the structural gap rows, which certify every remaining pair at once.
_CHAIN_ROWS = 10


@dataclass(frozen=True)
class EvidenceRow:
    """One independently re-checkable comparison.

    `relation` is the claimed ordering of lhs vs rhs; `satisfied` records
    whether the claim holds with the stored error bounds (strict relations
    need lhs + lhs_err < rhs - rhs_err, non-strict ones are allowed to
    touch within the combined error).
    """

    chain: str
    term: int
    lhs: float
    rhs: float
    relation: str
    lhs_err: float = 0.0
    rhs_err: float = 0.0
    satisfied: bool = True
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain,
            "term": self.term,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "lhs_err": self.lhs_err,
            "rhs_err": self.rhs_err,
            "satisfied": self.satisfied,
            "note": self.note,
        }


@dataclass(frozen=True)
class Certificate:
    kind: str
    verdict: str
    conclusion: str
    evidence: tuple[EvidenceRow, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "conclusion": self.conclusion,
            "details": dict(self.details),
            "evidence": [row.to_json_dict() for row in self.evidence],
        }


def _feval(law: ForceLaw, d: float, d_err: float) -> tuple[float, float]:
    """F(d) with an error bound covering d_err and evaluation rounding."""
    f = law.force(d)
    slope = abs(law.force_derivative(d))
    return f, slope * d_err + 4.0 * _EPS * abs(f)


def _dist_err(a: float, b: float) -> float:
    return 8.0 * _EPS * (abs(a) + abs(b))


def _strict_holds(lhs: float, le: float, rhs: float, re_: float, reverse: bool) -> bool:
    if reverse:
        return lhs - le > rhs + re_
    return lhs + le < rhs - re_


def _loose_holds(lhs: float, le: float, rhs: float, re_: float, reverse: bool) -> bool:
    if reverse:
        return lhs + le >= rhs - re_
    return lhs - le <= rhs + re_


# ---------------------------------------------------------------------------
# Extremal-gap certificates
# ---------------------------------------------------------------------------


def _reflect_tail(tail: TailModel) -> TailModel:
    if tail.is_none:
        return tail
    if tail.kind == "arithmetic":
        return TailModel.arithmetic(-tail.first, tail.gap)
    return TailModel.periodic(-tail.first, tail.pattern)


def _reflect_line(config: LineConfig) -> LineConfig:
    window = tuple(-p for p in reversed(config.window))
    return LineConfig(
        window,
        _reflect_tail(config.right_tail),
        _reflect_tail(config.left_tail),
        config.c,
        config.C,
    )


def _left_sources(config: LineConfig, index: int, count: int) -> list[float]:
    """Positions of `count` particles left of window[index], nearest first."""
    out = [config.window[i] for i in range(index - 1, -1, -1)]
    if len(out) < count and not config.left_tail.is_none:
        out.extend(config.left_tail.positions("left", count - len(out)).tolist())
    return out[:count]


def _right_sources(config: LineConfig, index: int, count: int) -> list[float]:
    out = [config.window[i] for i in range(index + 1, config.n)]
    if len(out) < count and not config.right_tail.is_none:
        out.extend(config.right_tail.positions("right", count - len(out)).tolist())
    return out[:count]


def _distinct_gap_rows(values: list[float], extremal: float, reverse: bool) -> list[EvidenceRow]:
    """One exact comparison per distinct gap value against the extremal gap.

    These rows certify every chain term beyond the explicitly evaluated
    ones: each deep comparison reduces to `some gap <= max gap` (resp.
    >= min gap), which is an exact float comparison of stored values.
    """
    rows = []
    rel = ">=" if reverse else "<="
    for i, v in enumerate(sorted(set(values))):
        ok = (v >= extremal) if reverse else (v <= extremal)
        rows.append(
            EvidenceRow(
                chain="gap_bounds",
                term=i,
                lhs=v,
                rhs=extremal,
                relation=rel,
                satisfied=ok,
                note="distinct gap value vs extremal gap",
            )
        )
    return rows


def _line_gap_multiset(config: LineConfig) -> list[float]:
    values = list(config.window_gaps())
    for side in ("left", "right"):
        j = config.junction_gap(side)
        if j is not None:
            values.append(j)
    values.extend(config.left_tail.gap_values())
    values.extend(config.right_tail.gap_values())
    return values


def _certify_line_gap(config: LineConfig, law: ForceLaw, gap_index: int) -> Certificate:
    gaps_w = config.window_gaps()
    if not gaps_w:
        raise Inapplicable("the window holds a single particle: no gap to certify")
    if not 0 <= gap_index < len(gaps_w):
        raise InvalidInput(
            f"gap_index {gap_index} out of range for {len(gaps_w)} window gaps"
        )
    ext = extremal_gaps(config)
    g = gaps_w[gap_index]
    if g == ext.max_value:
        reverse = False
    elif g == ext.min_value:
        reverse = True
    else:
        raise Inapplicable(
            f"window gap {gap_index} ({g!r}) is neither the maximal gap "
            f"({ext.max_value!r}) nor the minimal gap ({ext.min_value!r})"
        )
    if config.left_tail.is_none or config.right_tail.is_none:
        raise Inapplicable(
            "the termwise comparison pairs the two infinite force sums "
            "one-to-one, which needs particles on both sides without end; "
            "a missing tail leaves an unpaired term"
        )

    left_adj = gaps_w[gap_index - 1] if gap_index >= 1 else config.junction_gap("left")
    right_adj = (
        gaps_w[gap_index + 1]
        if gap_index + 1 < len(gaps_w)
        else config.junction_gap("right")
    )
    if reverse:
        candidates = [(v, s) for v, s in ((left_adj, "left"), (right_adj, "right")) if v > g]
        if not candidates:
            raise Inapplicable(
                "no adjacent gap strictly larger than the minimal gap "
                "(around this gap the configuration is locally arithmetic)"
            )
        side = max(candidates)[1]
    else:
        candidates = [(v, s) for v, s in ((left_adj, "left"), (right_adj, "right")) if v < g]
        if not candidates:
            raise Inapplicable(
                "no adjacent gap strictly smaller than the maximal gap "
                "(around this gap the configuration is locally arithmetic)"
            )
        side = min(candidates)[1]

    work = config
    work_index = gap_index
    orientation = "as-is"
    if side == "right":
        work = _reflect_line(config)
        work_index = len(gaps_w) - 1 - gap_index
        orientation = "reflected"

    x = work.window[work_index]
    y = work.window[work_index + 1]
    big = y - x
    ws = _left_sources(work, work_index, _CHAIN_ROWS + 1)
    zs = _right_sources(work, work_index + 1, _CHAIN_ROWS + 1)

    rows: list[EvidenceRow] = []
    all_ok = True

    # Near chain: forces from the strict side, compared at y vs at x.
    f_big, e_big = _feval(law, big, _dist_err(x, y))
    f_adj, e_adj = _feval(law, x - ws[0], _dist_err(x, ws[0]))
    strict_ok = _strict_holds(f_big, e_big, f_adj, e_adj, reverse)
    rows.append(
        EvidenceRow(
            chain="near",
            term=0,
            lhs=f_big,
            rhs=f_adj,
            relation=">" if reverse else "<",
            lhs_err=e_big,
            rhs_err=e_adj,
            satisfied=strict_ok,
            note="force across the gap vs force from the nearest strict-side source",
        )
    )
    for j in range(1, min(_CHAIN_ROWS, len(ws))):
        lhs, le = _feval(law, y - ws[j - 1], _dist_err(y, ws[j - 1]))
        rhs, re_ = _feval(law, x - ws[j], _dist_err(x, ws[j]))
        ok = _loose_holds(lhs, le, rhs, re_, reverse)
        all_ok &= ok
        rows.append(
            EvidenceRow(
                chain="near",
                term=j,
                lhs=lhs,
                rhs=rhs,
                relation=">=" if reverse else "<=",
                lhs_err=le,
                rhs_err=re_,
                satisfied=ok,
            )
        )

    # Far chain: forces from the other side, compared at x vs at y.
    rhs0, re0 = _feval(law, zs[0] - y, _dist_err(y, zs[0]))
    ok = _loose_holds(f_big, e_big, rhs0, re0, reverse)
    all_ok &= ok
    rows.append(
        EvidenceRow(
            chain="far",
            term=0,
            lhs=f_big,
            rhs=rhs0,
            relation=">=" if reverse else "<=",
            lhs_err=e_big,
            rhs_err=re0,
            satisfied=ok,
            note="force across the gap vs force from the nearest far-side source",
        )
    )
    for j in range(1, min(_CHAIN_ROWS, len(zs))):
        lhs, le = _feval(law, zs[j - 1] - x, _dist_err(x, zs[j - 1]))
        rhs, re_ = _feval(law, zs[j] - y, _dist_err(y, zs[j]))
        ok = _loose_holds(lhs, le, rhs, re_, reverse)
        all_ok &= ok
        rows.append(
            EvidenceRow(
                chain="far",
                term=j,
                lhs=lhs,
                rhs=rhs,
                relation=">=" if reverse else "<=",
                lhs_err=le,
                rhs_err=re_,
            )
        )

    gap_rows = _distinct_gap_rows(_line_gap_multiset(config), g, reverse)
    structure_ok = all(r.satisfied for r in gap_rows)
    rows.extend(gap_rows)

    verdict = "pass" if (strict_ok and all_ok and structure_ok) else "inconclusive"
    kind_word = "minimal" if reverse else "maximal"
    if verdict == "pass":
        conclusion = (
            f"the particles spanning {kind_word} window gap {gap_index} cannot both "
            "be in equilibrium: the one-sided force comparison is strict at the "
            "first term and termwise weak everywhere else"
        )
    else:
        conclusion = (
            "floating-point error margins cannot separate the strict comparison; "
            "no conclusion"
        )
    return Certificate(
        kind="extremal_gap_line",
        verdict=verdict,
        conclusion=conclusion,
        evidence=tuple(rows),
        details={
            "gap_index": gap_index,
            "gap_value": g,
            "variant": "min" if reverse else "max",
            "orientation": orientation,
            "strict_side": side,
        },
    )


def _circle_chain_rows(
    law: ForceLaw,
    big: float,
    away: np.ndarray,
    chain: str,
    strict: bool,
    reverse: bool,
) -> tuple[list[EvidenceRow], bool, bool, int, int]:
    """Rows pairing the two half-circle sums around one gap endpoint.

    `away` lists cumulative arcs from the endpoint to successive sources on
    its non-gap side.  Sources beyond the half circle leave the sum;
    sources within ANTIPODAL_BAND of the antipode contribute zero, which
    is recorded as a dropped (zero) side of the row.  Returns rows, the
    strict-row outcome, the non-strict outcome, and the two summand counts
    (across-the-gap sum first).
    """
    half = math.pi

    def present(u: float) -> bool:
        return u < half - ANTIPODAL_BAND

    rows: list[EvidenceRow] = []
    count_y = 1 if present(big) else 0  # the across-the-gap term
    count_x = 0
    strict_ok = True
    strict_seen = not strict
    all_ok = True

    f_big, e_big = _feval(law, big, 16.0 * _EPS)
    for j in range(max(len(away), 1)):
        u_rhs = float(away[j]) if j < len(away) else math.inf
        u_lhs = big if j == 0 else big + float(away[j - 1])
        if j > 0 and u_rhs >= half and u_lhs >= half:
            break
        d_err = 16.0 * _EPS * (j + 2)
        rhs_present = present(u_rhs)
        lhs_present = present(u_lhs)
        if rhs_present:
            count_x += 1
        if j > 0 and lhs_present:
            count_y += 1
        if not rhs_present and not lhs_present:
            continue
        if j == 0:
            lhs, le = (f_big, e_big) if lhs_present else (0.0, 0.0)
        else:
            lhs, le = _feval(law, u_lhs, d_err) if lhs_present else (0.0, 0.0)
        rhs, re_ = _feval(law, u_rhs, d_err) if rhs_present else (0.0, 0.0)
        if not rhs_present and lhs_present and not reverse:
            # Cannot happen when every arc is below the maximal one; treat
            # defensively as an unseparated row.
            ok = False
        elif not lhs_present and rhs_present and reverse:
            ok = False
        elif j == 0 and strict:
            ok = _strict_holds(lhs, le, rhs, re_, reverse)
        else:
            ok = _loose_holds(lhs, le, rhs, re_, reverse)
        if j == 0 and strict:
            strict_ok = ok
            strict_seen = True
        else:
            all_ok &= ok
        relation = (">" if j == 0 and strict else ">=") if reverse else (
            "<" if j == 0 and strict else "<="
        )
        rows.append(
            EvidenceRow(
                chain=chain,
                term=j,
                lhs=lhs,
                rhs=rhs,
                relation=relation,
                lhs_err=le,
                rhs_err=re_,
                satisfied=ok,
                note="dropped antipodal term" if not (lhs_present and rhs_present) else "",
            )
        )
    return rows, strict_ok and strict_seen, all_ok, count_y, count_x


def _certify_circle_gap(config: CircleConfig, law: ForceLaw, gap_index: int) -> Certificate:
    arcs = config.arc_gaps()
    n = config.n
    if not 0 <= gap_index < len(arcs):
        raise InvalidInput(f"gap_index {gap_index} out of range for {len(arcs)} arcs")
    ext = extremal_gaps(config)
    big = arcs[gap_index]
    if big == ext.max_value:
        reverse = False
    elif big == ext.min_value:
        reverse = True
    else:
        raise Inapplicable(
            f"arc {gap_index} ({big!r}) is neither the maximal arc "
            f"({ext.max_value!r}) nor the minimal arc ({ext.min_value!r})"
        )
    prev_arc = arcs[(gap_index - 1) % n]
    next_arc = arcs[(gap_index + 1) % n]
    if reverse:
        candidates = [(v, s) for v, s in ((prev_arc, "cw"), (next_arc, "ccw")) if v > big]
    else:
        candidates = [(v, s) for v, s in ((prev_arc, "cw"), (next_arc, "ccw")) if v < big]
    if not candidates:
        word = "larger" if reverse else "smaller"
        raise Inapplicable(
            f"no arc adjacent to arc {gap_index} is strictly {word}; "
            "with all arcs equal the configuration is the equally spaced one"
        )
    side = (max(candidates) if reverse else min(candidates))[1]

    # Cumulative arcs from each gap endpoint to successive sources on its
    # non-gap side.  `strict_end` is the endpoint whose adjacent arc backs
    # the strict row.  The final cumulative step walks the non-gap way
    # around to the opposite endpoint; across-the-gap forces are handled
    # by the F(big) terms, so the pairing chains drop that step.
    steps = np.array(arcs, dtype=float)
    if side == "cw":
        full_strict = np.cumsum([steps[(gap_index - k) % n] for k in range(1, n)])
        full_other = np.cumsum([steps[(gap_index + k) % n] for k in range(1, n)])
        strict_end, other_end = gap_index, (gap_index + 1) % n
    else:
        full_strict = np.cumsum([steps[(gap_index + k) % n] for k in range(1, n)])
        full_other = np.cumsum([steps[(gap_index - k) % n] for k in range(1, n)])
        strict_end, other_end = (gap_index + 1) % n, gap_index
    away_strict = full_strict[: n - 2]
    away_other = full_other[: n - 2]

    details = {
        "gap_index": gap_index,
        "gap_value": big,
        "variant": "min" if reverse else "max",
        "strict_side": side,
        "strict_endpoint": strict_end,
        "other_endpoint": other_end,
    }

    # Wide-gap branch: the gap spans at least the half circle minus the
    # antipodal band, so every other particle (the opposite endpoint
    # included, reached the short way around) either sits in the band or
    # pushes the endpoint into the gap, and nothing pushes out of it.  A
    # single certified positive term witnesses non-equilibrium.
    if not reverse and big >= math.pi - ANTIPODAL_BAND:
        rows: list[EvidenceRow] = []
        pushed = False
        for endpoint, away in (("strict", full_strict), ("other", full_other)):
            for j, u in enumerate(np.asarray(away, dtype=float)):
                u = float(u)
                if u >= math.pi - ANTIPODAL_BAND:
                    continue
                f, fe = _feval(law, u, 16.0 * _EPS * (j + 2))
                ok = f - fe > 0.0
                pushed |= ok
                rows.append(
                    EvidenceRow(
                        chain=f"into_gap_{endpoint}",
                        term=j,
                        lhs=0.0,
                        rhs=f,
                        relation="<",
                        rhs_err=fe,
                        satisfied=ok,
                        note="all sources lie on the half circle facing the gap",
                    )
                )
        verdict = "pass" if pushed else "inconclusive"
        conclusion = (
            "the gap spans at least a half circle, so every source pushes the "
            "gap endpoints into the gap; equilibrium there is impossible"
            if verdict == "pass"
            else "every source is antipodal within the band; no conclusion"
        )
        return Certificate(
            kind="extremal_gap_circle",
            verdict=verdict,
            conclusion=conclusion,
            evidence=tuple(rows),
            details=details,
        )

    near_rows, strict_ok, near_ok, cy, cx = _circle_chain_rows(
        law, big, away_strict, "near", True, reverse
    )
    far_rows, _, far_ok, fy, fx = _circle_chain_rows(
        law, big, away_other, "far", False, reverse
    )
    near_counts = (cy, cx) if not reverse else (cx, cy)
    far_counts = (fy, fx) if not reverse else (fx, fy)
    count_rows = [
        EvidenceRow(
            chain="counts",
            term=0,
            lhs=float(near_counts[0]),
            rhs=float(near_counts[1]),
            relation="<=",
            satisfied=near_counts[0] <= near_counts[1],
            note="every dominated near-chain summand has a partner",
        ),
        EvidenceRow(
            chain="counts",
            term=1,
            lhs=float(far_counts[0]),
            rhs=float(far_counts[1]),
            relation="<=",
            satisfied=far_counts[0] <= far_counts[1],
            note="every dominated far-chain summand has a partner",
        ),
    ]
    gap_rows = _distinct_gap_rows(list(arcs), big, reverse)
    structure_ok = all(r.satisfied for r in gap_rows)
    counts_ok = all(r.satisfied for r in count_rows)
    rows = near_rows + far_rows + count_rows + gap_rows
    verdict = (
        "pass"
        if (strict_ok and near_ok and far_ok and counts_ok and structure_ok)
        else "inconclusive"
    )
    kind_word = "minimal" if reverse else "maximal"
    conclusion = (
        f"the particles spanning {kind_word} arc {gap_index} cannot both be in "
        "equilibrium: the half-circle force comparison is strict at the first "
        "term and termwise weak everywhere else"
        if verdict == "pass"
        else "floating-point error margins cannot separate the strict comparison; "
        "no conclusion"
    )
    return Certificate(
        kind="extremal_gap_circle",
        verdict=verdict,
        conclusion=conclusion,
        evidence=tuple(rows),
        details=details,
    )


def certify_extremal_gap(
    config: LineConfig | CircleConfig, law: ForceLaw, gap_index: int
) -> Certificate:
    """Certify that an extremal gap witnesses non-equilibrium.

    `gap_index` names a window gap (line) or a cyclic arc (circle) that
    realizes the configuration's maximal or minimal gap.  Raises
    Inapplicable when the gap is not extremal, when no adjacent gap is
    strictly smaller (resp. larger), or when a line configuration lacks a
    tail on either side.
    """
    if isinstance(config, CircleConfig):
        return _certify_circle_gap(config, law, int(gap_index))
    if isinstance(config, LineConfig):
        return _certify_line_gap(config, law, int(gap_index))
    raise InvalidInput("certify_extremal_gap expects a line or circle configuration")


# ---------------------------------------------------------------------------
# Internal-force monotonicity
# ---------------------------------------------------------------------------


def _normalize_window_range(window_range, n: int) -> list[int]:
    if isinstance(window_range, tuple) and len(window_range) == 2:
        start, stop = int(window_range[0]), int(window_range[1])
        idx = list(range(start, stop))
    else:
        idx = [int(i) for i in window_range]
    if len(idx) < 2:
        raise InvalidInput("window_range must select at least two particles")
    if any(b - a != 1 for a, b in zip(idx, idx[1:])):
        raise InvalidInput("window_range must select consecutive particles")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInput(f"window_range {idx[0]}..{idx[-1]} outside window of {n}")
    return idx


def check_internal_force_monotonicity(
    config: LineConfig, law: ForceLaw, window_range
) -> Certificate:
    """Check that the signed forces from inside a window block are monotone.

    For each selected particle, sums the rightward force exerted by the
    other selected particles only (tails and outside particles excluded);
    the sequence must be nondecreasing left to right.  The forces and their
    error bounds come from the certified summation behind residual_report.
    `window_range` is a (start, stop) half-open pair or an explicit run of
    consecutive window indices.
    """
    if not isinstance(config, LineConfig):
        raise InvalidInput("internal-force monotonicity applies to line configurations")
    idx = _normalize_window_range(window_range, config.n)
    pos = np.array([config.window[i] for i in idx])
    _, _, net, err = _certified_rows(law, pos, pos, None, None, 0.0)
    forces = (-net).tolist()
    errs = err.tolist()

    rows: list[EvidenceRow] = []
    violation: tuple[int, int] | None = None
    ambiguous = False
    for k in range(len(pos) - 1):
        lhs, le = forces[k], errs[k]
        rhs, re_ = forces[k + 1], errs[k + 1]
        certified_violation = rhs + re_ < lhs - le
        ok = not certified_violation
        if certified_violation and violation is None:
            violation = (idx[k], idx[k + 1])
        if not certified_violation and rhs < lhs:
            ambiguous = True
        rows.append(
            EvidenceRow(
                chain="internal_forces",
                term=idx[k],
                lhs=lhs,
                rhs=rhs,
                relation="<=",
                lhs_err=le,
                rhs_err=re_,
                satisfied=ok,
            )
        )

    if violation is not None:
        verdict = "fail"
        conclusion = (
            f"internal forces decrease from particle {violation[0]} to "
            f"{violation[1]} beyond certified error"
        )
    elif ambiguous:
        verdict = "inconclusive"
        conclusion = "an adjacent pair is not separated beyond certified error"
    else:
        verdict = "pass"
        conclusion = "internal forces are monotone nondecreasing left to right"
    return Certificate(
        kind="monotone_internal_forces",
        verdict=verdict,
        conclusion=conclusion,
        evidence=tuple(rows),
        details={
            "window_indices": idx,
            "forces": forces,
            "first_violation": list(violation) if violation else None,
        },
    )


# ---------------------------------------------------------------------------
# Gap-ratio report and periodic-tail detection
# ---------------------------------------------------------------------------


def gap_ratio_report(config: LineConfig | CircleConfig) -> Certificate:
    """Largest ratio between consecutive gaps, both orientations.

    Purely descriptive: the report never fails; the magnitude of the
    ratio is the point.  Needs at least three particles.
    """
    if isinstance(config, CircleConfig):
        gs = list(config.arc_gaps())
        pairs = [(i, (i + 1) % len(gs)) for i in range(len(gs))]
    else:
        gs = list(config.window_gaps())
        pairs = [(i, i + 1) for i in range(len(gs) - 1)]
    if len(gs) < 2:
        raise InvalidInput("gap ratios need at least three particles")
    rows: list[EvidenceRow] = []
    best = 0.0
    best_pair = pairs[0]
    for i, j in pairs:
        r = max(gs[i] / gs[j], gs[j] / gs[i])
        if r > best:
            best = r
            best_pair = (i, j)
        rows.append(
            EvidenceRow(
                chain="gap_ratios",
                term=i,
                lhs=gs[i],
                rhs=gs[j],
                relation="ratio",
                satisfied=True,
                note=f"max orientation ratio {r!r}",
            )
        )
    return Certificate(
        kind="gap_ratio",
        verdict="pass",
        conclusion=(
            f"maximal consecutive gap ratio {best!r} between gaps "
            f"{best_pair[0]} and {best_pair[1]}"
        ),
        evidence=tuple(rows),
        details={"max_ratio": best, "pair": list(best_pair), "gaps": gs},
    )


@dataclass(frozen=True)
class PeriodicTail:
    """Detected repetition at the edge of a window."""

    side: str
    period: int
    pattern: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "periodic_tail",
            "side": self.side,
            "period": self.period,
            "pattern": list(self.pattern),
        }


def detect_periodic_tail(
    config: LineConfig,
    side: str = "right",
    max_period: int = 4,
    tol: float = 1e-9,
) -> PeriodicTail | None:
    """Smallest period p <= max_period repeating over the edge 2p gaps.

    Returns the gap pattern nearest the edge, or None when no period fits
    within tol.  The window must provide at least 3*max_period gaps.
    """
    if side not in ("left", "right"):
        raise InvalidInput(f"side must be 'left' or 'right', got {side!r}")
    if max_period < 1:
        raise InvalidInput("max_period must be at least 1")
    gs = list(config.window_gaps())
    if len(gs) < 3 * max_period:
        raise InvalidInput(
            f"window provides {len(gs)} gaps; need at least {3 * max_period} "
            f"for max_period {max_period}"
        )
    for p in range(1, max_period + 1):
        seg = gs[-2 * p :] if side == "right" else gs[: 2 * p]
        if all(abs(seg[i] - seg[i + p]) <= tol for i in range(p)):
            pattern = tuple(seg[p:]) if side == "right" else tuple(seg[:p])
            return PeriodicTail(side=side, period=p, pattern=pattern)
    return None
