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

The line and the circle run the same comparison: at the gap's two
endpoints the forces from the sources beyond each endpoint are paired term
by term.  One helper, `_chain_rows`, builds the rows of every near and far
chain; each geometry supplies only its distances (position differences on
the line, cumulative arcs on the circle, where antipodal terms drop out).

Evidence rows carry plain numbers so a checker can recompute every row
from the configuration and the law alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import CircleConfig, LineConfig, _extended_gap_sequence, extremal_gaps
from .errors import Inapplicable, InvalidInput
from .force_laws import ForceLaw, TabulatedLaw, _certified_forces
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


def _term_forces(law: ForceLaw, terms: list) -> list:
    """Each (distance, distance error) in `terms` replaced by its certified
    (F, bound), all from one `_certified_forces` call; None stays None."""
    present = [t for t in terms if t is not None]
    d, d_err = np.array(present, dtype=float).reshape(-1, 2).T
    values = iter(zip(*(a.tolist() for a in _certified_forces(law, d, d_err))))
    return [None if t is None else next(values) for t in terms]


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


def _extremal_variant(config: LineConfig | CircleConfig, g: float, what: str, noun: str) -> bool:
    """True when g is the minimal gap, False when it is the maximal one."""
    ext = extremal_gaps(config)
    if g == ext.max_value:
        return False
    if g == ext.min_value:
        return True
    raise Inapplicable(
        f"{what} ({g!r}) is neither the maximal {noun} "
        f"({ext.max_value!r}) nor the minimal {noun} ({ext.min_value!r})"
    )


def _strict_side(g: float, neighbours, reverse: bool, why: str) -> str:
    """Name of the adjacent gap that backs the strict row.

    A maximal gap takes its smallest strictly smaller neighbour, a minimal
    gap its largest strictly larger one; equal values go to the smaller
    (resp. larger) name.  `neighbours` holds (gap, name) pairs.
    """
    if reverse:
        candidates = [(v, s) for v, s in neighbours if v > g]
    else:
        candidates = [(v, s) for v, s in neighbours if v < g]
    if not candidates:
        raise Inapplicable(why)
    return (max(candidates) if reverse else min(candidates))[1]


def _chain_rows(
    law: ForceLaw,
    chain: str,
    terms: list,
    strict: bool,
    reverse: bool,
    note: str,
) -> tuple[list[EvidenceRow], bool, bool]:
    """Rows pairing the two one-sided force sums at the gap endpoints.

    Row j compares the far endpoint's force from source j - 1 (the force
    across the gap for j = 0) with the near endpoint's force from source j.
    `terms[j]` holds a (distance, distance error) pair for each of the two
    summands, or None for a summand that is absent (an antipodal term on
    the circle).  Row 0 is the strict comparison when `strict`.  An
    unpaired summand on the dominating side fails its row.  Returns the
    rows, the strict outcome (True without a strict row to make) and the
    conjunction of the non-strict outcomes.
    """
    rows: list[EvidenceRow] = []
    strict_ok = not strict
    loose_ok = True
    forces = _term_forces(law, [t for pair in terms for t in pair])
    for j, (lhs_d, rhs_d) in enumerate(terms):
        if lhs_d is None and rhs_d is None:
            continue
        lhs, le = forces[2 * j] or (0.0, 0.0)
        rhs, re_ = forces[2 * j + 1] or (0.0, 0.0)
        first = j == 0 and strict
        if (lhs_d if reverse else rhs_d) is None:
            ok = False
        elif first:
            ok = _strict_holds(lhs, le, rhs, re_, reverse)
        else:
            ok = _loose_holds(lhs, le, rhs, re_, reverse)
        if first:
            strict_ok = ok
        else:
            loose_ok = loose_ok and ok
        dropped = lhs_d is None or rhs_d is None
        rows.append(
            EvidenceRow(
                chain=chain,
                term=j,
                lhs=lhs,
                rhs=rhs,
                relation=(">" if first else ">=") if reverse else ("<" if first else "<="),
                lhs_err=le,
                rhs_err=re_,
                satisfied=ok,
                note="dropped antipodal term" if dropped else (note if j == 0 else ""),
            )
        )
    return rows, strict_ok, loose_ok


def _chain_certificate(
    kind: str, subject: str, comparison: str, passed: bool, rows: list, details: dict
) -> Certificate:
    """Verdict and conclusion of a chain comparison that `passed` or not."""
    if passed:
        conclusion = (
            f"the particles spanning {subject} cannot both be in equilibrium: "
            f"the {comparison} force comparison is strict at the first term and "
            "termwise weak everywhere else"
        )
    else:
        conclusion = (
            "floating-point error margins cannot separate the strict comparison; "
            "no conclusion"
        )
    return Certificate(
        kind=kind,
        verdict="pass" if passed else "inconclusive",
        conclusion=conclusion,
        evidence=tuple(rows),
        details=details,
    )


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


def _line_sources(config: LineConfig, index: int, side: str, count: int) -> list[float]:
    """Positions of `count` particles beyond window[index] on `side`, nearest first."""
    if side == "left":
        near, tail = config.window[:index][::-1], config.left_tail
    else:
        near, tail = config.window[index + 1 :], config.right_tail
    out = list(near[:count])
    out.extend(tail.positions(side, count - len(out)).tolist())
    return out


def _certify_line_gap(config: LineConfig, law: ForceLaw, gap_index: int) -> Certificate:
    gaps_w = config.window_gaps()
    if not gaps_w:
        raise Inapplicable("the window holds a single particle: no gap to certify")
    if not 0 <= gap_index < len(gaps_w):
        raise InvalidInput(
            f"gap_index {gap_index} out of range for {len(gaps_w)} window gaps"
        )
    g = gaps_w[gap_index]
    reverse = _extremal_variant(config, g, f"window gap {gap_index}", "gap")
    kind_word = "minimal" if reverse else "maximal"
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
    side = _strict_side(
        g,
        ((left_adj, "left"), (right_adj, "right")),
        reverse,
        f"no adjacent gap strictly {'larger' if reverse else 'smaller'} than the "
        f"{kind_word} gap (around this gap the configuration is locally arithmetic)",
    )
    other = "right" if side == "left" else "left"

    # The near chain pairs the sources beyond the strict endpoint s, the far
    # chain those beyond the other endpoint o.
    ends = {"left": gap_index, "right": gap_index + 1}
    s, o = config.window[ends[side]], config.window[ends[other]]

    def pair(a: float, b: float) -> tuple[float, float]:
        """A distance and its error bound from the rounding of a, b and a - b."""
        return abs(a - b), 8.0 * _EPS * (abs(a) + abs(b))

    big_term = pair(s, o)

    def terms(own: float, across: float, sources: list[float]) -> list:
        across_terms = [big_term] + [pair(across, p) for p in sources[:-1]]
        return list(zip(across_terms, [pair(own, p) for p in sources]))

    near_rows, strict_ok, near_ok = _chain_rows(
        law,
        "near",
        terms(s, o, _line_sources(config, ends[side], side, _CHAIN_ROWS)),
        True,
        reverse,
        "force across the gap vs force from the nearest strict-side source",
    )
    far_rows, _, far_ok = _chain_rows(
        law,
        "far",
        terms(o, s, _line_sources(config, ends[other], other, _CHAIN_ROWS)),
        False,
        reverse,
        "force across the gap vs force from the nearest far-side source",
    )
    gap_rows = _distinct_gap_rows(_extended_gap_sequence(config)[0], g, reverse)
    return _chain_certificate(
        "extremal_gap_line",
        f"{kind_word} window gap {gap_index}",
        "one-sided",
        strict_ok and near_ok and far_ok and all(r.satisfied for r in gap_rows),
        near_rows + far_rows + gap_rows,
        {
            "gap_index": gap_index,
            "gap_value": g,
            "variant": "min" if reverse else "max",
            "orientation": "as-is" if side == "left" else "reflected",
            "strict_side": side,
        },
    )


def _arc_terms(big: float, away: np.ndarray) -> list:
    """Chain terms of one circle gap endpoint for `_chain_rows`.

    `away` lists cumulative arcs from the endpoint to successive sources on
    its non-gap side.  Sources beyond the half circle leave the sum and
    sources within ANTIPODAL_BAND of the antipode contribute zero: both are
    absent summands.
    """
    terms = []
    for j in range(max(len(away), 1)):
        # The arc `big` is one stored value; each cumulative arc sums j + 1.
        lhs = (big, 16.0 * _EPS) if j == 0 else (big + float(away[j - 1]), 16.0 * _EPS * (j + 2))
        rhs = (float(away[j]) if j < len(away) else math.inf, 16.0 * _EPS * (j + 2))
        terms.append(tuple(t if t[0] < math.pi - ANTIPODAL_BAND else None for t in (lhs, rhs)))
    return terms


def _certify_circle_gap(config: CircleConfig, law: ForceLaw, gap_index: int) -> Certificate:
    arcs = config.arc_gaps()
    n = config.n
    if not 0 <= gap_index < len(arcs):
        raise InvalidInput(f"gap_index {gap_index} out of range for {len(arcs)} arcs")
    big = arcs[gap_index]
    reverse = _extremal_variant(config, big, f"arc {gap_index}", "arc")
    side = _strict_side(
        big,
        ((arcs[(gap_index - 1) % n], "cw"), (arcs[(gap_index + 1) % n], "ccw")),
        reverse,
        f"no arc adjacent to arc {gap_index} is strictly "
        f"{'larger' if reverse else 'smaller'}; with all arcs equal the "
        "configuration is the equally spaced one",
    )

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
            terms = [(u, 16.0 * _EPS * (j + 2)) if u < math.pi - ANTIPODAL_BAND else None
                     for j, u in enumerate(away.tolist())]
            for j, term in enumerate(_term_forces(law, terms)):
                if term is None:
                    continue
                f, fe = term
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

    near_terms = _arc_terms(big, full_strict[: n - 2])
    far_terms = _arc_terms(big, full_other[: n - 2])
    near_rows, strict_ok, near_ok = _chain_rows(law, "near", near_terms, True, reverse, "")
    far_rows, _, far_ok = _chain_rows(law, "far", far_terms, False, reverse, "")
    # Every summand of the dominated sum needs a partner: count the present
    # summands on each side of both chains.
    count_rows = []
    for term, (chain, chain_terms) in enumerate((("near", near_terms), ("far", far_terms))):
        across, own = (sum(t[k] is not None for t in chain_terms) for k in (0, 1))
        lo, hi = (own, across) if reverse else (across, own)
        count_rows.append(
            EvidenceRow(
                chain="counts",
                term=term,
                lhs=float(lo),
                rhs=float(hi),
                relation="<=",
                satisfied=lo <= hi,
                note=f"every dominated {chain}-chain summand has a partner",
            )
        )
    gap_rows = _distinct_gap_rows(list(arcs), big, reverse)
    return _chain_certificate(
        "extremal_gap_circle",
        f"{'minimal' if reverse else 'maximal'} arc {gap_index}",
        "half-circle",
        strict_ok
        and near_ok
        and far_ok
        and all(r.satisfied for r in count_rows + gap_rows),
        near_rows + far_rows + count_rows + gap_rows,
        details,
    )


def certify_extremal_gap(
    config: LineConfig | CircleConfig, law: ForceLaw, gap_index: int
) -> Certificate:
    """Certify that an extremal gap witnesses non-equilibrium.

    `gap_index` names a window gap (line) or a cyclic arc (circle) that
    realizes the configuration's maximal or minimal gap.  Raises
    Inapplicable when the gap is not extremal, when no adjacent gap is
    strictly smaller (resp. larger), or when a line configuration lacks a
    tail on either side.  The chain's deep rows compare gaps only, which
    presumes F positive and decreasing, so a tabulated law whose samples
    are not positive and strictly decreasing is Inapplicable too.
    """
    if isinstance(law, TabulatedLaw):
        forces = [f for _, f in law.samples]
        if forces[-1] <= 0.0 or any(b >= a for a, b in zip(forces, forces[1:])):
            raise Inapplicable(
                "the comparison chain needs a positive, strictly decreasing "
                "force; the tabulated samples are not"
            )
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
        # Clamped one past each end of the window, which is out of range too.
        idx = list(range(max(start, -1), min(stop, n + 1)))
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
    within tol, which must be finite and nonnegative.  The window must
    provide at least 3*max_period gaps.
    """
    if side not in ("left", "right"):
        raise InvalidInput(f"side must be 'left' or 'right', got {side!r}")
    if max_period < 1:
        raise InvalidInput("max_period must be at least 1")
    if not 0.0 <= tol < math.inf:  # NaN fails as well
        raise InvalidInput(f"tol must be finite and nonnegative, got {tol!r}")
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
