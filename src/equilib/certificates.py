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
by term.  `_chain_certificate` builds the near and far chains of both; each
geometry supplies only its distances (position differences on the line,
cumulative arcs on the circle, where antipodal terms drop out).

Evidence rows carry plain numbers so a checker can recompute every row
from the configuration and the law alone, and each verdict is read off the
rows by one rule per certificate kind:

- extremal-gap chains, line and circle: "pass" when the rows hold a strict
  comparison (`<` or `>`) and every row is satisfied; "inconclusive"
  otherwise;
- a circle gap of at least pi - ANTIPODAL_BAND (`into_gap_*` rows): "pass"
  when some row is satisfied, "inconclusive" otherwise;
- internal-force monotonicity: "fail" when some row is unsatisfied, with
  `first_violation` read from the first such row; otherwise "inconclusive"
  when some row has rhs < lhs or a non-finite error bound; otherwise
  "pass".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import CircleConfig, LineConfig, _line_gaps, gaps
from .errors import _NOT_REAL, Inapplicable, InvalidInput, _below, _check_integer, _real
from .force_laws import _EPS, ForceLaw, TabulatedLaw, _certified_forces
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
    (F, bound), all from one `_certified_forces` call; None stays None.  An
    overflowing force comes back quietly, with an infinite bound."""
    present = [t for t in terms if t is not None]
    d, d_err = np.array(present, dtype=float).reshape(-1, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        values = iter(zip(*(a.tolist() for a in _certified_forces(law, d, d_err))))
    return [None if t is None else next(values) for t in terms]


def _strict_holds(lo: float, lo_err: float, hi: float, hi_err: float) -> bool:
    """lo < hi beyond both error bounds."""
    return lo + lo_err < hi - hi_err


def _loose_holds(lo: float, lo_err: float, hi: float, hi_err: float) -> bool:
    """lo <= hi within the combined error."""
    return lo - lo_err <= hi + hi_err


# ---------------------------------------------------------------------------
# Extremal-gap certificates
# ---------------------------------------------------------------------------


def _extremal_variant(all_gaps: list[float], g: float, what: str, noun: str) -> bool:
    """True when g is the minimal value of `all_gaps`, False when it is the
    maximal one."""
    hi, lo = max(all_gaps), min(all_gaps)
    if g == hi:
        return False
    if g == lo:
        return True
    raise Inapplicable(
        f"{what} ({g!r}) is neither the maximal {noun} "
        f"({hi!r}) nor the minimal {noun} ({lo!r})"
    )


def _strict_side(g: float, neighbours, reverse: bool, why: str) -> str:
    """Name of the adjacent gap that backs the strict row.

    A maximal gap takes its smallest strictly smaller neighbour, a minimal
    gap its largest strictly larger one; equal values go to the smaller
    (resp. larger) name.  `neighbours` holds (gap, name) pairs.
    """
    candidates = [(v, s) for v, s in neighbours if (v > g if reverse else v < g)]
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
) -> list[EvidenceRow]:
    """Rows pairing the two one-sided force sums at the gap endpoints.

    Row j compares the far endpoint's force from source j - 1 (the force
    across the gap for j = 0) with the near endpoint's force from source j.
    `terms[j]` holds a (distance, distance error) pair for each of the two
    summands, or None for a summand that is absent (an antipodal term on
    the circle).  Row 0 is the strict comparison when `strict`; a row whose
    summands are both absent is left out.  An unpaired summand on the
    dominating side fails its row.
    """
    rows: list[EvidenceRow] = []
    forces = _term_forces(law, [t for pair in terms for t in pair])
    for j, (lhs_d, rhs_d) in enumerate(terms):
        if lhs_d is None and rhs_d is None:
            continue
        lhs, le = forces[2 * j] or (0.0, 0.0)
        rhs, re_ = forces[2 * j + 1] or (0.0, 0.0)
        first = j == 0 and strict
        holds = _strict_holds if first else _loose_holds
        sides = (rhs, re_, lhs, le) if reverse else (lhs, le, rhs, re_)
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
                satisfied=(lhs_d if reverse else rhs_d) is not None and holds(*sides),
                note="dropped antipodal term" if dropped else (note if j == 0 else ""),
            )
        )
    return rows


def _chain_certificate(
    kind: str, subject: str, comparison: str, law: ForceLaw, reverse: bool, chains: tuple,
    extra: list, details: dict
) -> Certificate:
    """Verdict and conclusion of a chain comparison, read off its rows: the
    near and far chains built from `chains`, two (terms, note) pairs, then
    the geometry's `extra` rows."""
    (near, near_note), (far, far_note) = chains
    rows = (_chain_rows(law, "near", near, True, reverse, near_note)
            + _chain_rows(law, "far", far, False, reverse, far_note) + extra)
    passed = any(r.relation in ("<", ">") for r in rows) and all(r.satisfied for r in rows)
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
    if config.n == 1:
        raise Inapplicable("the window holds a single particle: no gap to certify")
    if not 0 <= gap_index < config.n - 1:
        raise InvalidInput(
            f"gap_index {gap_index} out of range for {config.n - 1} window gaps"
        )
    all_gaps, at = _line_gaps(config.window, config.left_tail, config.right_tail, periods=2)
    g = all_gaps[at + gap_index]  # window gap i; with tails, a junction gap flanks each end
    reverse = _extremal_variant(all_gaps, g, f"window gap {gap_index}", "gap")
    kind_word = "minimal" if reverse else "maximal"
    if config.left_tail.is_none or config.right_tail.is_none:
        raise Inapplicable(
            "the termwise comparison pairs the two infinite force sums "
            "one-to-one, which needs particles on both sides without end; "
            "a missing tail leaves an unpaired term"
        )

    side = _strict_side(
        g,
        ((all_gaps[at + gap_index - 1], "left"), (all_gaps[at + gap_index + 1], "right")),
        reverse,
        f"no adjacent gap strictly {'larger' if reverse else 'smaller'} than the "
        f"{kind_word} gap (around this gap the configuration is locally arithmetic)",
    )
    other = "right" if side == "left" else "left"

    ends = {"left": gap_index, "right": gap_index + 1}

    def pair(a: float, b: float) -> tuple[float, float]:
        """A distance and its error bound from the rounding of a, b and a - b."""
        return abs(a - b), 16.0 * _EPS * (abs(a) + abs(b))

    def chain(near: str, far: str, which: str) -> tuple[list, str]:
        """The chain pairing the sources beyond the `near` endpoint, and its note."""
        own, across = config.window[ends[near]], config.window[ends[far]]
        sources = _line_sources(config, ends[near], near, _CHAIN_ROWS)
        across_terms = [pair(across, p) for p in [own, *sources[:-1]]]
        terms = list(zip(across_terms, [pair(own, p) for p in sources]))
        return terms, f"force across the gap vs force from the nearest {which} source"

    return _chain_certificate(
        "extremal_gap_line",
        f"{kind_word} window gap {gap_index}",
        "one-sided",
        law,
        reverse,
        (chain(side, other, "strict-side"), chain(other, side, "far-side")),
        _distinct_gap_rows(all_gaps, g, reverse),
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
        lhs = (big, 32.0 * _EPS) if j == 0 else (big + float(away[j - 1]), 32.0 * _EPS * (j + 2))
        rhs = (float(away[j]) if j < len(away) else math.inf, 32.0 * _EPS * (j + 2))
        terms.append(tuple(t if t[0] < math.pi - ANTIPODAL_BAND else None for t in (lhs, rhs)))
    return terms


def _certify_circle_gap(config: CircleConfig, law: ForceLaw, gap_index: int) -> Certificate:
    arcs = list(config.arc_gaps())
    n = config.n
    if not 0 <= gap_index < len(arcs):
        raise InvalidInput(f"gap_index {gap_index} out of range for {len(arcs)} arcs")
    big = arcs[gap_index]
    reverse = _extremal_variant(arcs, big, f"arc {gap_index}", "arc")
    side = _strict_side(
        big,
        ((arcs[(gap_index - 1) % n], "cw"), (arcs[(gap_index + 1) % n], "ccw")),
        reverse,
        f"no arc adjacent to arc {gap_index} is strictly "
        f"{'larger' if reverse else 'smaller'}; with all arcs equal the "
        "configuration is the equally spaced one",
    )

    # Cumulative arcs from each gap endpoint to successive sources on its
    # non-gap side (counterclockwise from the endpoint that ends the gap).
    # `strict_end` is the endpoint whose adjacent arc backs the strict row.
    # The final cumulative step walks the non-gap way around to the
    # opposite endpoint; across-the-gap forces are handled by the F(big)
    # terms, so the pairing chains drop that step.
    steps = np.array(arcs, dtype=float)
    sign = 1 if side == "ccw" else -1
    full_strict, full_other = (
        np.cumsum([steps[(gap_index + s * k) % n] for k in range(1, n)]) for s in (sign, -sign))
    strict_end, other_end = ((gap_index + 1) % n, gap_index)[::sign]

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
        for endpoint, away in (("strict", full_strict), ("other", full_other)):
            terms = [(u, 32.0 * _EPS * (j + 2)) if u < math.pi - ANTIPODAL_BAND else None
                     for j, u in enumerate(away.tolist())]
            for j, term in enumerate(_term_forces(law, terms)):
                if term is None:
                    continue
                f, fe = term
                rows.append(
                    EvidenceRow(
                        chain=f"into_gap_{endpoint}",
                        term=j,
                        lhs=0.0,
                        rhs=f,
                        relation="<",
                        rhs_err=fe,
                        satisfied=_strict_holds(0.0, 0.0, f, fe),
                        note="all sources lie on the half circle facing the gap",
                    )
                )
        passed = any(r.satisfied for r in rows)
        return Certificate(
            kind="extremal_gap_circle",
            verdict="pass" if passed else "inconclusive",
            conclusion=(
                "the gap spans at least a half circle, so every source pushes the "
                "gap endpoints into the gap; equilibrium there is impossible"
                if passed
                else "every source is antipodal within the band; no conclusion"
            ),
            evidence=tuple(rows),
            details=details,
        )

    near_terms = _arc_terms(big, full_strict[: n - 2])
    far_terms = _arc_terms(big, full_other[: n - 2])
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
    return _chain_certificate(
        "extremal_gap_circle",
        f"{'minimal' if reverse else 'maximal'} arc {gap_index}",
        "half-circle",
        law,
        reverse,
        ((near_terms, ""), (far_terms, "")),
        count_rows + _distinct_gap_rows(arcs, big, reverse),
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
    _check_integer("gap_index", gap_index, -math.inf)  # its range depends on the geometry
    if isinstance(config, CircleConfig):
        return _certify_circle_gap(config, law, int(gap_index))
    if isinstance(config, LineConfig):
        return _certify_line_gap(config, law, int(gap_index))
    raise InvalidInput("certify_extremal_gap expects a line or circle configuration")


# ---------------------------------------------------------------------------
# Internal-force monotonicity
# ---------------------------------------------------------------------------


def _normalize_window_range(window_range, n: int) -> list[int]:
    values = list(window_range)
    for v in values:
        _check_integer("window_range", v, -math.inf)  # its range is checked below
    if isinstance(window_range, tuple) and len(values) == 2:
        # Clamped one past each end of the window, which is out of range too.
        idx = list(range(max(values[0], -1), min(values[1], n + 1)))
    else:
        idx = list(map(int, values))
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
    _, _, net, errs = _certified_rows(law, pos, pos, None, None, 0.0)
    forces = [-v for v in net]

    rows = [
        EvidenceRow(
            chain="internal_forces",
            term=idx[k],
            lhs=forces[k],
            rhs=forces[k + 1],
            relation="<=",
            lhs_err=errs[k],
            rhs_err=errs[k + 1],
            # unsatisfied only when the forces decrease beyond both bounds
            satisfied=not _strict_holds(forces[k + 1], errs[k + 1], forces[k], errs[k]),
        )
        for k in range(len(pos) - 1)
    ]
    violation = next((r.term for r in rows if not r.satisfied), None)
    if violation is not None:
        verdict = "fail"
        conclusion = (
            f"internal forces decrease from particle {violation} to "
            f"{violation + 1} beyond certified error"
        )
    elif any(r.rhs < r.lhs for r in rows):
        verdict = "inconclusive"
        conclusion = "an adjacent pair is not separated beyond certified error"
    elif not all(math.isfinite(r.lhs_err) and math.isfinite(r.rhs_err) for r in rows):
        verdict = "inconclusive"  # a pass would rest on every bound
        conclusion = "an error bound is not finite, so no pair is certified"
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
            "first_violation": None if violation is None else [violation, violation + 1],
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
    gs = list(gaps(config))
    cyclic = isinstance(config, CircleConfig)  # the last arc meets the first
    pairs = [(i, (i + 1) % len(gs)) for i in range(len(gs) if cyclic else len(gs) - 1)]
    if len(gs) < 2:
        raise InvalidInput("gap ratios need at least three particles")
    ratios = [max(gs[i] / gs[j], gs[j] / gs[i]) for i, j in pairs]
    best = max(ratios)  # gaps are positive and finite: every ratio is at least 1
    best_pair = pairs[ratios.index(best)]
    rows = [
        EvidenceRow(
            chain="gap_ratios",
            term=i,
            lhs=gs[i],
            rhs=gs[j],
            relation="ratio",
            satisfied=True,
            note=f"max orientation ratio {r!r}",
        )
        for (i, j), r in zip(pairs, ratios)
    ]
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
    if _below(max_period, 1):
        raise InvalidInput("max_period must be at least 1")
    _check_integer("max_period", max_period, 1)
    try:  # a valid call pays no more than the conversion
        tol = float(tol)
    except _NOT_REAL:
        tol = _real(tol, "tol")  # raises
    if not 0.0 <= tol < math.inf:  # NaN fails as well
        raise InvalidInput(f"tol must be finite and nonnegative, got {tol!r}")
    gs = list(gaps(config))
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
