"""Reference implementations of the arc-system code that the factored
enumeration and the flat-array gluing replaced, kept as test oracles.

`validate` checks one ArcConfig condition by condition, `check_family` compares
a traversing family with its rank-shift matching as sets of pairs, `enumerate_configurations`
builds every configuration through the validating ArcConfig constructor and sorts
by canonical_key, `_parallel_choices` lists one side's parallel-arc systems for
given traversing points by matching each gap between them recursively, and
`glue_annuli` follows the glued curves through (side, point)-keyed dicts.  Two replaced pieces of the CLI are here too:
`parse_arcs` reads a glue-annuli arc list item by item, and `configs_stdout`
prints enum-configs' result with one json.dumps of the whole payload.
`family_winding` reads the common winding of a configuration's traversing
family, which only tests ask for.
Shares with `src`: old code kept as an oracle, plus the `_span` and `_parallel_cross` formulas.
"""

import json
from itertools import combinations
from typing import Dict, List, Tuple

from crsdiag.dividing import (
    BOTTOM,
    TOP,
    ArcConfig,
    ClosedCurve,
    GluedCurves,
    ParallelArc,
    TraversingArc,
    _parallel_cross,
    _span,
)
from crsdiag.errors import (
    CertificateError,
    DomainError,
    InvalidArcConfig,
    MarkMismatch,
    SemanticError,
)


def _inside(w: int, u: int, v: int, marks: int) -> bool:
    """Whether the angle w lies strictly inside the span (u, v) mod one turn."""
    return (w - u) % (2 * marks) < v - u


def config(top_marks: int, bottom_marks: int, arcs: tuple) -> ArcConfig:
    """An ArcConfig checked by `validate` alone."""
    cfg = ArcConfig._trusted(top_marks, bottom_marks, tuple(arcs))
    validate(cfg)
    return cfg


def family_winding(cfg: ArcConfig) -> int:
    """Common winding integer of the traversing family (0 if none)."""
    trav = cfg.traversing()
    return trav[0].winding if trav else 0


def validate(cfg: ArcConfig) -> None:
    if cfg.top_marks <= 0 or cfg.top_marks % 2 or cfg.bottom_marks <= 0 or cfg.bottom_marks % 2:
        raise InvalidArcConfig("marked point counts must be positive and even")

    used = {TOP: [0] * cfg.top_marks, BOTTOM: [0] * cfg.bottom_marks}
    for arc in cfg.arcs:
        if isinstance(arc, TraversingArc):
            if not (0 <= arc.top < cfg.top_marks and 0 <= arc.bottom < cfg.bottom_marks):
                raise InvalidArcConfig(f"arc endpoint out of range: {arc}")
            used[TOP][arc.top] += 1
            used[BOTTOM][arc.bottom] += 1
        else:
            marks = cfg.top_marks if arc.side == TOP else cfg.bottom_marks
            if not (0 <= arc.start < marks and 0 <= arc.end < marks) or arc.start == arc.end:
                raise InvalidArcConfig(f"arc endpoints out of range: {arc}")
            used[arc.side][arc.start] += 1
            used[arc.side][arc.end] += 1
    for side, counts in used.items():
        for point, count in enumerate(counts):
            if count != 1:
                raise InvalidArcConfig(f"{side} point {point} is endpoint of {count} arcs (need exactly 1)")

    trav = cfg.traversing()
    if trav:
        tops, bottoms = check_family(trav)
        # parallel spans may not trap a traversing endpoint on their side
        for arc in cfg.arcs:
            if isinstance(arc, ParallelArc):
                marks = cfg.top_marks if arc.side == TOP else cfg.bottom_marks
                blocked = tops if arc.side == TOP else bottoms
                u, v = _span(arc, marks)
                for point in blocked:
                    if _inside(2 * point + 1, u, v, marks):
                        raise InvalidArcConfig(
                            f"parallel arc {arc} traps traversing endpoint {point}"
                        )

    for side in (TOP, BOTTOM):
        marks = cfg.top_marks if side == TOP else cfg.bottom_marks
        pars = cfg.parallels(side)
        for i in range(len(pars)):
            for j in range(i + 1, len(pars)):
                if _parallel_cross(pars[i], pars[j], marks):
                    raise InvalidArcConfig(f"parallel arcs {pars[i]} and {pars[j]} cross")



def check_family(trav: List[TraversingArc]) -> Tuple[List[int], List[int]]:
    """One shared winding and its rank-shift matching, compared as sets of
    (top, bottom) pairs; returns the sorted top and bottom endpoints."""
    windings = {a.winding for a in trav}
    if len(windings) != 1:
        raise InvalidArcConfig("traversing arcs must share one winding integer")
    rho = windings.pop()
    tops = sorted(a.top for a in trav)
    bottoms = sorted(a.bottom for a in trav)
    t = len(trav)
    expected = {(tops[i], bottoms[(i + rho) % t]) for i in range(t)}
    actual = {(a.top, a.bottom) for a in trav}
    if expected != actual:
        raise InvalidArcConfig(
            "traversing pairing is not the rank-shift matching of its winding"
        )
    return tops, bottoms


def _traversing_lifts(cfg: ArcConfig) -> Dict[Tuple[int, int], int]:
    """Vertical-cut crossings per traversing arc, keyed by endpoints."""
    trav = cfg.traversing()
    if not trav:
        return {}
    rho = trav[0].winding
    tops = sorted(a.top for a in trav)
    bottoms = sorted(a.bottom for a in trav)
    t = len(trav)
    return {(top, bottoms[(i + rho) % t]): (i + rho) // t for i, top in enumerate(tops)}



def glue_annuli(a: ArcConfig, b: ArcConfig, offset_top: int = 0, offset_bottom: int = 0) -> GluedCurves:
    """Glue annulus a to annulus b along both boundary circles.

    Marked point p on a's top circle is identified with point
    (p + offset_top) mod N on b's top circle, and likewise on the bottom.
    Returns every closed curve with its torus homology class; all arc ends are
    consumed exactly once.
    """
    if a.top_marks != b.top_marks or a.bottom_marks != b.bottom_marks:
        raise MarkMismatch(
            f"mark counts differ: ({a.top_marks}, {a.bottom_marks}) vs ({b.top_marks}, {b.bottom_marks})"
        )
    n_top, n_bottom = a.top_marks, a.bottom_marks
    offsets = {TOP: offset_top % n_top, BOTTOM: offset_bottom % n_bottom}

    ends = {"a": {}, "b": {}}
    for tag, cfg in (("a", a), ("b", b)):
        for idx, arc in enumerate(cfg.arcs):
            if isinstance(arc, TraversingArc):
                endpoints = ((TOP, arc.top), (BOTTOM, arc.bottom))
            else:
                endpoints = ((arc.side, arc.start), (arc.side, arc.end))
            for end_no, key in enumerate(endpoints):
                ends[tag][key] = (idx, end_no)

    full = {TOP: 2 * n_top, BOTTOM: 2 * n_bottom}
    h_contrib = {"a": {}, "b": {}}
    v_contrib = {"a": {}, "b": {}}
    for tag, cfg in (("a", a), ("b", b)):
        shift = {side: 2 * offsets[side] if tag == "b" else 0 for side in (TOP, BOTTOM)}
        lifts = _traversing_lifts(cfg)
        for idx, arc in enumerate(cfg.arcs):
            if isinstance(arc, TraversingArc):
                h_contrib[tag][idx] = (lifts[(arc.top, arc.bottom)]
                                       + (2 * arc.bottom + 1 + shift[BOTTOM]) // full[BOTTOM]
                                       - (2 * arc.top + 1 + shift[TOP]) // full[TOP])
                v_contrib[tag][idx] = 1 if tag == "a" else 0
            else:
                u, v = _span(arc, n_top if arc.side == TOP else n_bottom)
                u, v = u + shift[arc.side], v + shift[arc.side]
                h_contrib[tag][idx] = v // full[arc.side] - u // full[arc.side]
                v_contrib[tag][idx] = 0

    def other_end(tag, idx, end_no):
        arc = (a if tag == "a" else b).arcs[idx]
        if isinstance(arc, TraversingArc):
            pts = ((TOP, arc.top), (BOTTOM, arc.bottom))
        else:
            pts = ((arc.side, arc.start), (arc.side, arc.end))
        return pts[1 - end_no]

    def across(tag, side, point):
        n = n_top if side == TOP else n_bottom
        if tag == "a":
            return "b", side, (point + offsets[side]) % n
        return "a", side, (point - offsets[side]) % n

    used = set()
    curves = []
    for start_tag in ("a", "b"):
        cfg = a if start_tag == "a" else b
        for start_idx in range(len(cfg.arcs)):
            if (start_tag, start_idx) in used:
                continue
            h = v = 0
            path = []
            tag, idx, end_no = start_tag, start_idx, 0
            while (tag, idx) not in used:
                used.add((tag, idx))
                forward = end_no == 0
                sign = 1 if forward else -1
                h += sign * h_contrib[tag][idx]
                v += sign * v_contrib[tag][idx]
                path.append((tag, idx, forward))
                side, point = other_end(tag, idx, end_no)
                tag, side, point = across(tag, side, point)
                idx, end_no = ends[tag][(side, point)]
            if (tag, idx) != (start_tag, start_idx):
                raise CertificateError("a glued dividing curve failed to close up")
            curves.append(ClosedCurve(h, v, tuple(path)))

    if sum(len(c.arcs) for c in curves) != len(a.arcs) + len(b.arcs):
        raise CertificateError("gluing did not use every arc exactly once")
    return GluedCurves(tuple(curves))


def _noncrossing_matchings(points: List[int]) -> List[List[Tuple[int, int]]]:
    """Non-crossing perfect matchings of a linearly ordered point list."""
    if not points:
        return [[]]
    if len(points) % 2:
        return []
    out = []
    first = points[0]
    for k in range(1, len(points), 2):
        mate = points[k]
        inside = points[1:k]
        outside = points[k + 1:]
        for m_in in _noncrossing_matchings(inside):
            for m_out in _noncrossing_matchings(outside):
                out.append([(first, mate)] + m_in + m_out)
    return out


def _gaps(marks: int, traversing_points: List[int]) -> List[List[int]]:
    """Cyclic runs of non-traversing points between consecutive traversing ones."""
    t = sorted(traversing_points)
    gaps = []
    for i, start in enumerate(t):
        end = t[(i + 1) % len(t)]
        gap = []
        point = (start + 1) % marks
        while point != end:
            gap.append(point)
            point = (point + 1) % marks
        gaps.append(gap)
    return gaps


def _parallel_choices(marks: int, traversing_points: List[int], side: str) -> List[List[ParallelArc]]:
    free = [p for p in range(marks) if p not in set(traversing_points)]
    if not free:
        return [[]]
    per_gap = []
    for gap in _gaps(marks, traversing_points):
        if len(gap) % 2:
            return []
        per_gap.append(_noncrossing_matchings(gap))
    out = [[]]
    for options in per_gap:
        if not options:
            return []
        out = [prefix + [ParallelArc(side, a, b) for a, b in choice]
               for prefix in out for choice in options]
    return out


def enumerate_configurations(n0: int, n1: int, max_winding: int) -> List[ArcConfig]:
    """All annulus arc systems with 2*n0 top and 2*n1 bottom marked points.

    Configurations satisfy: every marked point is one arc endpoint, at least
    two traversing arcs, no closed curves, pairwise disjoint; the traversing
    family winding ranges over [-max_winding, max_winding].  The full set is
    infinite (windings range over Z), so the bound is the caller's.
    """
    if n0 < 1 or n1 < 1:
        raise DomainError("need at least one pair of dividing curves per side")
    if max_winding < 0:
        raise DomainError("max_winding is a non-negative bound")
    top_marks, bottom_marks = 2 * n0, 2 * n1
    out = []
    for t in range(2, min(top_marks, bottom_marks) + 1, 2):
        bottom_subsets = []
        for bottoms in combinations(range(bottom_marks), t):
            bottom_options = _parallel_choices(bottom_marks, list(bottoms), "bottom")
            if bottom_options:
                bottom_subsets.append((bottoms, bottom_options))
        for tops in combinations(range(top_marks), t):
            top_options = _parallel_choices(top_marks, list(tops), "top")
            if not top_options:
                continue
            for bottoms, bottom_options in bottom_subsets:
                for rho in range(-max_winding, max_winding + 1):
                    arcs_trav = [
                        TraversingArc(tops[i], bottoms[(i + rho) % t], rho)
                        for i in range(t)
                    ]
                    for top_choice in top_options:
                        for bottom_choice in bottom_options:
                            out.append(config(
                                top_marks, bottom_marks,
                                tuple(arcs_trav) + tuple(top_choice) + tuple(bottom_choice),
                            ))
    out.sort(key=lambda cfg: cfg.canonical_key())
    return out


def parse_arcs(text: str, top_marks: int, bottom_marks: int) -> ArcConfig:
    """A glue-annuli arc list, split at whitespace and ';' and read item by item."""
    arcs = []
    for item in text.replace(";", " ").split():
        kind, _, rest = item.partition("(")
        if not rest.endswith(")"):
            raise SemanticError(f"bad arc literal {item!r}")
        args = [a.strip() for a in rest[:-1].split(",")]
        try:
            if kind == "T" and len(args) == 3:
                arcs.append(TraversingArc(int(args[0]), int(args[1]), int(args[2])))
            elif kind == "P" and len(args) == 3 and args[0] in ("top", "bottom"):
                arcs.append(ParallelArc(args[0], int(args[1]), int(args[2])))
            else:
                raise ValueError
        except ValueError:
            raise SemanticError(f"bad arc literal {item!r}") from None
    return ArcConfig(top_marks, bottom_marks, tuple(arcs))


def _configs_json(configs: List[ArcConfig]) -> list:
    """JSON of each configuration, with one dict per distinct arc object:
    enumerate_configurations shares arcs between configurations."""
    arc_json = {}
    out = []
    for cfg in configs:
        arcs = []
        for arc in cfg.arcs:
            data = arc_json.get(id(arc))
            if data is None:
                if isinstance(arc, TraversingArc):
                    data = {"type": "traversing", "top": arc.top, "bottom": arc.bottom,
                            "winding": arc.winding}
                else:
                    data = {"type": "parallel", "side": arc.side, "start": arc.start,
                            "end": arc.end}
                arc_json[id(arc)] = data
            arcs.append(data)
        out.append({"top_marks": cfg.top_marks, "bottom_marks": cfg.bottom_marks, "arcs": arcs})
    return out


def configs_stdout(configs: List[ArcConfig], pretty: bool) -> str:
    """enum-configs' stdout for these configurations: the whole payload
    encoded by one json.dumps call."""
    payload = {"count": len(configs), "configs": _configs_json(configs)}
    if pretty:
        return json.dumps(payload, indent=2) + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"
