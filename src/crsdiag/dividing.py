"""Combinatorial dividing-set calculus on annuli and glued tori.

An annulus carries 2*n0 marked points on its top boundary circle and 2*n1 on
the bottom, labelled 0, 1, ... counterclockwise.  Arcs are either traversing
(one endpoint per side) or boundary-parallel (both endpoints on one side,
cutting off a disk).  Gluing two such annuli along both boundary circles
produces a torus; the dividing set becomes a union of closed curves whose
homology classes decide the Giroux criterion.

Geometry is tracked exactly in integers.  On a circle with N marked points
angles are measured in units of 1/(2N) of a turn: marked point j sits at
2j + 1, a full turn is 2N, and a vertical cut of each annulus passes through
0, the gap between marked point N-1 and marked point 0 on both circles.
Every arc stores enough data to recover a taut representative as lifted
angles:

* traversing arcs share one family winding integer (its value equals the
  holonomy index of the layer the configuration models); sorting the arcs by
  top point, the arc of rank i descends to the bottom point of rank
  (i + winding) mod t and crosses the vertical cut floor((i + winding)/t)
  times,
* a parallel arc spans counterclockwise from its start point to its end
  point, 2*start + 1 to 2*end + 1, adding 2N when the span wraps past the
  cut.

Gluing with an offset of k marked points shifts the second annulus's angles
on that circle by 2k units.  The top and bottom circles keep their own units,
so every cut crossing is one floor division by that circle's 2N.

Homology bookkeeping on the glued torus: traversing the first annulus top to
bottom adds +1 to the vertical class (bottom to top -1; the second annulus
adds nothing), and every signed crossing of the vertical cut adds +-1 to the
horizontal class.  Any consistent sign convention reproduces the
contractibility verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .core import TightLayerSpec
from .errors import (
    CertificateError,
    EmptyDividingSet,
    InvalidArcConfig,
    MarkMismatch,
    UnsupportedLayer,
)

TOP, BOTTOM = "top", "bottom"


@dataclass(frozen=True)
class TraversingArc:
    top: int
    bottom: int
    winding: int


@dataclass(frozen=True)
class ParallelArc:
    side: str
    start: int
    end: int

    def __post_init__(self):
        if self.side not in (TOP, BOTTOM):
            raise InvalidArcConfig(
                f"parallel arc side must be {TOP!r} or {BOTTOM!r}, not {self.side!r}"
            )


Arc = Union[TraversingArc, ParallelArc]


@dataclass(frozen=True)
class ArcConfig:
    """Dividing-arc system on an annulus with marked boundary points."""

    top_marks: int
    bottom_marks: int
    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        _validate(self)

    def traversing(self) -> List[TraversingArc]:
        return [a for a in self.arcs if isinstance(a, TraversingArc)]

    def parallels(self, side: str) -> List[ParallelArc]:
        return [a for a in self.arcs if isinstance(a, ParallelArc) and a.side == side]

    def family_winding(self) -> int:
        """Common winding integer of the traversing family (0 if none)."""
        trav = self.traversing()
        return trav[0].winding if trav else 0

    def canonical_key(self):
        trav = sorted((a.top, a.bottom, a.winding) for a in self.traversing())
        par = sorted((a.side, a.start, a.end) for a in self.arcs if isinstance(a, ParallelArc))
        return (self.top_marks, self.bottom_marks, tuple(trav), tuple(par))


def _span(arc: ParallelArc, marks: int) -> Tuple[int, int]:
    """Lifted angular interval covered by the cut-off disk of a parallel arc."""
    u = 2 * arc.start + 1
    v = 2 * arc.end + 1
    if v < u:
        v += 2 * marks  # the span wraps past the cut
    return u, v


def _inside(w: int, u: int, v: int, marks: int) -> bool:
    """Whether the angle w lies strictly inside the span (u, v) mod one turn."""
    return (w - u) % (2 * marks) < v - u


def _validate(cfg: ArcConfig) -> None:
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


def _parallel_cross(a: ParallelArc, b: ParallelArc, marks: int) -> bool:
    """Whether the spans of a and b overlap without being nested.

    Lift b so that its start lies in [ua, ua + 2N).  The spans cross iff this
    lift, or the one a turn lower, has exactly one endpoint strictly inside
    a's span; no other lift reaches it.  Counting endpoints inside a's span
    mod 2N alone would miss two spans that together cover the circle.
    """
    ua, va = _span(a, marks)
    ub, vb = _span(b, marks)
    full = 2 * marks
    start = (ub - ua) % full
    end = start + vb - ub
    width = va - ua
    return start < width < end or full < end < full + width


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


@dataclass(frozen=True)
class ClosedCurve:
    """A closed dividing curve on the glued torus."""

    h: int
    v: int
    arcs: tuple  # (annulus tag, arc index, traversed forward?)

    @property
    def is_contractible(self) -> bool:
        return self.h == 0 and self.v == 0


@dataclass(frozen=True)
class GluedCurves:
    curves: tuple

    def classes(self) -> List[Tuple[int, int]]:
        return [(c.h, c.v) for c in self.curves]


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


def giroux_overtwisted(glued: GluedCurves) -> bool:
    """Giroux criterion on the glued torus: overtwisted iff some curve is contractible."""
    if not glued.curves:
        raise EmptyDividingSet("a convex torus carries a nonempty dividing set")
    return any(c.is_contractible for c in glued.curves)


def layer_to_annulus(layer: TightLayerSpec, n: int = 1) -> ArcConfig:
    """Combinatorial annulus cross-section of a tight layer with 2n marked points per side.

    Nonrotative holonomy-k layers give traversing arcs of winding k; the
    rotative layers give the boundary-parallel picture (one parallel arc per
    side), which is only modelled for n = 1.
    """
    if n < 1:
        raise UnsupportedLayer("need at least one arc per side")
    spec = layer.normalized()
    if spec.twisting >= 1:
        raise UnsupportedLayer("layers with positive twisting have no annulus model here")
    marks = 2 * n
    if spec.kind == "nonrotative":
        k = spec.param
        arcs = [TraversingArc(i, (i + k) % marks, k) for i in range(marks)]
        return ArcConfig(marks, marks, tuple(arcs))
    if n != 1:
        raise UnsupportedLayer("rotative layers are modelled with two marked points per side")
    if spec.kind == "rotative_plus":
        arcs = (ParallelArc(TOP, 0, 1), ParallelArc(BOTTOM, 0, 1))
    else:
        arcs = (ParallelArc(TOP, 1, 0), ParallelArc(BOTTOM, 1, 0))
    return ArcConfig(marks, marks, arcs)
