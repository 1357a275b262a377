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

The public ArcConfig constructor checks every condition of an arc system.
Each condition involves one side only (its marked points, its parallel arcs
and the traversing endpoints on it), except the traversing family's shared
winding and rank-shift matching, which involve only the family.  So the
checks are split by condition: _validate runs all of them in a fixed order,
while _check_side and _check_family group them by factor.  This is the
factored certificate of slopes.enumerate_configurations: it checks each side
option and each family once, and builds their product through
ArcConfig._trusted without checking any configuration again.
"""

from __future__ import annotations

from collections import Counter
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

    @classmethod
    def _trusted(cls, top_marks: int, bottom_marks: int, arcs: tuple) -> "ArcConfig":
        """An ArcConfig built without _validate, for arcs whose every condition
        the caller has already checked (slopes.enumerate_configurations)."""
        cfg = object.__new__(cls)
        cfg.__dict__.update(top_marks=top_marks, bottom_marks=bottom_marks, arcs=arcs)
        return cfg

    def traversing(self) -> List[TraversingArc]:
        return [a for a in self.arcs if isinstance(a, TraversingArc)]

    def parallels(self, side: str) -> List[ParallelArc]:
        return [a for a in self.arcs if isinstance(a, ParallelArc) and a.side == side]

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


def _validate(cfg: ArcConfig) -> None:
    """Check every condition of an arc system.

    The checks run in a fixed order, so that an input with several faults
    always reports the same one: mark counts, endpoint ranges in arc order,
    point use per side, the traversing family, traps in arc order, and
    crossings per side.
    """
    _check_marks(cfg.top_marks, cfg.bottom_marks)
    marks = {TOP: cfg.top_marks, BOTTOM: cfg.bottom_marks}
    _check_ranges(cfg.arcs, marks)
    trav, parallels, pars = [], [], {TOP: [], BOTTOM: []}
    for arc in cfg.arcs:
        if isinstance(arc, TraversingArc):
            trav.append(arc)
        else:
            parallels.append(arc)
            pars[arc.side].append(arc)
    _check_counts(TOP, marks[TOP], [a.top for a in trav] + _ends(pars[TOP]))
    _check_counts(BOTTOM, marks[BOTTOM], [a.bottom for a in trav] + _ends(pars[BOTTOM]))
    if trav:
        tops, bottoms = _check_family(trav)
        _check_traps(parallels, marks, {TOP: tops, BOTTOM: bottoms})
    for side in (TOP, BOTTOM):
        _check_crossings(pars[side], marks[side])


def _check_side(side: str, marks: Dict[str, int], points: List[int],
                parallels: List[ParallelArc]) -> None:
    """Every condition of one side: the parallel arcs on it and the sorted
    traversing endpoints `points` use each marked point once, no parallel arc
    traps one of `points`, and no two parallel arcs cross."""
    for arc in parallels:
        if arc.side != side:
            raise InvalidArcConfig(f"parallel arc {arc} is not on the {side} side")
    _check_ranges(parallels, marks)
    _check_counts(side, marks[side], points + _ends(parallels))
    _check_traps(parallels, marks, {side: points})
    _check_crossings(parallels, marks[side])


def _ends(parallels: List[ParallelArc]) -> List[int]:
    return [p for arc in parallels for p in (arc.start, arc.end)]


def _check_marks(top_marks: int, bottom_marks: int) -> None:
    if top_marks <= 0 or top_marks % 2 or bottom_marks <= 0 or bottom_marks % 2:
        raise InvalidArcConfig("marked point counts must be positive and even")


def _check_ranges(arcs, marks: Dict[str, int]) -> None:
    """Every endpoint is a marked point, and a parallel arc has two distinct ends."""
    for arc in arcs:
        if isinstance(arc, TraversingArc):
            if not (0 <= arc.top < marks[TOP] and 0 <= arc.bottom < marks[BOTTOM]):
                raise InvalidArcConfig(f"arc endpoint out of range: {arc}")
        else:
            n = marks[arc.side]
            if not (0 <= arc.start < n and 0 <= arc.end < n) or arc.start == arc.end:
                raise InvalidArcConfig(f"arc endpoints out of range: {arc}")


def _check_counts(side: str, marks: int, endpoints: List[int]) -> None:
    """Each of the side's marked points is the endpoint of exactly one arc.

    The endpoints are marked points (_check_ranges ran first), so they use
    every point once exactly when they are `marks` distinct points.  Else the
    least bad point is the least one used more than once or the least unused
    one, and finding it takes memory in the number of endpoints, not of marks.
    """
    if len(endpoints) == marks == len(set(endpoints)):
        return
    counts = Counter(endpoints)
    used = sorted(counts)
    bad = [point for point in used if counts[point] > 1]
    unused = next((i for i, point in enumerate(used) if i != point), len(used))
    if unused < marks:
        bad.append(unused)
    point = min(bad)
    raise InvalidArcConfig(f"{side} point {point} is endpoint of {counts[point]} arcs (need exactly 1)")


def _check_family(trav: List[TraversingArc]) -> Tuple[List[int], List[int]]:
    """One shared winding and its rank-shift matching; returns the sorted top
    and bottom endpoints of the family."""
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


def _check_traps(parallels: List[ParallelArc], marks: Dict[str, int],
                 blocked: Dict[str, List[int]]) -> None:
    """No parallel span contains a traversing endpoint of its side."""
    for arc in parallels:
        full = 2 * marks[arc.side]
        u, v = _span(arc, marks[arc.side])
        for point in blocked[arc.side]:
            if (2 * point + 1 - u) % full < v - u:  # strictly inside the span
                raise InvalidArcConfig(
                    f"parallel arc {arc} traps traversing endpoint {point}"
                )


def _check_crossings(parallels: List[ParallelArc], marks: int) -> None:
    """No two parallel arcs of one side cross."""
    for i in range(len(parallels)):
        for j in range(i + 1, len(parallels)):
            if _parallel_cross(parallels[i], parallels[j], marks):
                raise InvalidArcConfig(f"parallel arcs {parallels[i]} and {parallels[j]} cross")


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

    Arc g numbers a's arcs first, then b's; end k of arc g (0 = top or start,
    1 = bottom or end) is the half-edge 2g + k, and link[e] is the half-edge
    glued to e.  A curve enters an arc through one half-edge and leaves
    through its partner e ^ 1.
    """
    if a.top_marks != b.top_marks or a.bottom_marks != b.bottom_marks:
        raise MarkMismatch(
            f"mark counts differ: ({a.top_marks}, {a.bottom_marks}) vs ({b.top_marks}, {b.bottom_marks})"
        )
    marks = {TOP: a.top_marks, BOTTOM: a.bottom_marks}
    offsets = {TOP: offset_top % marks[TOP], BOTTOM: offset_bottom % marks[BOTTOM]}
    full = {side: 2 * n for side, n in marks.items()}

    at = []  # per annulus and side: the half-edge at each marked point
    h_contrib, v_contrib, steps = [], [], []
    for tag, cfg in (("a", a), ("b", b)):
        shift = {side: 2 * offsets[side] if tag == "b" else 0 for side in (TOP, BOTTOM)}
        ends = {TOP: [None] * marks[TOP], BOTTOM: [None] * marks[BOTTOM]}
        trav = sorted((arc.top, idx) for idx, arc in enumerate(cfg.arcs)
                      if isinstance(arc, TraversingArc))
        lift = {idx: (rank + cfg.arcs[idx].winding) // len(trav)
                for rank, (_top, idx) in enumerate(trav)}
        base = 2 * len(h_contrib)
        for idx, arc in enumerate(cfg.arcs):
            if isinstance(arc, TraversingArc):
                ends[TOP][arc.top] = base + 2 * idx
                ends[BOTTOM][arc.bottom] = base + 2 * idx + 1
                h_contrib.append(lift[idx]
                                 + (2 * arc.bottom + 1 + shift[BOTTOM]) // full[BOTTOM]
                                 - (2 * arc.top + 1 + shift[TOP]) // full[TOP])
                v_contrib.append(1 if tag == "a" else 0)
            else:
                ends[arc.side][arc.start] = base + 2 * idx
                ends[arc.side][arc.end] = base + 2 * idx + 1
                lo, hi = _span(arc, marks[arc.side])
                side_full, side_shift = full[arc.side], shift[arc.side]
                h_contrib.append((hi + side_shift) // side_full - (lo + side_shift) // side_full)
                v_contrib.append(0)
            steps.append(((tag, idx, True), (tag, idx, False)))
        at.append(ends)

    link = [0] * (2 * len(h_contrib))
    for side, n in marks.items():
        ends_a, ends_b, off = at[0][side], at[1][side], offsets[side]
        for point in range(n):
            e, f = ends_a[point], ends_b[(point + off) % n]
            link[e], link[f] = f, e

    used = [False] * len(h_contrib)
    curves = []
    for start in range(len(h_contrib)):
        if used[start]:
            continue
        h = v = 0
        path = []
        arc, enter = start, 2 * start
        while not used[arc]:
            used[arc] = True
            back = enter & 1
            if back:
                h -= h_contrib[arc]
                v -= v_contrib[arc]
            else:
                h += h_contrib[arc]
                v += v_contrib[arc]
            path.append(steps[arc][back])
            enter = link[enter ^ 1]
            arc = enter >> 1
        if arc != start:
            raise CertificateError("a glued dividing curve failed to close up")
        curves.append(ClosedCurve(h, v, tuple(path)))

    if sum(len(c.arcs) for c in curves) != len(h_contrib):
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
    if layer.twisting >= 1:
        raise UnsupportedLayer("layers with positive twisting have no annulus model here")
    marks = 2 * n
    if layer.kind == "nonrotative":
        k = layer.param
        arcs = [TraversingArc(i, (i + k) % marks, k) for i in range(marks)]
        return ArcConfig(marks, marks, tuple(arcs))
    if n != 1:
        raise UnsupportedLayer("rotative layers are modelled with two marked points per side")
    if layer.kind == "rotative_plus":
        arcs = (ParallelArc(TOP, 0, 1), ParallelArc(BOTTOM, 0, 1))
    else:
        arcs = (ParallelArc(TOP, 1, 0), ParallelArc(BOTTOM, 1, 0))
    return ArcConfig(marks, marks, arcs)
