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

The public ArcConfig constructor builds per-point tables, which glue_annuli
reads too: they decide endpoint ranges, point use and the traversing family,
and _check_ranges, _check_counts or _check_family runs only to name a fault.
_check_side and _check_family group the conditions by factor for
slopes.configuration_factors, which checks each side option and family once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Tuple

from .core import integers
from .errors import (
    CertificateError,
    EmptyDividingSet,
    InvalidArcConfig,
    MarkMismatch,
)

TOP, BOTTOM = "top", "bottom"


class TraversingArc(NamedTuple):
    top: int
    bottom: int
    winding: int


class ParallelArc(NamedTuple("_ParallelFields", [("side", str), ("start", int), ("end", int)])):
    __slots__ = ()

    def __new__(cls, side: str, start: int, end: int):
        if side not in (TOP, BOTTOM):
            raise InvalidArcConfig(f"parallel arc side must be {TOP!r} or {BOTTOM!r}, not {side!r}")
        return tuple.__new__(cls, (side, start, end))

    # _replace builds through _make, which would skip the side check
    _make = classmethod(lambda cls, fields: cls(*fields))


@dataclass(frozen=True)
class ArcConfig:
    """Dividing-arc system on an annulus with marked boundary points."""

    top_marks: int
    bottom_marks: int
    arcs: tuple

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        self.__dict__["_tables"] = _validate(self)

    @cached_property
    def _tables(self) -> tuple:
        """The _validate tables; a _trusted config builds them on first read."""
        return _validate(self)

    @classmethod
    def _trusted(cls, top_marks: int, bottom_marks: int, arcs: tuple) -> "ArcConfig":
        """An ArcConfig built without _validate, for arcs whose every condition
        the caller has already checked (slopes.configuration_factors)."""
        cfg = object.__new__(cls)
        cfg.__dict__.update(top_marks=top_marks, bottom_marks=bottom_marks, arcs=arcs)
        return cfg

    def traversing(self) -> List[TraversingArc]:
        return [a for a in self.arcs if isinstance(a, TraversingArc)]

    def parallels(self, side: str) -> List[ParallelArc]:
        return [a for a in self.arcs if isinstance(a, ParallelArc) and a.side == side]

    def canonical_key(self):
        trav = sorted(self.traversing())
        par = sorted(a for a in self.arcs if isinstance(a, ParallelArc))
        return (self.top_marks, self.bottom_marks, tuple(trav), tuple(par))


def _span(arc: ParallelArc, marks: int) -> Tuple[int, int]:
    """Lifted angular interval covered by the cut-off disk of a parallel arc."""
    u = 2 * arc.start + 1
    v = 2 * arc.end + 1
    if v < u:
        v += 2 * marks  # the span wraps past the cut
    return u, v


def _validate(cfg: ArcConfig) -> tuple:
    """Check every condition of an arc system; returns its tables (tops,
    bottoms, turns): the half-edge 2i + k (end k of arcs[i], 0 = top or
    start) at each top and each bottom point, and each arc's (h, v) walked
    forward with no glue offset.  An input with several faults reports the
    first in this order: a mark count or arc field that is not an integer
    (InvalidParameter), mark counts, endpoint ranges in arc order, point use
    per side, the traversing family, traps in arc order, crossings per side.
    The integer types are checked only once some check has failed, so a
    valid system converts none of its fields; a non-integer field that fails
    no check (such as a winding 1.0 beside windings 1) is kept as it is.
    """
    try:
        return _point_tables(cfg)
    except (TypeError, InvalidArcConfig, CertificateError):
        fields = [cfg.top_marks, cfg.bottom_marks]
        for arc in cfg.arcs:
            fields += arc[1:] if isinstance(arc, ParallelArc) else arc
        integers(fields, "arc configuration fields must have integer type")
        raise


def _point_tables(cfg: ArcConfig) -> tuple:
    arcs, marks = cfg.arcs, {TOP: cfg.top_marks, BOTTOM: cfg.bottom_marks}
    _check_marks(*marks.values())
    (n_top, n_bottom), ok = marks.values(), sum(marks.values()) == 2 * len(arcs)
    tops, bottoms = ([-1] * n if ok else [] for n in marks.values())  # only as many entries as arc ends
    par, turns = {TOP: [], BOTTOM: []}, [None] * len(arcs)
    for i, arc in enumerate(arcs if ok else ()):
        if isinstance(arc, TraversingArc):
            top, bottom, _ = arc
            if not (ok := 0 <= top < n_top and 0 <= bottom < n_bottom):
                break
            tops[top], bottoms[bottom] = 2 * i, 2 * i + 1
        elif not (ok := isinstance(arc, ParallelArc) and arc.side in par
                  and 0 <= arc.start < marks[arc.side] and 0 <= arc.end < marks[arc.side]):
            break
        else:
            table = tops if arc.side == TOP else bottoms
            table[arc.start], table[arc.end], turns[i] = 2 * i, 2 * i + 1, (int(arc.end < arc.start), 0)
            par[arc.side].append(i)
    if not ok or -1 in tops or -1 in bottoms:  # name the fault: ranges in arc order, then point use
        _check_ranges(arcs, marks)
        trav = cfg.traversing()
        for k, side in enumerate(marks):
            _check_counts(side, marks[side], [a[k] for a in trav] + [p for a in cfg.parallels(side) for p in a[1:]])
        raise CertificateError("the point tables refused endpoints that every ordered check accepts")
    blocked, orders = {}, []  # per side, the traversing points, and the ends at them
    for side, table, ids in zip(marks, (tops, bottoms), map(set, par.values())):
        blocked[side] = [p for p, e in enumerate(table) if e >> 1 not in ids] if ids else range(len(table))
        orders.append([table[p] for p in blocked[side]] if ids else table)
    if orders[0]:
        t, rho = len(orders[0]), arcs[orders[0][0] >> 1].winding
        if (len({arcs[e >> 1].winding for e in orders[0]}) > 1
                or [e + 1 for e in orders[0]] != orders[1][rho % t:] + orders[1][:rho % t]):
            _check_family([arcs[e >> 1] for e in orders[0]])
            raise CertificateError("_check_family accepts a family the tables refuse")
        low, high = (rho // t, 1), (rho // t + 1, 1)  # rank r crosses the cut (r + rho) // t times
        for e in orders[0][:t - rho % t]:
            turns[e >> 1] = low
        for e in orders[0][t - rho % t:]:
            turns[e >> 1] = high
    _check_traps([arcs[i] for i in sorted(par[TOP] + par[BOTTOM])], marks, blocked)
    for side, ids in par.items():
        _check_crossings([arcs[i] for i in ids], marks[side])
    return tops, bottoms, turns


def _check_side(side: str, marks: Dict[str, int], points: List[int],
                parallels: List[ParallelArc]) -> None:
    """Every condition of one side: the parallel arcs on it and the sorted
    traversing endpoints `points` use each marked point once, no parallel arc
    traps one of `points`, and no two parallel arcs cross."""
    for arc in parallels:
        if arc.side != side:
            raise InvalidArcConfig(f"parallel arc {arc} is not on the {side} side")
    _check_ranges(parallels, marks)
    _check_counts(side, marks[side], points + [p for arc in parallels for p in arc[1:]])
    _check_traps(parallels, marks, {side: points})
    _check_crossings(parallels, marks[side])


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
    The endpoints are marked points (_check_ranges ran first); the least bad
    point is the least one used more than once or the least unused one, found
    in memory that grows with the number of endpoints, not of marks."""
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
    and bottom endpoints of the family.  Its tops are distinct and so are its
    bottoms, so the arc of rank i by top must end at the bottom of rank
    (i + winding) mod t: the bottoms in top order are the sorted bottoms
    rotated by the winding."""
    rho = trav[0].winding
    if any(arc.winding != rho for arc in trav):
        raise InvalidArcConfig("traversing arcs must share one winding integer")
    by_top = sorted(trav)
    bottoms = sorted(arc.bottom for arc in trav)
    shift = rho % len(trav)
    if [arc.bottom for arc in by_top] != bottoms[shift:] + bottoms[:shift]:
        raise InvalidArcConfig("traversing pairing is not the rank-shift matching of its winding")
    return [arc.top for arc in by_top], bottoms


def _check_traps(parallels: List[ParallelArc], marks: Dict[str, int],
                 blocked: Dict[str, List[int]]) -> None:
    """No parallel span holds a traversing endpoint of its side.  `blocked` is
    sorted: the least one inside a span is the least or the first past its start."""
    for arc in parallels:
        full, (u, v) = 2 * marks[arc.side], _span(arc, marks[arc.side])
        points = blocked[arc.side]
        past = bisect_right(points, arc.start)
        inside = [p for p in points[:1] + points[past:past + 1] if (2 * p + 1 - u) % full < v - u]
        if inside:
            raise InvalidArcConfig(f"parallel arc {arc} traps traversing endpoint {min(inside)}")


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

    Half-edge 2i + k is end k of arc i of its annulus, as in the tables of
    _validate.  A curve enters an arc through one half-edge and leaves through
    its partner e ^ 1; it alternates between a and b, and starts at its
    lowest arc, which is one of a's.
    """
    if a.top_marks != b.top_marks or a.bottom_marks != b.bottom_marks:
        raise MarkMismatch(f"mark counts differ: ({a.top_marks}, {a.bottom_marks}) vs ({b.top_marks}, {b.bottom_marks})")
    (*a_ends, a_turns), (*b_ends, b_turns) = a._tables, b._tables
    b_h = [h for h, _ in b_turns]  # b adds nothing to v
    to_b, to_a = {}, {}  # the half-edge glued to each half-edge of a, of b
    for ends, glued, offset in zip(a_ends, b_ends, (offset_top, offset_bottom)):
        off = offset % len(glued)
        for f in glued[len(glued) - off:]:  # shifted past the cut
            b_h[f >> 1] += 2 * (f & 1) - 1
        glued = glued[off:] + glued[:off]
        to_b.update(zip(ends, glued))
        to_a.update(zip(glued, ends))
    used_a, used_b, curves = [False] * len(a.arcs), [False] * len(b.arcs), []
    for start in range(len(a.arcs)):
        if used_a[start]:
            continue
        h, v, path, e = 0, 0, [], 2 * start
        while not used_a[e >> 1]:
            f = to_b[e ^ 1]
            i, j, sign_a, sign_b = e >> 1, f >> 1, 1 - 2 * (e & 1), 1 - 2 * (f & 1)
            used_a[i] = used_b[j] = True
            dh, dv = a_turns[i]
            h, v = h + sign_a * dh + sign_b * b_h[j], v + sign_a * dv
            path += (("a", i, sign_a > 0), ("b", j, sign_b > 0))
            e = to_a[f ^ 1]
        if e != 2 * start:
            raise CertificateError("a glued dividing curve failed to close up")
        curves.append(ClosedCurve(h, v, tuple(path)))
    if sum(len(c.arcs) for c in curves) != len(a.arcs) + len(b.arcs) or not all(used_b):
        raise CertificateError("gluing did not use every arc exactly once")
    return GluedCurves(tuple(curves))


def giroux_overtwisted(glued: GluedCurves) -> bool:
    """Giroux criterion on the glued torus: overtwisted iff some curve is contractible."""
    if not glued.curves:
        raise EmptyDividingSet("a convex torus carries a nonempty dividing set")
    return any(c.is_contractible for c in glued.curves)
