import re
from fractions import Fraction
from itertools import permutations
from math import floor

import pytest

from crsdiag import (
    ArcConfig,
    GluedCurves,
    ParallelArc,
    TightLayerSpec,
    TraversingArc,
    enumerate_configurations,
    giroux_overtwisted,
    glue_annuli,
    layer_to_annulus,
)
from crsdiag.dividing import _parallel_cross, _validate
from crsdiag.errors import EmptyDividingSet, InvalidArcConfig, MarkMismatch, UnsupportedLayer

import reference_arcs as reference

STRAIGHT = ArcConfig(2, 2, (TraversingArc(0, 0, 0), TraversingArc(1, 1, 0)))
BOUNDARY_PARALLEL = ArcConfig(2, 2, (ParallelArc("top", 0, 1), ParallelArc("bottom", 0, 1)))


def test_glue_straight_against_straight():
    glued = glue_annuli(STRAIGHT, STRAIGHT)
    assert sorted(glued.classes()) == [(0, 1), (0, 1)]
    assert not giroux_overtwisted(glued)


def test_glue_straight_against_boundary_parallel():
    glued = glue_annuli(STRAIGHT, BOUNDARY_PARALLEL)
    assert len(glued.curves) == 1
    assert glued.classes() == [(0, 0)]
    assert giroux_overtwisted(glued)


def test_glue_mark_mismatch():
    bigger = ArcConfig(4, 2, (
        TraversingArc(0, 0, 0), TraversingArc(1, 1, 0), ParallelArc("top", 2, 3),
    ))
    with pytest.raises(MarkMismatch):
        glue_annuli(STRAIGHT, bigger)


def test_giroux_empty_dividing_set():
    with pytest.raises(EmptyDividingSet):
        giroux_overtwisted(GluedCurves(()))


def test_layer_to_annulus_nonrotative():
    cfg = layer_to_annulus(TightLayerSpec.nonrotative(0))
    assert cfg.arcs == (TraversingArc(0, 0, 0), TraversingArc(1, 1, 0))
    cfg3 = layer_to_annulus(TightLayerSpec.nonrotative(3))
    assert all(arc.winding == 3 for arc in cfg3.traversing())
    assert len(cfg3.traversing()) == 2
    invariant = layer_to_annulus(TightLayerSpec.invariant())
    assert invariant == cfg


def test_layer_to_annulus_rotative():
    plus = layer_to_annulus(TightLayerSpec.rotative_plus(1))
    assert plus == BOUNDARY_PARALLEL
    minus = layer_to_annulus(TightLayerSpec.rotative_minus(1))
    assert minus.parallels("top") == [ParallelArc("top", 1, 0)]


def test_layer_to_annulus_unsupported():
    with pytest.raises(UnsupportedLayer):
        layer_to_annulus(TightLayerSpec.nonrotative(0, twisting=1))
    with pytest.raises(UnsupportedLayer):
        layer_to_annulus(TightLayerSpec.rotative_plus(2), n=2)


def test_holonomy_layers_glue_tight():
    for k in range(-5, 6):
        annulus = layer_to_annulus(TightLayerSpec.nonrotative(k))
        glued = glue_annuli(annulus, annulus)
        assert all(cls != (0, 0) for cls in glued.classes()), k
    # against the boundary-parallel picture a contractible curve appears
    glued = glue_annuli(layer_to_annulus(TightLayerSpec.nonrotative(0)), BOUNDARY_PARALLEL)
    assert any(cls == (0, 0) for cls in glued.classes())


def test_conservation_every_arc_used_once(rng):
    configs = enumerate_configurations(2, 2, 1)
    for _ in range(60):
        a = rng.choice(configs)
        b = rng.choice(configs)
        offset_top = rng.randrange(4)
        offset_bottom = rng.randrange(4)
        glued = glue_annuli(a, b, offset_top, offset_bottom)
        seen = set()
        for curve in glued.curves:
            for tag, idx, _fwd in curve.arcs:
                assert (tag, idx) not in seen
                seen.add((tag, idx))
        assert len(seen) == len(a.arcs) + len(b.arcs)


def test_classes_invariant_under_full_period_offsets(rng):
    configs = enumerate_configurations(1, 2, 1)
    for _ in range(40):
        a = rng.choice(configs)
        b = rng.choice(configs)
        base = sorted(glue_annuli(a, b, 1, 2).classes())
        shifted = sorted(glue_annuli(a, b, 1 + 2, 2 + 4).classes())
        assert base == shifted


def test_curve_count_matches_permutation_oracle(rng):
    """Independent count: follow the end-identifications as a permutation."""
    configs = enumerate_configurations(2, 1, 1)
    for _ in range(40):
        a = rng.choice(configs)
        b = rng.choice(configs)
        glued = glue_annuli(a, b)
        assert len(glued.curves) == _cycle_count(a, b)


def _endpoints(arc):
    if isinstance(arc, TraversingArc):
        return (("top", arc.top), ("bottom", arc.bottom))
    return ((arc.side, arc.start), (arc.side, arc.end))


def _cycle_count(a: ArcConfig, b: ArcConfig) -> int:
    # nodes are (annulus, side, point); edges: arcs within an annulus and
    # the gluing identification across; curves = cycles of the 2-regular graph
    import networkx as nx

    graph = nx.MultiGraph()
    for tag, cfg in (("a", a), ("b", b)):
        for arc in cfg.arcs:
            (s1, p1), (s2, p2) = _endpoints(arc)
            graph.add_edge((tag, s1, p1), (tag, s2, p2))
    for side, marks in (("top", a.top_marks), ("bottom", a.bottom_marks)):
        for p in range(marks):
            graph.add_edge(("a", side, p), ("b", side, p))
    return nx.number_connected_components(graph)


def test_arc_config_validation():
    with pytest.raises(InvalidArcConfig):
        ArcConfig(2, 2, (TraversingArc(0, 0, 0),))  # unmatched points
    with pytest.raises(InvalidArcConfig):
        ArcConfig(2, 2, (TraversingArc(0, 0, 0), TraversingArc(1, 1, 1)))  # mixed windings
    with pytest.raises(InvalidArcConfig):
        # pairing inconsistent with the rank-shift matching of winding 0
        ArcConfig(2, 2, (TraversingArc(0, 1, 0), TraversingArc(1, 0, 0)))
    with pytest.raises(InvalidArcConfig):
        # crossing parallel arcs on one side
        ArcConfig(4, 4, (
            ParallelArc("top", 0, 2), ParallelArc("top", 1, 3),
            ParallelArc("bottom", 0, 1), ParallelArc("bottom", 2, 3),
        ))
    with pytest.raises(InvalidArcConfig):
        # a parallel span trapping a traversing endpoint
        ArcConfig(4, 4, (
            TraversingArc(0, 0, 0), TraversingArc(2, 1, 0),
            ParallelArc("top", 1, 3),
            ParallelArc("bottom", 2, 3),
        ))


def test_parallel_only_config_is_valid():
    # rotative layers have no traversing arcs; the type allows that
    cfg = ArcConfig(2, 2, (ParallelArc("top", 0, 1), ParallelArc("bottom", 1, 0)))
    assert reference.family_winding(cfg) == 0


def test_parallel_arc_side_is_checked():
    with pytest.raises(InvalidArcConfig):
        ParallelArc("left", 0, 1)


# rational reference geometry: angles as fractions of a turn

def _angle(point, marks):
    return Fraction(2 * point + 1, 2 * marks)


def _span(arc, marks):
    u, v = _angle(arc.start, marks), _angle(arc.end, marks)
    if v < u:
        v += 1
    return u, v


def _shifted_cross(a, b, marks):
    ua, va = _span(a, marks)
    ub, vb = _span(b, marks)
    for k in range(-2, 3):
        if len([x for x in (ub + k, vb + k) if ua < x < va]) == 1:
            return True
    return False


def test_parallel_cross_matches_shifted_comparisons():
    for marks in (2, 4, 6, 8):
        for ends_a in permutations(range(marks), 2):
            for ends_b in permutations(range(marks), 2):
                if set(ends_a) & set(ends_b):
                    continue
                a, b = ParallelArc("top", *ends_a), ParallelArc("top", *ends_b)
                assert _parallel_cross(a, b, marks) == _shifted_cross(a, b, marks), (a, b)


def test_spans_covering_the_circle_together_are_rejected():
    with pytest.raises(InvalidArcConfig):
        ArcConfig(4, 2, (ParallelArc("top", 1, 0), ParallelArc("top", 3, 2),
                         ParallelArc("bottom", 0, 1)))


def _fraction_h(cfg, arc, shift):
    """Signed vertical-cut crossings of one arc, shifted by a fraction of a turn per side."""
    if isinstance(arc, TraversingArc):
        trav = cfg.traversing()
        tops = sorted(x.top for x in trav)
        lift = (tops.index(arc.top) + arc.winding) // len(trav)
        u = _angle(arc.top, cfg.top_marks) + shift["top"]
        v = _angle(arc.bottom, cfg.bottom_marks) + lift + shift["bottom"]
    else:
        u, v = _span(arc, cfg.top_marks if arc.side == "top" else cfg.bottom_marks)
        u, v = u + shift[arc.side], v + shift[arc.side]
    return floor(v) - floor(u)


def _fraction_classes(a, b, offset_top, offset_bottom, glued):
    shifts = {"a": {"top": Fraction(0), "bottom": Fraction(0)},
              "b": {"top": Fraction(offset_top % a.top_marks, a.top_marks),
                    "bottom": Fraction(offset_bottom % a.bottom_marks, a.bottom_marks)}}
    classes = []
    for curve in glued.curves:
        h = v = 0
        for tag, idx, forward in curve.arcs:
            cfg = a if tag == "a" else b
            arc = cfg.arcs[idx]
            sign = 1 if forward else -1
            h += sign * _fraction_h(cfg, arc, shifts[tag])
            v += sign * (tag == "a" and isinstance(arc, TraversingArc))
        classes.append((h, v))
    return classes


def _drawn_arcs(rng, t, parallel, rho):
    """t traversing arcs of winding rho plus disjoint adjacent parallel arcs per side."""
    arcs, ends = [], {}
    for side in ("top", "bottom"):
        marks = t + 2 * parallel[side]
        starts = sorted(rng.sample(range(0, marks, 2), parallel[side]))
        shift = rng.randrange(marks)
        taken = set()
        for start in starts:
            p, q = (start + shift) % marks, (start + 1 + shift) % marks
            arcs.append(ParallelArc(side, p, q))
            taken |= {p, q}
        ends[side] = [x for x in range(marks) if x not in taken]
    tops, bottoms = ends["top"], ends["bottom"]
    arcs += [TraversingArc(tops[i], bottoms[(i + rho) % t], rho) for i in range(t)]
    return ArcConfig(t + 2 * parallel["top"], t + 2 * parallel["bottom"], tuple(arcs))


def test_glued_classes_match_fraction_reference_under_offsets(rng):
    """(h, v) of every curve against rational angles, top and bottom mark counts differing."""
    pairs = []
    for n0, n1 in ((1, 2), (2, 1), (2, 3), (3, 1)):
        configs = enumerate_configurations(n0, n1, 2)
        pairs += [(rng.choice(configs), rng.choice(configs)) for _ in range(25)]
    for _ in range(40):
        t = 2 * rng.randint(1, 6)
        parallel = {"top": rng.randint(0, 3), "bottom": rng.randint(0, 3)}
        if parallel["top"] == parallel["bottom"]:
            parallel["top"] += 1
        a, b = (_drawn_arcs(rng, t, parallel, rng.randint(-3, 3)) for _ in range(2))
        pairs.append((a, b))
    for a, b in pairs:
        assert a.top_marks != a.bottom_marks
        for _ in range(3):
            offset_top = rng.randint(-3 * a.top_marks, 3 * a.top_marks)
            offset_bottom = rng.randint(-3 * a.bottom_marks, 3 * a.bottom_marks)
            glued = glue_annuli(a, b, offset_top, offset_bottom)
            assert glued.classes() == _fraction_classes(a, b, offset_top, offset_bottom, glued)


# --- the replaced condition-by-condition code as oracle -----------------------

def _random_matching(rng, points):
    """A random non-crossing perfect matching of an even, linearly ordered point list."""
    if not points:
        return []
    k = rng.randrange(1, len(points), 2)
    return ([(points[0], points[k])] + _random_matching(rng, points[1:k])
            + _random_matching(rng, points[k + 1:]))


def _random_side(rng, side, marks, t):
    """t traversing endpoints and random nested parallel arcs on one side."""
    shift = rng.randrange(marks)
    if t == 0:
        run = [(i + shift) % marks for i in range(marks)]
        return [], [ParallelArc(side, a, b) for a, b in _random_matching(rng, run)]
    gaps = [0] * t
    for _ in range((marks - t) // 2):
        gaps[rng.randrange(t)] += 2
    points, arcs, position = [], [], 0
    for gap in gaps:
        points.append((position + shift) % marks)
        run = [(position + 1 + i + shift) % marks for i in range(gap)]
        arcs += [ParallelArc(side, a, b) for a, b in _random_matching(rng, run)]
        position += gap + 1
    return sorted(points), arcs


def _random_system(rng, top_marks, bottom_marks, parallel_only=0.1):
    """A valid arc system: nested parallel arcs, any winding, and with
    probability parallel_only no traversing arcs."""
    t = 0 if rng.random() < parallel_only else 2 * rng.randint(1, min(top_marks, bottom_marks) // 2)
    tops, top_arcs = _random_side(rng, "top", top_marks, t)
    bottoms, bottom_arcs = _random_side(rng, "bottom", bottom_marks, t)
    rho = rng.randint(-3, 3)
    arcs = [TraversingArc(tops[i], bottoms[(i + rho) % t], rho) for i in range(t)]
    arcs += top_arcs + bottom_arcs
    rng.shuffle(arcs)
    return ArcConfig(top_marks, bottom_marks, tuple(arcs))


def test_glue_matches_reference_on_random_systems(rng):
    glued = 0
    for _ in range(320):
        top_marks, bottom_marks = 2 * rng.randint(1, 7), 2 * rng.randint(1, 7)
        a = _random_system(rng, top_marks, bottom_marks)
        b = _random_system(rng, top_marks, bottom_marks)
        offset_top = rng.randint(-2 * top_marks, 2 * top_marks)
        offset_bottom = rng.randint(-2 * bottom_marks, 2 * bottom_marks)
        ours = glue_annuli(a, b, offset_top, offset_bottom)
        assert ours == reference.glue_annuli(a, b, offset_top, offset_bottom), (a, b)
        glued += any(isinstance(arc, ParallelArc) for arc in a.arcs + b.arcs)
    assert glued >= 300


def _mutate(rng, top_marks, bottom_marks, arcs):
    """One random edit; most edits break some condition of the arc system."""
    arcs = list(arcs)
    trav = [k for k, arc in enumerate(arcs) if isinstance(arc, TraversingArc)]
    pars = [k for k, arc in enumerate(arcs) if isinstance(arc, ParallelArc)]
    kind = rng.choice(["marks", "drop", "repeat", "endpoint", "endpoint", "winding", "windings",
                       "swap", "swap", "reverse", "reverse", "flip", "rewire", "rewire"])
    if kind == "marks":
        if rng.random() < 0.5:
            top_marks += rng.choice((-2, -1, 1, 2, -top_marks))
        else:
            bottom_marks += rng.choice((-2, -1, 1, 2))
    elif kind == "drop" and arcs:
        del arcs[rng.randrange(len(arcs))]
    elif kind == "repeat" and arcs:
        arcs.insert(rng.randrange(len(arcs) + 1), rng.choice(arcs))
    elif kind == "endpoint" and arcs:
        k = rng.randrange(len(arcs))
        arc = arcs[k]
        field = rng.choice(("top", "bottom") if k in trav else ("start", "end"))
        side = field if k in trav else arc.side
        bound = max(top_marks if side == "top" else bottom_marks, 1)
        arcs[k] = type(arc)(**{**vars(arc), field: rng.randint(-1, bound)})
    elif kind == "winding" and trav:
        k = rng.choice(trav)
        arcs[k] = TraversingArc(arcs[k].top, arcs[k].bottom, arcs[k].winding + rng.choice((-1, 1)))
    elif kind == "windings" and trav:
        step = rng.choice((-1, 1))
        for k in trav:
            arcs[k] = TraversingArc(arcs[k].top, arcs[k].bottom, arcs[k].winding + step)
    elif kind == "swap" and len(trav) > 1:
        i, j = rng.sample(trav, 2)
        a, b = arcs[i], arcs[j]
        arcs[i], arcs[j] = TraversingArc(a.top, b.bottom, a.winding), TraversingArc(b.top, a.bottom, b.winding)
    elif kind == "reverse" and pars:
        k = rng.choice(pars)
        arcs[k] = ParallelArc(arcs[k].side, arcs[k].end, arcs[k].start)
    elif kind == "flip" and pars:
        k = rng.choice(pars)
        arc = arcs[k]
        arcs[k] = ParallelArc("top" if arc.side == "bottom" else "bottom", arc.start, arc.end)
    elif kind == "rewire" and len(pars) > 1:
        i, j = rng.sample(pars, 2)
        a, b = arcs[i], arcs[j]
        if a.side == b.side:
            if rng.random() < 0.5:
                arcs[i], arcs[j] = ParallelArc(a.side, a.start, b.start), ParallelArc(a.side, a.end, b.end)
            else:
                arcs[i], arcs[j] = ParallelArc(a.side, a.start, b.end), ParallelArc(a.side, b.start, a.end)
    return top_marks, bottom_marks, tuple(arcs)


def _outcome(check, cfg):
    try:
        check(cfg)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_validate_matches_reference_on_mutations(rng):
    invalid = multiple = 0
    for _ in range(1500):
        top_marks, bottom_marks = 2 * rng.randint(1, 4), 2 * rng.randint(1, 4)
        cfg = _random_system(rng, top_marks, bottom_marks, parallel_only=0.3)
        shape = (cfg.top_marks, cfg.bottom_marks, cfg.arcs)
        edits = rng.randint(1, 3)
        for _ in range(edits):
            shape = _mutate(rng, *shape)
        mutated = ArcConfig._trusted(*shape)
        expected = _outcome(reference.validate, mutated)
        assert _outcome(_validate, mutated) == expected, mutated
        if expected is not None:
            with pytest.raises(expected[0], match=re.escape(expected[1])):
                ArcConfig(*shape)
            invalid += 1
            multiple += edits > 1
    assert invalid >= 300 and multiple >= 150


def test_trusted_constructor_equals_validated_one():
    arcs = (TraversingArc(0, 1, 1), TraversingArc(1, 0, 1), ParallelArc("top", 2, 3))
    assert ArcConfig._trusted(4, 2, arcs) == ArcConfig(4, 2, arcs)
    with pytest.raises(InvalidArcConfig):
        ArcConfig(4, 2, arcs[:1] + arcs[2:])
