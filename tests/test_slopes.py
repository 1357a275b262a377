import ast
import json
import random
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, floor, gcd, prod
from pathlib import Path

import pytest

import crsdiag
from crsdiag import (
    ArcConfig,
    BoundaryData,
    ParallelArc,
    SlopeQ,
    TraversingArc,
    UnimodularMatrix,
    count_configurations,
    enumerate_configurations,
    honda_count,
    neg_cf,
    normalize_slopes,
)
import crsdiag.dividing as dividing
import crsdiag.slopes as slopes
from crsdiag.errors import (
    CertificateError,
    DomainError,
    InvalidArcConfig,
    LimitExceeded,
    NotNormalized,
)
from crsdiag.slopes import _matrix_to_minus_one
from conftest import run_optimized

import reference_arcs as reference


def test_neg_cf_fixtures():
    assert neg_cf(SlopeQ.of(-2)).coefficients == (-2,)
    assert neg_cf(SlopeQ.of(-5, 2)).coefficients == (-3, -2)
    assert neg_cf(SlopeQ.of(-3)).coefficients == (-3,)


def test_neg_cf_domain_errors():
    with pytest.raises(DomainError):
        neg_cf(SlopeQ.of(-1))
    with pytest.raises(DomainError):
        neg_cf(SlopeQ.of(0))
    with pytest.raises(DomainError):
        neg_cf(SlopeQ.infinity())


def test_neg_cf_reconstruction_sweep():
    for q in range(1, 60):
        for p in range(-120, -q, 1):
            s = SlopeQ.of(p, q)
            if not s < SlopeQ.of(-1):
                continue
            cf = neg_cf(s)
            assert all(r <= -2 for r in cf.coefficients)
            assert cf.value() == s


def test_neg_cf_length_matches_the_expansion(rng):
    cases = [SlopeQ.of(p, q) for q in range(1, 40) for p in range(-150, -q)]
    cases += [SlopeQ.of(-rng.randint(q + 1, 20_000 + q), q)
              for q in (rng.randint(1, 5_000) for _ in range(300))]
    for s in cases:
        assert slopes.neg_cf_length(s) == len(neg_cf(s).coefficients), s


def test_neg_cf_refuses_long_expansions_before_building():
    # -(n+1)/n expands to n terms equal to -2
    longest = slopes.NEG_CF_MAX_LENGTH
    assert neg_cf(SlopeQ.of(-(longest + 1), longest)).coefficients == (-2,) * longest
    for n in (longest + 1, 10**12, 10**4000):
        with pytest.raises(LimitExceeded, match="more than 100000 terms"):
            neg_cf(SlopeQ.of(-(n + 1), n))


def test_enum_bounds_keep_every_count_printable():
    most, widest = slopes.ENUM_MAX_PAIRS, slopes.ENUM_MAX_WINDING
    for n0 in (1, most // 2):
        count = count_configurations(n0, most - n0, widest)
        assert len(str(count)) < 4300  # str() itself refuses more digits
    with pytest.raises(LimitExceeded):
        count_configurations(1, most, 0)
    with pytest.raises(LimitExceeded):
        enumerate_configurations(1, 1, widest + 1)


def boundary(slope, ndiv=2):
    return BoundaryData(ndiv, slope)


def test_honda_count_finite():
    minus_one = SlopeQ.of(-1)
    assert honda_count(boundary(minus_one), boundary(SlopeQ.of(-2)), 0).value == 2
    assert honda_count(boundary(minus_one), boundary(SlopeQ.of(-5, 2)), 0).value == 4
    # |(r0+1)(r1+1) r2| for -17/5 = [-4, -2, -3]
    assert neg_cf(SlopeQ.of(-17, 5)).coefficients == (-4, -2, -3)
    assert honda_count(boundary(minus_one), boundary(SlopeQ.of(-17, 5)), 0).value == 9


def _farey_count(p, q):
    """Honda's count of the minimally twisting tight structures between the
    boundary slopes -1 and -p/q (p > q >= 1), read from the Farey graph.

    Shares no formula with src: it uses no continued fraction.  The shortest
    path from -p/q steps to the largest Farey neighbour that is <= -1 until it
    reaches -1.  A block (edges fanning around one vertex) goes on while the
    next vertex neighbours a third vertex of the current edge: the mediant or
    the difference, which may be 1/0.  A block of n edges gives n + 1 choices.
    """
    def neighbours(u, v):
        return abs(u[0] * v[1] - u[1] * v[0]) == 1

    path = [(-p, q)]
    while path[-1] != (-1, 1):
        a, b = path[-1]
        # a neighbour c/d > a/b has c*b - a*d = 1; the smallest d > 0 gives the largest
        d = next(d for d in range(1, b + 1) if (a * d + 1) % b == 0)
        path.append(((a * d + 1) // b, d))
    count, block = 1, 1
    for u, v, w in zip(path, path[1:], path[2:]):
        if neighbours(w, (u[0] + v[0], u[1] + v[1])) or neighbours(w, (u[0] - v[0], u[1] - v[1])):
            block += 1
        else:
            count *= block + 1
            block = 1
    return count * (block + 1)


def test_honda_count_matches_farey_paths():
    minus_one = boundary(SlopeQ.of(-1))
    pairs = [(p, q) for q in range(1, 40) for p in range(q + 1, 6 * q) if gcd(p, q) == 1]
    assert len(pairs) == 2369
    for p, q in pairs:
        assert honda_count(minus_one, boundary(SlopeQ.of(-p, q)), 0).value == _farey_count(p, q), (p, q)


def test_honda_count_twisting_and_infinite():
    minus_one = SlopeQ.of(-1)
    for twisting in (1, 2, 5):
        assert honda_count(boundary(minus_one), boundary(minus_one), twisting).kind == "two_per_twisting"
        assert honda_count(boundary(minus_one), boundary(SlopeQ.of(-7, 3)), twisting).kind == "two_per_twisting"
    assert honda_count(boundary(minus_one), boundary(minus_one), 0).kind == "infinite_z_indexed"


def test_honda_count_unsupported_many_dividing_curves():
    minus_one = SlopeQ.of(-1)
    result = honda_count(boundary(minus_one, 4), boundary(minus_one, 4), 0)
    assert result.kind == "unsupported"
    assert "enumerate_configurations" in result.reason
    result = honda_count(boundary(minus_one, 4), boundary(SlopeQ.of(-2), 4), 0)
    assert result.kind == "unsupported"
    assert "factorization" in result.reason


def test_honda_count_not_normalized():
    with pytest.raises(NotNormalized):
        honda_count(boundary(SlopeQ.of(-2)), boundary(SlopeQ.of(-2)), 0)
    with pytest.raises(NotNormalized):
        honda_count(boundary(SlopeQ.of(-1)), boundary(SlopeQ.of(0)), 0)
    with pytest.raises(NotNormalized):
        honda_count(boundary(SlopeQ.of(-1)), boundary(SlopeQ.infinity()), 0)


def test_honda_count_fibonacci_growth():
    minus_one = SlopeQ.of(-1)
    fib = [1, 1]
    while len(fib) < 42:
        fib.append(fib[-1] + fib[-2])
    previous = 0
    for n in (10, 20, 30, 40):
        slope = SlopeQ.of(-fib[n + 1], fib[n])
        count = honda_count(boundary(minus_one), boundary(slope), 0)
        assert count.kind == "finite"
        assert count.value > previous
        previous = count.value
    assert previous > 10_000  # grows without overflow concerns


def test_normalize_already_normalized():
    matrix, image0, image1 = normalize_slopes(SlopeQ.of(-1), SlopeQ.of(-1))
    assert matrix == UnimodularMatrix.identity()
    assert image0 == SlopeQ.of(-1) and image1 == SlopeQ.of(-1)


def test_normalize_infinity_zero():
    matrix, image0, image1 = normalize_slopes(SlopeQ.infinity(), SlopeQ.of(0))
    assert matrix.apply(SlopeQ.infinity()) == image0 == SlopeQ.of(-1)
    applied = matrix.apply(SlopeQ.of(0))
    assert applied == image1
    assert not applied.is_infinite and applied <= SlopeQ.of(-1)


def _random_slope(rng):
    if rng.random() < 0.1:
        return SlopeQ.infinity()
    return SlopeQ.of(rng.randint(-12, 12), rng.randint(-12, 12) or 1)


def _key(entries):
    absolutes = tuple(abs(x) for x in entries)
    return (tuple(sorted(absolutes)), absolutes, tuple(-x for x in entries))


def _scan_normalize(s0, s1):
    """Oracle: the windowed scan over stabilizer powers that the closed form replaced."""
    base = _matrix_to_minus_one(s0)
    image1 = base.apply(s1)
    sigma = image1.p + image1.q
    spread = 64 + 4 * max(abs(x) for x in base.entries())
    window = set(range(-spread, spread + 1))
    if sigma != 0:
        center = int(-Fraction(image1.q, sigma))  # validity threshold for n
        window |= set(range(center - spread, center + spread + 1))
    minus_one = SlopeQ.of(-1)
    best = best_key = None
    for n in sorted(window):
        candidate = UnimodularMatrix(1 + n, n, -n, 1 - n).mul(base)
        for m in (candidate, UnimodularMatrix(*(-x for x in candidate.entries()))):
            img1 = m.apply(s1)
            if img1.is_infinite or not img1 <= minus_one:
                continue
            key = _key(m.entries())
            if best_key is None or key < best_key:
                best, best_key = m, key
    return best, best.apply(s0), best.apply(s1)


def test_normalize_random_pairs(rng):
    for _ in range(500):
        s0, s1 = _random_slope(rng), _random_slope(rng)
        matrix, image0, image1 = normalize_slopes(s0, s1)
        assert matrix.a * matrix.d - matrix.b * matrix.c == 1
        assert matrix.apply(s0) == image0 == SlopeQ.of(-1)
        assert matrix.apply(s1) == image1
        assert not image1.is_infinite and image1 <= SlopeQ.of(-1)
        assert (matrix, image0, image1) == _scan_normalize(s0, s1)


def test_normalize_matches_scan_large_slopes():
    rng = random.Random(7)
    for _ in range(300):
        s0, s1 = (SlopeQ.of(rng.randint(-200, 200), rng.randint(1, 50)) for _ in range(2))
        assert normalize_slopes(s0, s1) == _scan_normalize(s0, s1)


def test_normalize_matches_scan_equal_slopes(rng):
    slopes = [SlopeQ.infinity()] + [SlopeQ.of(p, q) for p in range(-9, 10) for q in (1, 2, 5)]
    slopes += [SlopeQ.of(rng.randint(-200, 200), rng.randint(1, 50)) for _ in range(20)]
    for s in slopes:
        matrix, image0, image1 = normalize_slopes(s, s)
        assert image0 == image1 == SlopeQ.of(-1)
        assert (matrix, image0, image1) == _scan_normalize(s, s)


def test_slope_action_axiom(rng):
    for _ in range(200):
        a = _random_unimodular(rng)
        b = _random_unimodular(rng)
        s = _random_slope(rng)
        assert a.apply(b.apply(s)) == a.mul(b).apply(s)


def _random_unimodular(rng):
    matrix = UnimodularMatrix.identity()
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            step = UnimodularMatrix(1, k, 0, 1)
        else:
            step = UnimodularMatrix(1, 0, k, 1)
        matrix = matrix.mul(step)
    return matrix


def test_normalize_matches_bounded_brute_force():
    """Independent oracle: exhaustive search over SL(2,Z) with small entries."""
    bound = 12
    cases = [
        (SlopeQ.infinity(), SlopeQ.of(0)),
        (SlopeQ.of(-1), SlopeQ.of(-1)),
        (SlopeQ.of(0), SlopeQ.of(1)),
        (SlopeQ.of(2, 3), SlopeQ.of(-5)),
        (SlopeQ.of(1), SlopeQ.infinity()),
    ]
    minus_one = SlopeQ.of(-1)
    for s0, s1 in cases:
        best_key = None
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                for c in range(-bound, bound + 1):
                    for d in range(-bound, bound + 1):
                        if a * d - b * c != 1:
                            continue
                        m = UnimodularMatrix(a, b, c, d)
                        if m.apply(s0) != minus_one:
                            continue
                        img = m.apply(s1)
                        if img.is_infinite or not img <= minus_one:
                            continue
                        key = (tuple(sorted(map(abs, (a, b, c, d)))),
                               tuple(map(abs, (a, b, c, d))),
                               tuple(-x for x in (a, b, c, d)))
                        if best_key is None or key < best_key:
                            best_key = key
        ours, _i0, _i1 = normalize_slopes(s0, s1)
        entries = ours.entries()
        our_key = (tuple(sorted(map(abs, entries))),
                   tuple(map(abs, entries)),
                   tuple(-x for x in entries))
        assert best_key is not None
        if max(abs(x) for x in entries) <= bound:
            assert our_key == best_key


def test_typed_checks_raise_under_optimize():
    script = textwrap.dedent("""
        import sys
        from crsdiag import (BoundaryData, ContactSurgeryDiagram, H1Class, IntMatrix,
                             LegendrianComponent, LinkingData, Round1Spec, Round2Spec, SlopeQ,
                             TightLayerSpec, UnimodularMatrix, det, linking_matrix)
        from crsdiag.bridge import PairingPlan, pushoff_chain_linking
        from crsdiag.errors import InvalidParameter
        from crsdiag.slopes import NegCF

        half = ContactSurgeryDiagram((LegendrianComponent("K", -1),), LinkingData(),
                                     {"K": SlopeQ.of(1, 2)})
        for build in (lambda: BoundaryData(3, SlopeQ.of(-1)),
                      lambda: UnimodularMatrix(1, 1, 1, 1),
                      lambda: TightLayerSpec.rotative_plus(0),
                      lambda: H1Class(0, (3, 2)),
                      lambda: IntMatrix(((1, 2), (3,))),
                      lambda: det(IntMatrix.from_rows([[1, 2, 3]])),
                      lambda: H1Class(-1, ()),
                      lambda: linking_matrix(half),
                      lambda: SlopeQ(2, 4),
                      lambda: Round1Spec(("A",), 1.5, 0, TightLayerSpec.invariant()),
                      lambda: pushoff_chain_linking(2, 0, 3),
                      lambda: pushoff_chain_linking(2, 1, 1),
                      lambda: PairingPlan(5, ()),
                      lambda: NegCF((-2.5,)),
                      lambda: NegCF(("-3",)),
                      lambda: BoundaryData(2.0, SlopeQ.of(-1)),
                      lambda: UnimodularMatrix(1.0, 0, 0, 1),
                      lambda: TightLayerSpec("nonrotative", 1.5),
                      lambda: TightLayerSpec("nonrotative", 0, 0.5),
                      lambda: TightLayerSpec("rotative_plus", "3"),
                      lambda: SlopeQ(1.5, 1),
                      lambda: SlopeQ("1", 1),
                      lambda: Round1Spec(("A", "B"), 1.5, 0, TightLayerSpec.invariant()),
                      lambda: IntMatrix(5),
                      lambda: H1Class(0, 5),
                      lambda: Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant(), -1),
                      lambda: Round2Spec("B", 1)):
            try:
                build()
            except InvalidParameter:
                print("raised", sys.flags.optimize)
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised 1\n" * 27


def test_no_assert_statement_in_src():
    # python -O deletes assert statements, so no check in the library may be one
    src = Path(crsdiag.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_import_cycle_in_src():
    # every relative import counts, also one inside a function body
    src = Path(crsdiag.__file__).parent
    imports = {}
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        imports[path.stem] = targets

    def cycle_from(module, path):
        if module in path:
            return path[path.index(module):] + [module]
        for target in sorted(imports.get(module, ())):
            found = cycle_from(target, path + [module])
            if found:
                return found
        return None

    cycles = [" -> ".join(c) for c in (cycle_from(m, []) for m in sorted(imports)) if c]
    assert cycles == []


def test_no_unused_import_in_src():
    # a name a module imports and never reads is a leftover of removed code;
    # __init__ imports to re-export, and __future__ imports are directives
    src = Path(crsdiag.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []


# top-level definitions that stay although nothing in src reads them
UNREAD_KEPT = {
    "front.stabilize": "the front move that push-off chains and contact-to-round fronts are to use",
    "homology.h1_round1": "public one-surgery forms; traced by perfbench by name",
    "homology.h1_round2": "public one-surgery forms; traced by perfbench by name",
    "slopes.enumerate_configurations": "a cell listed as ArcConfig values; a traced benchmark target and test oracle",
}


def _reads(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_no_unread_definition_in_src():
    # a function or class that src reads only inside its own body is surface
    # that no subcommand reaches; __init__ re-exports by import, not by a read
    src = Path(crsdiag.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    read = sum(map(_reads, trees.values()), Counter())
    unread = [f"{stem}.{node.name}" for stem, tree in trees.items() if stem != "__init__"
              for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and read[node.name] == _reads(node)[node.name]]
    assert sorted(set(unread) - set(UNREAD_KEPT)) == []


# --- configuration enumeration ------------------------------------------------

def test_enumerate_one_per_winding():
    configs = enumerate_configurations(1, 1, 2)
    assert len(configs) == 5
    assert sorted(map(reference.family_winding, configs)) == [-2, -1, 0, 1, 2]
    for cfg in configs:
        assert len(cfg.traversing()) == 2


def test_enumerate_requires_traversing_arcs():
    # with two points per side the parallel-only pairing is not admissible,
    # so every configuration contains traversing arcs
    for cfg in enumerate_configurations(1, 1, 3):
        assert len(cfg.traversing()) >= 2


def test_enumerate_monotone_in_winding_bound():
    previous = 0
    for bound in range(0, 4):
        count = len(enumerate_configurations(1, 2, bound))
        assert count >= previous
        previous = count


def test_enumerate_pairwise_distinct():
    configs = enumerate_configurations(2, 2, 1)
    keys = [cfg.canonical_key() for cfg in configs]
    assert len(keys) == len(set(keys))


def test_enumerate_conditions_hold():
    for cfg in enumerate_configurations(2, 1, 1):
        used = {("top", i): 0 for i in range(cfg.top_marks)}
        used.update({("bottom", i): 0 for i in range(cfg.bottom_marks)})
        for arc in cfg.arcs:
            if isinstance(arc, TraversingArc):
                used[("top", arc.top)] += 1
                used[("bottom", arc.bottom)] += 1
            else:
                used[(arc.side, arc.start)] += 1
                used[(arc.side, arc.end)] += 1
        assert all(v == 1 for v in used.values())
        assert len(cfg.traversing()) >= 2


# independent brute-force oracle: enumerate raw taut geometries directly

def _angle(point, marks):
    return Fraction(2 * point + 1, 2 * marks)


def _span(start, end, marks):
    u, v = _angle(start, marks), _angle(end, marks)
    if v < u:
        v += 1
    return u, v


def _trav_cross(t1, t2, n0, n1):
    (top1, bot1, w1), (top2, bot2, w2) = t1, t2
    u1, u2 = _angle(top1, n0), _angle(top2, n0)
    v1 = _angle(bot1, n1) + w1
    v2 = _angle(bot2, n1) + w2
    return floor(u1 - u2) != floor(v1 - v2)


def _trav_parallel_cross(trav, par, n0, n1):
    side, start, end = par
    marks = n0 if side == "top" else n1
    point = trav[0] if side == "top" else trav[1]
    u, v = _span(start, end, marks)
    w = _angle(point, marks)
    return floor(v - w) - floor(u - w) >= 1


def _par_par_cross(p1, p2, n0, n1):
    if p1[0] != p2[0]:
        return False
    marks = n0 if p1[0] == "top" else n1
    u1, v1 = _span(p1[1], p1[2], marks)
    u2, v2 = _span(p2[1], p2[2], marks)
    for k in range(-2, 3):
        inside = [x for x in (u2 + k, v2 + k) if u1 < x < v1]
        if len(inside) == 1:
            return True
    return False


def _matchings(points):
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for match in _matchings(rest):
            yield [(first, points[i])] + match


def _brute_force_raw(n0, n1, max_winding):
    top_marks, bottom_marks = 2 * n0, 2 * n1
    points = [("top", i) for i in range(top_marks)] + [("bottom", i) for i in range(bottom_marks)]
    results = set()
    for matching in _matchings(points):
        traversing = []
        parallel_pairs = []
        for a, b in matching:
            if a[0] == b[0]:
                parallel_pairs.append((a[0], a[1], b[1]))
            else:
                top = a[1] if a[0] == "top" else b[1]
                bottom = a[1] if a[0] == "bottom" else b[1]
                traversing.append((top, bottom))
        if len(traversing) < 2:
            continue
        winding_options = range(-max_winding - 1, max_winding + 2)
        stack = [[]]
        for top, bottom in traversing:
            stack = [prefix + [(top, bottom, w)] for prefix in stack for w in winding_options]
        span_stack = [[]]
        for side, x, y in parallel_pairs:
            span_stack = [prefix + [choice]
                          for prefix in span_stack
                          for choice in ((side, x, y), (side, y, x))]
        for trav_choice in stack:
            if abs(sum(w for _t, _b, w in trav_choice)) > max_winding:
                continue
            if any(_trav_cross(t1, t2, top_marks, bottom_marks)
                   for t1, t2 in combinations(trav_choice, 2)):
                continue
            for par_choice in span_stack:
                if any(_par_par_cross(p1, p2, top_marks, bottom_marks)
                       for p1, p2 in combinations(par_choice, 2)):
                    continue
                if any(_trav_parallel_cross(t, p, top_marks, bottom_marks)
                       for t in trav_choice for p in par_choice):
                    continue
                results.add((tuple(sorted(trav_choice)), tuple(sorted(par_choice))))
    return results


def _config_raw(cfg: ArcConfig):
    trav = sorted(cfg.traversing(), key=lambda a: a.top)
    raw_trav = []
    if trav:
        rho = trav[0].winding
        t = len(trav)
        bottoms = sorted(a.bottom for a in trav)
        for rank, arc in enumerate(trav):
            lift = (rank + rho) // t
            raw_trav.append((arc.top, bottoms[(rank + rho) % t], lift))
    raw_par = sorted((a.side, a.start, a.end) for a in cfg.arcs if isinstance(a, ParallelArc))
    return (tuple(sorted(raw_trav)), tuple(raw_par))


@pytest.mark.parametrize("n0,n1", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_enumerate_matches_brute_force_at_winding_zero(n0, n1):
    ours = {_config_raw(cfg) for cfg in enumerate_configurations(n0, n1, 0)}
    brute = _brute_force_raw(n0, n1, 0)
    assert ours == brute


# --- the factored enumeration against the code it replaced ---------------------

@pytest.mark.parametrize("n0", [1, 2, 3, 4])
def test_enumerate_matches_reference(n0):
    """The product of the certified factors, each configuration built through
    the validating constructor, is the reference enumeration, in its order."""
    for n1 in range(1, 5):
        for w in range(3):
            product = [ArcConfig(2 * n0, 2 * n1, trav + top + bottom)
                       for trav, tops, bottoms in slopes.configuration_factors(n0, n1, w)
                       for bottom in bottoms for top in tops]
            assert product == reference.enumerate_configurations(n0, n1, w), (n0, n1, w)
            assert enumerate_configurations(n0, n1, w) == product


@pytest.mark.parametrize("side", ["top", "bottom"])
def test_side_options_match_reference(side):
    for m in range(2, 13, 2):
        marks = {"top": m, "bottom": m}
        for t in range(2, m + 1, 2):
            expected = []
            for points in combinations(range(m), t):
                choices = reference._parallel_choices(m, list(points), side)
                if choices:
                    options = [(tuple(sorted((a.start, a.end) for a in choice)), tuple(choice))
                               for choice in choices]
                    options.sort(key=lambda option: option[0])
                    expected.append((points, [arcs for _, arcs in options]))
            assert slopes._side_options(side, marks, t) == expected, (m, t)


def test_enumeration_runs_no_per_configuration_validate(monkeypatch):
    calls = []
    real = dividing._validate
    monkeypatch.setattr(dividing, "_validate", lambda cfg: calls.append(cfg) or real(cfg))
    assert len(enumerate_configurations(4, 4, 0)) == 3985
    assert calls == []
    ArcConfig(2, 2, (TraversingArc(0, 0, 0), TraversingArc(1, 1, 0)))
    assert len(calls) == 1  # the public constructor still validates


# Each forgery edits the top systems _side_systems yields for one (top marks,
# traversing points) factor of a cell; the enumeration must raise.
FORGERIES = [
    ("crossing", (3, 1, 0), 6, (0, 1),
     lambda options: [[ParallelArc("top", 2, 4), ParallelArc("top", 3, 5)]] + options[1:],
     "InvalidArcConfig"),
    ("trapping", (2, 1, 0), 4, (0, 1), lambda options: [[ParallelArc("top", 3, 2)]],
     "InvalidArcConfig"),
    ("wrong side", (2, 1, 0), 4, (0, 1), lambda options: [[ParallelArc("bottom", 2, 3)]],
     "InvalidArcConfig"),
    ("repeated", (3, 1, 0), 6, (0, 1), lambda options: [options[0], options[0]],
     "CertificateError"),
    ("extra repeat", (3, 1, 0), 6, (0, 1), lambda options: options + options[:1],
     "CertificateError"),
    ("missing", (3, 1, 0), 6, (0, 1), lambda options: options[:1], "CertificateError"),
]


def forged_outcomes():
    """Run every forgery; returns (name, raised exception type name, expected name)."""
    real = slopes._side_systems
    results = []
    for name, cell, marks, points, edit, expected in FORGERIES:
        def forged(side, m, t, marks=marks, points=points, edit=edit):
            systems = list(real(side, m, t))
            if side == "top" and m == marks:
                options = [arcs for pts, arcs in systems if pts == points]
                systems = [s for s in systems if s[0] != points]
                if options:
                    systems += [(points, tuple(arcs)) for arcs in edit(options)]
            return systems
        slopes._side_systems = forged
        try:
            enumerate_configurations(*cell)
        except (InvalidArcConfig, CertificateError) as exc:
            results.append((name, type(exc).__name__, expected))
        else:
            results.append((name, None, expected))
        finally:
            slopes._side_systems = real
    return results


def test_forged_factors_raise():
    for name, raised, expected in forged_outcomes():
        assert raised == expected, name


def test_forged_factors_raise_under_optimize():
    result = run_optimized(textwrap.dedent("""
        import json, sys
        from test_slopes import forged_outcomes
        print(json.dumps([sys.flags.optimize, forged_outcomes()]))
    """))
    assert result.returncode == 0, result.stderr
    optimize, outcomes = json.loads(result.stdout)
    assert optimize == 1 and len(outcomes) == len(FORGERIES)
    for name, raised, expected in outcomes:
        assert raised == expected, name


def test_repeated_family_raises(monkeypatch):
    """A forged top side whose second endpoint group repeats the first: both
    have one option, so the count holds and only the family keys refuse it."""
    real = slopes._side_options

    def forged(side, marks, t):
        groups = real(side, marks, t)
        if side == "top" and t == 2:
            assert len(groups[0][1]) == len(groups[1][1]) == 1
            groups[1] = groups[0]
        return groups

    monkeypatch.setattr(slopes, "_side_options", forged)
    with pytest.raises(CertificateError, match="traversing family keys"):
        enumerate_configurations(2, 2, 0)


# --- count_configurations -------------------------------------------------------

def test_count_matches_enumeration():
    for n0 in range(1, 5):
        for n1 in range(1, 5):
            for w in range(3):
                assert count_configurations(n0, n1, w) == len(enumerate_configurations(n0, n1, w))


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def _brute_side(marks, t):
    """Sum over t-subsets with all cyclic gaps even of the Catalan product of the half-gaps."""
    total = 0
    for chosen in combinations(range(marks), t):
        gaps = [(chosen[(i + 1) % t] - chosen[i] - 1) % marks for i in range(t)]
        if all(g % 2 == 0 for g in gaps):
            total += prod(_catalan(g // 2) for g in gaps)
    return total


def test_count_matches_subset_brute_force_at_winding_zero():
    side = {(marks, t): _brute_side(marks, t) for marks in range(2, 13, 2) for t in range(2, marks + 1, 2)}
    for n0 in range(1, 7):
        for n1 in range(1, 7):
            brute = sum(side[2 * n0, t] * side[2 * n1, t] for t in range(2, 2 * min(n0, n1) + 1, 2))
            assert count_configurations(n0, n1, 0) == brute, (n0, n1)


def _side_count(marks, t):
    """The gap-length recurrence that counted one side's parallel-arc systems
    before the closed form: runs[L] is the Catalan-weighted number of ways to
    fill L free points with t - 1 consecutive gaps, and the remaining gap, of
    length g, wraps past point 0 and leaves g + 1 places for the first
    traversing point."""
    free = marks - t
    weight = [_catalan(g // 2) if g % 2 == 0 else 0 for g in range(free + 1)]
    runs = [1] + [0] * free
    for _ in range(t - 1):
        runs = [sum(weight[g] * runs[length - g] for g in range(length + 1))
                for length in range(free + 1)]
    return sum((g + 1) * weight[g] * runs[free - g] for g in range(free + 1))


def test_count_matches_gap_recurrence():
    for marks in range(2, 61, 2):
        for t in range(2, marks + 1, 2):
            assert _side_count(marks, t) == comb(marks, (marks - t) // 2), (marks, t)
    side = {(marks, t): _side_count(marks, t) for marks in range(2, 33, 2) for t in range(2, marks + 1, 2)}
    for n0 in range(1, 17):
        for n1 in range(1, 17):
            for w in range(3):
                expected = (2 * w + 1) * sum(side[2 * n0, t] * side[2 * n1, t]
                                             for t in range(2, 2 * min(n0, n1) + 1, 2))
                assert count_configurations(n0, n1, w) == expected, (n0, n1, w)


def test_count_known_values_and_domain():
    assert count_configurations(5, 5, 0) == 60626
    assert count_configurations(4, 4, 0) == 3985
    assert count_configurations(5, 5, 1) == 3 * 60626
    for cell in ((0, 2, 0), (2, 0, 0), (2, 2, -1)):
        with pytest.raises(DomainError):
            count_configurations(*cell)
