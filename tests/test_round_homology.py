"""First homology of round diagrams that mix surgeries, by rules that share no
formula with `homology._h1_link`.

* A split union of pieces of the three shapes that the replaced code took
  (one standalone round 1-surgery on two components, one standalone round
  2-surgery on a knot, nice joint pairs) has the direct sum of the pieces'
  connected H1, each from `reference_pairs.h1_round_diagram`, and their inner
  pieces in order.
* A component with no surgery, linked arbitrarily, changes nothing.
* Shifting both coefficients of a standalone round 1-surgery by the same k
  changes nothing.

And every round diagram that `parse` accepts gets an H1 or one of two
refusals.

Each check returns a list of problems instead of asserting, so the same
code runs in process and under ``python -O``, which removes asserts.
"""

import json
import random
import textwrap

from crsdiag import (
    H1Class,
    LegendrianComponent,
    LinkingData,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    h1_round_diagram,
)
from conftest import FIXTURES, edit_lexemes, random_round_text, run_cli, run_optimized
import reference_pairs

LAYERS = (TightLayerSpec.invariant(), TightLayerSpec.nonrotative(2), TightLayerSpec.rotative_plus(1))


def elementary(group):
    """(free rank, sorted prime-power torsion) of an H1Class, by trial division."""
    powers = []
    for d in group.torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                powers.append(q)
            p += 1
    return group.free_rank, sorted(powers)


def piece(rng, shape, prefix):
    """A round diagram of one of the three old shapes, labels starting with prefix."""
    n = {"round1": 2, "round2": 1, "joint": 2 * rng.randint(1, 2)}[shape]
    labels = [f"{prefix}{i}" for i in range(n)]
    components = tuple(LegendrianComponent(lab, rng.randint(-4, 1), rng.randint(-1, 1))
                       for lab in labels)
    linking = [(a, b, rng.randint(-3, 3)) for i, a in enumerate(labels) for b in labels[i + 1:]]
    round1, round2 = (), ()
    if shape == "round1":
        round1 = (Round1Spec(tuple(labels), rng.randint(-3, 3), rng.randint(-3, 3),
                             rng.choice(LAYERS)),)
    elif shape == "round2":
        round2 = (Round2Spec(labels[0], SlopeQ.of(rng.randint(-7, 7), rng.randint(1, 3))),)
    else:
        round1 = tuple(Round1Spec((a, b), k, k, TightLayerSpec.invariant(), SlopeQ.of(rng.choice((-1, 1))))
                       for a, b, k in zip(labels[::2], labels[1::2], [rng.randint(-2, 2) for _ in labels]))
    return RoundSurgeryDiagram(components, LinkingData(linking), round1, round2)


def split_union(pieces):
    return RoundSurgeryDiagram(
        sum((p.components for p in pieces), ()),
        LinkingData(triple for p in pieces for triple in p.linking.pairs()),
        sum((p.round1 for p in pieces), ()),
        sum((p.round2 for p in pieces), ()),
    )


def random_union(rng):
    shapes = [rng.choice(("round1", "round2", "joint")) for _ in range(rng.randint(1, 4))]
    pieces = [piece(rng, shape, f"P{i}_") for i, shape in enumerate(shapes)]
    return pieces, split_union(pieces)


def split_union_problems(seed, count=60):
    rng, problems = random.Random(seed), []
    for _ in range(count):
        pieces, union = random_union(rng)
        parts = [reference_pairs.h1_round_diagram(p) for p in pieces]
        rank = sum(groups[0].free_rank for groups in parts)
        torsion = sorted(x for groups in parts for x in elementary(groups[0])[1])
        inner = [g for groups in parts for g in groups[1:]]
        got = h1_round_diagram(union)
        if elementary(got[0]) != (rank, torsion) or got[1:] != inner:
            problems.append(f"{union}: {got}, expected rank {rank}, {torsion} and {inner}")
    return problems


def unsurgered_component_problems(seed, count=60):
    rng, problems = random.Random(seed), []
    for _ in range(count):
        _pieces, union = random_union(rng)
        extra = [(c.label, "Z", rng.randint(-3, 3)) for c in union.components]
        grown = RoundSurgeryDiagram(union.components + (LegendrianComponent("Z", rng.randint(-4, 1)),),
                                    LinkingData([*union.linking.pairs(), *extra]),
                                    union.round1, union.round2)
        if h1_round_diagram(grown) != h1_round_diagram(union):
            problems.append(f"{grown}: {h1_round_diagram(grown)} != {h1_round_diagram(union)}")
    return problems


def shift_problems(seed, count=40):
    rng, problems = random.Random(seed), []
    for _ in range(count):
        pieces, _union = random_union(rng)
        pieces.append(piece(rng, "round1", "S_"))
        rng.shuffle(pieces)
        union = split_union(pieces)
        # link the standalone round 1-surgery to the rest
        extra = [(lab, c.label, rng.randint(-2, 2)) for lab in ("S_0", "S_1")
                 for c in union.components if not c.label.startswith("S_")]
        union = RoundSurgeryDiagram(union.components, LinkingData([*union.linking.pairs(), *extra]),
                                    union.round1, union.round2)
        base = h1_round_diagram(union)
        for k in (-3, -1, 2, 5):
            shifted = tuple(Round1Spec(r1.pair, r1.coeff_a + k, r1.coeff_b + k, r1.layer)
                            if r1.pair == ("S_0", "S_1") else r1 for r1 in union.round1)
            moved = RoundSurgeryDiagram(union.components, union.linking, shifted, union.round2)
            if h1_round_diagram(moved) != base:
                problems.append(f"{moved}: {h1_round_diagram(moved)} != {base}")
    return problems


def hand_case_problems():
    # A, B, C with lk(A, B) = 1 and lk(B, C) = 2, round1 (A, B) with n = 0 and
    # round2 C with r2 = 1, all tb = -1.  C's row is lambda_C = 2 mu_B; the
    # round 1 rows give x = mu_A = mu_B = a, b = 0 and 2 mu_C = 0, so H1 is
    # Z/2 + Z/2 plus the free summand, and the inner piece is S^3.
    rd = RoundSurgeryDiagram(
        tuple(LegendrianComponent(lab, -1) for lab in "ABC"),
        LinkingData([("A", "B", 1), ("B", "C", 2)]),
        (Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),),
        (Round2Spec("C", SlopeQ.of(1)),),
    )
    got = h1_round_diagram(rd)
    return [] if got == [H1Class(1, (2, 2)), H1Class.trivial()] else [f"hand case: {got}"]


CHECKS = ("split_union_problems(1)", "split_union_problems(2)",
          "unsurgered_component_problems(1)", "shift_problems(1)", "hand_case_problems()")


def test_split_union_is_a_direct_sum():
    assert split_union_problems(1) == []
    assert split_union_problems(2) == []


def test_unsurgered_component_changes_nothing():
    assert unsurgered_component_problems(1) == []


def test_round1_shift_inside_a_larger_link():
    assert shift_problems(1) == []


def test_mixed_round_hand_case():
    assert hand_case_problems() == []
    code, out = run_cli(["homology", str(FIXTURES / "mixed_round.crs")])
    assert (code, out) == (0, '{"components":[{"free_rank":1,"torsion":[2,2]},'
                              '{"free_rank":0,"torsion":[]}]}\n')


def test_checks_under_optimize():
    script = textwrap.dedent(f"""
        import json, sys
        from test_round_homology import *

        print(json.dumps([sys.flags.optimize] + [{", ".join(CHECKS)}]))
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [1] + [[] for _ in CHECKS]


def test_every_parsed_round_diagram_gets_an_h1_or_one_of_two_refusals(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "r.crs"
    answered = refused = 0
    for i in range(400):
        text = random_round_text(rng)
        path.write_text(edit_lexemes(rng, text, rng.randint(1, 2)) if i % 4 == 3 else text)
        if run_cli(["parse", str(path)])[0] != 0:
            continue
        code, out = run_cli(["homology", str(path)])
        if code == 0:
            answered += 1
            continue
        refused += 1
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (1, 1)
        assert error["kind"] == "NotNice" or (error["kind"], error["message"]) == (
            "UnsupportedComposition", "round 2-surgery coefficient must be rational"), error
    assert answered > 100 and refused > 50
