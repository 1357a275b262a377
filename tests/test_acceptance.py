"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (integer/rational arithmetic throughout).
"""

import json
import random

import pytest

from crsdiag import (
    ArcConfig,
    ContactSurgeryDiagram,
    H1Class,
    LegendrianComponent,
    LinkingData,
    OrientedFront,
    ParallelArc,
    SlopeQ,
    TightLayerSpec,
    TraversingArc,
    check_nice,
    classical_invariants,
    contact_to_topological,
    det,
    enumerate_configurations,
    giroux_overtwisted,
    glue_annuli,
    h1_dehn,
    h1_round1,
    h1_round2,
    is_fillable_sufficient,
    joint_pairs_to_pm1,
    kirby1_gadget,
    linking_matrix,
    neg_cf,
    pair_pm1_diagram,
    parse_front_word,
    stabilize,
)
from crsdiag import bridge, dsl
from crsdiag.core import Round1Spec, RoundSurgeryDiagram
from crsdiag.errors import GadgetSelfTestFailed
from crsdiag.slopes import BoundaryData, honda_count

from conftest import FIXTURES, random_front_word, random_pm1_diagram, run_cli
from reference_arcs import family_winding
from test_slopes import _brute_force_raw, _config_raw


def test_ac01_coefficient_bridge_fixture():
    assert contact_to_topological(SlopeQ.of(0), -1) == SlopeQ.of(-1)
    print("AC01 PASS: contact round-1 coefficient 0 at tb=-1 converts to topological -1")


def test_ac02_round2_fixtures():
    expected = (H1Class.free(1), H1Class.trivial())
    assert h1_round2(-1, SlopeQ.of(1)) == expected
    for tb in range(-6, 7):
        # contact coefficient -tb is topological 0
        assert h1_round2(tb, SlopeQ.of(-tb)) == expected
    print("AC02 PASS: round-2 surgery gives (Z, 0) for contact +1 at tb=-1 and for "
          "every topologically 0-framed unknot")


def test_ac03_equivalence_shift_invariance():
    rng = random.Random(3)
    for _ in range(100):
        tb1, tb2 = rng.randint(-5, 5), rng.randint(-5, 5)
        lk = rng.randint(-4, 4)
        n1, n2 = rng.randint(-6, 6), rng.randint(-6, 6)
        base = h1_round1(tb1, tb2, lk, n1, n2)
        for k in range(-6, 7):
            assert h1_round1(tb1, tb2, lk, n1 + k, n2 + k) == base
    print("AC03 PASS: h1_round1 exactly invariant under equal coefficient shifts "
          "(100 random inputs, k in [-6, 6])")


def test_ac04_no_three_torus():
    z3 = H1Class.free(3)
    for diff in range(-10, 11):
        assert h1_round1(0, 0, 1, diff, 0) != z3
    snapshot = h1_round1(-1, -1, 1, 0, 0)
    assert snapshot == H1Class(free_rank=2, torsion=())
    print("AC04 PASS: Hopf round-1 never yields Z^3 (differences in [-10, 10]); "
          "the (-1,-1) case is exactly Z + Z")


def test_ac05_gadget_triviality(monkeypatch):
    for m in range(1, 9):
        gadget = kirby1_gadget(m)
        assert abs(det(linking_matrix(gadget))) == 1
        assert h1_dehn(gadget) == H1Class.trivial()
    monkeypatch.setattr(bridge, "pushoff_chain_linking", lambda m, i, j: 1)
    with pytest.raises(GadgetSelfTestFailed):
        kirby1_gadget(3)
    print("AC05 PASS: gadgets m in [1, 8] have unit determinant and trivial first "
          "homology; a bad configuration aborts with GadgetSelfTestFailed")


def test_ac06_bridge_round_trip():
    rng = random.Random(6)
    verbatim_checked = 0
    for _ in range(200):
        d = random_pm1_diagram(rng)
        rd, plan = pair_pm1_diagram(d)
        back = joint_pairs_to_pm1(rd)
        assert h1_dehn(back) == h1_dehn(d)  # gadgets append trivially
        if plan.case_id == 1:
            assert back == d
            verbatim_checked += 1
    assert verbatim_checked > 0
    print(f"AC06 PASS: 200 random (+-1)-diagram round trips preserve H1 exactly "
          f"({verbatim_checked} even/even cases reproduced verbatim)")


def test_ac07_parity_case_counts():
    def unknots(coeffs):
        comps = tuple(LegendrianComponent(f"L{i}", -1) for i in range(len(coeffs)))
        return ContactSurgeryDiagram(
            comps, LinkingData([]),
            {f"L{i}": SlopeQ.of(c) for i, c in enumerate(coeffs)},
        )

    expected = {1: 2, 2: 2, 3: 4, 4: 3}
    for coeffs, case_id in (([1, 1, -1, -1], 1), ([1], 2), ([-1], 3), ([1, -1], 4)):
        rd, plan = pair_pm1_diagram(unknots(coeffs))
        assert plan.case_id == case_id
        assert len(rd.round1) == expected[case_id]
        for idx in range(len(rd.round1)):
            assert check_nice(rd, idx).nice
    print("AC07 PASS: the four parity cases produce 2, 2, 4, 3 joint pairs, all nice")


def test_ac08_honda_counts():
    from math import gcd

    count = 0
    for q in range(1, 201):
        for p in range(-200, -q):  # exactly the reduced slopes p/q < -1
            if gcd(-p, q) != 1:
                continue
            slope = SlopeQ(p, q)
            expansion = neg_cf(slope)
            assert all(r <= -2 for r in expansion.coefficients)
            assert expansion.value() == slope
            count += 1
    minus_one = BoundaryData(2, SlopeQ.of(-1))

    def front(s):
        return BoundaryData(2, s)

    assert honda_count(minus_one, front(SlopeQ.of(-2)), 0).value == 2
    assert honda_count(minus_one, front(SlopeQ.of(-5, 2)), 0).value == 4
    assert honda_count(minus_one, front(SlopeQ.of(-5, 2)), 3).kind == "two_per_twisting"
    assert honda_count(minus_one, front(SlopeQ.of(-1)), 2).kind == "two_per_twisting"
    assert honda_count(minus_one, front(SlopeQ.of(-1)), 0).kind == "infinite_z_indexed"
    print(f"AC08 PASS: continued-fraction reconstruction exact on {count} reduced "
          "slopes (|p|, |q| <= 200); counts 2, 4, two-per-twisting and the "
          "Z-indexed family all verified")


def test_ac09_configuration_enumeration():
    configs = enumerate_configurations(1, 1, 2)
    assert len(configs) == 5
    assert sorted(map(family_winding, configs)) == [-2, -1, 0, 1, 2]
    for n0 in (1, 2):
        for n1 in (1, 2):
            ours = {_config_raw(c) for c in enumerate_configurations(n0, n1, 0)}
            assert ours == _brute_force_raw(n0, n1, 0)
    print("AC09 PASS: exactly one configuration per winding in [-2, 2] for (1, 1); "
          "counts at winding 0 match the brute-force matcher on {1,2}^2")


def test_ac10_overtwistedness_fixture():
    straight = ArcConfig(2, 2, (TraversingArc(0, 0, 0), TraversingArc(1, 1, 0)))
    parallel = ArcConfig(2, 2, (ParallelArc("top", 0, 1), ParallelArc("bottom", 0, 1)))
    glued = glue_annuli(straight, parallel)
    assert any(c.is_contractible for c in glued.curves)
    assert giroux_overtwisted(glued)
    tight = glue_annuli(straight, straight)
    assert all(not c.is_contractible for c in tight.curves)
    assert not giroux_overtwisted(tight)
    print("AC10 PASS: gluing the holonomy-0 annulus to the boundary-parallel one "
          "yields a contractible dividing curve (overtwisted); against itself only "
          "essential curves (tight)")


def test_ac11_front_invariants():
    unknot = classical_invariants(OrientedFront.forward(parse_front_word("U1 C1")))
    assert (unknot.components[0].tb, unknot.components[0].rot) == (-1, 0)
    clasp = classical_invariants(
        OrientedFront.forward(parse_front_word("U1 U1 X2 X2 C1 C1"))
    )
    assert [(c.tb, c.rot) for c in clasp.components] == [(-1, 0), (-1, 0)]
    assert clasp.lk.get(0, 1) == 1
    rng = random.Random(11)
    for _ in range(100):
        front = OrientedFront.forward(random_front_word(rng))
        before = classical_invariants(front)
        comp = rng.randrange(len(before.components))
        sign = rng.choice([1, -1])
        after = classical_invariants(stabilize(front, comp, sign))
        assert after.components[comp].tb == before.components[comp].tb - 1
        assert after.components[comp].rot == before.components[comp].rot + sign
    print("AC11 PASS: unknot (-1, 0), clasp ((-1,-1), lk=+1); stabilization drops tb "
          "by 1 and shifts rot by the requested sign on 100 random fronts")


def test_ac12_fillability_predicate():
    def pairs_diagram(r2_signs):
        components = []
        linking = []
        round1 = []
        for i, sign in enumerate(r2_signs):
            a, b = f"A{i}", f"B{i}"
            components += [LegendrianComponent(a, -1), LegendrianComponent(b, -1)]
            linking.append((a, b, 1))
            round1.append(Round1Spec((a, b), 0, 0, TightLayerSpec.invariant(), SlopeQ.of(sign)))
        return RoundSurgeryDiagram(tuple(components), LinkingData(linking), tuple(round1))

    assert is_fillable_sufficient(pairs_diagram([-1, -1, -1]))
    for flip in range(3):
        signs = [-1, -1, -1]
        signs[flip] = 1
        assert not is_fillable_sufficient(pairs_diagram(signs))
    print("AC12 PASS: all-nice all-(-1) diagrams are fillable-sufficient; flipping "
          "any single round-2 coefficient to +1 breaks the hypothesis")


def test_ac13_cli_determinism_and_print_identity(tmp_path):
    corpus = sorted(FIXTURES.glob("*.crs"))
    assert corpus
    commands_run = 0
    for path in corpus:
        df = dsl.parse_file(path.read_text())
        printed = dsl.print_file(df)
        assert dsl.parse_file(printed) == df
        assert dsl.print_file(dsl.parse_file(printed)) == printed
        nd = df.diagrams[0]
        jobs = [["parse", str(path)]]
        if nd.kind == "round":
            jobs.append(["homology", str(path)])
            jobs.append(["check-nice", str(path)])
            jobs.append(["fillable", str(path)])
        else:
            jobs.append(["homology", str(path)])
            jobs.append(["invariants", str(path)])
            coefficients = set(map(str, nd.diagram.coefficients.values()))
            if coefficients <= {"1", "-1"}:
                jobs.append(["to-round", str(path)])
        for args in jobs:
            code1, out1 = run_cli(args)
            code2, out2 = run_cli(args)
            assert code1 == code2 == 0, (args, out1)
            assert out1 == out2
            json.loads(out1)
            commands_run += 1
    print(f"AC13 PASS: byte-identical output across two runs for {commands_run} "
          "command invocations; parse -> print -> parse is the identity on every fixture")
