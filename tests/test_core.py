import json

import pytest

from conftest import run_cli
from crsdiag import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    check_nice,
    is_fillable_sufficient,
    validate_diagram,
)
from crsdiag.errors import InvalidParameter, NoJointPartner


def hopf_components():
    return (LegendrianComponent("A", -1), LegendrianComponent("B", -1))


def hopf_pair(k=0, r2=-1, layer=None):
    layer = layer if layer is not None else TightLayerSpec.invariant()
    return RoundSurgeryDiagram(
        components=hopf_components(),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), k, k, layer, SlopeQ.of(r2)),),
    )


def test_validate_well_formed():
    d = ContactSurgeryDiagram(
        components=hopf_components(),
        linking=LinkingData([("A", "B", 1)]),
        coefficients={"A": SlopeQ.of(-1), "B": SlopeQ.of(-1)},
    )
    assert validate_diagram(d) == []
    assert validate_diagram(hopf_pair()) == []


def test_validate_duplicate_label():
    d = ContactSurgeryDiagram(
        components=(LegendrianComponent("A", -1), LegendrianComponent("A", -2)),
        linking=LinkingData([]),
        coefficients={"A": SlopeQ.of(1)},
    )
    assert any(v.code == "duplicate_label" for v in validate_diagram(d))


def test_validate_missing_and_extra_coefficient():
    d = ContactSurgeryDiagram(
        components=(LegendrianComponent("A", -1),),
        linking=LinkingData([]),
        coefficients={"B": SlopeQ.of(1)},
    )
    codes = {v.code for v in validate_diagram(d)}
    assert {"missing_coefficient", "extra_coefficient"} <= codes


def test_validate_component_in_two_pairs():
    comps = hopf_components() + (LegendrianComponent("C", -1),)
    d = RoundSurgeryDiagram(
        components=comps,
        linking=LinkingData([]),
        round1=(
            Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),
            Round1Spec(("B", "C"), 0, 0, TightLayerSpec.invariant()),
        ),
    )
    assert any(v.code == "duplicate_pair_membership" for v in validate_diagram(d))
    # a self-pair is one fault: its label sits in that one pair only
    self_paired = RoundSurgeryDiagram(comps, LinkingData([]),
                                      (Round1Spec(("A", "A"), 0, 0, TightLayerSpec.invariant()),))
    assert [(v.code, v.message) for v in validate_diagram(self_paired)] == [
        ("duplicate_label", "round1[0] pairs 'A' with itself")]


def test_validate_second_round2_on_a_knot():
    joint = hopf_pair()
    one_more = RoundSurgeryDiagram(joint.components, joint.linking, joint.round1,
                                   (Round2Spec("B", SlopeQ.of(1)),))
    assert [(v.code, v.message) for v in validate_diagram(one_more)] == [
        ("duplicate_round2", "round2[1] is a second round 2-surgery on component 'B'")]
    # two standalone ones on one knot; one on the joint pair's round 1-knot A is not a second
    standalone = RoundSurgeryDiagram(
        joint.components, joint.linking, (),
        (Round2Spec("A", SlopeQ.of(1)), Round2Spec("B", SlopeQ.of(2)), Round2Spec("A", SlopeQ.of(3))))
    assert [v.message for v in validate_diagram(standalone)] == [
        "round2[2] is a second round 2-surgery on component 'A'"]
    # one on the joint pair's round 1-knot A is refused too, with its own code
    on_a = RoundSurgeryDiagram(joint.components, joint.linking, joint.round1,
                               (Round2Spec("A", SlopeQ.of(1)),))
    assert [(v.code, v.message) for v in validate_diagram(on_a)] == [
        ("round2_on_round1_knot", "round2[1] is on component 'A' of a round1 pair")]


ROUND2_ON_A_PAIR = [  # round1 statement, round2 knot, the message
    ("joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }", "B",
     "round2[1] is a second round 2-surgery on component 'B'"),
    ("joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }", "A",
     "round2[1] is on component 'A' of a round1 pair"),
    ("round1 (A, B) { r1 = 0, 0; layer = invariant; }", "A",
     "round2[0] is on component 'A' of a round1 pair"),
    ("round1 (A, B) { r1 = 0, 0; layer = invariant; }", "B",
     "round2[0] is on component 'B' of a round1 pair"),
]


@pytest.mark.parametrize("statement, knot, message", ROUND2_ON_A_PAIR)
def test_round2_on_a_round1_knot_is_refused(tmp_path, statement, knot, message):
    # a standalone round 2-surgery on either knot of any round 1 pair has one
    # meaning, refused: round1 (A, B) plus round2 B is not read as a joint pair
    kind = "duplicate_round2" if "second" in message else "round2_on_round1_knot"
    standalone = statement.startswith("round1")
    rd = RoundSurgeryDiagram(
        hopf_components(), LinkingData([("A", "B", 1)]),
        (Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant(),
                    None if standalone else SlopeQ.of(-1)),),
        (Round2Spec(knot, SlopeQ.of(1)),))
    assert [(v.code, v.message) for v in validate_diagram(rd)] == [(kind, message)]
    path = tmp_path / "pair.crs"
    path.write_text("round_diagram r {\n  component A { tb = -1; rot = 0; }\n"
                    "  component B { tb = -1; rot = 0; }\n  lk(A, B) = 1;\n"
                    f"  {statement}\n  round2 {knot} {{ r2 = 1; }}\n}}\n")
    assert run_cli(["parse", str(path)]) == (1, json.dumps(
        {"error": {"code": 1, "kind": "SemanticError", "message": message}},
        separators=(",", ":")) + "\n")


def test_self_linking_rejected():
    with pytest.raises(ValueError):
        LinkingData([("A", "A", 1)])


def test_linking_data_orders_its_entries():
    lk = LinkingData([("B", "A", 2), (3, 1, -1), ("C", 1, 4), ("A", "C", 0)])
    expected = [(1, 3, -1), (1, "C", 4), ("A", "B", 2)]
    assert list(lk.pairs()) == expected
    assert list(lk.pairs()) == expected  # every call yields the same triples
    assert repr(lk) == f"LinkingData({expected!r})"
    assert (lk.get("A", "B"), lk.get("B", "A"), lk.get("A", "C")) == (2, 2, 0)
    assert lk == LinkingData(reversed(expected))
    merged = lk.merged_with(LinkingData([("D", "A", 5)]))
    assert list(merged.pairs()) == expected + [("A", "D", 5)]
    names = {1: "Z", 3: "Y", "A": "A", "B": "B", "C": "C"}
    relabeled = LinkingData((names[a], names[b], v) for a, b, v in lk.pairs())
    assert list(relabeled.pairs()) == [("A", "B", 2), ("C", "Z", 4), ("Y", "Z", -1)]


def test_linking_data_order_matches_the_label_key_sort(rng):
    """Pairs are oriented and sorted as _label_key orders labels: ints
    before strings, ints by value and strings by text."""
    from crsdiag.core import _label_key

    labels = [-3, 0, 2, 10, 11, "10", "2", "-3", "A", "B", "K1", "K10", "a", "z"]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for _ in range(100):
        entries = [(a, b) if rng.random() < 0.5 else (b, a)
                   for a, b in rng.sample(pairs, rng.randint(0, 30))]
        entries = [(a, b, rng.randint(-3, 3)) for a, b in entries]
        oriented = [((a, b) if _label_key(a) <= _label_key(b) else (b, a)) + (v,)
                    for a, b, v in entries if v]
        expected = sorted(oriented, key=lambda t: (_label_key(t[0]), _label_key(t[1])))
        assert list(LinkingData(entries).pairs()) == expected


def test_layer_normalization():
    inv = TightLayerSpec.invariant()
    assert inv == TightLayerSpec.nonrotative(0) == TightLayerSpec.nonrotative(0, 0)
    assert hash(inv) == hash(TightLayerSpec.nonrotative(0))
    assert inv.is_zero_layer()
    assert TightLayerSpec.nonrotative(0).is_zero_layer()
    assert not TightLayerSpec.nonrotative(1).is_zero_layer()
    assert not TightLayerSpec.nonrotative(0, twisting=2).is_zero_layer()
    assert not TightLayerSpec.rotative_plus(1).is_zero_layer()
    with pytest.raises(InvalidParameter, match="unknown layer kind 'invariant'"):
        TightLayerSpec("invariant")


class Index:
    """An integer type other than int: it has __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_fields_are_stored_as_plain_ints():
    slope = SlopeQ(Index(-3), Index(2))
    spec = Round1Spec(("A", "B"), Index(1), True, TightLayerSpec.invariant())
    assert (slope, spec.coeff_a, spec.coeff_b) == (SlopeQ(-3, 2), 1, 1)
    assert all(type(x) is int for x in (slope.p, slope.q, spec.coeff_a, spec.coeff_b))
    with pytest.raises(InvalidParameter, match="^slope terms must have integer type: "):
        SlopeQ(1.5, 1)
    with pytest.raises(InvalidParameter,
                       match="^round 1-surgery coefficients must have integer type: "):
        Round1Spec(("A", "B"), 1, "1", TightLayerSpec.invariant())


@pytest.mark.parametrize("k", range(-3, 4))
def test_check_nice_hopf_family(k):
    report = check_nice(hopf_pair(k=k), 0)
    assert report.nice
    assert report.reasons == ()


def test_check_nice_coefficient_mismatch():
    d = RoundSurgeryDiagram(
        components=hopf_components(),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 1, 2, TightLayerSpec.invariant(), SlopeQ.of(-1)),),
    )
    report = check_nice(d, 0)
    assert not report.nice and not report.equal_coefficients
    assert any("mismatch" in r for r in report.reasons)


def test_check_nice_r2_not_pm1():
    report = check_nice(hopf_pair(r2=-2), 0)
    assert not report.nice and not report.r2_is_pm1


def test_check_nice_nonstandard_layer():
    report = check_nice(hopf_pair(layer=TightLayerSpec.nonrotative(2)), 0)
    assert not report.nice and not report.layer_is_standard


def test_check_nice_no_partner():
    d = RoundSurgeryDiagram(
        components=hopf_components(),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),),
    )
    with pytest.raises(NoJointPartner):
        check_nice(d, 0)


def test_check_nice_invariant_under_relabeling():
    base = hopf_pair(k=2)
    relabeled = RoundSurgeryDiagram(
        components=(LegendrianComponent("X", -1), LegendrianComponent("Y", -1)),
        linking=LinkingData([("X", "Y", 1)]),
        round1=(Round1Spec(("X", "Y"), 2, 2, TightLayerSpec.invariant(), SlopeQ.of(-1)),),
    )
    a, b = check_nice(base, 0), check_nice(relabeled, 0)
    assert (a.nice, a.equal_coefficients, a.r2_is_pm1, a.layer_is_standard) == (
        b.nice, b.equal_coefficients, b.r2_is_pm1, b.layer_is_standard
    )


def test_fillable_all_nice_minus_one():
    assert is_fillable_sufficient(hopf_pair(r2=-1))


def test_fillable_rejects_plus_one():
    assert not is_fillable_sufficient(hopf_pair(r2=1))


def test_fillable_empty_diagram():
    assert is_fillable_sufficient(RoundSurgeryDiagram((), LinkingData([])))


def test_fillable_rejects_stray_round2():
    d = RoundSurgeryDiagram(
        components=(LegendrianComponent("K", -1),),
        linking=LinkingData([]),
        round2=(Round2Spec("K", SlopeQ.of(-1)),),
    )
    assert not is_fillable_sufficient(d)


def test_fillable_rejects_unpaired_round1():
    d = RoundSurgeryDiagram(
        components=hopf_components(),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),),
    )
    assert not is_fillable_sufficient(d)
