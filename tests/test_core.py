import json
from dataclasses import replace

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
from crsdiag.errors import InvalidParameter, NoJointPartner, SemanticError, UnknownComponent


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


def refusal(build, *parts, **fields):
    """The SemanticError message of a diagram that fails to build."""
    with pytest.raises(SemanticError) as info:
        build(*parts, **fields)
    return str(info.value)


def test_validate_duplicate_label():
    comps = (LegendrianComponent("A", -1), LegendrianComponent("A", -2))
    assert refusal(ContactSurgeryDiagram, comps, LinkingData([]), {"A": SlopeQ.of(1)}) == (
        "component label 'A' repeats")


def test_validate_missing_and_extra_coefficient():
    assert refusal(ContactSurgeryDiagram, (LegendrianComponent("A", -1),), LinkingData([]),
                   {"B": SlopeQ.of(1)}) == (
        "component 'A' has no surgery coefficient; coefficient on unknown component 'B'")


def test_validate_component_in_two_pairs():
    comps = hopf_components() + (LegendrianComponent("C", -1),)
    two_pairs = (Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),
                 Round1Spec(("B", "C"), 0, 0, TightLayerSpec.invariant()))
    assert refusal(RoundSurgeryDiagram, comps, LinkingData([]), two_pairs) == (
        "component 'B' sits in more than one round1 pair")
    # a self-pair is one fault: its label sits in that one pair only
    self_paired = (Round1Spec(("A", "A"), 0, 0, TightLayerSpec.invariant()),)
    assert refusal(RoundSurgeryDiagram, comps, LinkingData([]), self_paired) == (
        "round1[0] pairs 'A' with itself")


def test_validate_second_round2_on_a_knot():
    joint = hopf_pair()
    assert refusal(RoundSurgeryDiagram, joint.components, joint.linking, joint.round1,
                   (Round2Spec("B", SlopeQ.of(1)),)) == (
        "round2[1] is a second round 2-surgery on component 'B'")
    # two standalone ones on one knot: the constructor stores round2 by knot,
    # so the second one on A is round2[1]
    assert refusal(RoundSurgeryDiagram, joint.components, joint.linking, (),
                   (Round2Spec("A", SlopeQ.of(1)), Round2Spec("B", SlopeQ.of(2)),
                    Round2Spec("A", SlopeQ.of(3)))) == (
        "round2[1] is a second round 2-surgery on component 'A'")
    # one on the joint pair's round 1-knot A is refused too
    assert refusal(RoundSurgeryDiagram, joint.components, joint.linking, joint.round1,
                   (Round2Spec("A", SlopeQ.of(1)),)) == (
        "round2[1] is on component 'A' of a round1 pair")


def test_constructors_store_the_canonical_order():
    """Components by label; joint pairs by pair, then standalone round 1 by
    pair, then standalone round 2 by knot; in any given order, through either
    constructor and through replace, with equal hash and printed text."""
    import random

    from crsdiag import dsl

    rng = random.Random(29)
    labels = "ABCDEFGHIJ"
    components = [LegendrianComponent(lab, -1 - i % 3, i % 2) for i, lab in enumerate(labels)]
    linking = LinkingData([("A", "B", 1), ("C", "J", -2), ("E", "F", 3)])
    layer = TightLayerSpec.invariant()
    round1 = [Round1Spec(("G", "H"), 1, 1, layer, SlopeQ.of(-1)),
              Round1Spec(("A", "B"), 0, 0, layer),
              Round1Spec(("E", "F"), 0, 1, TightLayerSpec.nonrotative(2), SlopeQ.of(1)),
              Round1Spec(("C", "D"), 2, 2, layer)]
    round2 = [Round2Spec("J", SlopeQ.of(5, 2)), Round2Spec("I", SlopeQ.of(1))]
    coefficients = [(c.label, SlopeQ.of(rng.choice((-1, 1)))) for c in components]

    canonical_round = RoundSurgeryDiagram(components, linking, round1, round2)
    assert [c.label for c in canonical_round.components] == list(labels)
    assert [r1.pair for r1 in canonical_round.round1] == [("E", "F"), ("G", "H"), ("A", "B"), ("C", "D")]
    assert [r2.knot for r2 in canonical_round.round2] == ["I", "J"]
    canonical_contact = ContactSurgeryDiagram(components, linking, dict(coefficients))
    assert [c.label for c in canonical_contact.components] == list(labels)
    texts = {d: dsl.print_diagram(dsl.named("x", d)) for d in (canonical_round, canonical_contact)}
    for _ in range(20):
        for part in (components, round1, round2, coefficients):
            rng.shuffle(part)
        built = (RoundSurgeryDiagram(components, linking, round1, round2),
                 replace(canonical_round, components=components, round1=round1, round2=round2),
                 ContactSurgeryDiagram(components, linking, dict(coefficients)),
                 replace(canonical_contact, components=components, coefficients=dict(coefficients)))
        for d, canonical in zip(built, (canonical_round,) * 2 + (canonical_contact,) * 2):
            assert d == canonical and hash(d) == hash(canonical)
            assert (d.components, getattr(d, "round1", ()), getattr(d, "round2", ())) == (
                canonical.components, getattr(canonical, "round1", ()), getattr(canonical, "round2", ()))
            assert dsl.print_diagram(dsl.named("x", d)) == texts[canonical]


def test_labels_that_do_not_compare_are_refused():
    comps = (LegendrianComponent("A", -1), LegendrianComponent(1, -1))
    assert refusal(ContactSurgeryDiagram, comps, LinkingData([]), {"A": SlopeQ.of(1), 1: SlopeQ.of(1)}) == (
        "diagram labels must all be strings or all be ints")
    layer = TightLayerSpec.invariant()
    assert refusal(RoundSurgeryDiagram, hopf_components(), LinkingData([]),
                   (Round1Spec(("A", "B"), 0, 0, layer), Round1Spec((1, 2), 0, 0, layer))) == (
        "diagram labels must all be strings or all be ints")


def test_named_diagram_kind_is_read_off_the_diagram():
    from crsdiag import dsl

    contact = ContactSurgeryDiagram(hopf_components(), LinkingData([("A", "B", 1)]),
                                    {"A": SlopeQ.of(-1), "B": SlopeQ.of(1)})
    for diagram, kind in ((contact, "contact"), (hopf_pair(), "round")):
        nd = dsl.NamedDiagram("x", dsl.named("x", diagram).decls, diagram)
        assert nd.kind == kind == dsl.diagram_json(nd)["kind"]
        assert dsl.print_diagram(nd).startswith("diagram x {" if kind == "contact" else "round_diagram x {")


def test_no_entry_point_sees_an_invalid_contact_diagram():
    # h1_dehn, linking_matrix and pair_pm1_diagram each read this diagram
    # differently while it could be built; now it cannot be
    comps = hopf_components()
    coefficients = {"A": SlopeQ.of(-1), "Q": SlopeQ.of(1)}
    message = ("linking references unknown component 'Z'; component 'B' has no surgery "
               "coefficient; coefficient on unknown component 'Q'")
    assert refusal(ContactSurgeryDiagram, comps, LinkingData([("A", "Z", 1)]), coefficients) == message
    valid = ContactSurgeryDiagram(comps, LinkingData([]), {"A": SlopeQ.of(-1), "B": SlopeQ.of(1)})
    assert refusal(replace, valid, linking=LinkingData([("A", "Z", 1)]),
                   coefficients=coefficients) == message


@pytest.mark.parametrize("pair, message", [
    (("X", "Y"), "round1[0] references unknown component 'X'; "
                 "round1[0] references unknown component 'Y'"),
    (("A", "A"), "round1[0] pairs 'A' with itself"),
])
def test_no_entry_point_sees_a_joint_pair_off_the_link(pair, message):
    # is_fillable_sufficient called this one nice joint pair fillable
    joint = (Round1Spec(pair, 0, 0, TightLayerSpec.invariant(), SlopeQ.of(-1)),)
    assert refusal(RoundSurgeryDiagram, hopf_components(), LinkingData([]), joint) == message
    assert refusal(replace, hopf_pair(), round1=joint) == message


def test_lookups_raise_typed_errors():
    contact = ContactSurgeryDiagram(hopf_components(), LinkingData([]),
                                    {"A": SlopeQ.of(1), "B": SlopeQ.of(1)})
    for d in (contact, hopf_pair()):
        assert d.component("B") == LegendrianComponent("B", -1)
        with pytest.raises(UnknownComponent, match="no component 'C'"):
            d.component("C")
    for idx in (-1, 1):
        with pytest.raises(InvalidParameter, match=f"round1 index {idx} out of range"):
            check_nice(hopf_pair(), idx)


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
    standalone = statement.startswith("round1")
    assert refusal(RoundSurgeryDiagram, hopf_components(), LinkingData([("A", "B", 1)]),
                   (Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant(),
                               None if standalone else SlopeQ.of(-1)),),
                   (Round2Spec(knot, SlopeQ.of(1)),)) == message
    path = tmp_path / "pair.crs"
    path.write_text("round_diagram r {\n  component A { tb = -1; rot = 0; }\n"
                    "  component B { tb = -1; rot = 0; }\n  lk(A, B) = 1;\n"
                    f"  {statement}\n  round2 {knot} {{ r2 = 1; }}\n}}\n")
    assert run_cli(["parse", str(path)]) == (1, json.dumps(
        {"error": {"code": 1, "kind": "SemanticError", "message": message}},
        separators=(",", ":")) + "\n")


def test_self_linking_rejected():
    with pytest.raises(SemanticError, match="self-linking"):
        LinkingData([("A", "A", 1)])
    with pytest.raises(SemanticError, match="self-linking"):
        LinkingData([("A", "B", 1)]).get("A", "A")


def test_linking_data_orders_its_entries():
    lk = LinkingData([("B", "A", 2), ("C", "A", 4), ("A", "D", 0), ("D", "C", -1)])
    expected = [("A", "B", 2), ("A", "C", 4), ("C", "D", -1)]
    assert list(lk.pairs()) == expected
    assert list(lk.pairs()) == expected  # every call yields the same triples
    assert repr(lk) == f"LinkingData({expected!r})"
    assert (lk.get("A", "B"), lk.get("B", "A"), lk.get("A", "D")) == (2, 2, 0)
    assert lk == LinkingData(reversed(expected))
    both = LinkingData([*lk.pairs(), ("E", "A", 5)])
    assert list(both.pairs()) == expected[:2] + [("A", "E", 5)] + expected[2:]
    ids = LinkingData([(3, 1, -1), (10, 2, 4), (1, 2, 0)])
    assert list(ids.pairs()) == [(1, 3, -1), (2, 10, 4)]


def test_linking_data_order_is_plain_label_order(rng):
    """Pairs are oriented with a < b and sorted in plain label order, on
    all-int labels (front components) and all-string labels (diagrams)."""
    for labels in ([-3, 0, 2, 10, 11], ["10", "2", "-3", "A", "B", "K1", "K10", "a", "z"]):
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        for _ in range(100):
            entries = [(a, b) if rng.random() < 0.5 else (b, a)
                       for a, b in rng.sample(pairs, rng.randint(0, len(pairs)))]
            entries = [(a, b, rng.randint(-3, 3)) for a, b in entries]
            expected = sorted((min(a, b), max(a, b), v) for a, b, v in entries if v)
            assert list(LinkingData(entries).pairs()) == expected


@pytest.mark.parametrize("build", [
    lambda: LinkingData([("A", 1, 2)]),
    lambda: LinkingData([("A", "B", 1), (1, 2, 1)]),
    lambda: LinkingData([("A", "B", 0), (1, 2, 0)]),
    lambda: LinkingData([("A", "B", 1)]).get("A", 1),
], ids=["one pair", "two pairs", "zeros", "get"])
def test_linking_data_refuses_mixed_label_types(build):
    with pytest.raises(SemanticError, match="all be strings or all be ints"):
        build()


CONFLICT = "conflicting linking numbers for ('A', 'B')"


@pytest.mark.parametrize("first, second", [
    (("A", "B", 0), ("B", "A", 1)),
    (("B", "A", 1), ("A", "B", 0)),
    (("A", "B", 1), ("A", "B", 2)),
], ids=["zero first", "zero second", "nonzero"])
def test_conflicting_linking_numbers_are_refused_in_either_order(first, second):
    # a zero counts as a statement: the check does not depend on which comes first
    with pytest.raises(SemanticError) as info:
        LinkingData([first, second])
    assert str(info.value) == CONFLICT


def test_repeated_equal_linking_numbers_build():
    assert LinkingData([("A", "B", 2), ("B", "A", 2)]) == LinkingData([("A", "B", 2)])
    assert LinkingData([("A", "B", 0), ("B", "A", 0)]) == LinkingData()


@pytest.mark.parametrize("statements", [
    "lk(A, B) = 0;\n  lk(B, A) = 1;",
    "lk(B, A) = 1;\n  lk(A, B) = 0;",
], ids=["zero first", "zero second"])
def test_parse_refuses_conflicting_lk_statements_in_either_order(tmp_path, statements):
    path = tmp_path / "conflict.crs"
    path.write_text("diagram d {\n  component A { tb = -1; rot = 0; }\n"
                    "  component B { tb = -1; rot = 0; }\n"
                    f"  {statements}\n  contact_surgery A = 1;\n  contact_surgery B = 1;\n}}\n")
    assert run_cli(["parse", str(path)]) == (1, json.dumps(
        {"error": {"code": 1, "kind": "SemanticError", "message": CONFLICT}},
        separators=(",", ":")) + "\n")


def test_parse_reads_a_repeated_equal_lk_statement(tmp_path):
    path = tmp_path / "repeat.crs"
    path.write_text("diagram d {\n  component A { tb = -1; rot = 0; }\n"
                    "  component B { tb = -1; rot = 0; }\n  lk(A, B) = 1;\n  lk(B, A) = 1;\n"
                    "  contact_surgery A = 1;\n  contact_surgery B = 1;\n}\n")
    code, out = run_cli(["parse", str(path)])
    assert code == 0
    assert json.loads(out)["diagrams"][0]["linking"] == [["A", "B", 1]]


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
