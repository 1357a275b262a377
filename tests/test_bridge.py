import pytest

from crsdiag import (
    ContactSurgeryDiagram,
    H1Class,
    LegendrianComponent,
    LinkingData,
    SlopeQ,
    check_nice,
    det,
    h1_dehn,
    h1_round1,
    joint_pairs_to_pm1,
    kirby1_gadget,
    linking_matrix,
    pair_pm1_diagram,
    validate_diagram,
)
from crsdiag import bridge
from crsdiag.core import Round1Spec, RoundSurgeryDiagram, TightLayerSpec
from crsdiag.errors import (
    GadgetSelfTestFailed,
    InvalidParameter,
    NotNice,
    NotPm1Diagram,
    UnsupportedComposition,
)
from conftest import random_pm1_diagram


def unknots(coefficients):
    components = tuple(
        LegendrianComponent(f"L{i}", -1) for i in range(len(coefficients))
    )
    return ContactSurgeryDiagram(
        components=components,
        linking=LinkingData([]),
        coefficients={f"L{i}": SlopeQ.of(c) for i, c in enumerate(coefficients)},
    )


def test_gadget_smallest():
    g = kirby1_gadget(1)
    assert [c.tb for c in g.components] == [-1, -2]
    assert [str(g.coefficients[c.label]) for c in g.components] == ["1", "-1"]
    assert h1_dehn(g) == H1Class.trivial()
    assert abs(det(linking_matrix(g))) == 1


def test_gadget_m2():
    g = kirby1_gadget(2)
    assert [c.tb for c in g.components] == [-2, -3, -3]
    assert [str(g.coefficients[c.label]) for c in g.components] == ["1", "-1", "-1"]
    assert h1_dehn(g) == H1Class.trivial()


def test_gadget_invalid_parameter():
    with pytest.raises(InvalidParameter):
        kirby1_gadget(0)
    with pytest.raises(InvalidParameter):
        kirby1_gadget(-3)


def test_gadget_self_test_catches_bad_linking(monkeypatch):
    monkeypatch.setattr(bridge, "pushoff_chain_linking", lambda m, i, j: 0)
    with pytest.raises(GadgetSelfTestFailed):
        kirby1_gadget(2)


def test_gadget_range_self_test():
    for m in range(1, 9):
        g = kirby1_gadget(m)
        assert len(g.components) == m + 1
        assert abs(det(linking_matrix(g))) == 1
        assert h1_dehn(g) == H1Class.trivial()


@pytest.mark.parametrize(
    "coefficients,case_id,pair_count,gadget_sizes",
    [
        ([1, 1, -1, -1], 1, 2, []),
        ([1], 2, 2, [2]),
        ([-1], 3, 4, [3, 2]),
        ([1, -1], 4, 3, [3]),
    ],
)
def test_parity_cases(coefficients, case_id, pair_count, gadget_sizes):
    rd, plan = pair_pm1_diagram(unknots(coefficients))
    assert plan.case_id == case_id
    assert len(rd.round1) == pair_count
    assert [g.m for g in plan.gadgets] == gadget_sizes
    assert validate_diagram(rd) == []
    for idx in range(len(rd.round1)):
        assert check_nice(rd, idx).nice
    plus = sum(1 for r1 in rd.round1 if r1.r2 == SlopeQ.of(1))
    minus = len(rd.round1) - plus
    assert plus * 2 == len([1 for lab, c in joint_pairs_to_pm1(rd).coefficients.items()
                            if c == SlopeQ.of(1)])
    assert minus * 2 == len([1 for lab, c in joint_pairs_to_pm1(rd).coefficients.items()
                             if c == SlopeQ.of(-1)])


def test_pair_requires_pm1():
    d = ContactSurgeryDiagram(
        components=(LegendrianComponent("A", -1),),
        linking=LinkingData([]),
        coefficients={"A": SlopeQ.of(2)},
    )
    with pytest.raises(NotPm1Diagram):
        pair_pm1_diagram(d)


def test_round_trip_even_even_verbatim():
    d = unknots([1, 1, -1, -1])
    rd, plan = pair_pm1_diagram(d)
    assert plan.gadgets == ()
    assert joint_pairs_to_pm1(rd) == d


def test_round_trip_preserves_homology(rng):
    for _ in range(60):
        d = random_pm1_diagram(rng)
        rd, _plan = pair_pm1_diagram(d)
        back = joint_pairs_to_pm1(rd)
        assert h1_dehn(back) == h1_dehn(d)


def test_round_trip_k_independent():
    d = unknots([1, -1, -1])
    reference = None
    for k in (-2, 0, 1, 7):
        rd, _plan = pair_pm1_diagram(d, k=k)
        back = joint_pairs_to_pm1(rd)
        if reference is None:
            reference = back
        else:
            assert back == reference


def test_joint_pairs_to_pm1_fixtures():
    hopf = lambda coeff: RoundSurgeryDiagram(
        components=(LegendrianComponent("A", -1), LegendrianComponent("B", -1)),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant(), SlopeQ.of(coeff)),),
    )
    out = joint_pairs_to_pm1(hopf(-1))
    assert out.coefficients == {"A": SlopeQ.of(-1), "B": SlopeQ.of(-1)}
    out = joint_pairs_to_pm1(hopf(1))
    assert out.coefficients == {"A": SlopeQ.of(1), "B": SlopeQ.of(1)}


def test_joint_pairs_to_pm1_rejects_unequal_coefficients():
    d = RoundSurgeryDiagram(
        components=(LegendrianComponent("A", -1), LegendrianComponent("B", -1)),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 1, 2, TightLayerSpec.invariant(), SlopeQ.of(-1)),),
    )
    with pytest.raises(NotNice):
        joint_pairs_to_pm1(d)


def test_joint_pairs_to_pm1_rejects_stray_component():
    d = RoundSurgeryDiagram(
        components=(
            LegendrianComponent("A", -1),
            LegendrianComponent("B", -1),
            LegendrianComponent("C", -1),
        ),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant(), SlopeQ.of(-1)),),
    )
    with pytest.raises(UnsupportedComposition):
        joint_pairs_to_pm1(d)


def test_adachi_round1_homology_shift_invariance():
    base = h1_round1(-1, -1, 1, 1, 1)
    for k in range(-5, 6):
        assert h1_round1(-1, -1, 1, 1 + k, 1 + k) == base


def test_gadgets_split_from_input():
    d = unknots([1])
    rd, plan = pair_pm1_diagram(d)
    gadget_labels = {c.label for g in plan.gadgets for c in g.diagram.components}
    for a, b, _v in rd.linking.pairs():
        # no linking between gadget components and the original ones
        assert not ((a in gadget_labels) ^ (b in gadget_labels))
