import networkx as nx
import pytest

from crsdiag import dsl, front
from crsdiag import (
    OrientedFront,
    classical_invariants,
    parse_front_word,
    stabilize,
    trace_components,
    word_to_text,
)
from crsdiag.errors import (
    FrontSyntaxError,
    OpenDiagram,
    PositionError,
    UnknownComponent,
)
from conftest import FIXTURES, random_front_text, random_front_word

UNKNOT = "U1 C1"
CLASP = "U1 U1 X2 X2 C1 C1"


def test_parse_unknot():
    word = parse_front_word(UNKNOT)
    assert len(word.events) == 2
    assert trace_components(word).component_count == 1


def test_parse_clasp():
    word = parse_front_word(CLASP)
    assert len(word.events) == 6
    assert trace_components(word).component_count == 2


def test_parse_errors():
    with pytest.raises(PositionError):
        parse_front_word("U3")
    with pytest.raises(FrontSyntaxError):
        parse_front_word("U1 Q2 C1")
    with pytest.raises(OpenDiagram):
        parse_front_word("U1")
    with pytest.raises(PositionError):
        parse_front_word("U1 X2 C1")  # crossing at position 2 needs three strands


def test_nested_unlink_components():
    word = parse_front_word("U1 U1 C1 C1")
    assert trace_components(word).component_count == 2


def _oracle_component_count(word):
    """Independent threading oracle: strand ids as graph nodes, cusp joins as edges."""
    graph = nx.Graph()
    threading = trace_components(word)
    for _t, lo, hi in threading.cups:
        graph.add_edge(("s", lo), ("s", hi))
    for _t, lo, hi in threading.caps:
        graph.add_edge(("s", lo), ("s", hi))
    return nx.number_connected_components(graph)


def test_component_count_matches_graph_oracle(rng):
    for _ in range(60):
        word = random_front_word(rng)
        assert trace_components(word).component_count == _oracle_component_count(word)


def test_unknot_invariants():
    inv = classical_invariants(OrientedFront.forward(parse_front_word(UNKNOT)))
    c = inv.components[0]
    assert (c.tb, c.rot, c.self_writhe) == (-1, 0, 0)
    assert c.cusps_up + c.cusps_down == 2


def test_clasp_calibration():
    inv = classical_invariants(OrientedFront.forward(parse_front_word(CLASP)))
    assert [(c.tb, c.rot) for c in inv.components] == [(-1, 0), (-1, 0)]
    assert inv.lk.get(0, 1) == 1


def test_clasp_reversed_component_flips_lk():
    word = parse_front_word(CLASP)
    inv = classical_invariants(OrientedFront(word, {0: "forward", 1: "reverse"}))
    assert inv.lk.get(0, 1) == -1
    assert [c.tb for c in inv.components] == [-1, -1]


def test_stabilized_unknot():
    front = OrientedFront.forward(parse_front_word(UNKNOT))
    for sign in (1, -1):
        later = stabilize(front, 0, sign)
        c = classical_invariants(later).components[0]
        assert c.tb == -2
        assert c.rot == sign


def test_oriented_front_requires_full_orientation():
    from crsdiag.errors import InvalidParameter

    word = parse_front_word(CLASP)
    with pytest.raises(InvalidParameter):
        OrientedFront(word, {0: "forward"})  # second component missing
    with pytest.raises(InvalidParameter):
        OrientedFront(word, {0: "forward", 1: "sideways"})


def test_stabilize_unknown_component():
    front = OrientedFront.forward(parse_front_word(UNKNOT))
    with pytest.raises(UnknownComponent):
        stabilize(front, 3, 1)


def test_stabilize_properties_random(rng):
    for _ in range(100):
        front = OrientedFront.forward(random_front_word(rng))
        before = classical_invariants(front)
        n = len(before.components)
        comp = rng.randrange(n)
        sign = rng.choice([1, -1])
        after_front = stabilize(front, comp, sign)
        after = classical_invariants(after_front)
        assert after.components[comp].tb == before.components[comp].tb - 1
        assert after.components[comp].rot == before.components[comp].rot + sign
        for other in range(n):
            if other != comp:
                assert after.components[other] == before.components[other]
        assert after.lk == before.lk


def test_cusp_balance_per_component(rng):
    for _ in range(80):
        word = random_front_word(rng)
        threading = trace_components(word)
        cups = [0] * threading.component_count
        caps = [0] * threading.component_count
        for _t, lo, _hi in threading.cups:
            cups[threading.strand_component[lo]] += 1
        for _t, lo, _hi in threading.caps:
            caps[threading.strand_component[lo]] += 1
        assert cups == caps


def test_tb_plus_rot_parity(rng):
    checked = 0
    for _ in range(150):
        front = OrientedFront.forward(random_front_word(rng))
        inv = classical_invariants(front)
        if len(inv.components) == 1:  # parity statement concerns knots
            c = inv.components[0]
            assert (c.tb + c.rot) % 2 == 1
            checked += 1
    assert checked >= 20


def test_orientation_reversal(rng):
    for _ in range(60):
        word = random_front_word(rng)
        n = trace_components(word).component_count
        fwd = classical_invariants(OrientedFront.forward(word))
        flip = rng.randrange(n)
        orientation = {cid: ("reverse" if cid == flip else "forward") for cid in range(n)}
        rev = classical_invariants(OrientedFront(word, orientation))
        for cid in range(n):
            assert rev.components[cid].tb == fwd.components[cid].tb
            if cid == flip:
                assert rev.components[cid].rot == -fwd.components[cid].rot
            else:
                assert rev.components[cid].rot == fwd.components[cid].rot
        for a, b, value in fwd.lk.pairs():
            assert abs(rev.lk.get(a, b)) == abs(value)
            assert (rev.lk.get(a, b) - value) % 2 == 0


def test_parse_print_parse_identity(rng):
    for _ in range(40):
        text = random_front_text(rng)
        word = parse_front_word(text)
        assert parse_front_word(word_to_text(word)) == word
        assert word_to_text(word) == text


def test_front_word_threaded_once(monkeypatch):
    built = []

    class CountingThreading(front.Threading):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(front, "Threading", CountingThreading)
    word = parse_front_word(CLASP)
    classical_invariants(OrientedFront.forward(word))
    assert trace_components(word) is word.threading
    assert len(built) == 1
    # front_pair.crs declares two components by front words
    dsl.parse_file(FIXTURES.joinpath("front_pair.crs").read_text())
    assert len(built) == 3
