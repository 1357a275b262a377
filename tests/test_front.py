import dataclasses
import itertools
import json
import random
import textwrap

import networkx as nx
import pytest

import reference_front as reference

from crsdiag import dsl, front
from crsdiag import (
    OrientedFront,
    classical_invariants,
    parse_front_word,
    stabilize,
    trace_components,
)
from crsdiag.errors import (
    CertificateError,
    DiagramError,
    FrontSyntaxError,
    OpenDiagram,
    PositionError,
    SemanticError,
    UnknownComponent,
)
from conftest import FIXTURES, random_front_text, random_front_word, run_cli, run_optimized

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


def _cups(word):
    """(lo, hi) strands of each cup, read off the word's U events: strand ids
    are handed out in cup order, two per cup."""
    ups = sum(1 for event in word.events if event[0] == "U")
    return [(2 * k, 2 * k + 1) for k in range(ups)]


def _oracle_component_count(word):
    """Independent threading oracle: strand ids as graph nodes, cusp joins as edges."""
    graph = nx.Graph()
    threading = trace_components(word)
    for lo, hi in _cups(word):
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
        for lo, _hi in _cups(word):
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
        assert parse_front_word(str(word)) == word
        assert str(word) == text


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

    # the DSL reads each front knot's tb and rot from its threading alone
    calls, fronts = [], []
    real_invariants, real_post_init = front.classical_invariants, front.OrientedFront.__post_init__

    def counting_invariants(*args):
        calls.append(args)
        return real_invariants(*args)

    def counting_post_init(self):
        fronts.append(self)
        real_post_init(self)

    for module in (front, dsl):
        monkeypatch.setattr(module, "classical_invariants", counting_invariants, raising=False)
    monkeypatch.setattr(front.OrientedFront, "__post_init__", counting_post_init)
    # front_pair.crs declares two components by front words
    dsl.parse_file(FIXTURES.joinpath("front_pair.crs").read_text())
    assert len(built) == 3
    assert calls == [] and fronts == []


def _pad_zeros(rng, text):
    """The word with a few leading zeros put in front of some positions."""
    return " ".join(token[0] + "0" * rng.choice((0, 0, 1, 3)) + token[1:] for token in text.split())


def test_matches_reference_on_random_words():
    """Every component's invariants under every orientation, the linking and
    the printed word agree with the replaced implementation."""
    rng = random.Random(8420)
    orientations = 0
    for _ in range(2000):
        text = random_front_text(rng, max_cups=rng.randint(1, 6), cap=rng.choice((8, 24, 48)))
        if rng.random() < 0.3:
            text = _pad_zeros(rng, text)
        old, new = reference.parse_front_word(text), parse_front_word(text)
        assert str(new) == str(old) == " ".join(new.events)
        assert all(event == f"{event[0]}{int(event[1:])}" for event in new.events)
        n = trace_components(new).component_count
        assert n == old.threading.component_count
        for choice in itertools.product(("forward", "reverse"), repeat=n):
            orientation = dict(enumerate(choice))
            components, lk = reference.classical_invariants(old, orientation)
            got = classical_invariants(OrientedFront(new, orientation))
            assert [vars(c) for c in got.components] == [vars(c) for c in components], text
            assert list(got.lk.pairs()) == list(lk.pairs()), text
            orientations += 1
    assert orientations > 4000


def test_walk_matches_reference_directions():
    """The parse walk's directions and cusp counts equal the replaced
    traversal's; both number strands in cup order."""
    rng = random.Random(3517)
    for _ in range(2000):
        text = random_front_text(rng, max_cups=rng.randint(1, 6), cap=rng.choice((8, 24, 48)))
        threading = parse_front_word(text).threading
        rightward, downs, ups = reference._canonical_directions(
            reference.parse_front_word(text).threading)
        n = threading.component_count
        assert threading.rightward == [rightward[s] for s in range(len(rightward))], text
        assert threading.ups == [ups[cid] for cid in range(n)], text
        assert [2 * c - u for c, u in zip(threading.cusps, threading.ups)] == \
            [downs[cid] for cid in range(n)], text
        # the forward crossing signs sum to the replaced code's self-writhes
        # and twice its linking numbers
        components, lk = reference.classical_invariants(
            reference.parse_front_word(text), {cid: "forward" for cid in range(n)})
        comp = threading.strand_component
        sums = {}
        for (under, over), sign in zip(threading.crossings, threading.signs):
            key = tuple(sorted((comp[under], comp[over])))
            sums[key] = sums.get(key, 0) + sign
        assert [sums.get((cid, cid), 0) for cid in range(n)] == \
            [c.self_writhe for c in components], text
        assert {key: total for key, total in sums.items() if key[0] != key[1] and total} == \
            {(a, b): 2 * v for a, b, v in lk.pairs()}, text


def dsl_front_read_mismatches():
    """Seeded one-component words, some with leading zeros, declared as `.crs`
    front components in both orients: the tb and rot that `dsl.parse_file`
    reads must be the replaced code's, and a declared tb or rot off by one
    must raise the SemanticError text that the old read raised.

    Returns (reads, padded words, mismatches); it asserts nothing, so it
    checks the same under `python -O`.
    """
    rng = random.Random(2551)
    reads, padded, mismatches = 0, 0, []
    for _ in range(1000):
        text = random_front_text(rng, max_cups=rng.randint(1, 4), cap=rng.choice((8, 24, 48)))
        while reference.parse_front_word(text).threading.component_count != 1:
            text = random_front_text(rng, max_cups=rng.randint(1, 4), cap=rng.choice((8, 24, 48)))
        if rng.random() < 0.3:
            text, padded = _pad_zeros(rng, text), padded + 1
        for orient in ("forward", "reverse"):
            components, _lk = reference.classical_invariants(reference.parse_front_word(text),
                                                             {0: orient})
            tb, rot = components[0].tb, components[0].rot

            def read(extra):
                source = (f'diagram d {{\n  component K {{ front = "{text}"; orient = {orient};'
                          f'{extra} }}\n  contact_surgery K = -1;\n}}\n')
                try:
                    knot = dsl.parse_file(source).get("d").diagram.components[0]
                except SemanticError as error:
                    return str(error)
                return knot.tb, knot.rot

            outcomes = (read(""), read(f" tb = {tb}; rot = {rot};"),
                        read(f" tb = {tb + 1};"), read(f" rot = {rot - 1};"))
            expected = ((tb, rot), (tb, rot),
                        f"component 'K': declared tb {tb + 1} disagrees with front-derived {tb}",
                        f"component 'K': declared rot {rot - 1} disagrees with front-derived {rot}")
            if outcomes != expected:
                mismatches.append((text, orient, outcomes, expected))
            reads += 1
    return reads, padded, mismatches


def test_dsl_front_read_matches_reference():
    reads, padded, mismatches = dsl_front_read_mismatches()
    assert mismatches == []
    assert reads == 2000 and padded > 200


def test_dsl_front_read_matches_reference_under_optimize():
    result = run_optimized(
        "import json, sys\n"
        "from test_front import dsl_front_read_mismatches\n"
        "print(json.dumps([sys.flags.optimize, dsl_front_read_mismatches()]))\n")
    assert result.returncode == 0, result.stderr
    optimize, (reads, padded, mismatches) = json.loads(result.stdout)
    assert optimize == 1
    assert mismatches == []
    assert reads == 2000 and padded > 200


KINKED_UNKNOT = "U1 U2 X1 C2 C1"   # UNKNOT with one Legendrian Reidemeister I kink
TREFOIL = "U1 U3 X2 X2 X2 C1 C1"   # the standard front of the right-handed trefoil


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: front crossing signs are flipped")
def test_tb_needs_no_sign_calibration(tmp_path):
    """A Legendrian Reidemeister I move keeps tb, and the right-handed
    trefoil's standard front has tb = 1 (J. Etnyre, "Legendrian and
    transversal knots", Handbook of Knot Theory, 2005).  Neither fact
    depends on a sign convention.  Both read paths are run before any
    comparison, so a path that breaks fails the test instead of passing it
    as expected."""
    def word_tb(word):
        code, out = run_cli(["invariants", "--word", word])
        return code, json.loads(out)["components"][0]["tb"]

    def crs_tb(word):
        path = tmp_path / "knot.crs"
        path.write_text(f'diagram d {{\n  component K {{ front = "{word}"; orient = forward; }}\n'
                        "  contact_surgery K = -1;\n}\n")
        code, out = run_cli(["invariants", "--diagram", "d", str(path)])
        return code, json.loads(out)["components"][0]["tb"]

    readings = {(read.__name__, word): read(word)
                for read in (word_tb, crs_tb) for word in (UNKNOT, KINKED_UNKNOT, TREFOIL)}
    assert readings == {(read, word): (0, tb)
                        for read in ("word_tb", "crs_tb")
                        for word, tb in ((UNKNOT, -1), (KINKED_UNKNOT, -1), (TREFOIL, 1))}


def test_stabilize_matches_reference_trial_loop():
    """The zigzag picked by rule is the one the trial loop kept, for every
    component, both of its orientations and both signs."""
    rng = random.Random(6204)
    cases = 0
    for _ in range(1000):
        text = random_front_text(rng, max_cups=rng.randint(1, 5), cap=rng.choice((8, 24, 40)))
        old, new = reference.parse_front_word(text), parse_front_word(text)
        n = new.threading.component_count
        for comp, reverse, sign in itertools.product(range(n), (False, True), (1, -1)):
            orientation = {cid: rng.choice(("forward", "reverse")) for cid in range(n)}
            orientation[comp] = "reverse" if reverse else "forward"
            got = stabilize(OrientedFront(new, orientation), comp, sign)
            assert str(got.word) == reference.stabilize(old, orientation, comp, sign), text
            cases += 1
    assert cases > 6000


def test_stabilize_parses_once(monkeypatch, rng):
    parses = []

    def counting_parse(text):
        parses.append(text)
        return parse_front_word(text)

    monkeypatch.setattr(front, "parse_front_word", counting_parse)
    for calls in range(1, 41):
        word = random_front_word(rng)
        stabilize(OrientedFront.forward(word), rng.randrange(word.threading.component_count),
                  rng.choice((1, -1)))
        assert len(parses) == calls


_FORGED_STABILIZE = textwrap.dedent("""
    import dataclasses
    import sys
    from crsdiag import OrientedFront, parse_front_word, stabilize
    from crsdiag.errors import CertificateError

    word = parse_front_word("U1 U1 X2 X2 C1 C1")
    threading = word.threading
    forged = dataclasses.replace(threading, rightward=[not r for r in threading.rightward])
    front = OrientedFront.forward(dataclasses.replace(word, threading=forged))
    for comp in (0, 1):
        for sign in (1, -1):
            try:
                stabilize(front, comp, sign)
            except CertificateError:
                print("raised", sys.flags.optimize)
""")


def test_stabilize_refuses_a_zigzag_that_shifts_rot_the_wrong_way():
    """Flipped direction flags pick the other zigzag, whose rot shift is -sign."""
    word = parse_front_word(CLASP)
    forged = dataclasses.replace(word.threading,
                                 rightward=[not r for r in word.threading.rightward])
    front_forged = OrientedFront.forward(dataclasses.replace(word, threading=forged))
    with pytest.raises(CertificateError, match="shifts rot by -1, not 1"):
        stabilize(front_forged, 0, 1)
    result = run_optimized(_FORGED_STABILIZE)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised 1\n" * 4


# "X\u00b2", "U\u0661" and "C\uff11" hold digits that str.isdigit or int accept
# and the token grammar does not; "U\u00a01" splits at its no-break space
_BAD_TOKENS = ("Q2", "U", "C", "u1", "x2", "U-1", "U+1", "U1x", "UX1", "U1.0", "X\u00b2",
               "U\u0661", "C\uff11", "\u00e9", "1U", "U\u00a01")


def _mutate(rng, text):
    """One token-level edit of a front word."""
    tokens = text.split()
    k = rng.randrange(len(tokens) + 1)
    edit = rng.randrange(6)
    if edit == 0:
        tokens[k:k + 1] = [rng.choice(_BAD_TOKENS)]
    elif edit == 1:  # a position that is likely out of range
        kind = rng.choice("UXC")
        tokens[k:k + 1] = [kind + str(rng.choice((0, rng.randint(3, 40), 10 ** rng.randint(3, 60))))]
    elif edit == 2:
        tokens[k:k + 1] = [t[0] + "0" * rng.randint(1, 4) + t[1:] for t in tokens[k:k + 1]]
    elif edit == 3:  # usually leaves strands open
        del tokens[k:k + 1]
    elif edit == 4:
        tokens = tokens[:k]
    else:
        tokens.insert(k, rng.choice("UXC") + str(rng.randint(0, 6)))
    return " ".join(tokens)


def _outcome(parse, text):
    try:
        return "ok", str(parse(text))
    except DiagramError as exc:
        return type(exc).__name__, str(exc)


def test_errors_match_reference_on_mutated_words():
    rng = random.Random(1000)
    texts = ["", "   ", "\t\n"]
    while len(texts) < 1200:
        texts.append(_mutate(rng, random_front_text(rng, max_cups=rng.randint(1, 5))))
    outcomes = [_outcome(parse_front_word, text) for text in texts]
    assert outcomes == [_outcome(reference.parse_front_word, text) for text in texts]
    kinds = {kind for kind, _ in outcomes}
    assert {"ok", "FrontSyntaxError", "PositionError", "OpenDiagram"} <= kinds


def test_oversized_positions_are_out_of_range_without_int():
    big = "1" * 5000
    for text, strands in ((f"U{big} C1", 0), (f"U1 X{big} C1", 2), (f"U1 U1 C{big}", 4)):
        token = next(t for t in text.split() if len(t) > 100)
        with pytest.raises(PositionError) as caught:
            parse_front_word(text)
        assert str(caught.value).startswith(f"{token}: ")
        assert str(caught.value).endswith(f"out of range with {strands} strands")
    with pytest.raises(PositionError, match="out of range with 0 strands"):
        parse_front_word("U" + "0" * 5000)
    # leading zeros do not count towards the bound
    word = parse_front_word("U" + "0" * 5000 + "1 C01")
    assert word.events == ("U1", "C1") and str(word) == "U1 C1"
    assert word == parse_front_word("U1 C1")
