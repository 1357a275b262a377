"""The joint-pair rule, checked in one loop in core, and the validity check
the diagram constructors run, against the replaced code in
reference_pairs.py, and the certificate that pair_pm1_diagram checks by
building its output and reading it back."""

import json
import random

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

import crsdiag.bridge as bridge
from crsdiag.core import (
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
    joint_pairs_to_pm1,
)
from crsdiag.errors import CertificateError, NotNice, SemanticError
from crsdiag.homology import h1_round_diagram
from conftest import FIXTURES, run_cli
import reference_pairs

ORACLE = settings(derandomize=True, database=None, max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

LAYERS = (TightLayerSpec.invariant(), TightLayerSpec.nonrotative(1),
          TightLayerSpec.nonrotative(0, 1), TightLayerSpec.rotative_plus(1))
ROUND2_COEFFS = tuple(SlopeQ.of(p, q) for p, q in ((-1, 1), (1, 1), (0, 1), (2, 1), (1, 2)))


def drawn_link(rng, ghost=False):
    """Components and linking on up to seven labels; with ghost set, the
    linking names an unknown label."""
    labels = [f"L{i}" for i in range(rng.randint(0, 7))]
    components = tuple(LegendrianComponent(lab, rng.randint(-3, 1), rng.randint(-1, 1))
                       for lab in labels)
    entries = [(a, b, rng.randint(-2, 2)) for i, a in enumerate(labels) for b in labels[i + 1:]
               if rng.random() < 0.5]
    return labels, components, LinkingData(entries + [("L0", "ghost", 1)] * ghost)


@st.composite
def round_diagrams(draw):
    """The parts (components, linking, round1, round2) of round diagrams of
    nice and non-nice joint pairs, partnerless round 1-specs, standalone
    round 2-specs and stray components; some parts build no diagram."""
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    labels, components, linking = drawn_link(rng)
    pool = labels + ["ghost"] * (rng.random() < 0.1)  # sometimes an unknown label
    rng.shuffle(pool)
    if pool and rng.random() < 0.2:
        pool.pop()  # a stray component in no pair
    round1, round2 = [], []
    for a, b in zip(pool[::2], pool[1::2]):
        k = rng.randint(-1, 1)
        nice = rng.random() < 0.7
        coeff_b = k if nice or rng.random() < 0.5 else k + 1
        layer = LAYERS[0] if nice or rng.random() < 0.5 else rng.choice(LAYERS)
        r2 = None  # a round 1-spec with no partner, one time in five
        if rng.random() < 0.8:
            r2 = rng.choice(ROUND2_COEFFS[:2] if nice else ROUND2_COEFFS)
        round1.append(Round1Spec((a, b), k, coeff_b, layer, r2))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        round2.append(Round2Spec(rng.choice(labels or ["ghost"]), rng.choice(ROUND2_COEFFS)))
    return components, linking, tuple(round1), tuple(round2)


@st.composite
def contact_parts(draw):
    """The parts of contact diagrams; a coefficient is sometimes missing or
    on an unknown label."""
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    labels, components, linking = drawn_link(rng, ghost=rng.random() > 0.9)
    coefficients = {lab: SlopeQ.of(rng.choice((-1, 1))) for lab in labels if rng.random() < 0.95}
    if rng.random() > 0.9:
        coefficients["ghost"] = SlopeQ.of(1)
    return components, linking, coefficients


def outcome(fn, rd, errors=Exception):
    """("ok", result) or ("error", class, message) of fn(rd)."""
    try:
        return ("ok", fn(rd))
    except errors as exc:
        return ("error", type(exc), str(exc))


def build(parts):
    return RoundSurgeryDiagram(*parts)


@ORACLE
@given(contact_parts())
def test_contact_diagram_builds_unless_reference_faults_it(parts):
    problems = reference_pairs.violations(*parts)
    built = outcome(lambda p: ContactSurgeryDiagram(*p), parts)
    if problems:
        assert built == ("error", SemanticError, "; ".join(problems))
    else:
        assert built[0] == "ok", built


@ORACLE
@given(round_diagrams())
def test_joint_pair_rule_matches_reference(parts):
    # the constructor judges the parts in canonical order: components by
    # label, joint pairs by pair, standalone round 1-specs by pair, round 2 by knot
    components, linking, round1, round2 = parts
    components = sorted(components, key=lambda c: c.label)
    round1 = ([r1 for r1 in sorted(round1, key=lambda r1: r1.pair) if r1.r2 is not None]
              + [r1 for r1 in sorted(round1, key=lambda r1: r1.pair) if r1.r2 is None])
    round2 = sorted(round2, key=lambda r2: r2.knot)
    problems = reference_pairs.violations(components, linking, round1=round1, round2=round2)
    built = outcome(build, parts)
    if problems:
        assert built == ("error", SemanticError, "; ".join(problems))
        return
    assert built[0] == "ok", built
    rd = built[1]
    assert is_fillable_sufficient(rd) == reference_pairs.is_fillable_sufficient(rd)
    assert outcome(joint_pairs_to_pm1, rd) == outcome(reference_pairs.joint_pairs_to_pm1, rd)
    # the reference answers only its three shapes; every other diagram gets an
    # H1 now, unless it holds a joint pair that is not nice
    new, old = outcome(h1_round_diagram, rd), outcome(reference_pairs.h1_round_diagram, rd)
    if old[0] == "ok":
        assert new == old
    reports = {idx: check_nice(rd, idx) for idx, r1 in enumerate(rd.round1) if r1.r2 is not None}
    bad = [(idx, report.reasons) for idx, report in reports.items() if not report.nice]
    if bad:
        assert old[0] == "error"
        idx, reasons = bad[0]
        assert new == ("error", NotNice, f"round1[{idx}]: " + "; ".join(reasons))
    else:
        assert new[0] == "ok", new


CASES = ("is not joint with any round 1-surgery",
         "no joint round 2-surgery partner", "coefficient mismatch", "not +1 or -1",
         "layer is not the zero-holonomy", "is not in any joint pair")


def test_round_diagram_strategy_covers_every_case():
    # the oracle test's diagrams reach every outcome of the joint-pair rule
    seen = set()

    @ORACLE
    @given(round_diagrams())
    def collect(parts):
        built = outcome(build, parts)
        if built[0] == "error":
            seen.add("refused")
            return
        rd = built[1]
        result = outcome(joint_pairs_to_pm1, rd)
        seen.update(case for case in CASES if result[0] == "error" and case in result[2])
        if result[0] == "ok":
            seen.add("ok")
        seen.add(is_fillable_sufficient(rd))

    collect()
    assert seen == set(CASES) | {"refused", "ok", True, False}


# --- the pairing certificate --------------------------------------------------

def pm1(signs):
    labels = [f"L{i}" for i in range(len(signs))]
    return ContactSurgeryDiagram(
        components=tuple(LegendrianComponent(lab, -1) for lab in labels),
        linking=LinkingData([]),
        coefficients={lab: SlopeQ.of(s) for lab, s in zip(labels, signs)},
    )


def odd_gadget(monkeypatch):
    real = bridge.kirby1_gadget
    monkeypatch.setattr(bridge, "kirby1_gadget",
                        lambda m, label_prefix="": real(m + 1, label_prefix=label_prefix))


def standard_layer_replaced(monkeypatch):
    monkeypatch.setattr(TightLayerSpec, "invariant",
                        staticmethod(lambda: TightLayerSpec("nonrotative", 1, 0)))


def round2_sign_flipped(monkeypatch):
    real = bridge.Round1Spec
    monkeypatch.setattr(bridge, "Round1Spec",
                        lambda pair, a, b, layer, r2: real(pair, a, b, layer, SlopeQ.of(-r2.p)))


def paired_with_a_ghost(monkeypatch):
    # the round diagram of these pairs is refused while it is built
    real = bridge.Round1Spec
    monkeypatch.setattr(bridge, "Round1Spec",
                        lambda pair, a, b, layer, r2: real((pair[0], "ghost"), a, b, layer, r2))


@pytest.mark.parametrize("fault, message", [
    (odd_gadget, "is not in any joint pair"),
    (standard_layer_replaced, "layer is not the zero-holonomy minimal-twisting one"),
    (round2_sign_flipped, "do not read back as the input plus its gadgets"),
    (paired_with_a_ghost, "round1.0. references unknown component 'ghost'"),
])
def test_pairing_certificate_catches_faults(monkeypatch, fault, message):
    fault(monkeypatch)
    with pytest.raises(CertificateError, match=message):
        bridge.pair_pm1_diagram(pm1([1, -1, -1]))  # case 2: one gadget


@pytest.mark.parametrize("fault", [odd_gadget, standard_layer_replaced, round2_sign_flipped,
                                   paired_with_a_ghost])
def test_to_round_exits_3_on_a_failed_certificate(monkeypatch, fault):
    fault(monkeypatch)
    code, out = run_cli(["to-round", str(FIXTURES / "single_plus1_unknot.crs")])
    assert code == 3
    error = json.loads(out)["error"]
    assert (error["code"], error["kind"]) == (3, "CertificateError")


# --- homology and the joint-pair errors of to-pm1 -----------------------------

NICE = "joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }"
BAD_ROUND_FILES = {  # components, statements, the error to-pm1 prints, homology's answer
    "mismatch": ("AB", "joint_pair (A, B) { r1 = 0, 1; r2 = -1; layer = invariant; }",
                 ("NotNice", "round1[0]: coefficient mismatch (0 vs 1)"), None),
    # the unlinked pair is two contact (-1)-surgeries on tb -1 unknots,
    # Z/2 + Z/2, and a standalone round 1-surgery on the unlink (C, D) adds
    # Z + Z: a = mu_C = mu_D and b = -a, plus the free summand
    "partnerless": ("ABCD", NICE + " round1 (C, D) { r1 = 0, 0; layer = invariant; }",
                    ("NotNice", "round1[1]: no joint round 2-surgery partner"),
                    {"free_rank": 2, "torsion": [2, 2]}),
    # C carries no surgery and is filled trivially
    "stray": ("ABC", NICE,
              ("UnsupportedComposition", "component 'C' is not in any joint pair"),
              {"free_rank": 0, "torsion": [2, 2]}),
}


def bad_round_file(tmp_path, case):
    labels, statements, _error, _h1 = BAD_ROUND_FILES[case]
    components = "".join(f"  component {c} {{ tb = -1; rot = 0; }}\n" for c in labels)
    path = tmp_path / "bad.crs"
    path.write_text(f"round_diagram r {{\n{components}  {statements}\n}}\n")
    return str(path)


@pytest.mark.parametrize("case", ["mismatch"])
def test_homology_prints_the_to_pm1_error(tmp_path, case):
    path = bad_round_file(tmp_path, case)
    kind, message = BAD_ROUND_FILES[case][2]
    homology = run_cli(["homology", path])
    assert homology == run_cli(["to-pm1", path])
    code, out = homology
    assert code == 1
    assert json.loads(out) == {"error": {"code": 1, "kind": kind, "message": message}}


@pytest.mark.parametrize("case", ["partnerless", "stray"])
def test_homology_reads_what_to_pm1_refuses(tmp_path, case):
    # to-pm1 needs every surgery in a nice joint pair; homology does not
    path = bad_round_file(tmp_path, case)
    kind, message = BAD_ROUND_FILES[case][2]
    code, out = run_cli(["to-pm1", path])
    assert (code, json.loads(out)) == (1, {"error": {"code": 1, "kind": kind, "message": message}})
    code, out = run_cli(["homology", path])
    assert (code, json.loads(out)) == (0, {"components": [BAD_ROUND_FILES[case][3]]})
