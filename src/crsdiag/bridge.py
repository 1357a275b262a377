"""Conversion between contact (+-1)-surgery diagrams and round surgery diagrams.

Direction one (pair_pm1_diagram) groups the components of a (+-1)-diagram
into nice joint pairs, two at a time within each coefficient class.  When a
coefficient class has odd size, a cosmetic unknot gadget representing the
standard tight 3-sphere is inserted first; the gadget sizes follow the four
parity cases of the counts (n1, n2) = (#(+1), #(-1)):

1. even/even: no gadget;
2. odd/even: one gadget on 2m components plus its +1 unknot;
3. even/odd: two gadgets, sized 2*m1 + 1 and 2*m2;
4. odd/odd: one gadget sized 2m + 1.

Direction two (joint_pairs_to_pm1, defined in core beside the joint-pair
rule and imported here) reads a diagram of nice joint pairs back as the
contact (+-1)-diagram where both members of a pair carry the pair's round-2
coefficient.  Direction one certifies its output with direction two.

The cosmetic gadget for parameter m is a contact (m+1)-surgery on an unknot
with tb = -m presented as one contact (+1)-unknot (tb = -m) plus m contact
(-1)-unknots (tb = -m - 1, one right stabilization each).  The shipped
internal linking pattern is the pushoff chain: the (+1)-unknot links each
stabilized copy tb(K) = -m times and two stabilized copies link -m - 1 times
(each is a contact pushoff of the previous one); pushoff_chain_linking gives
it.  Every construction re-runs the homology self-test (trivial first
homology); a failure aborts with GadgetSelfTestFailed rather than returning
silently wrong output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    Round1Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    is_pm1,
    joint_pairs_to_pm1,
)
from .errors import (
    CertificateError,
    GadgetSelfTestFailed,
    InvalidParameter,
    LimitExceeded,
    NotPm1Diagram,
    SemanticError,
    UnsupportedComposition,
)
from .homology import H1Class, h1_dehn


# kirby1_gadget refuses larger m before building anything.  The work grows
# about as m**3; `gadget --m 128` takes 0.9 s of CPU and prints 169 kB.
GADGET_MAX_M = 128


def pushoff_chain_linking(m: int, i: int, j: int) -> int:
    """Gadget linking: component 0 is the (+1)-unknot, 1..m the chain."""
    lo, hi = min(i, j), max(i, j)
    if not 0 <= lo < hi <= m:
        raise InvalidParameter(f"gadget m={m} has no component pair ({i}, {j})")
    return -m if lo == 0 else -m - 1


@dataclass(frozen=True)
class GadgetSpec:
    """A cosmetic-surgery gadget: parameter m and the produced diagram."""

    m: int
    diagram: ContactSurgeryDiagram


def kirby1_gadget(m: int, label_prefix: str = "") -> ContactSurgeryDiagram:
    """Contact (+-1)-presentation of the standard tight 3-sphere, 1 + m unknots.

    Component 0 carries tb = -m and coefficient +1; components 1..m carry
    tb = -m - 1 and coefficient -1 (single right stabilizations, rot one more
    than the +1 unknot's).  The result is validated by the homology oracle
    before being returned.  m above GADGET_MAX_M raises LimitExceeded.
    """
    if m < 1:
        raise InvalidParameter(f"gadget parameter must be a positive integer, got {m}")
    if m > GADGET_MAX_M:
        raise LimitExceeded(f"gadget parameter {m} is more than {GADGET_MAX_M}, "
                            "the largest gadget built")
    labels = [f"{label_prefix}K{i}" for i in range(m + 1)]
    components = [LegendrianComponent(labels[0], tb=-m, rot=m - 1)]
    components += [LegendrianComponent(labels[i], tb=-m - 1, rot=m) for i in range(1, m + 1)]
    entries = [
        (labels[i], labels[j], pushoff_chain_linking(m, i, j))
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
    ]
    coefficients = {labels[0]: SlopeQ.of(1)}
    coefficients.update({labels[i]: SlopeQ.of(-1) for i in range(1, m + 1)})
    diagram = ContactSurgeryDiagram(
        components=tuple(components),
        linking=LinkingData(entries),
        coefficients=coefficients,
    )
    _gadget_self_test(m, diagram)
    return diagram


def _gadget_self_test(m: int, diagram: ContactSurgeryDiagram) -> None:
    # The presentation is square, so a trivial cokernel also means |det| = 1.
    h1 = h1_dehn(diagram)
    if h1 != H1Class.trivial():
        raise GadgetSelfTestFailed(
            f"gadget m={m}: first homology {h1}; "
            "the configured linking pattern does not present the 3-sphere"
        )


@dataclass(frozen=True)
class PairingPlan:
    """How a (+-1)-diagram was turned into joint pairs: the parity case and
    the gadgets inserted.  The pairs are the diagram's round1, in its
    canonical order (by pair), and each gadget's components are in label
    order."""

    case_id: int
    gadgets: tuple  # GadgetSpec, in insertion order

    def __post_init__(self):
        if self.case_id not in (1, 2, 3, 4):
            raise InvalidParameter(f"parity case must be 1, 2, 3 or 4, got {self.case_id!r}")


def _fresh_prefix(existing: set, index: int) -> str:
    prefix = f"g{index}_"
    while any(label.startswith(prefix) for label in existing):
        prefix = "g" + prefix
    return prefix


def pair_pm1_diagram(
    d: ContactSurgeryDiagram,
    k: int = 1,
    gadget_m: int = 1,
    gadget_m2: Optional[int] = None,
) -> Tuple[RoundSurgeryDiagram, PairingPlan]:
    """Convert a (+-1)-diagram into a diagram of nice contact joint pairs.

    k is the shared round 1-surgery coefficient on every pair; gadget_m (and
    gadget_m2 for the case needing two gadgets) choose the inserted gadget
    parameters.  Gadgets are inserted split from the input (no linking with
    pre-existing components), components with equal coefficients are paired
    two at a time in label order, and each pair's round-2 coefficient is the
    shared contact coefficient.  The result stores its pairs in canonical
    order, by pair, as every round diagram does.  The result is certified by building it and
    reading it back: the round diagram must build, and joint_pairs_to_pm1
    must build from it the input plus its gadgets, or CertificateError is
    raised.
    """
    if not is_pm1(d):
        raise NotPm1Diagram("every coefficient must be +1 or -1")
    if gadget_m < 1 or (gadget_m2 is not None and gadget_m2 < 1):
        raise InvalidParameter("gadget parameters must be positive integers")
    m = ("gadget_m", gadget_m)
    m2 = m if gadget_m2 is None else ("gadget_m2", gadget_m2)

    plus = SlopeQ.of(1)
    n1 = sum(1 for c in d.coefficients.values() if c == plus)
    n2 = len(d.components) - n1
    odd1, odd2 = n1 % 2 == 1, n2 % 2 == 1
    # each gadget as (argument name, its value, e): its parameter is 2 * value + e
    if not odd1 and not odd2:
        case_id, planned = 1, []
    elif odd1 and not odd2:
        case_id, planned = 2, [(*m, 0)]
    elif not odd1 and odd2:
        case_id, planned = 3, [(*m, 1), (*m2, 0)]
    else:
        case_id, planned = 4, [(*m, 1)]
    sizes = [2 * value + e for _, value, e in planned]
    for (name, value, e), size in zip(planned, sizes):
        if size > GADGET_MAX_M:
            raise LimitExceeded(f"{name} {value} gives gadget parameter {size} = 2*{value}{' + 1' * e}, "
                                f"more than {GADGET_MAX_M}, the largest gadget built")

    components = list(d.components)
    pairs = list(d.linking.pairs())
    coefficients = dict(d.coefficients)
    existing = set(d.coefficients)
    gadgets = []
    for i, size in enumerate(sizes, start=1):
        prefix = _fresh_prefix(existing, i)
        gadget = kirby1_gadget(size, label_prefix=prefix)
        gadgets.append(GadgetSpec(size, gadget))
        components.extend(gadget.components)
        pairs += gadget.linking.pairs()  # split insertion: no cross linking
        coefficients.update(gadget.coefficients)
        existing.update(gadget.coefficients)

    linking = LinkingData(pairs)
    pool_plus = sorted(lab for lab, c in coefficients.items() if c == plus)
    pool_minus = sorted(lab for lab, c in coefficients.items() if c != plus)
    round1 = [Round1Spec((a, b), k, k, TightLayerSpec.invariant(), coeff)
              for pool, coeff in ((pool_plus, plus), (pool_minus, SlopeQ.of(-1)))
              for a, b in zip(pool[::2], pool[1::2])]
    # certificate: the pairs build and read back as the input plus its gadgets
    try:
        rd = RoundSurgeryDiagram(tuple(components), linking, tuple(round1))
        back = joint_pairs_to_pm1(rd)
    except (SemanticError, UnsupportedComposition) as exc:
        raise CertificateError(f"case {case_id}: constructed diagram is not all nice "
                               f"joint pairs: {exc}") from exc
    if ((back.components, back.linking, back.coefficients)
            != (rd.components, linking, coefficients)):
        raise CertificateError(f"case {case_id}: constructed pairs do not read back as "
                               "the input plus its gadgets")
    return rd, PairingPlan(case_id, tuple(gadgets))


# the shipped linking configuration must present the standard 3-sphere; fail
# loudly at import time rather than deep inside a conversion
kirby1_gadget(1)
