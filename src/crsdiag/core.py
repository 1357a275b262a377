"""Domain types for Legendrian surgery diagrams and the coefficient calculus.

Conventions fixed here and reused by every other module:

* A surgery coefficient p/q on a Legendrian component is measured against the
  contact longitude.  The contact longitude is tb * mu + lambda on the
  boundary of a standard neighborhood, so the curve p*mu + q*lambda_c equals
  (p + q*tb)*mu + q*lambda and the topological coefficient is (p + q*tb)/q.
* A curve a*mu + b*lambda on a boundary torus, with mu -> (1,0) and
  lambda -> (0,1), has slope b/a.  As a projectivized column vector the slope
  p/q is (q, p); SL(2,Z) acts by plain matrix multiplication on that vector.
* Slopes and coefficients share one exact rational type with a point at
  infinity (1/0).

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    InvalidParameter,
    NoJointPartner,
    NotNice,
    UnsupportedComposition,
)


def integers(values, message: str, convert=operator.index) -> tuple:
    """The values as ints (anything with __index__), or as convert maps them.

    A float, string or other non-integer, or values that cannot be iterated,
    raise InvalidParameter instead of being truncated or parsed.  The message
    is formatted only then, so it is a constant that quotes no value: an int
    of more than 4,300 digits has no repr."""
    try:
        return tuple(map(convert, values))
    except TypeError as exc:
        raise InvalidParameter(f"{message}: {exc}") from None


@dataclass(frozen=True, order=False)
class SlopeQ:
    """Reduced rational p/q with q >= 0; q = 0 (and then p = 1) is infinity."""

    p: int
    q: int

    def __post_init__(self):
        p, q = integers((self.p, self.q), "slope terms must have integer type")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if self.q == 0:
            if self.p != 1:
                raise InvalidParameter(f"infinity is stored as 1/0, not {self.p}/0")
        elif self.q < 0:
            raise InvalidParameter(f"slope {self.p}/{self.q} needs a positive denominator")
        elif gcd(abs(self.p), self.q) != 1:
            raise InvalidParameter(f"slope {self.p}/{self.q} must be reduced")

    @staticmethod
    def of(p: int, q: int = 1) -> "SlopeQ":
        """Build a reduced slope from any integer pair (q may be negative),
        reading the terms once and building the reduced value unchecked."""
        p, q = integers((p, q), "slope terms must have integer type")
        if p == q == 0:
            raise ValueError("0/0 is not a slope")
        g = (gcd(p, q) if q else p) * (-1 if q < 0 else 1)  # q // g >= 0, and 1/0 for q = 0
        slope = object.__new__(SlopeQ)
        slope.__dict__.update(p=p // g, q=q // g)
        return slope

    @staticmethod
    def infinity() -> "SlopeQ":
        return SlopeQ(1, 0)

    @staticmethod
    def parse(text: str) -> "SlopeQ":
        """Parse 'p/q', a plain integer, or 'inf'."""
        text = text.strip()
        if text == "inf":
            return SlopeQ.infinity()
        if "/" in text:
            num, _, den = text.partition("/")
            return SlopeQ.of(int(num), int(den))
        return SlopeQ.of(int(text), 1)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 1

    def _cmp_key(self, other: Union["SlopeQ", int]):
        """A pair that compares as self and other do (both denominators are >= 0)."""
        if not isinstance(other, SlopeQ):
            if not isinstance(other, int):
                raise TypeError(f"cannot interpret {other!r} as a slope")
            other = SlopeQ.of(other, 1)
        if self.is_infinite or other.is_infinite:
            raise ValueError("infinite slope has no place in the linear order")
        return self.p * other.q, other.p * self.q

    def __lt__(self, other):
        return operator.lt(*self._cmp_key(other))

    def __le__(self, other):
        return operator.le(*self._cmp_key(other))

    def __gt__(self, other):
        return operator.gt(*self._cmp_key(other))

    def __ge__(self, other):
        return operator.ge(*self._cmp_key(other))

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


# --- coefficient calculus ------------------------------------------------

def contact_to_topological(c: SlopeQ, tb: int) -> SlopeQ:
    """Convert a contact surgery coefficient to the canonical-frame one.

    The curve p*mu + q*lambda_c equals (p + q*tb)*mu + q*lambda, so p/q maps
    to (p + q*tb)/q; infinity is fixed.
    """
    if c.is_infinite:
        return c
    return SlopeQ.of(c.p + c.q * tb, c.q)


# --- diagram node types ---------------------------------------------------

@dataclass(frozen=True)
class LegendrianComponent:
    """A Legendrian link component: label plus classical invariants."""

    label: str
    tb: int
    rot: int = 0


class LinkingData:
    """Symmetric pairwise linking numbers keyed by unordered label pairs.

    Absent pairs link 0; zero entries are dropped so equal linking data
    compare equal regardless of how they were assembled.  The value is
    immutable, so its entries are sorted once, when it is built.
    """

    __slots__ = ("_entries", "_pairs")

    def __init__(self, entries: Iterable[tuple] = ()):  # (a, b, value) triples
        table = {}
        order = {}  # label -> _label_key(label), computed once per label
        for a, b, value in entries:
            if a == b:
                raise ValueError(f"self-linking lk({a!r}, {a!r}) is not defined")
            if a not in order:
                order[a] = _label_key(a)
            if b not in order:
                order[b] = _label_key(b)
            key = (a, b) if order[a] <= order[b] else (b, a)
            if key in table and table[key] != value:
                raise ValueError(f"conflicting linking numbers for {key}")
            if value != 0:
                table[key] = value
        self._entries = table
        self._pairs = tuple(
            (a, b, table[a, b]) for a, b in sorted(table, key=lambda k: (order[k[0]], order[k[1]]))
        )

    def get(self, a, b) -> int:
        if a == b:
            raise ValueError(f"self-linking lk({a!r}, {a!r}) is not defined")
        key = (a, b) if _label_key(a) <= _label_key(b) else (b, a)
        return self._entries.get(key, 0)

    def pairs(self):
        """Sorted (a, b, value) triples of the nonzero entries."""
        return iter(self._pairs)

    def merged_with(self, other: "LinkingData") -> "LinkingData":
        return LinkingData(self._pairs + other._pairs)

    def __eq__(self, other):
        return isinstance(other, LinkingData) and self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        return f"LinkingData({list(self._pairs)!r})"


def _label_key(label):
    # Labels are strings in diagrams and ints for front components; keep each
    # kind ordered within itself.
    return (0, label) if isinstance(label, int) else (1, str(label))


@dataclass(frozen=True)
class TightLayerSpec:
    """Choice of tight structure on the glued thickened torus.

    kind is one of "nonrotative", "rotative_plus", "rotative_minus"; param is
    the holonomy integer for nonrotative layers and the positive family index
    for rotative ones.  The invariant neighborhood is the zero-holonomy
    minimal-twisting layer, so invariant() is nonrotative(0, 0).
    """

    kind: str
    param: int = 0
    twisting: int = 0

    def __post_init__(self):
        if self.kind not in ("nonrotative", "rotative_plus", "rotative_minus"):
            raise InvalidParameter(f"unknown layer kind {self.kind!r}")
        param, twisting = integers((self.param, self.twisting),
                                   "layer parameter and twisting must have integer type")
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "twisting", twisting)
        if self.twisting < 0:
            raise InvalidParameter(f"layer twisting {self.twisting} is negative")
        if self.kind in ("rotative_plus", "rotative_minus") and self.param < 1:
            raise InvalidParameter(
                f"rotative layers carry a positive index, not {self.param}"
            )

    @staticmethod
    def invariant() -> "TightLayerSpec":
        return TightLayerSpec("nonrotative", 0, 0)

    @staticmethod
    def nonrotative(holonomy: int, twisting: int = 0) -> "TightLayerSpec":
        return TightLayerSpec("nonrotative", holonomy, twisting)

    @staticmethod
    def rotative_plus(m: int) -> "TightLayerSpec":
        return TightLayerSpec("rotative_plus", m, 0)

    @staticmethod
    def rotative_minus(m: int) -> "TightLayerSpec":
        return TightLayerSpec("rotative_minus", m, 0)

    def is_zero_layer(self) -> bool:
        """True for the zero-holonomy minimal-twisting (invariant) layer."""
        return self.kind == "nonrotative" and self.param == 0 and self.twisting == 0


@dataclass(frozen=True)
class Round1Spec:
    """Round 1-surgery on a two-component sublink, with a layer choice.

    r2 is the coefficient of the joint round 2-surgery on pair[1], so a spec
    with r2 set is a whole contact joint pair; None means a standalone round
    1-surgery.
    """

    pair: tuple
    coeff_a: int
    coeff_b: int
    layer: TightLayerSpec
    r2: Optional[SlopeQ] = None

    def __post_init__(self):
        if len(self.pair) != 2:
            raise InvalidParameter(f"round 1-surgery needs two components, not {self.pair!r}")
        coeff_a, coeff_b = integers((self.coeff_a, self.coeff_b),
                                    "round 1-surgery coefficients must have integer type")
        object.__setattr__(self, "coeff_a", coeff_a)
        object.__setattr__(self, "coeff_b", coeff_b)
        if not (self.r2 is None or isinstance(self.r2, SlopeQ)):
            raise InvalidParameter(f"a joint round 2-coefficient is a SlopeQ or None, not {type(self.r2).__name__}")


@dataclass(frozen=True)
class Round2Spec:
    """Standalone round 2-surgery on one knot (a joint one is Round1Spec.r2)."""

    knot: str
    coeff: SlopeQ

    def __post_init__(self):
        if not isinstance(self.coeff, SlopeQ):
            raise InvalidParameter(f"a round 2-coefficient is a SlopeQ, not {type(self.coeff).__name__}")


@dataclass(frozen=True)
class ContactSurgeryDiagram:
    """Framed Legendrian link with contact Dehn surgery coefficients."""

    components: tuple
    linking: LinkingData
    coefficients: Mapping

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    def component(self, label: str) -> LegendrianComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(label)

    def __eq__(self, other):
        return (
            isinstance(other, ContactSurgeryDiagram)
            and self.components == other.components
            and self.linking == other.linking
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.components, self.linking, tuple(sorted(self.coefficients.items()))))


@dataclass(frozen=True)
class RoundSurgeryDiagram:
    """Legendrian link with round 1-specs (joint pairs among them) and
    standalone round 2-specs."""

    components: tuple
    linking: LinkingData
    round1: tuple = ()
    round2: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "round1", tuple(self.round1))
        object.__setattr__(self, "round2", tuple(self.round2))

    def component(self, label: str) -> LegendrianComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(label)


Diagram = Union[ContactSurgeryDiagram, RoundSurgeryDiagram]


# --- validation ------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate_diagram(d: Diagram) -> list:
    """Check all type invariants; returns a list of violations (empty = valid)."""
    out = []
    labels = [c.label for c in d.components]
    seen = set()
    for lab in labels:
        if lab in seen:
            out.append(Violation("duplicate_label", f"component label {lab!r} repeats"))
        seen.add(lab)
    for a, b, _ in d.linking.pairs():
        for lab in (a, b):
            if lab not in seen:
                out.append(Violation("unknown_label", f"linking references unknown component {lab!r}"))

    if isinstance(d, ContactSurgeryDiagram):
        for lab in labels:
            if lab not in d.coefficients:
                out.append(Violation("missing_coefficient", f"component {lab!r} has no surgery coefficient"))
        for lab in d.coefficients:
            if lab not in seen:
                out.append(Violation("extra_coefficient", f"coefficient on unknown component {lab!r}"))
        return out

    used = set()
    for i, r1 in enumerate(d.round1):
        a, b = r1.pair
        if a == b:
            out.append(Violation("duplicate_label", f"round1[{i}] pairs {a!r} with itself"))
        for lab in dict.fromkeys((a, b)):  # a self-pair's label is checked once
            if lab not in seen:
                out.append(Violation("unknown_label", f"round1[{i}] references unknown component {lab!r}"))
            elif lab in used:
                out.append(Violation("duplicate_pair_membership", f"component {lab!r} sits in more than one round1 pair"))
            used.add(lab)
    round2_knots = {r1.pair[1] for r1 in d.round1 if r1.r2 is not None}
    for j, r2 in enumerate(d.round2, _joint_count(d)):
        if r2.knot not in seen:
            out.append(Violation("unknown_label", f"round2[{j}] references unknown component {r2.knot!r}"))
        elif r2.knot in round2_knots:
            out.append(Violation("duplicate_round2",
                                 f"round2[{j}] is a second round 2-surgery on component {r2.knot!r}"))
        elif r2.knot in used:
            out.append(Violation("round2_on_round1_knot",
                                 f"round2[{j}] is on component {r2.knot!r} of a round1 pair"))
        round2_knots.add(r2.knot)
    return out


def _joint_count(d: RoundSurgeryDiagram) -> int:
    """The number of joint pairs: the JSON form lists their round 2-surgeries
    first, so messages number the standalone round2[j] from here."""
    return sum(r1.r2 is not None for r1 in d.round1)


def is_pm1(d: ContactSurgeryDiagram) -> bool:
    plus, minus = SlopeQ.of(1), SlopeQ.of(-1)
    return all(c in (plus, minus) for c in d.coefficients.values())


# --- joint pair niceness and the fillability predicate ---------------------

@dataclass(frozen=True)
class NicenessReport:
    """check_nice verdict: the three conditions and their conjunction."""

    pair: tuple
    equal_coefficients: bool
    r2_is_pm1: bool
    layer_is_standard: bool
    reasons: tuple = ()

    @property
    def nice(self) -> bool:
        return self.equal_coefficients and self.r2_is_pm1 and self.layer_is_standard


def check_nice(d: RoundSurgeryDiagram, idx: int) -> NicenessReport:
    """Decide whether the joint pair around round1[idx] is nice.

    Conditions: both round-1 coefficients are the same integer, the joint
    round-2 coefficient is +1 or -1, and the layer normalizes to the
    zero-holonomy minimal-twisting one.
    """
    if not (0 <= idx < len(d.round1)):
        raise IndexError(f"round1 index {idx} out of range")
    r1 = d.round1[idx]
    if r1.r2 is None:
        raise NoJointPartner(f"round1[{idx}] has no joint round 2-surgery")

    reasons = []
    equal = r1.coeff_a == r1.coeff_b
    if not equal:
        reasons.append(f"coefficient mismatch ({r1.coeff_a} vs {r1.coeff_b})")
    pm1 = r1.r2 in (SlopeQ.of(1), SlopeQ.of(-1))
    if not pm1:
        reasons.append(f"round-2 coefficient {r1.r2} not +1 or -1")
    standard = r1.layer.is_zero_layer()
    if not standard:
        reasons.append("layer is not the zero-holonomy minimal-twisting one")
    return NicenessReport(r1.pair, equal, pm1, standard, tuple(reasons))


def _nice_partners(d: RoundSurgeryDiagram, standalone: bool = False) -> list:
    """The joint round 2-coefficient r2 (None if standalone) of each round 1-spec.

    This is the one place that checks joint pairs: a pair that check_nice
    rejects raises NotNice.  Unless standalone is set, it checks the rule
    "every surgery sits in a nice joint pair": a standalone round 2-spec
    raises UnsupportedComposition and a round 1-spec with no r2 NotNice.
    """
    if d.round2 and not standalone:
        raise UnsupportedComposition(f"round2[{_joint_count(d)}] is not joint with any round 1-surgery")
    for idx, r1 in enumerate(d.round1):
        if r1.r2 is None:
            if not standalone:
                raise NotNice(idx, "no joint round 2-surgery partner")
            continue
        report = check_nice(d, idx)
        if not report.nice:
            raise NotNice(idx, "; ".join(report.reasons))
    return [r1.r2 for r1 in d.round1]


def _require_valid(d: Diagram) -> None:
    """Raise UnsupportedComposition naming every violation of d, if any."""
    problems = validate_diagram(d)
    if problems:
        raise UnsupportedComposition("invalid diagram: " + "; ".join(v.message for v in problems))


def joint_pairs_to_pm1(rd: RoundSurgeryDiagram) -> ContactSurgeryDiagram:
    """Read a diagram of nice joint pairs as a contact (+-1)-surgery diagram.

    Each pair with round-2 coefficient m yields contact coefficient m on both
    of its components; components, invariants and linking carry over verbatim.
    """
    _require_valid(rd)
    coefficients = {}
    for r1, r2 in zip(rd.round1, _nice_partners(rd)):
        coefficients[r1.pair[0]] = coefficients[r1.pair[1]] = r2
    for c in rd.components:
        if c.label not in coefficients:
            raise UnsupportedComposition(f"component {c.label!r} is not in any joint pair")
    return ContactSurgeryDiagram(rd.components, rd.linking, coefficients)


def is_fillable_sufficient(d: RoundSurgeryDiagram) -> bool:
    """Sufficient condition for symplectic fillability of the described manifold.

    True iff every round 1-spec sits in a nice joint pair whose round-2
    coefficient is -1, and no surgery outside those joint pairs is present.
    A diagram with no surgeries at all qualifies vacuously.
    """
    try:
        partners = _nice_partners(d)
    except UnsupportedComposition:
        return False
    minus_one = SlopeQ.of(-1)
    return all(r2 == minus_one for r2 in partners)
