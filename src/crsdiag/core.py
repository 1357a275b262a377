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
    InvalidMeridian,
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
        """Build a reduced slope from any integer pair (q may be negative)."""
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        if q == 0:
            return SlopeQ(1, 0)
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        return SlopeQ(p // g, q // g)

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


def topological_to_contact(t: SlopeQ, tb: int) -> SlopeQ:
    """Exact inverse of contact_to_topological."""
    if t.is_infinite:
        return t
    return SlopeQ.of(t.p - t.q * tb, t.q)


def boundary_slope(tb: int) -> SlopeQ:
    """Dividing-curve slope 1/tb of a standard neighborhood boundary (canonical frame).

    tb = 0 yields the infinite slope.
    """
    return SlopeQ.of(1, tb)


def surgery_meridian_coefficient(a: int, b: int) -> int:
    """Read the integer coefficient n off a surgery meridian a*mu + b*lambda_c.

    A surgery meridian intersects each dividing curve once, which forces the
    lambda_c coefficient b to be 1.
    """
    if b != 1:
        raise InvalidMeridian(
            f"curve {a}*mu + {b}*lambda_c is not a surgery meridian (need b = 1)"
        )
    return a


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
    """Round 1-surgery on a two-component sublink, with a layer choice."""

    pair: tuple
    coeff_a: int
    coeff_b: int
    layer: TightLayerSpec

    def __post_init__(self):
        if len(self.pair) != 2:
            raise InvalidParameter(f"round 1-surgery needs two components, not {self.pair!r}")
        coeff_a, coeff_b = integers((self.coeff_a, self.coeff_b),
                                    "round 1-surgery coefficients must have integer type")
        object.__setattr__(self, "coeff_a", coeff_a)
        object.__setattr__(self, "coeff_b", coeff_b)


@dataclass(frozen=True)
class Round2Spec:
    """Round 2-surgery on one knot; joint_with points at a Round1Spec index."""

    knot: str
    coeff: SlopeQ
    joint_with: Optional[int] = None


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
    """Legendrian link with round 1-specs, round 2-specs and joint pairs."""

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

    def joint_partner(self, idx: int) -> Optional[Round2Spec]:
        for r2 in self.round2:
            if r2.joint_with == idx:
                return r2
        return None


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
        for lab in (a, b):
            if lab not in seen:
                out.append(Violation("unknown_label", f"round1[{i}] references unknown component {lab!r}"))
            elif lab in used:
                out.append(Violation("duplicate_pair_membership", f"component {lab!r} sits in more than one round1 pair"))
            used.add(lab)
    joint_targets = set()
    for j, r2 in enumerate(d.round2):
        if r2.knot not in seen:
            out.append(Violation("unknown_label", f"round2[{j}] references unknown component {r2.knot!r}"))
        if r2.joint_with is not None:
            if not (0 <= r2.joint_with < len(d.round1)):
                out.append(Violation("bad_joint_index", f"round2[{j}] joint index {r2.joint_with} out of range"))
                continue
            if r2.joint_with in joint_targets:
                out.append(Violation("duplicate_joint", f"round1[{r2.joint_with}] has more than one joint round2 spec"))
            joint_targets.add(r2.joint_with)
            if d.round1[r2.joint_with].pair[1] != r2.knot:
                out.append(Violation(
                    "joint_mismatch",
                    f"round2[{j}] is joint with round1[{r2.joint_with}] but {r2.knot!r} "
                    f"is not that pair's second component",
                ))
    return out


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
    r2 = d.joint_partner(idx)
    if r2 is None:
        raise NoJointPartner(f"round1[{idx}] has no joint round 2-surgery")

    reasons = []
    equal = r1.coeff_a == r1.coeff_b
    if not equal:
        reasons.append(f"coefficient mismatch ({r1.coeff_a} vs {r1.coeff_b})")
    pm1 = r2.coeff in (SlopeQ.of(1), SlopeQ.of(-1))
    if not pm1:
        reasons.append(f"round-2 coefficient {r2.coeff} not +1 or -1")
    standard = r1.layer.is_zero_layer()
    if not standard:
        reasons.append("layer is not the zero-holonomy minimal-twisting one")
    return NicenessReport(r1.pair, equal, pm1, standard, tuple(reasons))


def _nice_partners(d: RoundSurgeryDiagram) -> list:
    """The joint round 2-spec of each round 1-spec, in order.

    This is the one place that checks the rule "every surgery sits in a nice
    joint pair": a round 2-spec outside a joint pair raises
    UnsupportedComposition, a round 1-spec with no partner or with a pair
    that check_nice rejects raises NotNice.
    """
    for j, r2 in enumerate(d.round2):
        if r2.joint_with is None:
            raise UnsupportedComposition(f"round2[{j}] is not joint with any round 1-surgery")
    partners = []
    for idx in range(len(d.round1)):
        try:
            report = check_nice(d, idx)
        except NoJointPartner as exc:
            raise NotNice(idx, "no joint round 2-surgery partner") from exc
        if not report.nice:
            raise NotNice(idx, "; ".join(report.reasons))
        partners.append(d.joint_partner(idx))
    return partners


def joint_pairs_to_pm1(rd: RoundSurgeryDiagram) -> ContactSurgeryDiagram:
    """Read a diagram of nice joint pairs as a contact (+-1)-surgery diagram.

    Each pair with round-2 coefficient m yields contact coefficient m on both
    of its components; components, invariants and linking carry over verbatim.
    """
    problems = validate_diagram(rd)
    if problems:
        raise UnsupportedComposition("invalid diagram: " + "; ".join(v.message for v in problems))
    coefficients = {}
    for r1, partner in zip(rd.round1, _nice_partners(rd)):
        a, b = r1.pair
        coefficients[a] = coefficients[b] = partner.coeff
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
    return all(partner.coeff == minus_one for partner in partners)
