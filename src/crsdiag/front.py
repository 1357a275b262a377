"""Combinatorial front projections and their classical invariants.

A front word is a left-to-right sequence of Morse events on a bundle of
horizontal strands, numbered from 1 at the bottom:

* ``U<i>``: a left cusp, two new strands appear at positions i, i+1;
* ``C<i>``: a right cusp, the strands at positions i, i+1 join and vanish;
* ``X<i>``: a crossing, the strands at positions i, i+1 exchange positions.

A parsed word keeps its events as canonical token strings: leading zeros of
a position are dropped, so ``U01`` is kept as ``"U1"``.  Strand ids are
handed out in cup order: cup k gives birth to strand 2k, the lower one, and
strand 2k+1.  So the cup mate of strand s is s ^ 1.

At a crossing the descending strand has the lesser slope and therefore passes
in front.  Crossing signs are a function of the over/under roles and the two
strands' horizontal traversal directions; the table is pinned by two
calibration fixtures (the two-event unknot word computes tb = -1, and the
clasp word "U1 U1 X2 X2 C1 C1" with both components oriented forward computes
lk = +1), which forces sign = +1 exactly when the directions differ.

The forward orientation of a component starts on the lower strand of its
first cup and runs rightward.  parse_front_word walks each component once,
recording its strands' directions and its up and right cusp counts, and then
gives each crossing its sign under the forward orientation: this is the one
place where strand directions become a sign.  Any other orientation changes
only the signs of crossings between two components, one of them reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .core import LinkingData
from .errors import (
    CertificateError,
    FrontSyntaxError,
    InvalidParameter,
    OpenDiagram,
    PositionError,
    UnknownComponent,
)


@dataclass(frozen=True)
class Threading:
    """Strand segments threaded through the word.

    strand_component[s] is the component id of strand s; components are
    numbered by their least strand id, that is by their earliest cup.
    rightward[s] is True when the forward orientation runs strand s left to
    right.  ups[c] counts the cusps of component c that its forward
    traversal turns upward at, and cusps[c] its right cusps; the traversal
    passes as many left as right cusps, so 2 * cusps[c] - ups[c] turn
    downward.  signs[k] is the sign of crossings[k] when every component is
    oriented forward; tb_rot reads a component's tb and rot from them.
    """

    strand_component: List[int]
    component_count: int
    caps: tuple        # (event_index, lo_strand, hi_strand)
    crossings: tuple   # (under_strand, over_strand); under ascends
    signs: tuple       # +1 or -1 per crossing, every component forward
    rightward: List[bool]
    ups: List[int]
    cusps: List[int]


@dataclass(frozen=True)
class FrontWord:
    """A validated closed front word, threaded once by parse_front_word."""

    events: tuple      # canonical token strings such as "U1"
    threading: Threading = field(compare=False, repr=False)

    def __str__(self):
        return " ".join(self.events)


@dataclass(frozen=True)
class OrientedFront:
    """A front word plus an orientation choice per component."""

    word: FrontWord
    orientation: Dict[int, str]

    def __post_init__(self):
        object.__setattr__(self, "orientation", dict(self.orientation))
        for cid in range(self.word.threading.component_count):
            if self.orientation.get(cid) not in ("forward", "reverse"):
                raise InvalidParameter(f"component {cid} needs an orientation entry")

    @staticmethod
    def forward(word: FrontWord) -> "OrientedFront":
        n = word.threading.component_count
        return OrientedFront(word, {cid: "forward" for cid in range(n)})


def parse_front_word(text: str) -> FrontWord:
    """Tokenize, validate and thread a front word; raises on malformed or open words."""
    tokens = text.split()
    # a word of n tokens has at most 2n strands, so a position with more
    # digits than 2n + 1 is out of range and is never handed to int()
    max_digits = len(str(2 * len(tokens) + 1))
    events = []
    positions: List[int] = []  # strand ids ordered bottom to top
    cap_mate: List[int] = []   # the strand each strand joins at its right cusp
    cap_lower: List[bool] = []  # True for the lower strand of a right cusp
    caps, crossings = [], []
    for t, token in enumerate(tokens):
        kind, digits = token[0], token[1:]
        if kind not in "UXC" or not (digits.isascii() and digits.isdigit()):
            raise FrontSyntaxError(f"bad front token {token!r}")
        event = token
        if digits[0] == "0":
            digits = digits.lstrip("0") or "0"
            event = kind + digits
        pos = int(digits) if len(digits) <= max_digits else 0  # 0 is out of range
        strands = len(positions)
        i = pos - 1
        if kind == "U":
            if not 1 <= pos <= strands + 1:
                raise PositionError(f"{token}: cup position out of range with {strands} strands")
            lo = len(cap_mate)
            cap_mate += (lo, lo)
            cap_lower += (False, False)
            positions[i:i] = (lo, lo + 1)
        else:
            if not 1 <= pos <= strands - 1:
                raise PositionError(f"{token}: position out of range with {strands} strands")
            lo, hi = positions[i], positions[i + 1]
            if kind == "C":
                cap_mate[lo], cap_mate[hi] = hi, lo
                cap_lower[lo] = True
                caps.append((t, lo, hi))
                del positions[i:i + 2]
            else:
                positions[i], positions[i + 1] = hi, lo
                crossings.append((lo, hi))
        events.append(event)
    if positions:
        raise OpenDiagram(f"front word leaves {len(positions)} strands open")

    # each component is a cycle of alternate cup and cap joins; the first
    # unnumbered even strand is the least strand id of the next component.
    # Every s the walk numbers is one the forward orientation runs rightward:
    # it turns upward at its right cusp if it is the lower strand there, and
    # its cap mate turns upward at its cup if that mate is the lower (even)
    # strand there
    n = len(cap_mate)
    strand_component = [-1] * n
    rightward = [False] * n
    ups: List[int] = []
    cusps: List[int] = []
    for start in range(0, n, 2):
        if strand_component[start] < 0:
            cid, s, up, count = len(ups), start, 0, 0
            while strand_component[s] < 0:
                strand_component[s] = strand_component[s ^ 1] = cid
                rightward[s] = True
                up += cap_lower[s] + (cap_mate[s] % 2 == 0)
                count += 1
                s = cap_mate[s ^ 1]
            ups.append(up)
            cusps.append(count)
    signs = tuple([1 if rightward[under] != rightward[over] else -1 for under, over in crossings])
    threading = Threading(strand_component, len(ups), tuple(caps), tuple(crossings), signs,
                          rightward, ups, cusps)
    return FrontWord(tuple(events), threading)


# --- threading --------------------------------------------------------------

def trace_components(word: FrontWord) -> Threading:
    """The word's strands threaded into components (done once, when it was parsed)."""
    return word.threading


def tb_rot(threading: Threading, reverse: Sequence[bool]) -> List[Tuple[int, int]]:
    """The (tb, rot) of each component c, reversed if reverse[c]; the one
    place that reads them from a threading.  tb = self-writhe - #right cusps
    (a self-crossing's sign does not depend on the orientation), and rot =
    #right cusps - #up forward (see Threading) and its negative reversed."""
    if threading.component_count == 1:  # every crossing is a self-crossing
        writhe = [sum(threading.signs)]
    else:
        comp, writhe = threading.strand_component, [0] * threading.component_count
        for (under, over), sign in zip(threading.crossings, threading.signs):
            if comp[under] == comp[over]:
                writhe[comp[under]] += sign
    return [(w - cusps, up - cusps if rev else cusps - up)
            for w, cusps, up, rev in zip(writhe, threading.cusps, threading.ups, reverse)]


@dataclass(frozen=True)
class ComponentInvariants:
    tb: int
    rot: int
    self_writhe: int
    cusps_up: int
    cusps_down: int


@dataclass(frozen=True)
class FrontInvariants:
    components: tuple      # ComponentInvariants indexed by component id
    lk: LinkingData        # keyed by component ids


def classical_invariants(front: OrientedFront) -> FrontInvariants:
    """Per-component tb, rot, writhe and cusp counts, plus pairwise linking.

    tb and rot are those of tb_rot.  Each crossing keeps its forward sign
    (see Threading), except that a crossing of two components flips it when
    exactly one of them is reversed.
    """
    threading = front.word.threading
    n = threading.component_count
    comp = threading.strand_component
    reverse = [front.orientation[cid] == "reverse" for cid in range(n)]

    lk_sums: Dict[Tuple[int, int], int] = {}
    for (under, over), sign in zip(threading.crossings, threading.signs):
        a, b = comp[under], comp[over]
        if a != b:
            if reverse[a] != reverse[b]:
                sign = -sign
            key = (a, b) if a < b else (b, a)
            lk_sums[key] = lk_sums.get(key, 0) + sign

    # rot = (#down - #up)/2, and a component has 2 * #right cusps in all
    invariants = [ComponentInvariants(tb=tb, rot=rot, self_writhe=tb + cusps,
                                      cusps_up=cusps - rot, cusps_down=cusps + rot)
                  for (tb, rot), cusps in zip(tb_rot(threading, reverse), threading.cusps)]

    entries = []
    for (a, b), total in lk_sums.items():
        if total % 2:
            raise CertificateError(f"components {a} and {b} have an odd crossing sign sum {total}; "
                                   "mixed crossings of two closed curves come in pairs")
        entries.append((a, b, total // 2))
    return FrontInvariants(tuple(invariants), LinkingData(entries))


def stabilize(front: OrientedFront, component: int, sign: int) -> OrientedFront:
    """Insert one zigzag (a cup/cap pair) on the component, dropping tb by 1.

    sign selects the rotation-number shift (+1 or -1).  The zigzag is
    spliced into the lower strand lo entering the component's first right
    cusp, at position pos, which keeps every other component untouched.
    (U pos, C pos+1) gives lo two down cusps if the orientation runs lo
    rightward (rot + 1) and two up cusps if leftward (rot - 1); (U pos+1,
    C pos) gives the opposite shift.  The shift is checked all the same.
    """
    if sign not in (1, -1):
        raise InvalidParameter("stabilization sign must be +1 or -1")
    threading = front.word.threading
    if not 0 <= component < threading.component_count:
        raise UnknownComponent(f"front has no component {component}")

    comp = threading.strand_component
    t, lo = next(((t, lo) for t, lo, _hi in threading.caps if comp[lo] == component), (None, 0))
    if t is None:
        raise CertificateError(f"closed component {component} has no right cusp")
    events = front.word.events
    pos = int(events[t][1:])
    reverse = front.orientation[component] == "reverse"
    rightward = threading.rightward[lo] ^ reverse
    if rightward == (sign == 1):
        zigzag = (f"U{pos}", f"C{pos + 1}")
    else:
        zigzag = (f"U{pos + 1}", f"C{pos}")

    word = parse_front_word(" ".join(events[:t] + zigzag + events[t:]))
    orient = [front.orientation[cid] == "reverse" for cid in range(threading.component_count)]
    shift = tb_rot(word.threading, orient)[component][1] - tb_rot(threading, orient)[component][1]
    if shift != sign:
        raise CertificateError(f"the zigzag shifts rot by {shift}, not {sign}")
    return OrientedFront(word, front.orientation)
