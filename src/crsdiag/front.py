"""Combinatorial front projections and their classical invariants.

A front word is a left-to-right sequence of Morse events on a bundle of
horizontal strands, numbered from 1 at the bottom:

* ``U<i>``: a left cusp, two new strands appear at positions i, i+1;
* ``C<i>``: a right cusp, the strands at positions i, i+1 join and vanish;
* ``X<i>``: a crossing, the strands at positions i, i+1 exchange positions.

At a crossing the descending strand has the lesser slope and therefore passes
in front.  Crossing signs are a function of the over/under roles and the two
strands' horizontal traversal directions; the table is pinned by two
calibration fixtures (the two-event unknot word computes tb = -1, and the
clasp word "U1 U1 X2 X2 C1 C1" with both components oriented forward computes
lk = +1), which forces sign = +1 exactly when the directions differ.

The forward orientation of a component starts on the lower strand of its
first cup and runs rightward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .core import LinkingData
from .errors import (
    CertificateError,
    FrontSyntaxError,
    InvalidParameter,
    OpenDiagram,
    PositionError,
    UnknownComponent,
)

CUP, CROSS, CAP = "U", "X", "C"
_TOKEN = re.compile(r"^([UXC])([0-9]+)$")


@dataclass(frozen=True)
class Event:
    kind: str
    pos: int

    def __str__(self):
        return f"{self.kind}{self.pos}"


@dataclass(frozen=True)
class Threading:
    """Strand segments threaded through the word.

    strand_component maps every strand id to its component id; components are
    numbered by the event index of their earliest cup.
    """

    strand_component: Dict[int, int]
    component_count: int
    cups: tuple        # (event_index, lo_strand, hi_strand)
    caps: tuple
    crossings: tuple   # (event_index, under_strand, over_strand); under ascends


@dataclass(frozen=True)
class FrontWord:
    """A validated closed front word, threaded once by parse_front_word."""

    events: tuple
    threading: Threading = field(compare=False, repr=False)

    def __str__(self):
        return word_to_text(self)


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
    """Tokenize, validate and thread a front word; raises on malformed or open words.

    Strand ids are handed out in cup order, and a union-find over them joins
    the two strands of every cusp; each set's root is its least strand id.
    """
    events = []
    parent: List[int] = []     # union-find over strand ids
    positions: List[int] = []  # strand ids ordered bottom to top
    cups, caps, crossings = [], [], []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, token in enumerate(text.split()):
        m = _TOKEN.match(token)
        if not m:
            raise FrontSyntaxError(f"bad front token {token!r}")
        kind, pos = m.group(1), int(m.group(2))
        strands = len(positions)
        i = pos - 1
        if kind == CUP:
            if not 1 <= pos <= strands + 1:
                raise PositionError(f"{token}: cup position out of range with {strands} strands")
            lo = len(parent)
            parent += (lo, lo)
            positions[i:i] = [lo, lo + 1]
            cups.append((t, lo, lo + 1))
        else:
            if not 1 <= pos <= strands - 1:
                raise PositionError(f"{token}: position out of range with {strands} strands")
            lo, hi = positions[i], positions[i + 1]
            if kind == CAP:
                rlo, rhi = find(lo), find(hi)
                parent[max(rlo, rhi)] = min(rlo, rhi)
                caps.append((t, lo, hi))
                del positions[i:i + 2]
            else:
                positions[i], positions[i + 1] = hi, lo
                crossings.append((t, lo, hi))
        events.append(Event(kind, pos))
    if positions:
        raise OpenDiagram(f"front word leaves {len(positions)} strands open")

    # a component's least strand id is the lower strand of its earliest cup,
    # so numbering roots in id order numbers components by earliest cup
    numbered: Dict[int, int] = {}
    strand_component = {s: numbered.setdefault(find(s), len(numbered))
                        for s in range(len(parent))}
    threading = Threading(strand_component, len(numbered), tuple(cups), tuple(caps),
                          tuple(crossings))
    return FrontWord(tuple(events), threading)


def word_to_text(word: FrontWord) -> str:
    return " ".join(str(e) for e in word.events)


# --- threading --------------------------------------------------------------

def trace_components(word: FrontWord) -> Threading:
    """The word's strands threaded into components (done once, when it was parsed)."""
    return word.threading


def _canonical_directions(threading: Threading):
    """Traverse every component forward; returns per-strand direction flags and
    per-component canonical cusp verdicts.

    rightward[s] is True when the forward traversal runs strand s left to
    right.  Cusp verdicts count, per component, cusps traversed downward and
    upward under the forward orientation.
    """
    cup_mate, cup_is_lower = {}, {}
    cap_mate, cap_is_lower = {}, {}
    for _t, lo, hi in threading.cups:
        cup_mate[lo], cup_mate[hi] = hi, lo
        cup_is_lower[lo], cup_is_lower[hi] = True, False
    for _t, lo, hi in threading.caps:
        cap_mate[lo], cap_mate[hi] = hi, lo
        cap_is_lower[lo], cap_is_lower[hi] = True, False

    first_cup_lo = {}
    for _t, lo, _hi in threading.cups:
        cid = threading.strand_component[lo]
        if cid not in first_cup_lo:
            first_cup_lo[cid] = lo

    rightward: Dict[int, bool] = {}
    downs = {cid: 0 for cid in range(threading.component_count)}
    ups = {cid: 0 for cid in range(threading.component_count)}

    for cid in range(threading.component_count):
        start = first_cup_lo[cid]
        strand, moving_right = start, True
        while True:
            rightward[strand] = moving_right
            if moving_right:
                # run right into the death cap; entering along the lower
                # strand turns the curve upward through the cusp
                if cap_is_lower[strand]:
                    ups[cid] += 1
                else:
                    downs[cid] += 1
                strand, moving_right = cap_mate[strand], False
            else:
                # run left into the birth cup; entering along the lower
                # strand exits upward along the mate
                if cup_is_lower[strand]:
                    ups[cid] += 1
                else:
                    downs[cid] += 1
                strand, moving_right = cup_mate[strand], True
            if strand == start and moving_right:
                break
    return rightward, downs, ups


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

    tb = self-writhe - #right cusps and rot = (#down - #up)/2; crossing signs
    follow the calibrated table (+1 for opposite horizontal directions).
    """
    threading = front.word.threading
    rightward, downs_fwd, ups_fwd = _canonical_directions(threading)
    comp = threading.strand_component
    reversed_flag = {cid: front.orientation[cid] == "reverse" for cid in range(threading.component_count)}

    self_writhe = {cid: 0 for cid in range(threading.component_count)}
    lk_sums: Dict[Tuple[int, int], int] = {}
    for _t, under, over in threading.crossings:
        dir_under = rightward[under] ^ reversed_flag[comp[under]]
        dir_over = rightward[over] ^ reversed_flag[comp[over]]
        sign = 1 if dir_over != dir_under else -1
        if comp[under] == comp[over]:
            self_writhe[comp[under]] += sign
        else:
            key = tuple(sorted((comp[under], comp[over])))
            lk_sums[key] = lk_sums.get(key, 0) + sign

    caps_per = {cid: 0 for cid in range(threading.component_count)}
    for _t, lo, _hi in threading.caps:
        caps_per[comp[lo]] += 1

    invariants = []
    for cid in range(threading.component_count):
        if reversed_flag[cid]:
            down, up = ups_fwd[cid], downs_fwd[cid]
        else:
            down, up = downs_fwd[cid], ups_fwd[cid]
        if (down - up) % 2:
            raise CertificateError(f"component {cid} has {down} down and {up} up cusps, an odd total")
        invariants.append(ComponentInvariants(
            tb=self_writhe[cid] - caps_per[cid],
            rot=(down - up) // 2,
            self_writhe=self_writhe[cid],
            cusps_up=up,
            cusps_down=down,
        ))

    entries = []
    for (a, b), total in lk_sums.items():
        if total % 2:
            raise CertificateError(f"components {a} and {b} have an odd crossing sign sum {total}; "
                                   "mixed crossings of two closed curves come in pairs")
        entries.append((a, b, total // 2))
    return FrontInvariants(tuple(invariants), LinkingData(entries))


def stabilize(front: OrientedFront, component: int, sign: int) -> OrientedFront:
    """Insert one zigzag (a cup/cap pair) on the component, dropping tb by 1.

    sign selects the rotation-number shift (+1 or -1); the zigzag is spliced
    into the lower strand entering the component's first right cusp, which
    keeps every other component untouched.
    """
    if sign not in (1, -1):
        raise InvalidParameter("stabilization sign must be +1 or -1")
    threading = front.word.threading
    if not 0 <= component < threading.component_count:
        raise UnknownComponent(f"front has no component {component}")

    comp = threading.strand_component
    target = None
    for t, lo, _hi in threading.caps:
        if comp[lo] == component:
            target = (t, front.word.events[t].pos)
            break
    if target is None:
        raise CertificateError(f"closed component {component} has no right cusp")
    t, pos = target

    before = classical_invariants(front).components[component].rot
    for variant in ((Event(CUP, pos), Event(CAP, pos + 1)),
                    (Event(CUP, pos + 1), Event(CAP, pos))):
        events = front.word.events[:t] + variant + front.word.events[t:]
        word = parse_front_word(" ".join(str(e) for e in events))
        candidate = OrientedFront(word, front.orientation)
        after = classical_invariants(candidate).components[component].rot
        if after - before == sign:
            return candidate
    raise CertificateError("no zigzag variant realizes the requested rotation shift")
