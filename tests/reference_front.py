"""Reference implementations of the front code that the token-string words
and the flat strand arrays replaced, kept as test oracles.

`parse_front_word` builds one `Event` per token and threads the strands by a
union-find; `_canonical_directions` walks each component through cup and cap
dicts; `classical_invariants` keeps per-component dicts; `stabilize` parses
both zigzag variants in turn and keeps the first with the asked rot shift.
All four run on words alone and call no code of `crsdiag.front`.
Shares with `src`: old code kept as an oracle, and the crossing-sign comparison of `front.py`.
That comparison (+1 when the two strands run in different horizontal
directions) is the same formula, so a wrong crossing sign passes this oracle
(ROADMAP item 1).
"""

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from crsdiag.core import LinkingData
from crsdiag.errors import CertificateError, FrontSyntaxError, OpenDiagram, PositionError

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
    strand_component: Dict[int, int]
    component_count: int
    cups: tuple        # (event_index, lo_strand, hi_strand)
    caps: tuple
    crossings: tuple   # (event_index, under_strand, over_strand); under ascends


@dataclass(frozen=True)
class Word:
    events: tuple
    threading: Threading

    def __str__(self):
        return " ".join(str(e) for e in self.events)


def parse_front_word(text: str) -> Word:
    events = []
    parent: List[int] = []
    positions: List[int] = []
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

    numbered: Dict[int, int] = {}
    strand_component = {s: numbered.setdefault(find(s), len(numbered))
                        for s in range(len(parent))}
    threading = Threading(strand_component, len(numbered), tuple(cups), tuple(caps),
                          tuple(crossings))
    return Word(tuple(events), threading)


def _canonical_directions(threading: Threading):
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
                if cap_is_lower[strand]:
                    ups[cid] += 1
                else:
                    downs[cid] += 1
                strand, moving_right = cap_mate[strand], False
            else:
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


def classical_invariants(word: Word, orientation: Dict[int, str]):
    """(per-component ComponentInvariants, LinkingData) of the oriented word."""
    threading = word.threading
    rightward, downs_fwd, ups_fwd = _canonical_directions(threading)
    comp = threading.strand_component
    reversed_flag = {cid: orientation[cid] == "reverse" for cid in range(threading.component_count)}

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
    return tuple(invariants), LinkingData(entries)


def stabilize(word: Word, orientation: Dict[int, str], component: int, sign: int) -> str:
    """The stabilized word's text: a zigzag before the component's first cap."""
    comp = word.threading.strand_component
    t = next(t for t, lo, _hi in word.threading.caps if comp[lo] == component)
    pos = word.events[t].pos
    events = [str(event) for event in word.events]
    before = classical_invariants(word, orientation)[0][component].rot
    for variant in ([f"U{pos}", f"C{pos + 1}"], [f"U{pos + 1}", f"C{pos}"]):
        candidate = parse_front_word(" ".join(events[:t] + variant + events[t:]))
        if classical_invariants(candidate, orientation)[0][component].rot - before == sign:
            return str(candidate)
    raise CertificateError("no zigzag variant realizes the requested rotation shift")
