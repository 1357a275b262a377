"""Seeded inputs for the three workloads.

make(workload, seed) returns the files to write, the ops to run (argv lists
for crsdiag.cli.main, in closed-loop order) and, per op, the data its oracle
needs.  The same (workload, seed) always gives the same bytes; the program
sees only the files and the argv lists.

An op list is one cycle; a run repeats it until its time is up.  Within a
cycle, heavy and light ops are spread evenly so that a run that stops part
way through a cycle still sees the cycle's mix.  Ops with out-of-domain
arguments, several of which crash today, are kept apart in `domain`: a
run makes each of them once, untimed, so that the timed ops' failure count
does not depend on how many cycles a run gets through.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import oracles

WORKLOADS = ("pm1_pipeline", "front_files", "layer_geometry")


@dataclass
class Workload:
    files: dict = field(default_factory=dict)   # relative path -> text
    ops: list = field(default_factory=list)     # {"argv": [...], "save": path | None}
    checks: list = field(default_factory=list)  # per op: (kind, data)
    domain: "Workload | None" = None            # out-of-domain ops, run once untimed

    def add(self, argv, kind, data, save=None):
        self.ops.append({"argv": [str(a) for a in argv], "save": save})
        self.checks.append((kind, data))

    def digest(self) -> str:
        domain = self.domain.ops if self.domain else []
        blob = json.dumps({"files": sorted(self.files.items()), "ops": self.ops,
                           "domain": domain}, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def make(workload: str, seed: int) -> Workload:
    rng = random.Random(f"{workload}:{seed}")
    return {"pm1_pipeline": _pm1_pipeline, "front_files": _front_files,
            "layer_geometry": _layer_geometry}[workload](rng)


def _spread(items, cost):
    """Items in bit-reversed order of their cost rank, so that every prefix
    of the cycle samples all cost ranks evenly."""
    ranked = sorted(items, key=cost, reverse=True)
    bits = max(1, (len(ranked) - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [ranked[i] for i in order if i < len(ranked)]


class _Deck:
    """Seeded draws that go through every value once before any repeats, so
    that each cycle holds the same mix of input shapes whatever the seed."""

    def __init__(self, rng, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()

    def uniform(self, lo, hi):
        """An integer in [lo, hi], from the stratum the deck draws."""
        return lo + int((self.draw() + self.rng.random()) * (hi - lo + 1) / len(self.values))


def _knot(rng, tb_range=(-5, -1)):
    tb = rng.randint(*tb_range)
    rot = rng.choice([r for r in range(tb + 1, -tb) if (tb + r) % 2])
    return tb, rot


def _linking(rng, labels, density, bound=3):
    lk = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if rng.random() < density:
                lk[(a, b)] = rng.choice([v for v in range(-bound, bound + 1) if v])
    return lk


def _relation_rows(labels, topo, lk):
    """Dehn surgery presentation over the labels with nontrivial surgery."""
    active = [lab for lab in labels if topo[lab][1] != 0]
    rows = []
    for a in active:
        p, q = topo[a]
        rows.append([p if b == a else q * lk.get((min(a, b), max(a, b)), 0) for b in active])
    return rows


# --- pm1_pipeline ---------------------------------------------------------------

PM1_SIZES = 26               # sizes from 10 to 60
PM1_SINGULAR = (2, 3, 6)     # 15 sparse, 17 dense and 23 sparse components
PM1_TWICE_FROM = 40          # two diagrams of each size from here, so the p90 tail has more draws


def _pm1_slot(i):
    """Size and density of size slot i: sizes climb from 10 to 60 in steps
    of two, every other pair of slots one larger (odd); density alternates."""
    n = 10 + 2 * i + (i // 2) % 2
    return min(n, 60 - (n > 60)), (1.0 if i % 2 else 0.1)


_PRIME = (1 << 61) - 1


def _full_rank_mod_p(rows):
    """True when the square matrix is invertible modulo a 61-bit prime (so
    certainly nonsingular over Z)."""
    a = [[x % _PRIME for x in row] for row in rows]
    n = len(a)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return False
        a[k], a[pivot] = a[pivot], a[k]
        inv = pow(a[k][k], _PRIME - 2, _PRIME)
        for i in range(k + 1, n):
            f = a[i][k] * inv % _PRIME
            if f:
                row_i, row_k = a[i], a[k]
                for j in range(k, n):
                    row_i[j] = (row_i[j] - f * row_k[j]) % _PRIME
    return True


def _pm1_diagram(rng, n, dens, plus_parity, singular):
    """Labels, knots, linking and +-1 coefficients of one (+-1)-diagram.

    A singular diagram gets a split unknot with tb = -1 and coefficient +1
    (topological framing 0, an S1 x S2 summand).  Other diagrams are drawn
    again until their presentation is nonsingular.  The general Smith path
    that singular presentations take has an erratic cost from about 30
    components on (25 ms to 0.8 s on 31 sparse components, 35 ms to 2.7 s
    on 30 dense ones, depending on the draw), which no steady run can
    hold, so singular inputs stay at 15-23 components.
    """
    labels = [f"K{i:02d}" for i in range(n)]
    while True:
        knots = {lab: _knot(rng) for lab in labels}
        lk = _linking(rng, labels, dens)
        n_plus = rng.randrange(n + 1)
        if n_plus % 2 != plus_parity:
            n_plus = n_plus + 1 if n_plus < n else n_plus - 1
        plus = rng.sample(labels, n_plus)
        if singular:
            knots["K00"] = (-1, 0)
            lk = {pair: v for pair, v in lk.items() if "K00" not in pair}
            if "K00" not in plus:
                plus = ["K00"] + plus[1:] if plus else ["K00", labels[1]]
        coeff = {lab: 1 if lab in plus else -1 for lab in labels}
        topo = {lab: oracles.topological(coeff[lab], 1, knots[lab][0]) for lab in labels}
        rows = _relation_rows(labels, topo, lk)
        if singular or _full_rank_mod_p(rows):
            return labels, knots, lk, coeff, rows


def _pm1_pipeline(rng) -> Workload:
    """Contact (+-1)-diagrams of 10-60 components, sparse and dense linking.

    Sizes are spread over the whole range in both parities, and the +1
    count takes both parities, so all four parity cases of the gadget
    insertion occur.  Sizes from 40 up have two diagrams each.  Three small
    diagrams have singular presentations.
    """
    wl = Workload()
    slots = [(i, 0) for i in range(PM1_SIZES)]
    slots += [(i, 1) for i in range(PM1_SIZES) if _pm1_slot(i)[0] >= PM1_TWICE_FROM]
    slots = _spread(slots, cost=lambda s: _pm1_slot(s[0])[0] ** 3 * (1 + s[0] % 2))
    for index, (slot, copy) in enumerate(slots):
        n, dens = _pm1_slot(slot)
        labels, knots, lk, coeff, rows = _pm1_diagram(
            rng, n, dens, (slot + slot // 4 + copy) % 2, slot in PM1_SINGULAR and not copy)
        name = f"d{index:02d}"
        model = {"name": name, "kind": "contact",
                 "components": [{"label": lab, "tb": knots[lab][0], "rot": knots[lab][1]}
                                for lab in labels],
                 "linking": [[a, b, v] for (a, b), v in sorted(lk.items())],
                 "surgeries": [{"component": lab, "coefficient": str(coeff[lab])}
                               for lab in labels]}
        contact_path, round_path = f"pm1/{name}.crs", f"pm1/{name}_round.crs"
        wl.files[contact_path] = oracles.print_diagram(model) + "\n"
        k, m = rng.choice([-1, 0, 1, 2]), rng.choice([1, 2])
        data = {"model": model, "coeff": coeff, "rows": rows, "group": name, "k": k, "m": m}
        wl.add(["homology", contact_path], "pm1_homology", data)
        wl.add(["to-round", "--k", k, "--gadget-m", m, contact_path], "pm1_to_round", data,
               save=round_path)
        wl.add(["to-pm1", round_path], "pm1_to_pm1", data)
        wl.add(["homology", round_path], "pm1_homology", data)
    return wl


# --- front_files -----------------------------------------------------------------

FRONT_FILES = 20          # files per cycle; one in ten is mutated
FRONT_DIAGRAMS = 8        # diagrams per file
FRONT_WORD_LENGTHS = (1000, 2500, 5000, 10000)


def random_front(rng, length, max_strands, connected=False):
    """A closed front word of about `length` events, as text.

    With connected=True the strands never all close before the end, so the
    word has no split unknotted pieces.
    """
    events, strands = [], 0
    while True:
        left = length - len(events)
        if strands == 0:
            if left <= 0:
                break
            kind = "U"
        elif left <= strands // 2:
            kind = "C"
        else:
            kinds = ["X", "X", "X"] + (["U"] if strands + 2 <= max_strands else [])
            kinds += [] if connected and strands == 2 else ["C"]
            kind = rng.choice(kinds)
        if kind == "U":
            pos = rng.randint(1, strands + 1)
            strands += 2
        else:
            pos = rng.randint(1, strands - 1)
            if kind == "C":
                strands -= 2
        events.append(f"{kind}{pos}")
    return " ".join(events)


def random_knot_front(rng, length):
    """A front word that traces exactly one component."""
    while True:
        text = random_front(rng, length, max_strands=4, connected=True)
        comps, _lk = oracles.front_invariants(text)
        if len(comps) == 1:
            return text


def _component(rng, label, fronts):
    """A component declaration (as parse JSON) and its (tb, rot)."""
    if rng.random() < fronts:
        word = random_knot_front(rng, rng.randint(12, 48))
        orient = rng.choice(["forward", "reverse"])
        inv = oracles.front_invariants(word, reverse={0} if orient == "reverse" else ())[0][0]
        return {"label": label, "front": word, "orient": orient}, (inv["tb"], inv["rot"])
    tb, rot = _knot(rng)
    return {"label": label, "tb": tb, "rot": rot}, (tb, rot)


def _rational(rng):
    while True:
        q = rng.choice([1, 1, 2, 3])
        p = rng.randint(-7, 7)
        p, q = oracles.parse_slope(f"{p}/{q}")
        if q:
            return p, q


def _contact_front_diagram(rng, name, decks):
    labels = [chr(ord("A") + i) for i in range(decks["components"].draw())]
    decls, knots = zip(*(_component(rng, lab, fronts=0.6) for lab in labels))
    knots = dict(zip(labels, knots))
    lk = _linking(rng, labels, 0.5, bound=2)
    coeff = {lab: (1, 0) if rng.random() < 0.15 else _rational(rng) for lab in labels}
    model = {"name": name, "kind": "contact", "components": list(decls),
             "linking": [[a, b, v] for (a, b), v in sorted(lk.items())],
             "surgeries": [{"component": lab, "coefficient": oracles.slope_text(*coeff[lab])}
                           for lab in labels]}
    topo = {lab: oracles.topological(*coeff[lab], knots[lab][0]) for lab in labels}
    rows = _relation_rows(labels, topo, lk)
    homology = {"groups": [(rows, len(rows), 0)]}
    return model, knots, homology, None, None


_NICE_DEFECTS = ("r1", "r2", "layer")


def _layer(rng, standard):
    if standard:
        return {"kind": "nonrotative", "param": 0, "twisting": 0}
    kind = rng.choice(["nonrotative", "rotative_plus", "rotative_minus"])
    param = rng.choice([-2, -1, 1, 2]) if kind == "nonrotative" else rng.randint(1, 3)
    return {"kind": kind, "param": param, "twisting": 0}


def _round_front_diagram(rng, name, decks):
    """Joint pairs, a standalone round 1-surgery on two components, or a
    standalone round 2-surgery on one; returns the model and expectations."""
    shape = decks["shape"].draw()
    n = {"joint": 2 * decks["pairs"].draw(), "round1": 2, "round2": 1}[shape]
    labels = [chr(ord("A") + i) for i in range(n)]
    decls, knots = zip(*(_component(rng, lab, fronts=0.4) for lab in labels))
    knots = dict(zip(labels, knots))
    lk = _linking(rng, labels, 0.6, bound=2)
    round1, round2, reports = [], [], []
    if shape == "joint":
        for i in range(0, n, 2):
            a, b = labels[i], labels[i + 1]
            defect = rng.choice(_NICE_DEFECTS) if rng.random() < 0.35 else None
            x = rng.randint(-2, 3)
            r1 = [x, x + 1 if defect == "r1" else x]
            r2 = rng.choice([(1, 1), (-1, 1), (-1, 1)]) if defect != "r2" else rng.choice([(2, 1), (5, 2), (-3, 1)])
            layer = _layer(rng, defect != "layer")
            round2.append({"knot": b, "coefficient": oracles.slope_text(*r2), "joint_with": len(round1)})
            round1.append({"pair": [a, b], "coefficients": r1, "layer": layer})
            reports.append({"index": len(reports), "pair": [a, b], "r1_equal": defect != "r1",
                            "r2_pm1": defect != "r2", "layer_standard": defect != "layer",
                            "nice": defect is None, "r2": r2})
    elif shape == "round1":
        r1 = [rng.randint(-2, 3), rng.randint(-2, 3)]
        round1.append({"pair": labels[:2], "coefficients": r1,
                       "layer": _layer(rng, rng.random() < 0.5)})
        reports.append({"index": 0, "pair": labels[:2], "nice": False})
    else:
        round2.append({"knot": labels[0], "coefficient": oracles.slope_text(*_rational(rng)),
                       "joint_with": None})
    model = {"name": name, "kind": "round", "components": list(decls),
             "linking": [[a, b, v] for (a, b), v in sorted(lk.items())],
             "round1": round1, "round2": round2}

    fillable = shape == "joint" and all(r["nice"] and r["r2"] == (-1, 1) for r in reports)
    if shape == "joint" and all(r["nice"] for r in reports):
        coeff = {lab: reports[i // 2]["r2"] for i, lab in enumerate(labels)}
        topo = {lab: oracles.topological(*coeff[lab], knots[lab][0]) for lab in labels}
        rows = _relation_rows(labels, topo, lk)
        homology = {"groups": [(rows, len(rows), 0)]}
    elif shape == "round1":
        (a, b), (n1, n2) = labels, round1[0]["coefficients"]
        big1, big2, v = n1 + knots[a][0], n2 + knots[b][0], lk.get((a, b), 0)
        rows = [[1, 0, -1, 0], [big1, v, 0, -1], [0, 1, -1, 0], [v, big2, 0, -1]]
        homology = {"groups": [(rows, 4, 1)]}
    elif shape == "round2":
        p, q = oracles.parse_slope(round2[0]["coefficient"])
        big_p, big_q = oracles.topological(p, q, knots[labels[0]][0])
        homology = {"groups": [([[big_p]], 1, 0), ([[1, 0], [big_p, big_q]], 2, 0)]}
    else:
        homology = {"error": True}
    for r in reports:
        r.pop("r2", None)
    return model, knots, homology, reports, fillable


def _mutate(rng, text):
    """A token-level edit that no valid .crs file survives."""
    strings = [i for i, ch in enumerate(text) if ch == '"']
    inside = set()
    for open_, close in zip(strings[::2], strings[1::2]):
        inside.update(range(open_, close + 1))
    kind = rng.choice(["drop_punct", "bad_char", "bad_keyword", "repeat_component"])
    if kind == "drop_punct":
        spots = [i for i, ch in enumerate(text) if ch in ";{}(),=" and i not in inside]
        i = rng.choice(spots)
        return text[:i] + text[i + 1:]
    if kind == "bad_char":
        spots = [i for i, ch in enumerate(text) if ch == " " and i not in inside]
        i = rng.choice(spots)
        return text[:i] + " @" + text[i:]
    lines = text.split("\n")
    if kind == "bad_keyword":
        spots = [i for i, line in enumerate(lines) if line.startswith("  component ")]
        i = rng.choice(spots)
        lines[i] = lines[i].replace("component", "komponent", 1)
    else:
        spots = [i for i, line in enumerate(lines) if line.startswith("  component ")]
        i = rng.choice(spots)
        lines.insert(i, lines[i])
    return "\n".join(lines)


def _front_files(rng) -> Workload:
    wl = Workload()
    decks = {"components": _Deck(rng, range(2, 7)), "pairs": _Deck(rng, range(1, 4)),
             "shape": _Deck(rng, ["joint", "joint", "round1", "round2"])}
    mutated = set(rng.sample(range(FRONT_FILES), FRONT_FILES // 10))
    word_at = {round(i * FRONT_FILES / len(FRONT_WORD_LENGTHS)): length
               for i, length in enumerate(FRONT_WORD_LENGTHS)}
    for f in range(FRONT_FILES):
        path = f"front/f{f:02d}.crs"
        blocks, plans = [], []
        for j in range(FRONT_DIAGRAMS):
            name = f"f{f:02d}_{j}"
            make_one = _contact_front_diagram if j % 2 == 0 else _round_front_diagram
            model, knots, homology, reports, fillable = make_one(rng, name, decks)
            blocks.append(oracles.print_diagram(model))
            plans.append((model, knots, homology, reports, fillable))
        text = "\n\n".join(blocks) + "\n"
        if f in mutated:
            text = _mutate(rng, text)
        wl.files[path] = text
        for (model, knots, homology, reports, fillable), block in zip(plans, blocks):
            name = model["name"]
            if f in mutated:
                commands = ["parse", "invariants", "homology"]
                commands += ["check-nice", "fillable"] if model["kind"] == "round" else []
                for command in commands:
                    wl.add([command, "--diagram", name, path], "error", {})
                continue
            wl.add(["parse", "--diagram", name, path], "front_parse",
                   {"block": block, "knots": knots})
            wl.add(["invariants", "--diagram", name, path], "front_invariants", {"knots": knots})
            wl.add(["homology", "--diagram", name, path], "front_homology", homology)
            if model["kind"] == "round":
                wl.add(["check-nice", "--diagram", name, path], "check_nice", {"reports": reports})
                wl.add(["fillable", "--diagram", name, path], "fillable", {"fillable": fillable})
        if f in word_at:
            word = random_front(rng, word_at[f], max_strands=12)
            wl.add(["invariants", "--word", word], "front_word", {"word": word})
    return wl


# --- layer_geometry --------------------------------------------------------------

ENUM_GRID = [(n0, n1, w) for n0 in range(1, 5) for n1 in range(1, 5) for w in (0, 1)
             if (n0, n1, w) not in ((4, 4, 1), (3, 4, 1), (4, 3, 1))]
ENUM_PER_CYCLE = 2  # each grid cell twice, so the light ops can be twice as many
COUNT_TIGHT_PER_CYCLE = 360
GLUE_PER_CYCLE = 160
NDIV_DECK = [2] * 17 + [4, 6, 4]
TWISTING_DECK = [0, 0, 0, 0, 1, 2]
GLUE_TRAVERSING = (40, 250)  # traversing arcs per glued annulus, in pairs
OUT_OF_DOMAIN_OPS = 16
SLOPE_STRATA = 20


def _slope(p_deck, q_deck):
    return oracles.parse_slope(f"{p_deck.uniform(-200, 200)}/{q_deck.uniform(1, 50)}")


def _out_of_domain(rng):
    """Arguments outside a command's domain; the contract is exit 1 or 2 with
    a JSON error, whatever the program does today."""
    return rng.choice([
        ["cf", "0/0"],
        ["cf", rng.choice(["-1", "0", "5/3", "-2/3"])],
        ["count-tight", "--slope0=-2", "--slope1=-3", "--ndiv", rng.choice(["3", "5"])],
        ["count-tight", "--slope0=0/0", "--slope1=-3"],
        ["enum-configs", "--n0", "0", "--n1", "2", "--max-winding", "0"],
        ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
         "--a", "T(x,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
    ])


def _glue_arcs(rng, t, parallel, rho):
    """A valid arc system with t traversing arcs of winding rho and, on each
    side, the given number (0 or 1) of parallel arcs joining adjacent marks.

    It is a member of enumerate_configurations' cell (n0, n1, |rho|) for
    n0 = t/2 + parallel["top"], n1 = t/2 + parallel["bottom"]; cells that
    large are too big to enumerate, so the generator draws one directly.
    """
    ends, arcs = {}, []
    for side in ("top", "bottom"):
        marks = t + 2 * parallel[side]
        taken = set()
        if parallel[side]:
            start = rng.randrange(marks)
            taken = {start, (start + 1) % marks}
            arcs.append(("P", side, start, (start + 1) % marks))
        ends[side] = [x for x in range(marks) if x not in taken]
    tops, bottoms = ends["top"], ends["bottom"]
    trav = sorted(("T", tops[i], bottoms[(i + rho) % t], rho) for i in range(t))
    return trav + arcs


def _glue_op(wl, rng, size_deck):
    t = 2 * size_deck.uniform(*GLUE_TRAVERSING)
    parallel = {"top": rng.randint(0, 1), "bottom": rng.randint(0, 1)}
    marks = {side: t + 2 * parallel[side] for side in parallel}
    a, b = (_glue_arcs(rng, t, parallel, rng.randint(-1, 1)) for _ in range(2))
    offsets = {side: rng.randrange(marks[side]) for side in marks}
    wl.add(["glue-annuli", "--top-marks", marks["top"], "--bottom-marks", marks["bottom"],
            "--a", " ".join(map(oracles.arc_literal, a)),
            "--b", " ".join(map(oracles.arc_literal, b)),
            "--offset-top", offsets["top"], "--offset-bottom", offsets["bottom"]],
           "glue", {"marks": marks, "a": a, "b": b, "offsets": offsets})


def _layer_geometry(rng) -> Workload:
    wl = Workload()
    slope_decks = [_Deck(rng, range(SLOPE_STRATA)) for _ in range(4)]  # p0, q0, p1, q1
    enum_ops = _spread(ENUM_GRID, cost=lambda c: oracles.count_w0(c[0], c[1]) * (2 * c[2] + 1))
    enum_ops *= ENUM_PER_CYCLE
    ndivs, twistings = _Deck(rng, NDIV_DECK), _Deck(rng, TWISTING_DECK)
    light = ["count"] * COUNT_TIGHT_PER_CYCLE + ["glue"] * GLUE_PER_CYCLE
    rng.shuffle(light)
    stride = len(light) // len(enum_ops)
    glue_sizes = _Deck(rng, range(SLOPE_STRATA))
    for i, kind in enumerate(light):
        if i % stride == 0 and i // stride < len(enum_ops):
            n0, n1, w = enum_ops[i // stride]
            wl.add(["enum-configs", "--n0", n0, "--n1", n1, "--max-winding", w], "enum",
                   {"cell": (n0, n1, w)})
        if kind == "count":
            s0, s1 = (_slope(*slope_decks[:2]), _slope(*slope_decks[2:]))
            ndiv, twisting = ndivs.draw(), twistings.draw()
            wl.add(["count-tight", f"--slope0={oracles.slope_text(*s0)}",
                    f"--slope1={oracles.slope_text(*s1)}", "--twisting", twisting, "--ndiv", ndiv],
                   "count_tight", {"s0": s0, "s1": s1, "ndiv": ndiv, "twisting": twisting})
        else:
            _glue_op(wl, rng, glue_sizes)
    wl.domain = Workload()
    for _ in range(OUT_OF_DOMAIN_OPS):
        wl.domain.add(_out_of_domain(rng), "error", {"out_of_domain": True})
    return wl
