"""Independent checks of crsdiag answers, written from the documented maths.

Nothing here imports crsdiag: every expectation is recomputed with the
benchmark's own integer arithmetic, so a wrong answer in the program cannot
hide behind the same wrong answer in its oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod


# --- integer linear algebra ---------------------------------------------------

def rank_and_det(rows):
    """Exact rank of an integer matrix, and its determinant when square.

    Fraction-free (Bareiss) elimination with row and column search, so every
    intermediate value is an integer minor.  The determinant is 0 for a
    singular square matrix and None for a rectangular one.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    sign, prev, rank = 1, 1, 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        p = a[rank][col]
        for i in range(rank + 1, nrows):
            f = a[i][col]
            row_i, row_k = a[i], a[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * p - f * row_k[j]) // prev
            row_i[col] = 0
        prev = p
        rank += 1
        col += 1
    if nrows != ncols:
        return rank, None
    if rank < nrows:
        return rank, 0
    return rank, sign * a[nrows - 1][ncols - 1] if nrows else 1


def check_group(group, relation_rows, generators, extra_free=0):
    """Problems with an H1 JSON object against a presentation by relation rows.

    The group is Z^generators modulo the row span.  Free rank must equal
    generators - rank (+ extra_free); for a nonsingular square presentation
    the torsion orders multiply to |det|.
    """
    problems = []
    if not isinstance(group, dict) or set(group) != {"free_rank", "torsion"}:
        return [f"malformed group {group!r}"]
    free, torsion = group["free_rank"], group["torsion"]
    if any(t < 2 for t in torsion):
        problems.append(f"torsion {torsion} has an entry below 2")
    if any(torsion[i + 1] % torsion[i] for i in range(len(torsion) - 1)):
        problems.append(f"torsion {torsion} is not a divisibility chain")
    rows = list(relation_rows)
    if rows and generators:
        rank, det = rank_and_det(rows)
    else:
        rank, det = 0, None
    if free != generators - rank + extra_free:
        problems.append(f"free rank {free}, presentation rank says {generators - rank + extra_free}")
    if det not in (None, 0) and prod(torsion) != abs(det):
        problems.append(f"torsion product {prod(torsion)} != |det| {abs(det)}")
    return problems


# --- slopes -------------------------------------------------------------------

def parse_slope(text):
    """(p, q) with q >= 0 reduced, (1, 0) for infinity; raises ValueError."""
    text = text.strip()
    if text == "inf":
        return 1, 0
    num, _, den = text.partition("/")
    p, q = int(num), int(den) if den else 1
    if p == 0 and q == 0:
        raise ValueError("0/0")
    if q == 0:
        return 1, 0
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return p // g, q // g


def slope_text(p, q):
    if q == 0:
        return "inf"
    return str(p) if q == 1 else f"{p}/{q}"


def topological(p, q, tb):
    """Contact coefficient p/q on a knot with Thurston-Bennequin number tb,
    as the reduced topological pair (P, Q); Q == 0 is the trivial surgery."""
    if q == 0:
        return 1, 0
    return p + q * tb, q


def neg_cf(p, q):
    """Coefficients r_i <= -2 of p/q < -1 written r0 - 1/(r1 - 1/(...))."""
    out = []
    while True:
        r = p // q
        out.append(r)
        rem = p - r * q
        if rem == 0:
            return out
        p, q = -q, rem  # p/q = r - 1/x with x = -q/rem


def apply_matrix(m, p, q):
    """SL(2,Z) action on the slope p/q as the column vector (q, p); reduced."""
    (a, b), (c, d) = m
    new_q, new_p = a * q + b * p, c * q + d * p
    if new_q == 0:
        return 1, 0
    if new_q < 0:
        new_p, new_q = -new_p, -new_q
    g = gcd(abs(new_p), new_q)
    return new_p // g, new_q // g


def tight_count(image1, ndiv, twisting):
    """Expected count JSON for normalized boundary slopes -1 and image1."""
    if ndiv != 2:
        return {"kind": "unsupported"}
    p, q = image1
    if (p, q) == (-1, 1):
        return {"kind": "infinite_z_indexed" if twisting == 0 else "two_per_twisting"}
    if twisting >= 1:
        return {"kind": "two_per_twisting"}
    rs = neg_cf(p, q)
    value = rs[-1]
    for r in rs[:-1]:
        value *= r + 1
    return {"kind": "finite", "value": abs(value)}


def check_count_tight(out, s0, s1, ndiv, twisting):
    problems = []
    m = out["matrix"]
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        problems.append(f"matrix {m} has determinant {a * d - b * c}")
    img0, img1 = apply_matrix(m, *s0), apply_matrix(m, *s1)
    if img0 != (-1, 1):
        problems.append(f"slope0 maps to {slope_text(*img0)}, not -1")
    if img1[1] == 0 or img1[0] > -img1[1]:
        problems.append(f"slope1 maps to {slope_text(*img1)}, not <= -1")
    if out["normalized"] != [slope_text(*img0), slope_text(*img1)]:
        problems.append(f"normalized {out['normalized']} disagrees with the matrix")
    if not problems:
        want = tight_count(img1, ndiv, twisting)
        got = {k: v for k, v in out["count"].items() if k != "reason"}
        if got != want:
            problems.append(f"count {got}, expected {want}")
    return problems


# --- annulus arc systems -----------------------------------------------------

def _catalan(k):
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _gaps(marks, chosen):
    """Cyclic runs of unchosen points after each chosen point, counterclockwise."""
    out = []
    for i, start in enumerate(chosen):
        end = chosen[(i + 1) % len(chosen)]
        out.append([(start + k) % marks for k in range(1, (end - start - 1) % marks + 1)])
    return out


def _matchings(points):
    """Non-crossing perfect matchings of a run, each pair (earlier, later)."""
    if not points:
        yield ()
        return
    for k in range(1, len(points), 2):
        for inner in _matchings(points[1:k]):
            for outer in _matchings(points[k + 1:]):
                yield ((points[0], points[k]),) + inner + outer


def _side_choices(marks, chosen):
    gaps = _gaps(marks, chosen)
    if any(len(g) % 2 for g in gaps):
        return []
    out = [()]
    for g in gaps:
        out = [prev + m for prev in out for m in _matchings(g)]
    return out


def count_w0(n0, n1):
    """Arc systems with zero winding: sum over t of T(t)*B(t), where a side
    with 2n marks contributes, per t-subset, the product of Catalan numbers
    of its half-gaps (zero when a gap is odd)."""
    def side(marks, t):
        total = 0
        for chosen in combinations(range(marks), t):
            gaps = _gaps(marks, chosen)
            if all(len(g) % 2 == 0 for g in gaps):
                total += prod(_catalan(len(g) // 2) for g in gaps)
        return total
    return sum(side(2 * n0, t) * side(2 * n1, t) for t in range(2, 2 * min(n0, n1) + 1, 2))


def arc_system_keys(n0, n1, w):
    """Canonical keys of every arc system, as crsdiag's ArcConfig.canonical_key."""
    tm, bm = 2 * n0, 2 * n1
    keys = []
    for t in range(2, min(tm, bm) + 1, 2):
        for tops in combinations(range(tm), t):
            top_opts = _side_choices(tm, tops)
            if not top_opts:
                continue
            for bottoms in combinations(range(bm), t):
                bottom_opts = _side_choices(bm, bottoms)
                for rho in range(-w, w + 1):
                    trav = tuple(sorted((tops[i], bottoms[(i + rho) % t], rho) for i in range(t)))
                    for tc in top_opts:
                        for bc in bottom_opts:
                            par = tuple(sorted([("top", a, b) for a, b in tc]
                                               + [("bottom", a, b) for a, b in bc]))
                            keys.append((tm, bm, trav, par))
    keys.sort()
    return keys


def config_key(cfg):
    trav, par = [], []
    for arc in cfg["arcs"]:
        if arc["type"] == "traversing":
            trav.append((arc["top"], arc["bottom"], arc["winding"]))
        else:
            par.append((arc["side"], arc["start"], arc["end"]))
    return (cfg["top_marks"], cfg["bottom_marks"], tuple(sorted(trav)), tuple(sorted(par)))


def check_enum(out, n0, n1, w, expected_keys):
    problems = []
    keys = [config_key(c) for c in out["configs"]]
    if out["count"] != len(keys):
        problems.append(f"count {out['count']} but {len(keys)} configs listed")
    if len(set(keys)) != len(keys):
        problems.append("configuration keys repeat")
    if keys != sorted(keys):
        problems.append("configurations are not sorted by key")
    if out["count"] != (2 * w + 1) * count_w0(n0, n1):
        problems.append(f"count {out['count']} != (2w+1) * {count_w0(n0, n1)}")
    if keys != expected_keys:
        problems.append("configuration set differs from the independent enumeration")
    return problems


def arc_literal(arc):
    if arc[0] == "T":
        return f"T({arc[1]},{arc[2]},{arc[3]})"
    return f"P({arc[1]},{arc[2]},{arc[3]})"


def glued_curve_count(marks, a_arcs, b_arcs, offsets):
    """Closed curves after gluing, by union-find over identified endpoints."""
    parent = list(range(len(a_arcs) + len(b_arcs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def ends(arc):
        if arc[0] == "T":
            return [("top", arc[1]), ("bottom", arc[2])]
        return [(arc[1], arc[2]), (arc[1], arc[3])]

    owner_b = {}
    for j, arc in enumerate(b_arcs):
        for end in ends(arc):
            owner_b[end] = len(a_arcs) + j
    for i, arc in enumerate(a_arcs):
        for side, point in ends(arc):
            other = owner_b[(side, (point + offsets[side]) % marks[side])]
            parent[find(i)] = find(other)
    return len({find(x) for x in range(len(parent))})


def check_glue(out, marks, a_arcs, b_arcs, offsets):
    problems = []
    used = sorted((tag, idx) for c in out["curves"] for tag, idx, _fwd in c["arcs"])
    want = sorted([("a", i) for i in range(len(a_arcs))] + [("b", j) for j in range(len(b_arcs))])
    if used != want:
        problems.append("glued curves do not use every arc exactly once")
    if len(out["curves"]) != glued_curve_count(marks, a_arcs, b_arcs, offsets):
        problems.append("number of glued curves is wrong")
    if out["overtwisted"] != any(c["h"] == 0 and c["v"] == 0 for c in out["curves"]):
        problems.append("overtwisted verdict disagrees with the curve classes")
    return problems


# --- fronts -------------------------------------------------------------------

def front_invariants(text, reverse=()):
    """Per-component (tb, rot, self_writhe, cusps_up, cusps_down) and lk.

    Follows the documented conventions: strands numbered from the bottom,
    components numbered by their first left cusp, forward orientation leaves
    that cusp along its lower strand, and a crossing is positive exactly when
    the two strands run in opposite horizontal directions.
    """
    position, birth, death, crossings, cups = [], {}, {}, [], []
    fresh = 0
    for token in text.split():
        kind, i = token[0], int(token[1:]) - 1
        if kind == "U":
            lo, hi = fresh, fresh + 1
            fresh += 2
            position[i:i] = [lo, hi]
            birth[lo], birth[hi] = (hi, True), (lo, False)
            cups.append(lo)
        elif kind == "C":
            lo, hi = position[i], position[i + 1]
            del position[i:i + 2]
            death[lo], death[hi] = (hi, True), (lo, False)
        else:
            lo, hi = position[i], position[i + 1]
            position[i], position[i + 1] = hi, lo
            crossings.append((lo, hi))  # (ascending under, descending over)

    component, rightward, comps = {}, {}, []
    for start in cups:
        if start in component:
            continue
        cid = len(comps)
        ups = downs = caps = 0
        strand, right = start, True
        while True:
            component[strand], rightward[strand] = cid, right
            if right:
                mate, lower = death[strand]
                caps += 1
            else:
                mate, lower = birth[strand]
            if lower:
                ups += 1
            else:
                downs += 1
            strand, right = mate, not right
            if strand == start and right:
                break
        comps.append([caps, ups, downs])

    writhe = [0] * len(comps)
    mixed = {}
    for under, over in crossings:
        cu, co = component[under], component[over]
        du = rightward[under] ^ (cu in reverse)
        do = rightward[over] ^ (co in reverse)
        sign = 1 if du != do else -1
        if cu == co:
            writhe[cu] += sign
        else:
            key = (min(cu, co), max(cu, co))
            mixed[key] = mixed.get(key, 0) + sign
    out = []
    for cid, (caps, ups, downs) in enumerate(comps):
        if cid in reverse:
            ups, downs = downs, ups
        out.append({"tb": writhe[cid] - caps, "rot": (downs - ups) // 2,
                    "self_writhe": writhe[cid], "cusps_up": ups, "cusps_down": downs})
    lk = [[a, b, v // 2] for (a, b), v in sorted(mixed.items()) if v]
    return out, lk


# --- diagram text -------------------------------------------------------------

def _layer_text(layer):
    if layer["kind"] == "nonrotative" and layer["param"] == 0 and layer["twisting"] == 0:
        return "invariant"
    return f"{layer['kind']}({layer['param']})"


def print_diagram(d):
    """Canonical .crs text of a diagram in crsdiag's JSON form."""
    lines = [f"{'diagram' if d['kind'] == 'contact' else 'round_diagram'} {d['name']} {{"]
    for c in d["components"]:
        if "front" in c:
            fields = f'front = "{c["front"]}"; orient = {c["orient"]};'
        else:
            fields = f"tb = {c['tb']}; rot = {c['rot']};"
        lines.append(f"  component {c['label']} {{ {fields} }}")
    for a, b, v in d["linking"]:
        lines.append(f"  lk({a}, {b}) = {v};")
    if d["kind"] == "contact":
        for s in d["surgeries"]:
            lines.append(f"  contact_surgery {s['component']} = {s['coefficient']};")
    else:
        partner = {r2["joint_with"]: r2 for r2 in d["round2"] if r2["joint_with"] is not None}
        for idx, r1 in enumerate(d["round1"]):
            a, b = r1["pair"]
            body = f"r1 = {r1['coefficients'][0]}, {r1['coefficients'][1]};"
            layer = _layer_text(r1["layer"])
            if idx in partner:
                lines.append(f"  joint_pair ({a}, {b}) {{ {body} r2 = {partner[idx]['coefficient']}; "
                             f"layer = {layer}; }}")
            else:
                lines.append(f"  round1 ({a}, {b}) {{ {body} layer = {layer}; }}")
        for r2 in d["round2"]:
            if r2["joint_with"] is None:
                lines.append(f"  round2 {r2['knot']} {{ r2 = {r2['coefficient']}; }}")
    lines.append("}")
    return "\n".join(lines)
