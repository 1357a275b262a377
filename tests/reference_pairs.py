"""Reference implementations of the joint-pair checks that `core._nice_partners`
replaced, of the shape-by-shape first homology that `homology._h1_link`
replaced, and of the validity check that the diagram constructors now run,
kept as test oracles.

`violations` is the body of `core.validate_diagram` as it stood when the
gates called it, written on a diagram's parts rather than on a diagram,
since an invalid diagram can no longer be built.
Each joint-pair function writes the rule "every surgery sits in a nice joint
pair" out in its own loop, as `bridge.joint_pairs_to_pm1`,
`core.is_fillable_sufficient` and the general shape of
`homology.h1_round_diagram` did.  They use only `check_nice` and the Smith
form, never `_nice_partners`, and they see only diagrams that built.
`h1_round_diagram` is the old code: one standalone round 1-surgery on a
two-component link, one standalone round 2-surgery on a knot, or nice joint
pairs only, each from its own closed-form presentation below; it shares no
presentation with `src`, and `h1_of_rows` reads each group off sympy's
invariant factors, not off the Smith form of `src`.
Shares with `src`: old code kept as an oracle, calling `check_nice`; groups are `H1Class` values.
"""

from crsdiag.core import ContactSurgeryDiagram, SlopeQ, check_nice, contact_to_topological
from crsdiag.errors import DiagramError, NoJointPartner, NotNice, UnsupportedComposition
from crsdiag.homology import H1Class


def h1_of_rows(rows, generators):
    """Z^generators modulo the span of the integer relation rows, from
    sympy's invariant factors over ZZ."""
    # imported here: the subprocess tests that load this module skip sympy's import time
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    flat = [x for row in rows for x in row]
    factors = [abs(int(d)) for d in invariant_factors(Matrix(len(rows), generators, flat), domain=ZZ)]
    nonzero = [d for d in factors if d]
    return H1Class(generators - len(nonzero), tuple(d for d in nonzero if d > 1))


def violations(components, linking, coefficients=None, round1=(), round2=()):
    """Messages for every invariant the parts break: a contact diagram's if
    coefficients is given, else a round diagram's."""
    out = []
    labels = [c.label for c in components]
    seen = set()
    for lab in labels:
        if lab in seen:
            out.append(f"component label {lab!r} repeats")
        seen.add(lab)
    for a, b, _ in linking.pairs():
        for lab in (a, b):
            if lab not in seen:
                out.append(f"linking references unknown component {lab!r}")

    if coefficients is not None:
        for lab in labels:
            if lab not in coefficients:
                out.append(f"component {lab!r} has no surgery coefficient")
        for lab in coefficients:
            if lab not in seen:
                out.append(f"coefficient on unknown component {lab!r}")
        return out

    used = set()
    for i, r1 in enumerate(round1):
        a, b = r1.pair
        if a == b:
            out.append(f"round1[{i}] pairs {a!r} with itself")
        for lab in dict.fromkeys((a, b)):  # a self-pair's label is checked once
            if lab not in seen:
                out.append(f"round1[{i}] references unknown component {lab!r}")
            elif lab in used:
                out.append(f"component {lab!r} sits in more than one round1 pair")
            used.add(lab)
    round2_knots = {r1.pair[1] for r1 in round1 if r1.r2 is not None}
    for j, r2 in enumerate(round2, sum(r1.r2 is not None for r1 in round1)):
        if r2.knot not in seen:
            out.append(f"round2[{j}] references unknown component {r2.knot!r}")
        elif r2.knot in round2_knots:
            out.append(f"round2[{j}] is a second round 2-surgery on component {r2.knot!r}")
        elif r2.knot in used:
            out.append(f"round2[{j}] is on component {r2.knot!r} of a round1 pair")
        round2_knots.add(r2.knot)
    return out


class NotTwoComponent(DiagramError):
    """Standalone round 1-surgery homology requires exactly two components."""


def h1_dehn(d):
    """One relation p_i*mu_i + q_i * sum_j lk(i,j)*mu_j per component with a
    finite topological coefficient p_i/q_i; the others are dropped."""
    topological = {}
    for c in d.components:
        t = contact_to_topological(d.coefficients[c.label], c.tb)
        if not t.is_infinite:
            topological[c.label] = t
    index = {lab: i for i, lab in enumerate(topological)}
    rows = [[0] * len(index) for _ in index]
    for lab, i in index.items():
        rows[i][i] = topological[lab].p
    for a, b, value in d.linking.pairs():
        if a in index and b in index:
            rows[index[a]][index[b]] = topological[a].q * value
            rows[index[b]][index[a]] = topological[b].q * value
    return h1_of_rows(rows, len(index))


def h1_round1(tb1, tb2, lk, n1, n2):
    """The four Mayer-Vietoris relations over (mu1, mu2, a, b), plus one free
    summand from the disconnected gluing locus."""
    big_n1, big_n2 = n1 + tb1, n2 + tb2
    relations = [
        (1, 0, -1, 0),
        (big_n1, lk, 0, -1),
        (0, 1, -1, 0),
        (lk, big_n2, 0, -1),
    ]
    return h1_of_rows(relations, 4).plus_free(1)


def h1_round2(tb, c):
    """(outer, inner): Z/|P| from the knot exterior, and the tube with mu
    bounding and P*mu + Q*lambda killed."""
    if c.is_infinite:
        raise UnsupportedComposition("round 2-surgery coefficient must be rational")
    t = contact_to_topological(c, tb)
    return h1_of_rows([[t.p]], 1), h1_of_rows([[1, 0], [t.p, t.q]], 2)


def joint_pairs_to_pm1(rd):
    if rd.round2:
        j = len([r1 for r1 in rd.round1 if r1.r2 is not None])
        raise UnsupportedComposition(f"round2[{j}] is not joint with any round 1-surgery")
    paired = set()
    coefficients = {}
    for idx, r1 in enumerate(rd.round1):
        try:
            report = check_nice(rd, idx)
        except NoJointPartner as exc:
            raise NotNice(idx, "no joint round 2-surgery partner") from exc
        if not report.nice:
            raise NotNice(idx, "; ".join(report.reasons))
        a, b = r1.pair
        coefficients[a] = r1.r2
        coefficients[b] = r1.r2
        paired.update((a, b))
    for c in rd.components:
        if c.label not in paired:
            raise UnsupportedComposition(f"component {c.label!r} is not in any joint pair")
    return ContactSurgeryDiagram(
        components=rd.components,
        linking=rd.linking,
        coefficients=coefficients,
    )


def is_fillable_sufficient(d):
    minus_one = SlopeQ.of(-1)
    for idx in range(len(d.round1)):
        try:
            report = check_nice(d, idx)
        except NoJointPartner:
            return False
        if not report.nice:
            return False
        if d.round1[idx].r2 != minus_one:
            return False
    return not d.round2


def h1_round_diagram(rd):
    paired_components = set()
    for r1 in rd.round1:
        paired_components.update(r1.pair)

    if len(rd.round1) == 1 and not rd.round2 and rd.round1[0].r2 is None:
        if len(rd.components) != 2:
            raise NotTwoComponent(
                "standalone round 1-surgery needs a two-component diagram, "
                f"found {len(rd.components)} components"
            )
        r1 = rd.round1[0]
        a = rd.component(r1.pair[0])
        b = rd.component(r1.pair[1])
        lk = rd.linking.get(a.label, b.label)
        return [h1_round1(a.tb, b.tb, lk, r1.coeff_a, r1.coeff_b)]

    if not rd.round1 and len(rd.round2) == 1 and len(rd.components) == 1:
        r2 = rd.round2[0]
        knot = rd.component(r2.knot)
        outer, inner = h1_round2(knot.tb, r2.coeff)
        return [outer, inner]

    if rd.round2:
        j = len([r1 for r1 in rd.round1 if r1.r2 is not None])
        raise UnsupportedComposition(f"round2[{j}] is not joint with any round 1-surgery")
    for idx in range(len(rd.round1)):
        try:
            report = check_nice(rd, idx)
        except NoJointPartner as exc:
            raise UnsupportedComposition(f"round1[{idx}] has no joint round 2-surgery") from exc
        if not report.nice:
            raise UnsupportedComposition(f"round1[{idx}] is not a nice joint pair: " + "; ".join(report.reasons))
    for c in rd.components:
        if c.label not in paired_components:
            raise UnsupportedComposition(f"component {c.label!r} carries no supported surgery")
    return [h1_dehn(joint_pairs_to_pm1(rd))]
