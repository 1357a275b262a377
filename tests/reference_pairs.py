"""Reference implementations of the joint-pair checks that `core._nice_partners`
replaced, and of the shape-by-shape first homology that `homology._h1_link`
replaced, kept as test oracles.

Each joint-pair function writes the rule "every surgery sits in a nice joint
pair" out in its own loop, as `bridge.joint_pairs_to_pm1`,
`core.is_fillable_sufficient` and the general shape of
`homology.h1_round_diagram` did.  They use only `check_nice`,
`validate_diagram` and the Smith form, never `_nice_partners`.
`h1_round_diagram` is the old code: one standalone round 1-surgery on a
two-component link, one standalone round 2-surgery on a knot, or nice joint
pairs only, each from its own closed-form presentation below; it shares no
presentation with `src`.
"""

from crsdiag.core import (ContactSurgeryDiagram, SlopeQ, check_nice, contact_to_topological,
                          validate_diagram)
from crsdiag.errors import DiagramError, NoJointPartner, NotNice, UnsupportedComposition
from crsdiag.homology import IntMatrix, cokernel, presentation_from_rows


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
    return presentation_from_rows(rows, len(index))


def h1_round1(tb1, tb2, lk, n1, n2):
    """The four Mayer-Vietoris columns over (mu1, mu2, a, b), plus one free
    summand from the disconnected gluing locus."""
    big_n1, big_n2 = n1 + tb1, n2 + tb2
    columns = [
        (1, 0, -1, 0),
        (big_n1, lk, 0, -1),
        (0, 1, -1, 0),
        (lk, big_n2, 0, -1),
    ]
    return cokernel(IntMatrix.from_rows(tuple(zip(*columns))), 4).plus_free(1)


def h1_round2(tb, c):
    """(outer, inner): Z/|P| from the knot exterior, and the tube with mu
    bounding and P*mu + Q*lambda killed."""
    if c.is_infinite:
        raise UnsupportedComposition("round 2-surgery coefficient must be rational")
    t = contact_to_topological(c, tb)
    return (presentation_from_rows([[t.p]], 1),
            presentation_from_rows([[1, 0], [t.p, t.q]], 2))


def joint_pairs_to_pm1(rd):
    problems = validate_diagram(rd)
    if problems:
        raise UnsupportedComposition("invalid diagram: " + "; ".join(v.message for v in problems))
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
