"""First-homology oracle via Smith normal form of presentation matrices.

Everything runs in exact arbitrary-precision integer arithmetic.  Every
matrix shape takes one Smith normal form path: row and column Hermite normal
forms alternate until the matrix is diagonal, 2x2 gcd/lcm steps repair the
divisibility chain, and one exact check of the unimodular certificates U, V
with U*M*V = D runs before the result is returned (see smith_normal_form for
the termination argument).  Each Hermite form is built one row at a time and
size-reduces the entries above every pivot modulo that pivot, which keeps
the matrix and both certificates polynomially bounded (R. Kannan and
A. Bachem, "Polynomial algorithms for computing the Smith and Hermite normal
forms of an integer matrix", SIAM J. Comput. 8 (1979) 499-507).  A failed
check raises CertificateError, also under ``python -O``, so an arithmetic
fault can never produce a silently wrong group.

Presentations used:

* Dehn surgery on a link in the 3-sphere: generators are the meridians, one
  relation p_i*mu_i + q_i * sum_j lk(i,j)*mu_j per component with topological
  coefficient p_i/q_i (infinite coefficients are trivial surgeries and the
  component is dropped).
* Standalone round 1-surgery on a two-component link: a Mayer-Vietoris
  presentation over the two gluing tori.  Generators (mu1, mu2, a, b) where a,
  b generate the first homology of the glued thickened torus; the four
  relation columns identify each torus' basis curves in both pieces.  The
  gluing locus is disconnected, so the reduced 0-th homology contributes one
  extra free summand: the connecting homomorphism is onto Z and the extension
  splits, hence the explicit rank increment.
* Round 2-surgery on a knot: the outer piece is the knot exterior (lambda
  bounds, leaving Z/|P|), the inner piece is the tubular neighborhood with mu
  bounding (leaving the lens-space factor Z/|Q|), where (P, Q) is the
  topological coefficient pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .core import (
    ContactSurgeryDiagram,
    RoundSurgeryDiagram,
    SlopeQ,
    contact_to_topological,
)
from .errors import CertificateError, InvalidParameter, NotTwoComponent, UnsupportedComposition


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix."""

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        assert all(len(row) == len(rows[0]) for row in rows), "matrix must be rectangular"
        object.__setattr__(self, "entries", rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        assert self.ncols == other.nrows
        cols = other.transpose().entries
        return IntMatrix(tuple(
            tuple(sum(map(operator.mul, row, col)) for col in cols)
            for row in self.entries
        ))

    def __getitem__(self, idx):
        return self.entries[idx]


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.nrows
    assert n == m.ncols, "determinant needs a square matrix"
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = D with U, V unimodular and D diagonal with d1 | d2 | ..."""

    diagonal: tuple
    left: IntMatrix
    right: IntMatrix


def _xgcd(a: int, b: int):
    """gcd g >= 0 with Bezout pair (x, y): x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite(rows, transform):
    """Row Hermite normal form of rows, applying the same row operations to transform.

    Rows enter an echelon basis, keyed by pivot column, one at a time.  A row
    whose leading column is already a pivot is combined with that basis row
    by a 2x2 unimodular gcd step, which clears its leading entry; it then
    moves on to its next nonzero column.  After each insertion every entry
    above a pivot is size-reduced into [0, pivot), which keeps all entries
    polynomially bounded (Kannan-Bachem).  Returns the basis rows by
    increasing pivot column, pivots positive, followed by the zero rows.
    """
    basis = {}  # pivot column -> (row, transform row)
    zero = []
    for row, t in zip(rows, transform):
        row, t = list(row), list(t)
        while True:
            j = next((k for k, x in enumerate(row) if x), None)
            if j is None:
                zero.append((row, t))
                break
            if j not in basis:
                if row[j] < 0:
                    row, t = [-x for x in row], [-x for x in t]
                basis[j] = (row, t)
                break
            b, bt = basis[j]
            f, rem = divmod(row[j], b[j])
            if rem == 0:
                row = [w - f * s for s, w in zip(b, row)]
                t = [w - f * s for s, w in zip(bt, t)]
                continue
            g, x, y = _xgcd(b[j], row[j])
            p, q = b[j] // g, row[j] // g
            basis[j] = ([x * s + y * w for s, w in zip(b, row)],
                        [x * s + y * w for s, w in zip(bt, t)])
            row, t = ([p * w - q * s for s, w in zip(b, row)],
                      [p * w - q * s for s, w in zip(bt, t)])
        pivots = sorted(basis)
        for k, j in enumerate(pivots):
            pr, pt = basis[j]
            for i in pivots[:k]:
                r, rt = basis[i]
                f = r[j] // pr[j]
                if f:
                    r[:] = [x - f * y for x, y in zip(r, pr)]
                    rt[:] = [x - f * y for x, y in zip(rt, pt)]
    ordered = [basis[j] for j in sorted(basis)] + zero
    return [r for r, _ in ordered], [t for _, t in ordered]


def _check_certificate(m: IntMatrix, form: SmithForm) -> None:
    """Raise CertificateError unless form is an exact Smith form of m."""
    rows, cols = m.nrows, m.ncols
    d = form.diagonal
    shapes = (form.left.nrows, form.left.ncols, form.right.nrows, form.right.ncols, len(d))
    if shapes != (rows, rows, cols, cols, min(rows, cols)):
        raise CertificateError(f"Smith certificate has the wrong shape {shapes}")
    product = form.left.mul(m).mul(form.right)
    for i, row in enumerate(product.entries):
        for j, x in enumerate(row):
            if x != (d[i] if i == j else 0):
                raise CertificateError(f"U*M*V differs from D at ({i}, {j})")
    if any(x < 0 for x in d):
        raise CertificateError("negative Smith diagonal entry")
    for p, q in zip(d, d[1:]):
        if (q % p if p else q) != 0:
            raise CertificateError(f"Smith diagonal breaks the divisibility chain at {p}, {q}")
    determinant = det(m) if rows == cols else 0
    if determinant:
        product_d = 1
        for x in d:
            product_d *= x
        if product_d != abs(determinant):
            raise CertificateError("Smith diagonal product differs from |det M|")
    elif abs(det(form.left)) != 1 or abs(det(form.right)) != 1:
        raise CertificateError("Smith certificate is not unimodular")


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize over Z by unimodular row/column operations.

    Returns the diagonal d1 | d2 | ... (zeros last) with unimodular
    certificates U, V such that U*M*V = D.  Row and column Hermite normal
    forms of M alternate until it is diagonal (Kannan-Bachem 1979).  The
    loop ends: call the rows and columns before k finished when their only
    nonzero entry is on the diagonal; every later pass keeps them so.  After
    a column pass row k is clean, with positive entry e at (k, k) (or the
    remaining block is zero).  The next row pass puts the gcd of column k
    there.  If that gcd is e, row k and column k are both clean and k
    advances; otherwise the positive entry at (k, k) has strictly dropped.
    2x2 gcd/lcm steps then repair the divisibility chain.  One exact check
    -- U*M*V = D entry by entry, d_i >= 0 with d_i | d_(i+1), and
    |det M| = prod d_i for square nonsingular M, |det U| = |det V| = 1
    otherwise -- runs before returning; a failure raises CertificateError.
    """
    rows, cols = m.nrows, m.ncols
    a = [list(row) for row in m.entries]
    # sides[0] is U; sides[1] is V transposed, since column operations on M
    # are row operations on its transpose
    sides = [IntMatrix.identity(n).entries for n in (rows, cols)]
    side = 0
    while True:
        a, sides[side] = _hermite(a, sides[side])
        a = [list(col) for col in zip(*a)]
        side ^= 1
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            break
    u, v = sides[0], [list(col) for col in zip(*sides[1])]
    d = [a[i][i] for i in range(min(rows, cols))]
    # repair the divisibility chain: (d_i, d_j) becomes (gcd, lcm) by a
    # unimodular 2x2 step on each side
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] == 0 or d[j] % d[i] == 0:
                continue
            g, x, y = _xgcd(d[i], d[j])
            p, q = d[i] // g, d[j] // g
            d[i], d[j] = g, p * d[j]
            u[i], u[j] = ([x * s + y * w for s, w in zip(u[i], u[j])],
                          [p * w - q * s for s, w in zip(u[i], u[j])])
            for row in v:
                row[i], row[j] = row[i] + row[j], x * p * row[j] - y * q * row[i]
    form = SmithForm(tuple(d), IntMatrix.from_rows(u), IntMatrix.from_rows(v))
    _check_certificate(m, form)
    return form


# --- abelian group bookkeeping ----------------------------------------------

@dataclass(frozen=True)
class H1Class:
    """Finitely generated abelian group: free rank plus a divisibility chain."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidParameter(f"free rank {self.free_rank} is negative")
        tor = tuple(int(x) for x in self.torsion)
        if any(x < 2 for x in tor):
            raise InvalidParameter(f"torsion coefficients {tor} must all be at least 2")
        for i in range(len(tor) - 1):
            if tor[i + 1] % tor[i]:
                raise InvalidParameter(f"torsion {tor} does not form a divisibility chain")
        object.__setattr__(self, "torsion", tor)

    @staticmethod
    def trivial() -> "H1Class":
        return H1Class(0, ())

    @staticmethod
    def free(rank: int) -> "H1Class":
        return H1Class(rank, ())

    @staticmethod
    def cyclic(order: int) -> "H1Class":
        """Z/order; order 0 means Z and order 1 the trivial group."""
        order = abs(order)
        if order == 0:
            return H1Class(1, ())
        if order == 1:
            return H1Class(0, ())
        return H1Class(0, (order,))

    def plus_free(self, extra: int) -> "H1Class":
        return H1Class(self.free_rank + extra, self.torsion)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel(relations: IntMatrix, generators: int) -> H1Class:
    """Z^generators modulo the column span of the relation matrix."""
    assert relations.nrows == generators
    if relations.ncols == 0 or generators == 0:
        return H1Class.free(generators)
    snf = smith_normal_form(relations)
    nonzero = [d for d in snf.diagonal if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return H1Class(generators - len(nonzero), torsion)


def presentation_from_rows(rows: Sequence[Sequence[int]], generators: int) -> H1Class:
    """Cokernel when relations are given as rows over the generators."""
    if not rows:
        return H1Class.free(generators)
    return cokernel(IntMatrix.from_rows(rows).transpose(), generators)


# --- surgery presentations ---------------------------------------------------

def h1_dehn(d: ContactSurgeryDiagram) -> H1Class:
    """First homology of the result of the contact Dehn surgery diagram."""
    active = []
    topological = {}
    for c in d.components:
        t = contact_to_topological(d.coefficients[c.label], c.tb)
        if t.is_infinite:
            continue  # trivial surgery: the component has no effect
        active.append(c.label)
        topological[c.label] = t
    n = len(active)
    rows = []
    for i, lab in enumerate(active):
        t = topological[lab]
        row = [0] * n
        row[i] = t.p
        for j, other in enumerate(active):
            if other != lab:
                row[j] = t.q * d.linking.get(lab, other)
        rows.append(row)
    return presentation_from_rows(rows, n)


def linking_matrix(d: ContactSurgeryDiagram) -> IntMatrix:
    """Topological linking matrix (framings on the diagonal).

    Requires every topological coefficient to be an integer.
    """
    labels = [c.label for c in d.components]
    rows = []
    for c in d.components:
        t = contact_to_topological(d.coefficients[c.label], c.tb)
        assert t.is_integer, "linking matrix needs integral topological framings"
        row = [t.p if other == c.label else d.linking.get(c.label, other) for other in labels]
        rows.append(row)
    return IntMatrix.from_rows(rows)


def h1_round1(tb1: int, tb2: int, lk: int, n1: int, n2: int) -> H1Class:
    """First homology after a standalone round 1-surgery on a two-component link.

    n1, n2 are the contact round 1-surgery coefficients; the topological ones
    are N_i = n_i + tb_i.  The sign choices in the four Mayer-Vietoris columns
    are fixed once; any global flip leaves the cokernel unchanged.
    """
    big_n1, big_n2 = n1 + tb1, n2 + tb2
    columns = [
        (1, 0, -1, 0),
        (big_n1, lk, 0, -1),
        (0, 1, -1, 0),
        (lk, big_n2, 0, -1),
    ]
    relation = IntMatrix.from_rows(tuple(zip(*columns)))
    # disconnected gluing locus: one extra free summand from reduced H_0
    return cokernel(relation, 4).plus_free(1)


def h1_round2(tb: int, c: SlopeQ) -> Tuple[H1Class, H1Class]:
    """(outer, inner) first homology of the two round 2-surgery pieces.

    The outer piece is contact Dehn surgery on the knot; the inner piece is
    the lens-space factor.  Both are computed from explicit presentation
    matrices rather than closed forms.
    """
    if c.is_infinite:
        raise UnsupportedComposition("round 2-surgery coefficient must be rational")
    t = contact_to_topological(c, tb)
    big_p, big_q = t.p, t.q
    # outer: knot exterior, generator mu, lambda already bounds
    outer = presentation_from_rows([[big_p]], 1)
    # inner: generators (mu, lambda); mu bounds in the tube, the glued solid
    # torus kills P*mu + Q*lambda
    inner = presentation_from_rows([[1, 0], [big_p, big_q]], 2)
    return outer, inner


def h1_round_diagram(rd: RoundSurgeryDiagram) -> List[H1Class]:
    """First homology per resulting component of a round surgery diagram.

    Supported shapes: (i) every surgery sits in a nice joint pair (converted
    to a contact diagram first), (ii) a single standalone round 1-spec on a
    two-component diagram, (iii) a single standalone round 2-spec on a knot.
    """
    from .bridge import joint_pairs_to_pm1  # local import to avoid a cycle
    from .core import check_nice
    from .errors import NoJointPartner

    paired_components = set()
    for r1 in rd.round1:
        paired_components.update(r1.pair)

    if len(rd.round1) == 1 and not rd.round2:
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
        if r2.joint_with is not None:
            raise UnsupportedComposition("round2[0] claims a joint partner that does not exist")
        knot = rd.component(r2.knot)
        outer, inner = h1_round2(knot.tb, r2.coeff)
        return [outer, inner]

    # remaining supported shape: all surgeries are nice joint pairs
    for j, r2 in enumerate(rd.round2):
        if r2.joint_with is None:
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
