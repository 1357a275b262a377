"""First-homology oracle via Smith normal form of presentation matrices.

Everything runs in exact arbitrary-precision integer arithmetic.  Every
matrix shape takes one Smith normal form path.  A unit phase first
eliminates on +-1 entries while any is left, choosing each pivot by the
Markowitz rule, as sparse integer Smith solvers do (J.-G. Dumas, B. D.
Saunders and G. Villard, "On efficient sparse integer matrix Smith normal
form computations", J. Symbolic Comput. 32 (2001) 71-99); presentation
matrices of surgery diagrams are full of such entries.  On the block that
the pivots leave, row and column Hermite normal forms alternate until it is
diagonal, and 2x2 gcd/lcm steps repair the divisibility chain (see
smith_normal_form for the termination argument).  Each Hermite form is
built one row at a time and size-reduces the entries above every pivot
modulo that pivot, which keeps the matrix polynomially bounded (R. Kannan
and A. Bachem, "Polynomial algorithms for computing the Smith and Hermite
normal forms of an integer matrix", SIAM J. Comput. 8 (1979) 499-507).

The certificate is the log of every row and column operation applied.  Before
the result is returned, an independent replay checks that each logged
operation is an integer matrix of determinant +-1 and that the log, applied
to a fresh copy of M, gives D entry by entry.  The row operations then
multiply to a unimodular U and the column operations to a unimodular V, so
the replay proves U*M*V = D without building U or V.  The unit phase logs
only the ordinary sub, perm and neg steps of the Hermite passes, so the same
replay certifies it.  A failed check raises CertificateError, also under
``python -O``, so an arithmetic fault can never produce a silently wrong
group.

Most logged steps are subs, row i -= f * row j, and echelon rows are mostly
zero.  Both the Hermite passes and the replay update row i in place, only at
the nonzero entries of row j, which each finds in the row it holds (the
replay never reads them from the log).  This is exact, not an
approximation: at every other column the full-width update would compute
x - f*0 = x.  So the log, the diagonal and the replay's result are those of
the full-width code, which the tests keep as their reference.

Presentations used (one for every diagram, built by _h1_link):

* The generators are the meridians mu_c of the components, and a, b for each
  standalone round 1-surgery; lambda_K = sum_c lk(K, c) mu_c.  A component
  with no surgery or an infinite coefficient is filled trivially (dropped).
* A component read as a Dehn surgery of topological coefficient P/Q (with a
  contact coefficient, in a nice joint pair with its r2, or the knot of a
  standalone round 2-surgery) adds the row P mu_K + Q lambda_K.
* A standalone round 1-surgery on (A, B) adds the Mayer-Vietoris rows
  mu_A - a, N_A mu_A + lambda_A - b, mu_B - a and N_B mu_B + lambda_B - b,
  with N = n + tb and a, b generating H1 of the glued thickened torus.  Its
  gluing locus, two tori, is disconnected, so reduced H_0 adds one free
  summand (the connecting map is onto Z and the extension splits).
* A standalone round 2-surgery also leaves an inner piece, the tube where mu
  bounds glued to a solid torus along P mu + Q lambda: the cokernel of
  [[1, 0], [P, Q]], the lens-space factor Z/|Q|.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import List, Sequence, Tuple

from .core import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    RoundSurgeryDiagram,
    SlopeQ,
    _nice_partners,
    _require_valid,
    contact_to_topological,
    integers,
)
from .errors import CertificateError, InvalidParameter, UnsupportedComposition


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular integer matrix.

    Entries must be integers (anything with __index__); a float, string or
    NaN entry raises InvalidParameter instead of being truncated or parsed.
    """

    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        message = "matrix rows must hold integers"
        rows = integers(self.entries, message, lambda row: integers(row, message))
        if any(len(row) != len(rows[0]) for row in rows):
            raise InvalidParameter("matrix must be rectangular")
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

    def __getitem__(self, idx):
        return self.entries[idx]


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.nrows
    if n != m.ncols:
        raise InvalidParameter(f"determinant needs a square matrix, not {n}x{m.ncols}")
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
    """Smith diagonal d1 | d2 | ... of an M of the given shape, with its operation log.

    operations is a tuple of (side, steps) groups in the order applied.
    Side 0 groups act on the rows of M, side 1 groups on its columns (as
    row operations on the transpose).  Each step is an elementary operation
    on the rows of the current matrix:

    * ("sub", i, j, f): row i -= f * row j;
    * ("gcd", b, r, x, y, p, q): (row b, row r) <- (x*b + y*r, p*r - q*b),
      with x*p + y*q = 1;
    * ("neg", i): row i <- -row i;
    * ("perm", order): row t <- old row order[t].

    left and right are the unimodular U and V with U*M*V = D, built from the
    log only when read.
    """

    diagonal: tuple
    operations: tuple
    shape: tuple  # (rows, cols) of M

    @cached_property
    def left(self) -> IntMatrix:
        return IntMatrix.from_rows(_replay(IntMatrix.identity(self.shape[0]), self.operations, (0,)))

    @cached_property
    def right(self) -> IntMatrix:
        return IntMatrix.from_rows(_replay(IntMatrix.identity(self.shape[1]), self.operations, (1,)))


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


def _hermite(a, log, shift):
    """Row Hermite normal form of the rows a, appending each row operation to log.

    The rows a are rows shift, shift + 1, ... of the matrix that the log
    acts on, so each logged row index is shifted by shift, and the pass's
    permutation keeps the rows before them in place.

    Works on the rows of a in place.  Rows enter an echelon basis, keyed by
    pivot column, one at a time; a row keeps its index in a, which the
    logged operations refer to, until the pass ends with a permutation.  A
    row whose leading column is already a pivot is combined with that basis
    row by a 2x2 unimodular gcd step, which clears its leading entry; it
    then moves on to its next nonzero column.  After each insertion every entry above a pivot
    is size-reduced into [0, pivot), which keeps all entries polynomially
    bounded (Kannan-Bachem).  Returns the basis rows by increasing pivot
    column, pivots positive, followed by the zero rows.

    A sub step updates its target row in place, only at the nonzero columns
    of its source row; the size reduction finds those columns once per pivot
    row and sweep.  The gcd and neg steps rewrite rows from the pivot column
    on, since both rows of an update are zero before it.  The size reduction
    after an insertion starts at the lowest pivot that the insertion created
    or changed: the entries above the lower pivots were reduced before and
    did not change.
    """
    width = len(a[0]) if a else 0
    basis = {}  # pivot column -> row index
    pivots = []  # sorted pivot columns
    zero = []
    for r, row in enumerate(a):
        j, low = 0, None
        while True:
            while j < width and not row[j]:
                j += 1
            if j == width:
                zero.append(r)
                break
            b = basis.get(j)
            if b is None:
                if row[j] < 0:
                    row[j:] = [-x for x in row[j:]]
                    log.append(("neg", r + shift))
                basis[j] = r
                insort(pivots, j)
                if low is None:
                    low = j
                break
            brow = a[b]
            f, rem = divmod(row[j], brow[j])
            if rem == 0:
                for c in compress(range(j, width), brow[j:]):
                    row[c] -= f * brow[c]
                log.append(("sub", r + shift, b + shift, f))
                continue
            g, x, y = _xgcd(brow[j], row[j])
            p, q = brow[j] // g, row[j] // g
            bs, rs = brow[j:], row[j:]
            brow[j:] = [x * s + y * w for s, w in zip(bs, rs)]
            row[j:] = [p * w - q * s for s, w in zip(bs, rs)]
            log.append(("gcd", b + shift, r + shift, x, y, p, q))
            if low is None:
                low = j
        if low is None:
            continue
        for k in range(bisect_left(pivots, low), len(pivots)):
            j = pivots[k]
            t = basis[j]
            prow = a[t]
            support = list(compress(range(j, width), prow[j:]))
            for i in pivots[:k]:
                s = basis[i]
                srow = a[s]
                f = srow[j] // prow[j]
                if f:
                    for c in support:
                        srow[c] -= f * prow[c]
                    log.append(("sub", s + shift, t + shift, f))
    order = [basis[j] for j in pivots] + zero
    log.append(("perm", tuple(range(shift)) + tuple(k + shift for k in order)))
    return [a[k] for k in order]


def _eliminate_units(a, width):
    """Eliminate on +-1 entries of the rows a while any is left; returns the logs.

    Works on the rows of a in place.  Each pivot is a +-1 entry of the
    active block (rows and columns not yet pivots) with the fewest nonzeros
    in its row and column (Markowitz cost (r-1)*(c-1), then the first in
    row-major order).  Row sub steps clear its column and column sub steps
    clear its row, so the pivot ends alone in both.  Nonzero counts and the
    set of unit positions follow every changed entry instead of being
    recounted.  Returns (row_steps, col_steps, pivots) with pivots the
    (row, column) pairs in the order taken.
    """
    n = len(a)
    row_count = [sum(map(bool, row)) for row in a]
    col_count = [sum(map(bool, col)) for col in zip(*a)]
    units = {i * width + j for i, row in enumerate(a)
             for j, x in enumerate(row) if x == 1 or x == -1}
    row_steps, col_steps, pivots = [], [], []

    def markowitz(e):
        i, j = divmod(e, width)
        return (row_count[i] - 1) * (col_count[j] - 1), e

    while units:
        p, q = divmod(min(units, key=markowitz), width)
        prow = a[p]
        s = prow[q]
        support = [j for j, x in enumerate(prow) if x]
        for i in range(n):
            row = a[i]
            if i == p or not row[q]:
                continue
            f = row[q] * s
            for j in support:
                old = row[j]
                new = old - f * prow[j]
                row[j] = new
                if not old:
                    row_count[i] += 1
                    col_count[j] += 1
                elif not new:
                    row_count[i] -= 1
                    col_count[j] -= 1
                if old == 1 or old == -1:
                    units.discard(i * width + j)
                if new == 1 or new == -1:
                    units.add(i * width + j)
            row_steps.append(("sub", i, p, f))
        for j in support:
            col_count[j] -= 1
            units.discard(p * width + j)
            if j != q:
                col_steps.append(("sub", j, q, prow[j] * s))
                prow[j] = 0
        pivots.append((p, q))
    return row_steps, col_steps, pivots


def _transpose(a, width):
    """The transpose of the rows a, each of the given width."""
    return [list(col) for col in zip(*a)] if a else [[] for _ in range(width)]


def _apply(a, steps):
    """Apply the logged row operations to the rows a; returns the rows.

    Each step is first checked to be an integer operation of determinant
    +-1 on the current rows; CertificateError is raised if it is not.  A sub
    step updates row i in place, only at the columns where row j is nonzero,
    which it finds in row j itself: every other entry would become
    x - f*0 = x, so the result is exactly the full-width update.  The rows
    are private lists (a perm only reorders them, as a checked bijection), so
    no other row sees the change.
    """
    n = len(a)
    for step in steps:
        kind = step[0]
        if kind == "sub":
            _, i, j, f = step
            ok = i != j and 0 <= i < n and 0 <= j < n and isinstance(f, int)
        elif kind == "gcd":
            _, b, r, x, y, p, q = step
            ok = (b != r and 0 <= b < n and 0 <= r < n
                  and all(isinstance(v, int) for v in (x, y, p, q)) and x * p + y * q == 1)
        elif kind == "neg":
            ok = 0 <= step[1] < n
        else:
            ok = kind == "perm" and sorted(step[1]) == list(range(n))
        if not ok:
            raise CertificateError(f"logged operation {step!r} is not unimodular")
        if kind == "sub":
            row, src = a[i], a[j]
            for c in compress(range(len(src)), src):
                row[c] -= f * src[c]
        elif kind == "gcd":
            rb, rr = a[b], a[r]
            a[b] = [x * s + y * w for s, w in zip(rb, rr)]
            a[r] = [p * w - q * s for s, w in zip(rb, rr)]
        elif kind == "neg":
            a[step[1]] = [-x for x in a[step[1]]]
        else:
            a = [a[k] for k in step[1]]
    return a


def _replay(m: IntMatrix, operations, sides=(0, 1)):
    """Rows of m after the logged operations of the given sides.

    Row operations (side 0) act on the rows of m, column operations (side 1)
    on its columns, each group in log order.  A malformed log raises
    CertificateError.
    """
    a, width, side = [list(row) for row in m.entries], m.ncols, 0
    try:
        for group_side, steps in operations:
            if group_side not in (0, 1):
                raise CertificateError(f"logged side {group_side!r} is neither 0 nor 1")
            if group_side not in sides:
                continue
            if group_side != side:
                a, width, side = _transpose(a, width), len(a), group_side
            a = _apply(a, steps)
    except (TypeError, ValueError, IndexError) as exc:
        raise CertificateError(f"malformed operation log: {exc}") from exc
    return _transpose(a, width) if side else a


def _check_certificate(m: IntMatrix, form: SmithForm) -> None:
    """Raise CertificateError unless form is an exact Smith form of m.

    Replays the log on a fresh copy of m with _apply, whose sub step updates
    a row only at the source row's nonzeros: every logged operation must be
    unimodular, and the result must equal diag(d) entry by entry, with
    d_i >= 0, d_i | d_(i+1) and zeros last.
    """
    rows, cols = m.nrows, m.ncols
    d = form.diagonal
    if tuple(form.shape) != (rows, cols) or len(d) != min(rows, cols):
        raise CertificateError(f"Smith certificate has the wrong shape {form.shape}, {len(d)}")
    for i, row in enumerate(_replay(m, form.operations)):
        for j, x in enumerate(row):
            if x != (d[i] if i == j else 0):
                raise CertificateError(f"U*M*V differs from D at ({i}, {j})")
    if any(x < 0 for x in d):
        raise CertificateError("negative Smith diagonal entry")
    for p, q in zip(d, d[1:]):
        if (q % p if p else q) != 0:
            raise CertificateError(f"Smith diagonal breaks the divisibility chain at {p}, {q}")


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize over Z by logged unimodular row/column operations.

    Returns the diagonal d1 | d2 | ... (zeros last) with the log of the
    operations that take M to D.  The unit phase (_eliminate_units) first
    takes +-1 pivots while any is left and clears each pivot's column by
    row sub steps and its row by column sub steps, logged as one row group
    and one column group (row and column steps commute).  One perm per side
    moves the pivots to the front and row negations make them +1, so M has
    become diag(1, ..., 1) beside a block B with no +-1 entry.  These are
    ordinary sub, perm and neg steps, so the check needs no clause for them.

    Row and column Hermite normal forms of B then alternate until it is
    diagonal (Kannan-Bachem 1979), logged at indices shifted past the
    pivots.  The loop ends: call the rows and columns of B before k
    finished when their only nonzero entry is on the diagonal; every later
    pass keeps them so.  After a column pass row k is clean, with positive
    entry e at (k, k) (or the remaining block is zero).  The next row pass
    puts the gcd of column k there.  If that gcd is e, row k and column k
    are both clean and k advances; otherwise the positive entry at (k, k)
    has strictly dropped.  2x2 gcd/lcm steps then repair the divisibility
    chain; the leading 1s need none.

    The log is the certificate, checked before returning: a replay on a
    fresh copy of M checks that every operation is an integer matrix of
    determinant +-1 and that the result is D entry by entry, with d_i >= 0
    and d_i | d_(i+1).  The row operations multiply to a unimodular U and
    the column operations to a unimodular V, so this proves U*M*V = D; a
    failure raises CertificateError.
    """
    rows, cols = m.nrows, m.ncols
    a = [list(row) for row in m.entries]
    row_steps, col_steps, pivots = _eliminate_units(a, cols)
    k = len(pivots)
    row_order = [p for p, _ in pivots]
    col_order = [q for _, q in pivots]
    row_order += sorted(set(range(rows)).difference(row_order))
    col_order += sorted(set(range(cols)).difference(col_order))
    row_steps.append(("perm", tuple(row_order)))
    row_steps += [("neg", t) for t, (p, q) in enumerate(pivots) if a[p][q] < 0]
    col_steps.append(("perm", tuple(col_order)))
    operations = [(0, tuple(row_steps)), (1, tuple(col_steps))]
    # the Kannan-Bachem passes on the block that the pivots left
    a = [[a[i][j] for j in col_order[k:]] for i in row_order[k:]]
    side = 0  # a holds the rows of the block (side 0) or of its transpose (side 1)
    while a and a[0]:  # a block without rows or columns needs no pass
        log = []
        a = _hermite(a, log, k)
        operations.append((side, tuple(log)))
        a = [list(col) for col in zip(*a)]
        side ^= 1
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            break
    d = [1] * k + [a[i][i] for i in range(min(rows, cols) - k)]
    # repair the divisibility chain: (d_i, d_j) becomes (gcd, lcm) by a
    # unimodular 2x2 step on each side; row and column steps commute, so the
    # log keeps them in two groups
    row_steps, col_steps = [], []
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] == 0 or d[j] % d[i] == 0:
                continue
            g, x, y = _xgcd(d[i], d[j])
            p, q = d[i] // g, d[j] // g
            d[i], d[j] = g, p * d[j]
            row_steps.append(("gcd", i, j, x, y, p, q))
            col_steps.append(("gcd", i, j, 1, 1, x * p, y * q))
    if row_steps:
        operations += [(0, tuple(row_steps)), (1, tuple(col_steps))]
    form = SmithForm(tuple(d), tuple(operations), (rows, cols))
    _check_certificate(m, form)
    return form


# --- abelian group bookkeeping ----------------------------------------------

@dataclass(frozen=True)
class H1Class:
    """Finitely generated abelian group: free rank plus a divisibility chain.

    The free rank and the torsion coefficients are read as IntMatrix entries
    are: a float or string raises InvalidParameter instead of being truncated
    or parsed.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        message = "free rank and torsion must be integers"
        (rank,) = integers((self.free_rank,), message)
        tor = integers(self.torsion, message)
        if rank < 0:
            raise InvalidParameter(f"free rank {rank} is negative")
        if any(x < 2 for x in tor):
            raise InvalidParameter(f"torsion coefficients {tor} must all be at least 2")
        for i in range(len(tor) - 1):
            if tor[i + 1] % tor[i]:
                raise InvalidParameter(f"torsion {tor} does not form a divisibility chain")
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "torsion", tor)

    @staticmethod
    def trivial() -> "H1Class":
        return H1Class(0, ())

    @staticmethod
    def free(rank: int) -> "H1Class":
        return H1Class(rank, ())

    def plus_free(self, extra: int) -> "H1Class":
        return H1Class(self.free_rank + extra, self.torsion)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel(relations: IntMatrix, generators: int) -> H1Class:
    """Z^generators modulo the column span of the relation matrix."""
    if relations.nrows != generators:
        raise InvalidParameter(f"relation matrix has {relations.nrows} rows for {generators} generators")
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

def _h1_link(components, linking, contact, round1=()) -> H1Class:
    """H1 of the connected result of surgeries on a link in S^3, from the
    presentation of the module docstring.

    contact maps labels to contact Dehn coefficients and round1 lists the
    standalone round 1-surgeries as (A, B, n_A, n_B).
    """
    members, infinity = {lab for r1 in round1 for lab in r1[:2]}, SlopeQ.infinity()
    index, tb, slopes = {}, {}, {}
    for c in components:
        t = contact_to_topological(contact.get(c.label, infinity), c.tb)
        if not t.is_infinite:
            slopes[c.label] = t
        elif c.label not in members:
            continue  # filled trivially
        index[c.label], tb[c.label] = len(index), c.tb
    width = len(index) + 2 * len(round1)
    lam = {lab: [0] * width for lab in index}
    for a, b, value in linking.pairs():
        if a in index and b in index:
            lam[a][index[b]] = lam[b][index[a]] = value
    rows = []
    for lab, t in slopes.items():
        row = lam[lab] if t.q == 1 else [t.q * x for x in lam[lab]]
        row[index[lab]] = t.p
        rows.append(row)
    gen = len(index)  # the generator a of the round 1-spec; b follows it
    for a, b, n_a, n_b in round1:
        for lab, n in ((a, n_a), (b, n_b)):
            meridian, row = [0] * width, lam[lab]
            meridian[index[lab]], meridian[gen] = 1, -1
            row[index[lab]], row[gen + 1] = n + tb[lab], -1
            rows += (meridian, row)
        gen += 2
    return presentation_from_rows(rows, width).plus_free(len(round1))


def h1_dehn(d: ContactSurgeryDiagram) -> H1Class:
    """First homology of the result of the contact Dehn surgery diagram."""
    return _h1_link(d.components, d.linking, d.coefficients)


def linking_matrix(d: ContactSurgeryDiagram) -> IntMatrix:
    """Topological linking matrix (framings on the diagonal).

    Requires every topological coefficient to be an integer.
    """
    labels = [c.label for c in d.components]
    rows = []
    for c in d.components:
        t = contact_to_topological(d.coefficients[c.label], c.tb)
        if not t.is_integer:
            raise InvalidParameter(f"linking matrix needs integral topological framings, "
                                   f"{c.label!r} has {t}")
        row = [t.p if other == c.label else d.linking.get(c.label, other) for other in labels]
        rows.append(row)
    return IntMatrix.from_rows(rows)


def h1_round1(tb1: int, tb2: int, lk: int, n1: int, n2: int) -> H1Class:
    """First homology after a standalone round 1-surgery, with contact
    coefficients n1, n2, on a two-component link."""
    link = (LegendrianComponent("A", tb1), LegendrianComponent("B", tb2))
    return _h1_link(link, LinkingData([("A", "B", lk)]), {}, [("A", "B", n1, n2)])


def _round2_inner(tb: int, c: SlopeQ) -> H1Class:
    """H1 of the inner piece of a round 2-surgery: generators (mu, lambda) of
    the tube, where mu bounds and the glued solid torus kills P*mu + Q*lambda."""
    if c.is_infinite:
        raise UnsupportedComposition("round 2-surgery coefficient must be rational")
    t = contact_to_topological(c, tb)
    return presentation_from_rows([[1, 0], [t.p, t.q]], 2)


def h1_round2(tb: int, c: SlopeQ) -> Tuple[H1Class, H1Class]:
    """(outer, inner) first homology of the two pieces of a round 2-surgery
    on a knot: contact Dehn surgery on it, and the lens-space factor."""
    return _h1_link((LegendrianComponent("K", tb),), LinkingData(), {"K": c}), _round2_inner(tb, c)


def h1_round_diagram(rd: RoundSurgeryDiagram) -> List[H1Class]:
    """First homology per resulting component of a round surgery diagram:
    the connected result, then the inner piece of each standalone round
    2-surgery in round2 order.  An invalid diagram or an infinite round
    2-coefficient raises UnsupportedComposition, the first joint pair that
    is not nice NotNice."""
    _require_valid(rd)
    contact, standalone = {}, []
    for r1, r2 in zip(rd.round1, _nice_partners(rd, standalone=True)):
        if r2 is None:
            standalone.append((*r1.pair, r1.coeff_a, r1.coeff_b))
        else:
            contact[r1.pair[0]] = contact[r1.pair[1]] = r2
    inner = [_round2_inner(rd.component(r2.knot).tb, r2.coeff) for r2 in rd.round2]
    contact.update((r2.knot, r2.coeff) for r2 in rd.round2)
    return [_h1_link(rd.components, rd.linking, contact, standalone)] + inner
