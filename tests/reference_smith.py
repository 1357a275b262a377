"""The Smith form code that homology.py replaced, kept as its test oracle.

hermite and apply are the Kannan-Bachem pass and the certificate replay
whose sub steps rebuild the target row at full width.  Patched into
homology in place of _hermite and _apply, they must give the same log step
for step, the same replayed rows and the same check errors as the
nonzero-only updates.  matmul is the matrix product that IntMatrix.mul
gave, which only the tests read.
Shares with `src`: old code kept as an oracle, run inside the loops of `homology`.
"""

import operator
from bisect import bisect_left, insort

from crsdiag import homology
from crsdiag.errors import CertificateError
from crsdiag.homology import IntMatrix


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a * b; raises ValueError unless the shapes fit."""
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply a {a.nrows}x{a.ncols} matrix "
                         f"by a {b.nrows}x{b.ncols} matrix")
    cols = tuple(zip(*b.entries))
    return IntMatrix(tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                           for row in a.entries))


def hermite(a, log, shift):
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

    Rows are updated in place from the pivot column on, since both rows of
    an update are zero before it.  The size reduction after an insertion
    starts at the lowest pivot that the insertion created or changed: the
    entries above the lower pivots were reduced before and did not change.
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
                row[j:] = [w - f * s for s, w in zip(brow[j:], row[j:])]
                log.append(("sub", r + shift, b + shift, f))
                continue
            g, x, y = homology._xgcd(brow[j], row[j])
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
            for i in pivots[:k]:
                s = basis[i]
                srow = a[s]
                f = srow[j] // prow[j]
                if f:
                    srow[j:] = [x - f * y for x, y in zip(srow[j:], prow[j:])]
                    log.append(("sub", s + shift, t + shift, f))
    order = [basis[j] for j in pivots] + zero
    log.append(("perm", tuple(range(shift)) + tuple(k + shift for k in order)))
    return [a[k] for k in order]


def apply(a, steps):
    """Apply the logged row operations to the rows a at full width; returns the rows.

    Each step is first checked to be an integer operation of determinant
    +-1 on the current rows; CertificateError is raised if it is not.
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
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        elif kind == "gcd":
            rb, rr = a[b], a[r]
            a[b] = [x * s + y * w for s, w in zip(rb, rr)]
            a[r] = [p * w - q * s for s, w in zip(rb, rr)]
        elif kind == "neg":
            a[step[1]] = [-x for x in a[step[1]]]
        else:
            a = [a[k] for k in step[1]]
    return a


def patch_full_width(monkeypatch):
    """Put the full-width hermite and apply in place of homology's own."""
    monkeypatch.setattr(homology, "_hermite", hermite)
    monkeypatch.setattr(homology, "_apply", apply)
