"""Negative continued fraction expansions, slope normalization and tight-layer counts.

Counting tight structures on a thickened torus needs normalized boundary
data: the back torus carries two dividing curves of slope -1 and the front
torus a slope <= -1.  normalize_slopes produces the SL(2,Z) change of frame;
honda_count then dispatches on the classified boundary shape:

* slope < -1, two dividing curves per side, minimal twisting: the finite
  product |(r0+1)(r1+1)...(r_{k-1}+1) r_k| over the negative continued
  fraction expansion of the slope,
* positive twisting with two dividing curves per side: exactly two structures
  per twisting value,
* slopes -1/-1 with two dividing curves and minimal twisting: an infinite
  family indexed by the holonomy integers (Z),
* more than two dividing curves: counts are configuration lists; use
  enumerate_configurations.

Slopes act as projectivized column vectors (q, p) for slope p/q, so SL(2,Z)
acts by plain matrix multiplication.

configuration_factors certifies the enumeration before any configuration is
built or written.  A configuration is a traversing family (t top points, t
bottom points and a winding) plus one parallel-arc option per side, and every
validity condition concerns one side or the family alone (see the dividing
module).  So:

* each side option and each family passes its checks once, which makes every
  configuration of their product valid;
* the family keys strictly increase, and so do the keys within every option
  list.  The configurations are the lexicographic product (family, bottom
  option, top option), which is canonical_key's order, because its parallel
  part lists the bottom arcs first and a family fixes each side's arc count;
  so the configurations' keys strictly increase, and no two are equal;
* the sum over families of |bottom options| * |top options| must equal
  count_configurations, a closed form that shares no code with the
  enumeration, so distinct valid configurations as many as all valid ones
  are all of them.

Any failure raises InvalidArcConfig or CertificateError.

The closed form.  On a side with m marked points (m even) and t traversing
endpoints, the parallel arcs are a non-crossing matching of each cyclic gap
between consecutive traversing points, and there are C(m, (m - t)/2) such
systems.  Read each gap from the traversing point before it: every
traversing point and every arc's first point is an up-step, every arc's
second point a down-step.  That picks (m - t)/2 of the m cyclic points as
down-steps.  Conversely, mark any (m - t)/2 points as down-steps and the
rest as up-steps, and cancel an up-step followed by a down-step, cyclically,
until none is left.  What is left has no up-step followed by a down-step, so
it is constant, and it keeps the total t > 0: it is t up-steps.  These are
the traversing points, and the cancelled pairs are non-crossing arcs that
stay within the gaps; cancelling recovers the arcs of the first map, so the
two maps are inverse.  The enumeration generates each side's systems by the
second map, one per set of down-steps, and checks every one it generates.
With n0 and n1 pairs of marks, N = n0 + n1 and t = 2j, the count is

    (2w + 1) * sum_{j >= 1} C(2 n0, n0 - j) C(2 n1, n1 - j)
        = (2w + 1) * (C(2N, N) - C(2 n0, n0) C(2 n1, n1)) / 2,

because C(2 n1, n1 - j) = C(2 n1, n1 + j), the sum over all integers j is
C(2N, N) by Vandermonde's identity, j and -j contribute equally, and j = 0
contributes C(2 n0, n0) C(2 n1, n1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .core import SlopeQ, integers
from .dividing import (
    BOTTOM,
    TOP,
    ArcConfig,
    ParallelArc,
    TraversingArc,
    _check_family,
    _check_marks,
    _check_ranges,
    _check_side,
)
from .errors import CertificateError, DomainError, InvalidParameter, LimitExceeded, NotNormalized
from .homology import _xgcd

# neg_cf refuses longer expansions before building them: one of 100,000
# terms takes about 0.03 s, and the slopes of the layer_geometry benchmark
# (|p| <= 200, q <= 50, normalized) need at most a few hundred
NEG_CF_MAX_LENGTH = 100_000
# count_configurations and enumerate_configurations refuse larger cells before
# any binomial is computed.  At n0 + n1 = 5,000 the count takes 3.5 ms and has
# 3,010 digits; with the winding bound it stays under 3,020 digits, within
# the interpreter's 4,300-digit int-to-str limit that error messages need.
ENUM_MAX_PAIRS = 5_000
ENUM_MAX_WINDING = 1_000_000


@dataclass(frozen=True)
class NegCF:
    """Negative continued fraction r0 - 1/(r1 - 1/(... - 1/rk)), all ri <= -2."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", integers(
            self.coefficients, "continued fraction coefficients must have integer type"))
        if not self.coefficients:
            raise InvalidParameter("a negative continued fraction has at least one coefficient")
        if any(r > -2 for r in self.coefficients):
            raise InvalidParameter(f"coefficients {self.coefficients} must all be <= -2")

    def value(self) -> SlopeQ:
        p, q = self.coefficients[-1], 1
        for r in reversed(self.coefficients[:-1]):
            p, q = r * p - q, p  # r - 1/(p/q) = (r*p - q)/p
        return SlopeQ.of(p, q)


def neg_cf_length(s: SlopeQ) -> int:
    """Number of terms of neg_cf(s), in O(log q) steps.

    If |p|/q has the regular continued fraction [a0; a1, ..., an], the
    negative expansion of p/q has 1 + a1 + a3 + ... terms, one fewer when n
    is odd: a0 gives the first term, and each odd-index quotient a gives a
    run of a - 1 terms equal to -2 plus the term of the quotient after it,
    which the last one, at an odd n, does not have.
    """
    p, q = abs(s.p), s.q
    length, n = 1, 0
    while q:
        a, p, q = p // q, q, p % q
        if n % 2:
            length += a
        n += 1
    return length - (n % 2 == 0)


def neg_cf(s: SlopeQ) -> NegCF:
    """Unique all-entries-<=-2 expansion of a rational slope < -1.

    An expansion of more than NEG_CF_MAX_LENGTH terms raises LimitExceeded
    before any term is built.
    """
    if s.is_infinite:
        raise DomainError("infinite slope has no negative continued fraction")
    if not s < SlopeQ.of(-1):
        raise DomainError(f"slope {s} is not < -1")
    if neg_cf_length(s) > NEG_CF_MAX_LENGTH:
        raise LimitExceeded(f"the expansion has more than {NEG_CF_MAX_LENGTH} terms")
    coeffs = []
    p, q = s.p, s.q
    while True:
        r = p // q  # exact floor for integers
        coeffs.append(r)
        rem = p - r * q  # numerator of p/q - r, lies in [0, q)
        if rem == 0:
            break
        p, q = -q, rem  # next level holds -1/(p/q - r)
    expansion = NegCF(tuple(coeffs))
    if expansion.value() != s:
        raise CertificateError(f"expansion {expansion.coefficients} does not reproduce {s}")
    return expansion


@dataclass(frozen=True)
class BoundaryData:
    """Dividing-curve data of one boundary torus: count and slope."""

    num_dividing: int
    slope: SlopeQ

    def __post_init__(self):
        (count,) = integers((self.num_dividing,), "the dividing curve count must have integer type")
        object.__setattr__(self, "num_dividing", count)
        if self.num_dividing < 2 or self.num_dividing % 2:
            raise InvalidParameter(
                f"a boundary torus carries a positive even number of dividing curves, "
                f"not {self.num_dividing}"
            )


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix of determinant +1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name, entry in zip("abcd", integers(self.entries(),
                                                "matrix entries must have integer type")):
            object.__setattr__(self, name, entry)
        if self.a * self.d - self.b * self.c != 1:
            raise InvalidParameter(f"matrix {self.entries()} does not lie in SL(2,Z)")

    @staticmethod
    def identity() -> "UnimodularMatrix":
        return UnimodularMatrix(1, 0, 0, 1)

    def mul(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, s: SlopeQ) -> SlopeQ:
        """Act on the slope p/q as the column vector (q, p)."""
        q, p = s.q, s.p
        new_q = self.a * q + self.b * p
        new_p = self.c * q + self.d * p
        return SlopeQ.of(new_p, new_q)

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class TightCount:
    """Result of counting tight structures on the thickened torus.

    kind is "finite" (value set), "two_per_twisting", "infinite_z_indexed" or
    "unsupported" (reason set).
    """

    kind: str
    value: Optional[int] = None
    reason: Optional[str] = None

    @staticmethod
    def finite(value: int) -> "TightCount":
        return TightCount("finite", value=value)

    @staticmethod
    def two_per_twisting() -> "TightCount":
        return TightCount("two_per_twisting")

    @staticmethod
    def infinite_z_indexed() -> "TightCount":
        return TightCount("infinite_z_indexed")

    @staticmethod
    def unsupported(reason: str) -> "TightCount":
        return TightCount("unsupported", reason=reason)


def honda_count(b0: BoundaryData, b1: BoundaryData, twisting: int) -> TightCount:
    """Count tight structures on a thickened torus with the given boundary data.

    Requires normalized slopes: b0 must be -1 and b1 <= -1 (run
    normalize_slopes first).  twisting is the twisting in the thickness
    direction (0 = minimal).
    """
    minus_one = SlopeQ.of(-1)
    if b0.slope != minus_one:
        raise NotNormalized(f"back torus slope is {b0.slope}, not -1")
    s1 = b1.slope
    if s1.is_infinite or not s1 <= minus_one:
        raise NotNormalized(f"front torus slope {s1} is not <= -1")
    if twisting < 0:
        raise DomainError("twisting is a non-negative integer")

    if b0.num_dividing != 2 or b1.num_dividing != 2:
        if s1 == minus_one and twisting == 0:
            return TightCount.unsupported(
                "more than two dividing curves: counts are arc configurations; "
                "use enumerate_configurations"
            )
        return TightCount.unsupported(
            "more than two dividing curves with twisting or slope < -1: "
            "the layer factorization case is out of scope"
        )

    if s1 == minus_one:
        if twisting == 0:
            return TightCount.infinite_z_indexed()
        return TightCount.two_per_twisting()
    if twisting >= 1:
        return TightCount.two_per_twisting()
    rs = neg_cf(s1).coefficients
    product = rs[-1]
    for r in rs[:-1]:
        product *= r + 1
    return TightCount.finite(abs(product))


def _matrix_to_minus_one(s: SlopeQ) -> UnimodularMatrix:
    """Some SL(2,Z) matrix sending the slope s to -1."""
    q, p = s.q, s.p
    # complete the primitive column (q, p) to an SL(2,Z) basis: x*q + y*p = 1
    g, x, y = _xgcd(q, p)
    if g != 1:
        raise CertificateError(f"slope {s} is not a primitive column")
    base = UnimodularMatrix(x, y, -p, q)  # sends (q, p) to (1, 0)
    tilt = UnimodularMatrix(1, 0, -1, 1)  # sends (1, 0) to (1, -1)
    return tilt.mul(base)


def _candidate_key(e: Tuple[int, int, int, int]):
    absolutes = tuple(abs(x) for x in e)
    return (tuple(sorted(absolutes)), absolutes, tuple(-x for x in e))


def normalize_slopes(s0: SlopeQ, s1: SlopeQ) -> Tuple[UnimodularMatrix, SlopeQ, SlopeQ]:
    """Find A in SL(2,Z) with A*s0 = -1 and A*s1 <= -1; returns (A, A*s0, A*s1).

    Among all valid matrices the deterministic representative minimizes the
    sorted tuple of absolute entries (then the unsorted absolute tuple, then
    preferring positive entries), so already-normalized input returns the
    identity.

    The minimum is found in closed form.  Let base = [[a, b], [c, d]] send s0
    to -1.  The matrices sending s0 to -1 are exactly +-S(n)*base, where
    S(n) = [[1+n, n], [-n, 1-n]] runs over the stabilizer of -1; their
    entries a + n*alpha, b + n*beta, c - n*alpha, d - n*beta are linear in
    n, with alpha = a + c and beta = b + d.  If base sends s1 to the column
    (Q, P), S(n) sends it to (Q + n*sigma, P - n*sigma) with sigma = P + Q,
    a finite slope <= -1 iff sigma*(Q + n*sigma) < 0, that is iff
    n < -Q/sigma (every n when sigma = 0).

    Call the roots of the entries and the crossings e_i = e_j and
    e_i = -e_j breakpoints.  On a closed interval between consecutive
    breakpoints no entry changes sign and no two absolute entries change
    order, so every component of the key is linear in n.  The sorted absolute
    entries are not all constant (alpha and beta are not both 0), so the
    first component that is not constant is strictly monotone, and the key's
    minimum over the valid integers of the interval lies at the first or the
    last of them.  On the two unbounded intervals absolute entries only grow
    away from the finite end, which is where the minimum lies.  So the
    minimum is among the floors and ceilings of the 16 breakpoints and the
    largest valid n, each with both signs.  The winner is then checked
    exactly: determinant 1, s0 sent to -1 and s1 to a finite slope <= -1.
    """
    base = _matrix_to_minus_one(s0)
    image1 = base.apply(s1)
    sigma = image1.p + image1.q  # constant along the stabilizer orbit
    x = base.entries()
    alpha, beta = x[0] + x[2], x[1] + x[3]
    rate = (alpha, beta, -alpha, -beta)  # entry i is x[i] + n*rate[i]
    breakpoints = []  # (numerator, denominator) of each n where the key may bend
    for i in range(4):
        for j in range(i, 4):
            breakpoints.append((-x[i] - x[j], rate[i] + rate[j]))  # e_i = -e_j; roots at i == j
            if i < j:
                breakpoints.append((x[j] - x[i], rate[i] - rate[j]))  # e_i = e_j
    candidates = set()
    for num, den in breakpoints:
        if den:
            candidates.update((num // den, -(-num // den)))
    if sigma:
        n_max = -(image1.q // sigma) - 1  # largest n < -Q/sigma
        candidates = {n for n in candidates if n <= n_max}
        candidates.add(n_max)

    best = best_key = None
    for n in candidates:
        e = (x[0] + n * alpha, x[1] + n * beta, x[2] - n * alpha, x[3] - n * beta)
        for m in (e, tuple(-v for v in e)):
            key = _candidate_key(m)
            if best_key is None or key < best_key:
                best, best_key = m, key

    a, b, c, d = best
    if a * d - b * c != 1:
        raise CertificateError(f"normalizing matrix {best} does not lie in SL(2,Z)")
    matrix = UnimodularMatrix(a, b, c, d)
    minus_one = SlopeQ.of(-1)
    img0 = matrix.apply(s0)
    img1 = matrix.apply(s1)
    if img0 != minus_one or img1.is_infinite or not img1 <= minus_one:
        raise CertificateError(f"matrix {best} sends ({s0}, {s1}) to ({img0}, {img1})")
    return matrix, img0, img1


# --- arc configuration enumeration -------------------------------------------

def _check_cell(n0: int, n1: int, max_winding: int) -> None:
    if n0 < 1 or n1 < 1:
        raise DomainError("need at least one pair of dividing curves per side")
    if max_winding < 0:
        raise DomainError("max_winding is a non-negative bound")
    if n0 + n1 > ENUM_MAX_PAIRS:
        raise LimitExceeded(f"n0 + n1 is more than {ENUM_MAX_PAIRS}, the largest cell counted")
    if max_winding > ENUM_MAX_WINDING:
        raise LimitExceeded(f"max_winding is more than {ENUM_MAX_WINDING}, "
                            "the largest winding counted")


def count_configurations(n0: int, n1: int, max_winding: int) -> int:
    """Number of configurations enumerate_configurations returns, without
    building them, by the closed form of the module docstring."""
    _check_cell(n0, n1, max_winding)
    n = n0 + n1
    return (2 * max_winding + 1) * (comb(2 * n, n) - comb(2 * n0, n0) * comb(2 * n1, n1)) // 2


def _side_systems(side: str, m: int, t: int):
    """Every parallel-arc system of one side with m marked points and t
    traversing endpoints, unchecked, as (points, arcs): one per set of
    (m - t)/2 down-steps, by the bijection of the module docstring.

    Reading the cycle from the point after the least running sum, every
    down-step pops an open up-step, and the pair is an arc; the up-steps left
    on the stack are the traversing points.  The arcs are listed from the
    first traversing point on, each by its up-step.
    """
    for downs in combinations(range(m), (m - t) // 2):
        step = [1] * m
        for p in downs:
            step[p] = -1
        sums = list(accumulate(step))
        start = sums.index(min(sums)) + 1
        stack, arcs = [], []
        for i in range(start, start + m):
            p = i % m
            if step[p] > 0:
                stack.append(p)
            else:
                arcs.append(ParallelArc(side, stack.pop(), p))
        points = tuple(sorted(stack))
        arcs.sort(key=lambda arc: (arc.start - points[0]) % m)
        yield points, tuple(arcs)


def _side_options(side: str, marks: Dict[str, int], t: int) -> list:
    """The checked parallel-arc options of one side with t traversing
    endpoints, as (points, options) sorted by the sorted endpoints `points`.
    Each group's options, tuples of arcs, are in the order of their sorted
    arcs, the side's part of canonical_key, which must strictly increase."""
    groups = {}
    for points, arcs in _side_systems(side, marks[side], t):
        _check_side(side, marks, list(points), arcs)
        groups.setdefault(points, []).append((tuple(sorted(arcs)), arcs))
    out = []
    for points in sorted(groups):
        options = sorted(groups[points], key=itemgetter(0))
        if any(not a[0] < b[0] for a, b in zip(options, options[1:])):
            raise CertificateError(f"{side} option keys at {points} do not strictly increase")
        out.append((points, [arcs for _, arcs in options]))
    return out


def configuration_factors(n0: int, n1: int, max_winding: int) -> List[tuple]:
    """The certified factors of enumerate_configurations(n0, n1, max_winding):
    (traversing arcs, top options, bottom options) per family in key order,
    each option list in key order and shared by the families with the same
    endpoints.  Each family's configurations are trav + top + bottom, for
    every bottom option in turn and, within it, every top option."""
    _check_cell(n0, n1, max_winding)
    marks = {TOP: 2 * n0, BOTTOM: 2 * n1}
    _check_marks(marks[TOP], marks[BOTTOM])
    families = []  # (key, traversing arcs, top options, bottom options)
    for t in range(2, min(marks.values()) + 1, 2):
        sides = {side: _side_options(side, marks, t) for side in (TOP, BOTTOM)}
        for tops, top_options in sides[TOP]:
            for bottoms, bottom_options in sides[BOTTOM]:
                for rho in range(-max_winding, max_winding + 1):
                    trav = tuple(TraversingArc(tops[i], bottoms[(i + rho) % t], rho)
                                 for i in range(t))
                    _check_ranges(trav, marks)
                    _check_family(trav)
                    families.append((tuple(sorted(trav)), trav, top_options, bottom_options))
    families.sort(key=itemgetter(0))
    if any(not a[0] < b[0] for a, b in zip(families, families[1:])):
        raise CertificateError("traversing family keys do not strictly increase")
    total = sum(len(top) * len(bottom) for _, _, top, bottom in families)
    expected = count_configurations(n0, n1, max_winding)
    if total != expected:
        raise CertificateError(f"the factors make {total} configurations, but the count is {expected}")
    return [family[1:] for family in families]


def enumerate_configurations(n0: int, n1: int, max_winding: int) -> List[ArcConfig]:
    """All annulus arc systems with 2*n0 top and 2*n1 bottom marked points.

    Configurations satisfy: every marked point is one arc endpoint, at least
    two traversing arcs, no closed curves, pairwise disjoint; the traversing
    family winding ranges over [-max_winding, max_winding].  The full set is
    infinite (windings range over Z), so the bound is the caller's.  The
    result is the product of configuration_factors, so it is sorted by
    ArcConfig.canonical_key and certified as the module docstring describes.
    """
    trusted = ArcConfig._trusted
    return [trusted(2 * n0, 2 * n1, trav + top + bottom)
            for trav, tops, bottoms in configuration_factors(n0, n1, max_winding)
            for bottom in bottoms for top in tops]
