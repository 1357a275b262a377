import random
import textwrap
import time
from math import prod

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import reference_pairs
import reference_smith as reference
from conftest import corrupt_certificates, run_optimized
from crsdiag import (
    ContactSurgeryDiagram,
    H1Class,
    IntMatrix,
    LegendrianComponent,
    LinkingData,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    det,
    h1_dehn,
    h1_round1,
    h1_round2,
    h1_round_diagram,
    joint_pairs_to_pm1,
    smith_normal_form,
)
from crsdiag import homology
from crsdiag.errors import CertificateError, InvalidParameter, UnsupportedComposition
from crsdiag.homology import SmithForm


def sparse_matrix(rng, rows, cols):
    """Entries in [-9, 9], about 30% of them zero, sometimes with a zero row and column."""
    entries = [[0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(cols)]
               for _ in range(rows)]
    if rng.random() < 0.25:
        entries[rng.randrange(rows)] = [0] * cols
        j = rng.randrange(cols)
        for row in entries:
            row[j] = 0
    return entries


def _reference_hermite(rows, transform):
    """Row Hermite normal form of rows, applying the same row operations to transform.

    The transform-tracking Kannan-Bachem pass that the logged one replaced.
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
            g, x, y = homology._xgcd(b[j], row[j])
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


def _reference_smith(entries):
    """(diagonal, U, V) with U*M*V = D, from dense transforms carried through every pass.

    The Smith form that the logged one replaced, kept as its test oracle.
    """
    rows, cols = len(entries), len(entries[0])
    a = [list(row) for row in entries]
    sides = [IntMatrix.identity(n).entries for n in (rows, cols)]
    side = 0
    while True:
        a, sides[side] = _reference_hermite(a, sides[side])
        a = [list(col) for col in zip(*a)]
        side ^= 1
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            break
    u, v = sides[0], [list(col) for col in zip(*sides[1])]
    d = [a[i][i] for i in range(min(rows, cols))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i] == 0 or d[j] % d[i] == 0:
                continue
            g, x, y = homology._xgcd(d[i], d[j])
            p, q = d[i] // g, d[j] // g
            d[i], d[j] = g, p * d[j]
            u[i], u[j] = ([x * s + y * w for s, w in zip(u[i], u[j])],
                          [p * w - q * s for s, w in zip(u[i], u[j])])
            for row in v:
                row[i], row[j] = row[i] + row[j], x * p * row[j] - y * q * row[i]
    return tuple(d), u, v


def pm1_presentation(rng, n, density):
    """Presentation matrix of a contact (+-1)-surgery on n components, as h1_dehn builds it.

    Topological framings tb +- 1 with tb in [-5, -1] on the diagonal, and
    symmetric linking numbers in [-3, 3], each nonzero with the given density.
    """
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = rng.randint(-5, -1) + rng.choice((-1, 1))
        for j in range(i + 1, n):
            if rng.random() < density:
                entries[i][j] = entries[j][i] = rng.randint(-3, 3)
    return entries


# inputs that exercise divisibility-chain repair, zero rows and columns, and
# 1 x n / n x 1 shapes, with their invariant factors
STRUCTURED = [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[0]], (0,)),
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
    ([[6, 0], [0, 4]], (2, 12)),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (2, 6, 12)),
    ([[0, 0], [0, 0]], (0, 0)),
    ([[0, 0, 0], [0, 2, 0]], (2, 0)),
    ([[0, 3], [0, 0], [0, 6]], (3, 0)),
    ([[4, 6, 10]], (2,)),
    ([[4], [6], [10]], (2,)),
    ([[0, 0, -7, 0]], (7,)),
    ([[0], [0]], (0,)),
    ([[9, 0, 0, 0], [0, 0, 0, 0], [0, 0, 12, 0], [0, 0, 0, 0]], (3, 36, 0, 0)),
]


def snf_inputs(rng, count, max_size):
    yield from (entries for entries, _ in STRUCTURED)
    for _ in range(count):
        yield sparse_matrix(rng, rng.randint(1, max_size), rng.randint(1, max_size))


def test_snf_fixtures():
    for entries, diagonal in STRUCTURED:
        assert smith_normal_form(IntMatrix.from_rows(entries)).diagonal == diagonal
    identity = IntMatrix.identity(4)
    assert smith_normal_form(identity).diagonal == (1, 1, 1, 1)


def assert_certificate(m, snf):
    """Independent re-check of U*M*V = D, unimodularity and the divisibility chain."""
    product = reference.matmul(reference.matmul(snf.left, m), snf.right)
    for i in range(m.nrows):
        for j in range(m.ncols):
            expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
            assert product[i][j] == expected
    assert abs(det(snf.left)) == 1
    assert abs(det(snf.right)) == 1
    assert all(d >= 0 for d in snf.diagonal)
    nonzero = [d for d in snf.diagonal if d]
    assert list(snf.diagonal) == nonzero + [0] * (len(snf.diagonal) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_snf_certificates_random(rng):
    for entries in snf_inputs(rng, 200, 8):
        m = IntMatrix.from_rows(entries)
        snf = smith_normal_form(m)
        assert "left" not in vars(snf) and "right" not in vars(snf)  # built only when read
        # the unit phase logs other operations than the reference, so only
        # the diagonal must agree; U and V are checked on their own
        assert snf.diagonal == _reference_smith(entries)[0]
        assert_certificate(m, snf)


def test_snf_matches_sympy(rng):
    for entries in snf_inputs(rng, 150, 8):
        rows, cols = len(entries), len(entries[0])
        ours = smith_normal_form(IntMatrix.from_rows(entries)).diagonal
        theirs = sympy_snf(Matrix(entries))
        diag = [abs(theirs[i, i]) for i in range(min(rows, cols))]
        assert [abs(d) for d in ours] == diag


@pytest.mark.parametrize("n, density", [(10, 1.0), (17, 0.1), (24, 1.0), (31, 0.1),
                                        (40, 0.1), (47, 1.0), (66, 0.1), (66, 1.0)])
def test_snf_matches_reference_on_pm1_presentations(n, density):
    entries = pm1_presentation(random.Random(n), n, density)
    assert smith_normal_form(IntMatrix.from_rows(entries)).diagonal == _reference_smith(entries)[0]


# logged steps of the three 40- and 66-component presentations above, taken
# by the Kannan-Bachem passes on the whole matrix without a unit phase
WHOLE_MATRIX_STEPS = 13544


def test_unit_phase_shrinks_the_log():
    steps = 0
    for n, density in [(40, 0.1), (66, 0.1), (66, 1.0)]:
        entries = pm1_presentation(random.Random(n), n, density)
        steps += sum(len(group) for _, group in
                     smith_normal_form(IntMatrix.from_rows(entries)).operations)
    assert steps < WHOLE_MATRIX_STEPS


def signed_permutation(rng, n):
    order = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)] for i in range(n)]


def elementary_product(rng, n, count):
    """A product of count elementary unimodular matrices: shears, swaps and negations."""
    a = [list(row) for row in IntMatrix.identity(n).entries]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            f = rng.randint(-3, 3)
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
        elif kind == 1:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def assert_smith(entries, sympy_too=True):
    """The Smith form of entries agrees with both oracles and its certificate holds."""
    m = IntMatrix.from_rows(entries)
    snf = smith_normal_form(m)
    assert snf.diagonal == _reference_smith(entries)[0]
    if sympy_too:
        theirs = sympy_snf(Matrix(entries))
        assert [abs(d) for d in snf.diagonal] == [abs(theirs[i, i])
                                                  for i in range(len(snf.diagonal))]
    assert_certificate(m, snf)
    return snf


def test_unit_phase_on_unimodular_inputs(rng):
    for n in range(1, 9):
        assert assert_smith(signed_permutation(rng, n)).diagonal == (1,) * n
    for n in range(2, 9):
        u = elementary_product(rng, n, 3 * n)
        assert assert_smith(u).diagonal == (1,) * n
        # U*D*V with a known divisibility chain D
        d = [1] * (n - 2) + [2, 6]
        v = IntMatrix.from_rows(elementary_product(rng, n, 3 * n))
        scaled = IntMatrix.from_rows([[x * d[j] for j, x in enumerate(row)] for row in u])
        product = reference.matmul(scaled, v)
        assert assert_smith([list(row) for row in product.entries]).diagonal == tuple(d)


def test_unit_phase_on_gadget_chain_presentations(monkeypatch):
    # the presentations that h1_round_diagram builds for the joint pairs of a
    # to-round conversion: the input's linking matrix beside gadget chains
    from crsdiag import pair_pm1_diagram

    seen = []
    real = homology.smith_normal_form
    monkeypatch.setattr(homology, "smith_normal_form", lambda m: seen.append(m) or real(m))
    for n, density, k, gadget_m in [(58, 0.1, 1, 2), (60, 1.0, 0, 1)]:
        draw = random.Random(n)
        labels = [f"K{i:02d}" for i in range(n)]
        d = contact(
            [LegendrianComponent(lab, draw.randint(-5, -1)) for lab in labels],
            [(a, b, draw.choice((-3, -2, -1, 1, 2, 3)))
             for i, a in enumerate(labels) for b in labels[i + 1:] if draw.random() < density],
            {lab: SlopeQ.of(draw.choice((-1, 1))) for lab in labels},
        )
        rd, _plan = pair_pm1_diagram(d, k=k, gadget_m=gadget_m)
        h1_round_diagram(rd)
    sizes = sorted(m.nrows for m in seen)
    assert sizes[-2:] == [60, 64]
    for m in seen:  # also the unit-free 6 x 6 presentation of the gadget self-test
        snf = assert_smith([list(row) for row in m.entries], sympy_too=m.nrows <= 8)
        if m.nrows >= 60:
            assert any(step[0] == "sub" for step in snf.operations[0][1])


def test_unit_phase_logs_nothing_without_units():
    draw = random.Random(5)
    for _ in range(40):
        rows, cols = draw.randint(1, 7), draw.randint(1, 7)
        entries = [[draw.choice((0, 2, -2, 3, -3, 5, -5)) for _ in range(cols)]
                   for _ in range(rows)]
        snf = assert_smith(entries)
        assert snf.operations[:2] == ((0, (("perm", tuple(range(rows))),)),
                                      (1, (("perm", tuple(range(cols))),)))


def test_unit_phase_uses_up_every_row_or_column(rng):
    for rows, cols in [(1, 5), (3, 6), (5, 8)]:
        # [I | R] with unit-free R, columns shuffled: every row gets a pivot
        entries = [[int(i == j) for j in range(rows)]
                   + [rng.choice((0, 2, -3, 5)) for _ in range(cols - rows)] for i in range(rows)]
        order = rng.sample(range(cols), cols)
        entries = [[row[j] for j in order] for row in entries]
        for shape in (entries, [list(col) for col in zip(*entries)]):
            snf = assert_smith(shape)
            assert snf.diagonal == (1,) * rows
            assert len(snf.operations) == 2  # no Kannan-Bachem pass on the empty block


DEGENERATE = [
    ((), ()), (((), ()), ()), (((0, 0),), (0,)), (((0,), (0,)), (0,)),
    (((1, 2, 3),), (1,)), (((1,), (2,), (3,)), (1,)),
]


@pytest.mark.parametrize("entries, diagonal", DEGENERATE)
def test_unit_phase_on_degenerate_shapes(entries, diagonal):
    m = IntMatrix(entries)
    snf = smith_normal_form(m)
    assert snf.diagonal == diagonal
    assert snf.shape == (m.nrows, m.ncols)
    assert_certificate(m, snf)


def test_forged_unit_phase_factor_raises():
    m = IntMatrix.from_rows(pm1_presentation(random.Random(17), 17, 0.1))
    snf = smith_normal_form(m)
    (side, steps), *rest = snf.operations
    k = next(k for k, step in enumerate(steps) if step[0] == "sub")
    _, i, j, f = steps[k]
    steps = steps[:k] + (("sub", i, j, f + 1),) + steps[k + 1:]
    with pytest.raises(CertificateError, match="differs from D"):
        homology._check_certificate(m, SmithForm(snf.diagonal, ((side, steps), *rest), snf.shape))


def test_snf_performance_64x64():
    rng = random.Random(7)
    m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(64)] for _ in range(64)])
    start = time.monotonic()
    snf = smith_normal_form(m)
    assert time.monotonic() - start < 1.0
    # size reduction keeps the certificates small
    bits = max(abs(x).bit_length() for c in (snf.left, snf.right) for row in c.entries for x in row)
    assert bits <= 1000


def test_snf_singular_presentation_regression():
    # a split 0-framed unknot (row and column 0 zero) beside a dense
    # symmetric 29 x 29 block: a singular presentation
    draw = random.Random(2)
    n = 30
    entries = [[0] * n for _ in range(n)]
    for i in range(1, n):
        entries[i][i] = draw.choice((-1, 1)) + draw.randint(-5, -1)
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw.randint(-3, 3)
    start = time.monotonic()
    diagonal = smith_normal_form(IntMatrix.from_rows(entries)).diagonal
    assert time.monotonic() - start < 1.0
    assert diagonal == _reference_smith(entries)[0]
    block = IntMatrix.from_rows([row[1:] for row in entries[1:]])
    block_diagonal = smith_normal_form(block).diagonal
    assert 0 not in block_diagonal
    assert diagonal == block_diagonal + (0,)
    assert prod(block_diagonal) == abs(det(block)) > 1


def test_corrupt_certificate_raises(monkeypatch):
    corrupt_certificates(monkeypatch)
    with pytest.raises(CertificateError):
        smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))


def forged(entries, diagonal, *groups, shape=None):
    """A SmithForm of the matrix entries with a hand-written log."""
    m = IntMatrix.from_rows(entries)
    return m, SmithForm(diagonal, groups, shape or (m.nrows, m.ncols))


# one forged log per clause of the check; each forged sub and gcd step would
# otherwise replay to its (wrong) diagonal
FORGED = [
    pytest.param(*forged([[1, 0], [0, 1]], (1, 1), shape=(2, 1)), "wrong shape",
                 id="wrong shape"),
    pytest.param(*forged([[1, 2], [3, 4]], (1, 2)), "differs from D", id="differs from D"),
    pytest.param(*forged([[-1]], (-1,)), "negative", id="negative"),
    pytest.param(*forged([[2, 0], [0, 3]], (2, 3)), "divisibility chain", id="divisibility chain"),
    pytest.param(*forged([[0, 0], [0, 1]], (0, 1)), "divisibility chain", id="zeros last"),
    pytest.param(*forged([[2]], (4,), (0, (("sub", 0, 0, -1),))), "not unimodular",
                 id="sub on one row"),
    pytest.param(*forged([[2, 0], [0, 2]], (2, 4), (0, (("sub", 1, -1, -1),))),
                 "not unimodular", id="sub out of range"),
    # rational shears that multiply to diag(1/2, 2)
    pytest.param(*forged([[2, 0], [0, 2]], (1, 4), (0, (("sub", 0, 1, 1), ("sub", 1, 0, -1),
                                                        ("sub", 0, 1, 0.5), ("sub", 1, 0, 2),
                                                        ("sub", 0, 1, -0.5)))),
                 "not unimodular", id="sub not integral"),
    pytest.param(*forged([[2, 0], [0, 2]], (2, 4), (0, (("gcd", 0, 1, 1, 0, 2, 0),))),
                 "not unimodular", id="gcd not unimodular"),
    pytest.param(*forged([[2, 0], [0, 2]], (2, 4), (1, (("gcd", 1, 1, 1, 0, 1, -1),))),
                 "not unimodular", id="gcd on one column"),
    pytest.param(*forged([[2, 0], [0, 4]], (1, 8), (0, (("gcd", 0, 1, 0.5, 0, 2, 0),))),
                 "not unimodular", id="gcd not integral"),
    pytest.param(*forged([[0, 0], [0, 1]], (1, 0), (0, (("perm", (1, 1)),))),
                 "not unimodular", id="perm repeats a row"),
    pytest.param(*forged([[0, 1], [1, 0]], (1, 1), (0, (("swap", 0, 1),))), "not unimodular",
                 id="unknown operation"),
    pytest.param(*forged([[0, 1], [1, 0]], (1, 1), (2, (("perm", (1, 0)),))), "neither 0 nor 1",
                 id="unknown side"),
    pytest.param(*forged([[0, 1], [1, 0]], (1, 1), (0, (("sub", 0, 1),))), "malformed",
                 id="malformed step"),
]


@pytest.mark.parametrize("m, form, reason", FORGED)
def test_certificate_check_rejects(m, form, reason):
    with pytest.raises(CertificateError, match=reason):
        homology._check_certificate(m, form)


# --- the nonzero-only row updates against the full-width reference ------------

def _smith_outcome(m):
    """The Smith form of m with its log replayed on both sides, on each side
    alone, and into U and V."""
    form = smith_normal_form(m)
    replays = [homology._replay(m, form.operations, sides) for sides in ((0, 1), (0,), (1,))]
    return form, replays, form.left, form.right


def _assert_matches_full_width(matrices, monkeypatch):
    new = [_smith_outcome(m) for m in matrices]
    with monkeypatch.context() as patch:
        reference.patch_full_width(patch)
        old = [_smith_outcome(m) for m in matrices]
    for m, (form, *rest), (old_form, *old_rest) in zip(matrices, new, old):
        assert form == old_form, m  # the same diagonal and log, step for step
        assert rest == old_rest


@pytest.mark.parametrize("n", [10, 17, 24, 31, 40, 47, 66])
@pytest.mark.parametrize("density", [0.1, 1.0])
def test_row_updates_match_full_width_reference_on_pm1_presentations(n, density, monkeypatch):
    entries = pm1_presentation(random.Random(n), n, density)
    _assert_matches_full_width([IntMatrix.from_rows(entries)], monkeypatch)


def test_row_updates_match_full_width_reference_on_sparse_and_degenerate(monkeypatch):
    matrices = [IntMatrix.from_rows(entries) for entries in snf_inputs(random.Random(3), 80, 12)]
    matrices += [IntMatrix(entries) for entries, _ in DEGENERATE]
    _assert_matches_full_width(matrices, monkeypatch)


def _check_message(m, form):
    with pytest.raises(CertificateError) as info:
        homology._check_certificate(m, form)
    return str(info.value)


@pytest.mark.parametrize("m, form, reason", FORGED)
def test_forged_logs_fail_alike_under_full_width_reference(m, form, reason, monkeypatch):
    new = _check_message(m, form)
    reference.patch_full_width(monkeypatch)
    assert _check_message(m, form) == new


def test_certificate_check_accepts_a_valid_forged_log():
    # rows swapped, then column 1 cleared by column 0 and negated
    m, form = forged([[0, -3], [1, 2]], (1, 3), (0, (("perm", (1, 0)),)),
                     (1, (("sub", 1, 0, 2), ("neg", 1))))
    homology._check_certificate(m, form)
    product = reference.matmul(reference.matmul(form.left, m), form.right)
    assert product == IntMatrix.from_rows([[1, 0], [0, 3]])


def test_corrupt_certificate_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        import pytest
        from conftest import corrupt_certificates
        from crsdiag.errors import CertificateError
        from crsdiag.homology import IntMatrix, smith_normal_form

        corrupt_certificates(pytest.MonkeyPatch())
        try:
            smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        except CertificateError:
            print("raised", sys.flags.optimize)
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised 1\n"


@pytest.mark.parametrize("build", [
    lambda: IntMatrix(((1.5, 0), (0, 2.9))),
    lambda: IntMatrix.from_rows([[2.5]]),
    lambda: IntMatrix(((float("nan"),),)),
    lambda: IntMatrix((("7",),)),
], ids=["float", "float relation", "nan", "string"])
def test_int_matrix_refuses_non_integer_entries(build):
    with pytest.raises(InvalidParameter, match="must hold integers"):
        build()


def test_int_matrix_reads_other_integer_types():
    assert IntMatrix(((True, 2),)).entries == ((1, 2),)


def test_int_matrix_refuses_non_integer_entries_under_optimize():
    script = textwrap.dedent("""
        import sys
        from crsdiag.errors import InvalidParameter
        from crsdiag.homology import IntMatrix

        for build in (lambda: IntMatrix(((1.5, 0), (0, 2.9))),
                      lambda: IntMatrix.from_rows([[2.5]]),
                      lambda: IntMatrix(((float("nan"),),)),
                      lambda: IntMatrix((("7",),))):
            try:
                build()
            except InvalidParameter:
                print("raised", sys.flags.optimize)
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised 1\n" * 4


def test_h1_class_invariants():
    with pytest.raises(InvalidParameter):
        H1Class(0, (3, 2))  # not a divisibility chain
    assert str(H1Class(1, (3,))) == "Z + Z/3"


H1_NON_INTEGER = [((0, (2.5,)), "float torsion"), ((0, ("7",)), "string torsion"),
                  ((1.5, ()), "float rank"), (("1", ()), "string rank")]


@pytest.mark.parametrize("args", [args for args, _ in H1_NON_INTEGER],
                         ids=[name for _, name in H1_NON_INTEGER])
def test_h1_class_refuses_non_integers(args):
    with pytest.raises(InvalidParameter, match="must be integers"):
        H1Class(*args)


def test_h1_class_reads_other_integer_types():
    group = H1Class(True, (True + 2,))
    assert (group.free_rank, group.torsion) == (1, (3,))
    assert type(group.free_rank) is int and str(group) == "Z + Z/3"


def test_h1_class_refuses_non_integers_under_optimize():
    script = textwrap.dedent("""
        import sys
        from crsdiag.errors import InvalidParameter
        from crsdiag.homology import H1Class

        for args in ((0, (2.5,)), (0, ("7",)), (1.5, ()), ("1", ())):
            try:
                H1Class(*args)
            except InvalidParameter:
                print("raised", sys.flags.optimize)
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised 1\n" * 4


def contact(components, linking, coefficients):
    return ContactSurgeryDiagram(
        components=tuple(components),
        linking=LinkingData(linking),
        coefficients=coefficients,
    )


def test_h1_dehn_single_unknot_plus_one():
    d = contact([LegendrianComponent("K", -1)], [], {"K": SlopeQ.of(1)})
    assert h1_dehn(d) == H1Class.free(1)


def test_h1_dehn_hopf_minus_one():
    d = contact(
        [LegendrianComponent("A", -1), LegendrianComponent("B", -1)],
        [("A", "B", 1)],
        {"A": SlopeQ.of(-1), "B": SlopeQ.of(-1)},
    )
    assert h1_dehn(d) == H1Class(0, (3,))


def test_h1_dehn_empty_and_trivial_surgery():
    assert h1_dehn(contact([], [], {})) == H1Class.trivial()
    d = contact([LegendrianComponent("K", -3)], [], {"K": SlopeQ.infinity()})
    assert h1_dehn(d) == H1Class.trivial()


def test_h1_dehn_drops_trivially_surgered_components():
    # an infinite coefficient is a trivial surgery: the component and all its
    # linking disappear from the presentation
    full = contact(
        [LegendrianComponent("A", -1), LegendrianComponent("B", -1)],
        [("A", "B", 5)],
        {"A": SlopeQ.of(-1), "B": SlopeQ.infinity()},
    )
    alone = contact([LegendrianComponent("A", -1)], [], {"A": SlopeQ.of(-1)})
    assert h1_dehn(full) == h1_dehn(alone) == H1Class(0, (2,))


def test_h1_round1_hopf_zero_coefficients():
    result = h1_round1(-1, -1, 1, 0, 0)
    assert result == H1Class.free(2)
    assert result != H1Class.free(3)


def test_h1_round1_shift_invariance(rng):
    for _ in range(100):
        tb1, tb2 = rng.randint(-5, 5), rng.randint(-5, 5)
        lk = rng.randint(-4, 4)
        n1, n2 = rng.randint(-6, 6), rng.randint(-6, 6)
        base = h1_round1(tb1, tb2, lk, n1, n2)
        for k in range(-6, 7):
            assert h1_round1(tb1, tb2, lk, n1 + k, n2 + k) == base


def test_h1_round1_hopf_depends_only_on_difference():
    for d in range(-6, 7):
        reference = h1_round1(0, 0, 1, d, 0)
        for shift in (-3, 1, 4):
            assert h1_round1(0, 0, 1, d + shift, shift) == reference


def test_h1_round1_hopf_never_three_torus():
    z3 = H1Class.free(3)
    for diff in range(-10, 11):
        assert h1_round1(0, 0, 1, diff, 0) != z3


def test_h1_round1_unlink():
    result = h1_round1(0, 0, 0, 0, 0)
    assert result.free_rank >= 1


def test_h1_round1_column_sign_flip_invariance(rng):
    for _ in range(50):
        tb1, tb2 = rng.randint(-4, 4), rng.randint(-4, 4)
        lk = rng.randint(-3, 3)
        n1, n2 = rng.randint(-5, 5), rng.randint(-5, 5)
        big1, big2 = n1 + tb1, n2 + tb2
        relations = [
            (1, 0, -1, 0),
            (big1, lk, 0, -1),
            (0, 1, -1, 0),
            (lk, big2, 0, -1),
        ]
        flipped = [tuple(-x for x in relation) for relation in relations]
        mirrored = reference_pairs.h1_of_rows(flipped, 4).plus_free(1)
        assert mirrored == h1_round1(tb1, tb2, lk, n1, n2)


def test_h1_round2_fixtures():
    assert h1_round2(-1, SlopeQ.of(1)) == (H1Class.free(1), H1Class.trivial())
    assert h1_round2(-1, SlopeQ.of(5, 2)) == (H1Class(0, (3,)), H1Class(0, (2,)))


def test_h1_round2_topological_zero_framing():
    for tb in range(-5, 6):
        c = SlopeQ.of(-tb)  # contact coefficient -tb is topological 0
        assert h1_round2(tb, c) == (H1Class.free(1), H1Class.trivial())


def test_h1_round2_outer_matches_dehn(rng):
    for _ in range(100):
        tb = rng.randint(-5, 5)
        c = SlopeQ.of(rng.randint(-9, 9), rng.randint(1, 9))
        outer, _inner = h1_round2(tb, c)
        d = contact([LegendrianComponent("K", tb)], [], {"K": c})
        assert outer == h1_dehn(d)


def nice_hopf_pair(k):
    return RoundSurgeryDiagram(
        components=(LegendrianComponent("A", -1), LegendrianComponent("B", -1)),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), k, k, TightLayerSpec.invariant(), SlopeQ.of(-1)),),
    )


def test_h1_round_diagram_nice_pair_k_independent():
    for k in range(-4, 5):
        assert h1_round_diagram(nice_hopf_pair(k)) == [H1Class(0, (3,))]


def test_h1_round_diagram_reads_a_single_joint_pair_as_its_pm1_diagram():
    # one joint pair on two components is not a standalone round 1-surgery
    for tb_a, tb_b, lk, k, sign in ((-1, -1, 1, 0, -1), (-2, -1, 3, 1, 1), (-1, -3, 0, 2, -1),
                                    (-4, -2, -2, 0, 1)):
        rd = RoundSurgeryDiagram(
            components=(LegendrianComponent("A", tb_a), LegendrianComponent("B", tb_b)),
            linking=LinkingData([("A", "B", lk)]),
            round1=(Round1Spec(("A", "B"), k, k, TightLayerSpec.invariant(), SlopeQ.of(sign)),),
        )
        assert h1_round_diagram(rd) == [h1_dehn(joint_pairs_to_pm1(rd))]
        assert h1_round_diagram(rd) != [h1_round1(tb_a, tb_b, lk, k, k)]


def test_h1_round_diagram_single_round2():
    d = RoundSurgeryDiagram(
        components=(LegendrianComponent("K", -1),),
        linking=LinkingData([]),
        round2=(Round2Spec("K", SlopeQ.of(1)),),
    )
    assert h1_round_diagram(d) == [H1Class.free(1), H1Class.trivial()]


def test_h1_round_diagram_single_round1():
    d = RoundSurgeryDiagram(
        components=(LegendrianComponent("A", -1), LegendrianComponent("B", -1)),
        linking=LinkingData([("A", "B", 1)]),
        round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),),
    )
    assert h1_round_diagram(d) == [H1Class.free(2)]


def test_h1_round_diagram_standalone_round1_beside_an_unsurgered_component():
    # C carries no surgery, so it is filled trivially however it links A and B
    for linking in ([("A", "B", 1)], [("A", "B", 1), ("A", "C", 2), ("B", "C", -3)]):
        d = RoundSurgeryDiagram(
            components=(
                LegendrianComponent("A", -1),
                LegendrianComponent("B", -1),
                LegendrianComponent("C", -1),
            ),
            linking=LinkingData(linking),
            round1=(Round1Spec(("A", "B"), 0, 0, TightLayerSpec.invariant()),),
        )
        assert h1_round_diagram(d) == [H1Class.free(2)]


def test_h1_round_diagram_rejects_mixtures():
    # a mixture is refused only for a joint pair that is not nice or an
    # infinite round 2-coefficient; the first non-nice pair is named, counted
    # in canonical order (joint pairs first)
    from crsdiag.errors import NotNice

    def mixed(r2, layer, coeff_c):
        return RoundSurgeryDiagram(
            components=tuple(LegendrianComponent(lab, -1) for lab in "ABCDE"),
            linking=LinkingData([("A", "B", 1), ("B", "C", 2), ("D", "E", 1)]),
            round1=(Round1Spec(("A", "B"), 0, 1, TightLayerSpec.invariant(), r2),
                    Round1Spec(("D", "E"), 0, 0, layer, SlopeQ.of(-1))),
            round2=(Round2Spec("C", coeff_c),),
        )

    bent = TightLayerSpec.nonrotative(1)
    with pytest.raises(NotNice, match=r"^round1\[0\]: coefficient mismatch \(0 vs 1\)$"):
        h1_round_diagram(mixed(SlopeQ.of(1), bent, SlopeQ.of(1)))
    with pytest.raises(NotNice, match=r"^round1\[0\]: layer is not the zero-holonomy"):
        h1_round_diagram(mixed(None, bent, SlopeQ.of(1)))
    with pytest.raises(UnsupportedComposition, match="^round 2-surgery coefficient must be rational$"):
        h1_round_diagram(mixed(None, TightLayerSpec.invariant(), SlopeQ.infinity()))
    assert len(h1_round_diagram(mixed(None, TightLayerSpec.invariant(), SlopeQ.of(1)))) == 2
