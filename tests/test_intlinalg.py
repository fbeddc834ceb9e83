import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from lagfib.complexes import Quotient
from lagfib.intlinalg import (
    AbelianGroup,
    IntMatrix,
    LinAlgError,
    hermite_reduce,
    hnf_columns,
    int_inverse,
    kernel_hnf,
    echelon_lift,
    rational_text,
    snf,
    unit_echelon,
)

from helpers import (
    NOT_INTEGERS,
    apply,
    dense,
    dense_hnf_columns,
    dense_hnf_solve,
    determinant,
    format_rational,
    is_unimodular,
    rat_rank,
    sparse,
)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_int_matrix_refuses_non_integers(value):
    with pytest.raises(LinAlgError, match=re.escape(repr(value))):
        IntMatrix([[1, 0], [value, 1]])
    assert IntMatrix([[True, 0], [0, 1]]) == IntMatrix.identity(2)


@pytest.mark.parametrize("value", NOT_INTEGERS + [2.5])
def test_abelian_group_refuses_non_integers(value):
    with pytest.raises(LinAlgError, match=re.escape(repr(value))):
        AbelianGroup(1, [value])
    with pytest.raises(LinAlgError, match=re.escape(repr(value))):
        AbelianGroup(value)


# ---------------------------------------------------------------------------
# independent oracle: invariant factors from determinantal divisors.
# d_1 * ... * d_k equals the gcd of all k x k minors, computed here by
# cofactor expansion over explicit index subsets -- no Smith reduction.


def _minor_det(A, rows, cols):
    if len(rows) == 1:
        return A.data[rows[0]][cols[0]]
    total = 0
    for idx, c in enumerate(cols):
        sub = _minor_det(A, rows[1:], cols[:idx] + cols[idx + 1:])
        term = A.data[rows[0]][c] * sub
        total += -term if idx % 2 else term
    return total


def _gcd_list(values):
    g = 0
    for v in values:
        a, b = abs(g), abs(v)
        while b:
            a, b = b, a % b
        g = a
    return g


def oracle_invariants(A):
    """Free rank and torsion of Z^rows / col-span(A) via minors."""
    divisors = [1]
    k = 1
    while k <= min(A.rows, A.cols):
        minors = [_minor_det(A, r, c)
                  for r in combinations(range(A.rows), k)
                  for c in combinations(range(A.cols), k)]
        g = _gcd_list(minors)
        if g == 0:
            break
        divisors.append(g)
        k += 1
    rank = len(divisors) - 1
    factors = [divisors[i + 1] // divisors[i] for i in range(rank)]
    return A.rows - rank, [d for d in factors if d >= 2]


# ---------------------------------------------------------------------------
# snf


def test_snf_identity():
    I = IntMatrix.identity(3)
    res = snf(I)
    assert res.S == I and res.U == I and res.V == I


def test_snf_worked_example():
    A = IntMatrix([[2, 4], [6, 8]])
    res = snf(A)
    assert res.S == IntMatrix([[2, 0], [0, 4]])
    assert res.U * A * res.V == res.S
    assert is_unimodular(res.U) and is_unimodular(res.V)
    # gcd and determinant preservation
    assert abs(determinant(A)) == 2 * 4


def test_snf_zero_matrix():
    A = IntMatrix([[0] * 3] * 2)
    res = snf(A)
    assert res.S == A
    assert is_unimodular(res.U) and is_unimodular(res.V)


def test_snf_deterministic():
    A = IntMatrix([[3, 1, -2], [0, 5, 4], [7, -1, 2]])
    r1, r2 = snf(A), snf(A)
    assert (r1.U, r1.S, r1.V) == (r2.U, r2.S, r2.V)


def _random_matrix(rng, max_dim=6, max_entry=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-max_entry, max_entry) for _ in range(cols)]
                      for _ in range(rows)])


def test_snf_properties_random():
    rng = random.Random(20240)
    for _ in range(400):
        A = _random_matrix(rng)
        res = snf(A)
        assert res.U * A * res.V == res.S
        assert is_unimodular(res.U)
        assert is_unimodular(res.V)
        assert res.U * res.U_inv == IntMatrix.identity(A.rows)
        diag = res.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d != 0]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        # off-diagonal entries vanish
        for i in range(res.S.rows):
            for j in range(res.S.cols):
                if i != j:
                    assert res.S.data[i][j] == 0


# ---------------------------------------------------------------------------
# kernels and Hermite form


def _kernel(A):
    """The ``kernel_hnf`` basis of an IntMatrix's kernel, as tuples."""
    basis, _ = kernel_hnf([sparse(row) for row in A.data], A.cols)
    return [dense(col, A.cols) for col in basis]


def test_int_kernel_row_of_ones():
    basis, pivots = kernel_hnf([{0: 1, 1: 1, 2: 1}], 3)
    assert (basis, pivots) == ([{0: 1, 2: -1}, {1: 1, 2: -1}], [0, 1])
    vectors = [dense(col, 3) for col in basis]
    diagonal = snf(IntMatrix(list(zip(*vectors)))).diagonal()
    assert all(d == 1 for d in diagonal if d)


def test_int_kernel_trivial_and_full():
    assert kernel_hnf([{0: 1}, {1: 1}, {2: 1}], 3) == ([], [])
    assert kernel_hnf([{}], 2) == ([{0: 1}, {1: 1}], [0, 1])
    assert kernel_hnf([], 2) == ([{0: 1}, {1: 1}], [0, 1])


def test_int_kernel_saturated_random():
    rng = random.Random(7)
    for _ in range(200):
        A = _random_matrix(rng, max_dim=5, max_entry=6)
        basis = _kernel(A)
        for v in basis:
            assert all(x == 0 for x in apply(A, v))
        if basis:
            diagonal = snf(IntMatrix(list(zip(*basis)))).diagonal()
            assert all(d == 1 for d in diagonal if d)
        # kernel rank matches rational nullity
        assert len(basis) == A.cols - rat_rank(A.data)


def test_hnf_columns_canonical():
    basis, pivots = hnf_columns([{0: 2, 1: 1}, {}, {0: 4, 2: 1}])
    assert pivots == [0, 1]
    # pivot entries positive, echelon structure
    assert basis == [{0: 2, 1: 1}, {1: 2, 2: -1}]
    index = {p: i for i, p in enumerate(pivots)}
    member = {0: 2, 1: 1}
    assert hermite_reduce(member, basis, index) == {0: 1}
    assert member == {}
    outside = {0: 1}
    assert hermite_reduce(outside, basis, index) == {}
    assert outside == {0: 1}


def _reduce(vector, basis, pivots):
    """(multiples, remainder) of ``hermite_reduce`` on a copy of a
    sparse vector, modulo the whole Hermite basis."""
    rest = dict(vector)
    taken = hermite_reduce(rest, basis, {p: i for i, p in enumerate(pivots)})
    return taken, rest


def test_hnf_lattice_membership_random():
    rng = random.Random(99)
    for _ in range(100):
        vecs = [sparse(tuple(rng.randint(-4, 4) for _ in range(4)))
                for _ in range(3)]
        basis, pivots = hnf_columns(vecs)
        for v in vecs:
            assert _reduce(v, basis, pivots)[1] == {}


# The dense Hermite form of tests/helpers.py is the reference: the
# sparse one must give the same canonical basis, and hermite_reduce must
# reduce a member to zero with its coefficients and leave a remainder on
# a non-member.


@st.composite
def lattice_bases(draw):
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    vector = st.lists(entry, min_size=dim, max_size=dim)
    columns = draw(st.lists(vector, max_size=6))
    if columns and draw(st.booleans()):
        # a dependent column: an integer combination of the others
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(columns),
                                max_size=len(columns)))
        columns.append([sum(w * col[i] for w, col in zip(weights, columns))
                        for i in range(dim)])
    return dim, columns


@settings(max_examples=200, deadline=None)
@given(lattice_bases(), st.data())
@example((3, [[2, 1, 0], [0, 0, 0], [4, 0, 1]]), None)
@example((2, [[4, 6], [6, 9], [0, 0]]), None)
def test_sparse_hnf_against_dense_reference(case, data):
    dim, columns = case
    basis, pivots = hnf_columns([sparse(col) for col in columns])
    ref_basis, ref_pivots = dense_hnf_columns(columns, dim)
    assert pivots == ref_pivots
    assert [dense(col, dim) for col in basis] == ref_basis
    # members: every input column and an integer combination of them
    members = [list(col) for col in columns]
    if columns and data is not None:
        weights = data.draw(st.lists(st.integers(-4, 4),
                                     min_size=len(columns),
                                     max_size=len(columns)))
        members.append([sum(w * col[i] for w, col in zip(weights, columns))
                        for i in range(dim)])
    for member in members:
        coeffs, rest = _reduce(sparse(member), basis, pivots)
        assert rest == {}
        assert all(coeffs.values())
        assert dense(coeffs, len(basis)) == tuple(
            dense_hnf_solve(ref_basis, ref_pivots, member))
        rebuilt = [sum(c * basis[i].get(r, 0) for i, c in coeffs.items())
                   for r in range(dim)]
        assert rebuilt == member
    # non-members: a unit vector outside the lattice, or a member plus a
    # vector that is not in it
    for r in range(dim):
        unit = [1 if i == r else 0 for i in range(dim)]
        inside = dense_hnf_solve(ref_basis, ref_pivots, unit) is not None
        assert (_reduce(sparse(unit), basis, pivots)[1] == {}) == inside


@settings(max_examples=200, deadline=None)
@given(lattice_bases(), st.data())
@example((2, [[4, 6], [6, 9], [0, 0]]), None)
@example((3, [[2, 1, 0], [0, 3, 5]]), None)
def test_hermite_reduce_against_dense_reference(case, data):
    # against the dense reference on any vector v: a member reduces to
    # zero with the reference's coefficients, a non-member leaves a
    # remainder, v and v plus a member reduce to the same vector, and
    # every pivot-row entry ends in [0, pivot)
    dim, columns = case
    basis, pivots = hnf_columns([sparse(col) for col in columns])
    ref_basis, ref_pivots = dense_hnf_columns(columns, dim)
    entry = st.integers(-9, 9)
    if data is None:
        vector, weights = [1] * dim, [1] * len(columns)
    else:
        vector = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        weights = data.draw(st.lists(entry, min_size=len(columns),
                                     max_size=len(columns)))
    shift = [sum(w * col[i] for w, col in zip(weights, columns))
             for i in range(dim)]
    coeffs, rest = _reduce(sparse(vector), basis, pivots)
    expected = dense_hnf_solve(ref_basis, ref_pivots, vector)
    if expected is None:
        assert rest != {}
    else:
        assert rest == {}
        assert dense(coeffs, len(basis)) == tuple(expected)
    assert all(coeffs.values())
    rebuilt = [rest.get(r, 0) + sum(c * basis[i].get(r, 0)
                                    for i, c in coeffs.items())
               for r in range(dim)]
    assert rebuilt == vector
    assert all(0 <= rest.get(p, 0) < col[p] for col, p in zip(basis, pivots))
    shifted = [a + b for a, b in zip(vector, shift)]
    assert _reduce(sparse(shifted), basis, pivots)[1] == rest


# ``unit_echelon`` against ``kernel_hnf``: whenever the right-to-left
# elimination skips no column, its free columns are the Hermite pivot
# rows and its lifts the Hermite columns.


@st.composite
def unit_heavy_rows(draw):
    width = draw(st.integers(1, 12))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=8))
    return width, [sparse(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(unit_heavy_rows(), st.lists(st.integers(-3, 3), max_size=12))
@example((3, [{0: 1, 1: -1, 2: 2}]), [])
@example((4, [{0: 1, 1: 1, 2: 1, 3: 1}, {1: 1, 3: -1}]), [2, -1])
def test_unit_echelon_against_kernel_hnf(case, weights):
    width, rows = case
    free, pivots, rest = unit_echelon(rows, width)
    if len(free) + len(pivots) < width:
        return
    assert rest == []
    basis, kernel_pivots = kernel_hnf(rows, width)
    assert free == kernel_pivots
    assert echelon_lift(pivots, [{f: 1} for f in free]) == basis
    # a lift is linear in its seed
    seed = {f: w for f, w in zip(free, weights) if w}
    combined = {}
    for f, w in seed.items():
        for r, x in basis[free.index(f)].items():
            combined[r] = combined.get(r, 0) + w * x
    assert echelon_lift(pivots, [seed]) == [
        {r: x for r, x in combined.items() if x}]


def test_unit_echelon_without_a_unit_pivot():
    # delta^1 = [1, -1, 2] of the non-unit kernel pivots complex in
    # tests/test_complexes.py: the last column holds only the entry 2, so
    # it is skipped, and the pivot row to its left reads it
    row = {0: 1, 1: -1, 2: 2}
    assert unit_echelon([row], 3) == ([0], [(1, -1, {0: 1, 2: 2})], [])
    assert kernel_hnf([row], 3) == ([{0: 1, 1: 1}, {1: 2, 2: 1}], [0, 1])
    # a zero column is free; a unit column to its left still pivots
    assert unit_echelon([{0: 1}], 2) == ([1], [(0, 1, {})], [])
    # a skipped column with no remainder and no free column: the lift
    # must reach the pivot to the left of the seed
    assert unit_echelon([{0: 1, 1: 2}], 2) == ([], [(0, 1, {1: 2})], [])
    assert kernel_hnf([{0: 1, 1: 2}], 2) == ([{0: 2, 1: -1}], [0])
    # a remainder that goes through the Smith form
    assert unit_echelon([{0: 2, 1: 4}], 2) == ([], [], [{0: 2, 1: 4}])
    assert kernel_hnf([{0: 2, 1: 4}], 2) == ([{0: 2, 1: -1}], [0])


# ``kernel_hnf`` against a reference that does not eliminate on unit
# pivots: the kernel columns of the Smith transform V (diagonal entry 0)
# span the saturated kernel, and the dense Hermite form of
# tests/helpers.py puts them in canonical form.  Entries 2 and 3 make
# the elimination skip columns.


def _smith_kernel(rows, width):
    res = snf(IntMatrix([dense(row, width) for row in rows or [{}]]))
    diag = res.diagonal()
    columns = [res.V.column(i) for i in range(width)
               if i >= len(diag) or diag[i] == 0]
    return dense_hnf_columns(columns, width)


@st.composite
def skipping_rows(draw):
    width = draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=6))
    return width, [sparse(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(skipping_rows())
@example((2, [{0: 1, 1: 2}]))
@example((3, [{0: 1, 1: -1, 2: 2}]))
@example((3, [{0: 2, 1: 3, 2: 2}, {0: 3, 2: -2}]))
def test_kernel_hnf_against_the_smith_kernel(case):
    width, rows = case
    basis, pivots = kernel_hnf(rows, width)
    ref_basis, ref_pivots = _smith_kernel(rows, width)
    assert pivots == ref_pivots
    assert [dense(col, width) for col in basis] == ref_basis


# ---------------------------------------------------------------------------
# cokernel invariants


def _cokernel(A):
    """The ``Quotient`` group of Z^rows by the columns of an IntMatrix."""
    return Quotient(*hnf_columns([sparse(col) for col in zip(*A.data)]),
                    A.rows).group


def test_cokernel_examples():
    def quotient(vectors, dim):
        return Quotient(*hnf_columns(vectors), dim).group

    assert quotient([{0: 2}, {}], 2) == AbelianGroup(1, (2,))
    assert quotient([{i: 1} for i in range(4)], 4) == AbelianGroup(0)
    assert quotient([{0: 2, 1: 6}, {0: 4, 1: 8}], 2) == \
        AbelianGroup(0, (2, 4))
    assert quotient([], 3) == AbelianGroup(3)
    # a torsion pivot whose column reaches a free row: Z^2 / (2, 1) = Z
    assert quotient([{0: 2, 1: 1}], 2) == AbelianGroup(1)
    # a unit pivot beside a torsion one
    assert quotient([{0: 1, 2: 3}, {1: 2, 2: 4}], 3) == AbelianGroup(1, (2,))


def test_cokernel_against_minor_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)])
        free, torsion = oracle_invariants(A)
        got = _cokernel(A)
        assert got.free_rank == free
        assert list(got.torsion) == torsion
        if rows == cols:
            d = determinant(A)
            if d != 0:
                # finite quotient: the coset count is |det|
                assert got.free_rank == 0
                product = 1
                for m in got.torsion:
                    product *= m
                assert product == abs(d)


# ---------------------------------------------------------------------------
# independent oracle: sympy's Smith normal form on sparse matrices with
# entries in -2..2, with and without +-1 entries


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    values = draw(st.sampled_from(((-2, -1, 1, 2), (-2, 2))))
    entry = st.one_of(st.just(0), st.sampled_from(values))
    return IntMatrix(draw(st.lists(st.lists(entry, min_size=cols,
                                            max_size=cols),
                                   min_size=rows, max_size=rows)))


def sympy_invariant_factors(A):
    S = smith_normal_form(Matrix(A.data), domain=ZZ)
    return [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))
            if S[i, i] != 0]


MATRIX_EXAMPLES = (
    IntMatrix([[2, -2, 0, 2]]),
    IntMatrix([[1], [0], [-2], [2]]),
    IntMatrix([[2, 0, 2], [0, 0, 0], [2, 0, -2]]),
    IntMatrix([[0, 1, -1], [0, 2, 1]]),
    IntMatrix([[0] * 2] * 3),
)


def _with_examples(test):
    for A in MATRIX_EXAMPLES:
        test = example(A)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@_with_examples
def test_cokernel_invariants_against_sympy(A):
    factors = sympy_invariant_factors(A)
    assert _cokernel(A) == AbelianGroup(
        A.rows - len(factors), [d for d in factors if d >= 2])


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@_with_examples
def test_int_kernel_against_sympy(A):
    basis = _kernel(A)
    for v in basis:
        assert all(x == 0 for x in apply(A, v))
    assert len(basis) == A.cols - Matrix(A.data).rank()
    if basis:
        # saturated: Z^cols / span(basis) is free
        assert set(sympy_invariant_factors(
            IntMatrix(list(zip(*basis))))) == {1}


# ---------------------------------------------------------------------------
# inverses


def test_int_inverse():
    A = IntMatrix([[1, 2], [0, 1]])
    B = int_inverse(A)
    assert B is not None and A * B == IntMatrix.identity(2)
    assert int_inverse(IntMatrix([[2, 0], [0, 1]])) is None


def test_shape_errors():
    with pytest.raises(LinAlgError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(LinAlgError):
        AbelianGroup(1, (4, 2))


# ---------------------------------------------------------------------------
# rationals as text


@settings(max_examples=300, deadline=None)
@given(p=st.integers(-10 ** 30, 10 ** 30)
       | st.integers(-40, 40), q=st.integers(1, 10 ** 30) | st.integers(1, 40))
@example(p=0, q=7)
@example(p=-6, q=3)
@example(p=-2, q=4)
@example(p=5, q=1)
def test_rational_text_is_the_fraction_text(p, q):
    # negative, zero and integral values, in lowest terms or not
    value = Fraction(p, q)
    assert rational_text(p, q) == format_rational(value) == str(value)
    assert rational_text(p, q, as_repr=True) == repr(value)
