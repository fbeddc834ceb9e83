import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

from lagfib.intlinalg import (
    AbelianGroup,
    IntMatrix,
    LinAlgError,
    RatMatrix,
    TorsionObstructionError,
    clear_denominators,
    cokernel_invariants,
    hnf_columns,
    hnf_solve,
    int_inverse,
    int_kernel,
    int_solve,
    kernel_with_torsion,
    snf,
)

from helpers import (
    dense,
    dense_hnf_columns,
    dense_hnf_solve,
    determinant,
    is_unimodular,
    rat_rank,
    sparse,
)


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
    A = IntMatrix.zeros(2, 3)
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


def test_int_kernel_row_of_ones():
    A = IntMatrix([[1, 1, 1]])
    basis = int_kernel(A)
    assert len(basis) == 2
    for v in basis:
        assert A.apply(v) == (0,)
    factors = snf(IntMatrix.from_columns(basis)).invariant_factors()
    assert all(d == 1 for d in factors)


def test_int_kernel_trivial_and_full():
    assert int_kernel(IntMatrix.identity(3)) == []
    basis = int_kernel(IntMatrix.zeros(1, 2))
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_int_kernel_saturated_random():
    rng = random.Random(7)
    for _ in range(200):
        A = _random_matrix(rng, max_dim=5, max_entry=6)
        basis = int_kernel(A)
        for v in basis:
            assert all(x == 0 for x in A.apply(v))
        if basis:
            factors = snf(IntMatrix.from_columns(basis)).invariant_factors()
            assert all(d == 1 for d in factors)
        # kernel rank matches rational nullity
        assert len(basis) == A.cols - rat_rank(A.to_rational())


def test_hnf_columns_canonical():
    basis, pivots = hnf_columns([{0: 2, 1: 1}, {}, {0: 4, 2: 1}])
    assert pivots == [0, 1]
    # pivot entries positive, echelon structure
    assert basis == [{0: 2, 1: 1}, {1: 2, 2: -1}]
    coeffs = hnf_solve(basis, pivots, {0: 2, 1: 1})
    assert coeffs == {0: 1}
    assert hnf_solve(basis, pivots, {0: 1}) is None


def test_hnf_lattice_membership_random():
    rng = random.Random(99)
    for _ in range(100):
        vecs = [sparse(tuple(rng.randint(-4, 4) for _ in range(4)))
                for _ in range(3)]
        basis, pivots = hnf_columns(vecs)
        for v in vecs:
            assert hnf_solve(basis, pivots, v) is not None


# The dense Hermite form of tests/helpers.py is the reference: the
# sparse one must give the same canonical basis, and hnf_solve must
# recover a member from its coefficients and refuse a non-member.


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
        coeffs = hnf_solve(basis, pivots, sparse(member))
        assert coeffs is not None
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
        assert (hnf_solve(basis, pivots, sparse(unit)) is not None) == inside


# ---------------------------------------------------------------------------
# cokernel invariants


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix([[2, 0], [0, 0]])) == AbelianGroup(1, (2,))
    assert cokernel_invariants(IntMatrix.identity(4)) == AbelianGroup(0)
    assert cokernel_invariants(IntMatrix([[2, 4], [6, 8]])) == AbelianGroup(0, (2, 4))


def test_cokernel_against_minor_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)])
        free, torsion = oracle_invariants(A)
        got = cokernel_invariants(A)
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
    IntMatrix.zeros(3, 2),
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
    assert cokernel_invariants(A) == AbelianGroup(
        A.rows - len(factors), [d for d in factors if d >= 2])


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@_with_examples
def test_int_kernel_against_sympy(A):
    basis = int_kernel(A)
    for v in basis:
        assert all(x == 0 for x in A.apply(v))
    assert len(basis) == A.cols - Matrix(A.data).rank()
    if basis:
        # saturated: Z^cols / span(basis) is free
        assert set(sympy_invariant_factors(
            IntMatrix.from_columns(basis))) == {1}


# ---------------------------------------------------------------------------
# integer solving


def test_int_solve_roundtrip():
    rng = random.Random(31)
    for _ in range(150):
        A = _random_matrix(rng, max_dim=4, max_entry=5)
        x = [rng.randint(-3, 3) for _ in range(A.cols)]
        b = A.apply(x)
        y = int_solve(A, b)
        assert y is not None
        assert A.apply(y) == b


def test_int_solve_unsolvable():
    assert int_solve(IntMatrix([[2]]), [1]) is None
    assert int_solve(IntMatrix([[0]]), [1]) is None


def test_int_inverse():
    A = IntMatrix([[1, 2], [0, 1]])
    B = int_inverse(A)
    assert B is not None and A * B == IntMatrix.identity(2)
    assert int_inverse(IntMatrix([[2, 0], [0, 1]])) is None


# ---------------------------------------------------------------------------
# kernel_with_torsion


def test_kernel_with_torsion_free_only():
    res = kernel_with_torsion(RatMatrix([[1, 1, 1]]), ())
    assert res.group == AbelianGroup(2)
    for g in res.generators:
        assert sum(g) == 0


def test_kernel_with_torsion_zero_map():
    res = kernel_with_torsion(RatMatrix([[0, 0, 0]]), (2,))
    assert res.group == AbelianGroup(2, (2,))
    assert len(res.generators) == 3


def test_kernel_with_torsion_mixed():
    res = kernel_with_torsion(RatMatrix([[1, 1, 1, 0]]), (2,))
    assert res.group == AbelianGroup(2, (2,))
    assert res.generators[-1] == (0, 0, 0, 1)
    for g in res.generators[:-1]:
        assert g[0] + g[1] + g[2] == 0


def test_kernel_with_torsion_rejects_nonzero_torsion_column():
    with pytest.raises(TorsionObstructionError):
        kernel_with_torsion(RatMatrix([[1, 1, 1, Fraction(1, 2)]]), (2,))


def test_clear_denominators_preserves_kernel():
    A = RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)]])
    B = clear_denominators(A)
    assert rat_rank(A) == rat_rank(B.to_rational())


def test_shape_errors():
    with pytest.raises(LinAlgError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(LinAlgError):
        AbelianGroup(1, (4, 2))
