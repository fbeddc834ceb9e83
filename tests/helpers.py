"""In-code builders for the three bundled geometries, and exact linear
algebra that only the tests use: among it the dense Hermite form the
sparse one in ``lagfib.intlinalg`` is checked against, and the dense
block assembly of a coboundary that the sparse rows of
``EquivariantComplex.coboundary`` are checked against.

The builders mirror the bundled .iaf files; keeping an independent
in-code copy lets the algebra tests run without the parser and gives the
parser tests something to cross-check against.
"""

from fractions import Fraction

from lagfib.complexes import EquivariantComplex
from lagfib.groupring import (
    GroupRingElement,
    Presentation,
    Representation,
    rep_eval,
)
from lagfib.intlinalg import IntMatrix, LinAlgError, RatMatrix
from lagfib.obstruction import DiagonalApproximation, PeriodAssignment


def determinant(A):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    if A.rows != A.cols:
        raise LinAlgError("determinant of a non-square matrix")
    n = A.rows
    M = [list(row) for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sparse(vector):
    """The nonzero entries of a vector as a dict {index: entry}."""
    return {i: x for i, x in enumerate(vector) if x}


def dense(vector, size):
    """A sparse vector {index: entry} as a tuple of length ``size``."""
    return tuple(vector.get(i, 0) for i in range(size))


def dense_hnf_columns(columns, dim):
    """Column Hermite form on dense lists: the reference for the sparse
    ``intlinalg.hnf_columns``.  Returns (basis as tuples, pivot rows)."""
    work = [list(c) for c in columns]
    placed = 0
    pivot_rows = []
    for row in range(dim):
        live = [j for j in range(placed, len(work)) if work[j][row] != 0]
        while len(live) > 1:
            j0 = min(live, key=lambda j: (abs(work[j][row]), j))
            for j in live:
                if j != j0:
                    q = work[j][row] // work[j0][row]
                    work[j] = [a - q * b for a, b in zip(work[j], work[j0])]
            live = [j for j in live if work[j][row] != 0]
        if not live:
            continue
        j0 = live[0]
        work[placed], work[j0] = work[j0], work[placed]
        if work[placed][row] < 0:
            work[placed] = [-x for x in work[placed]]
        pivot = work[placed][row]
        for j in range(placed):
            q = work[j][row] // pivot
            if q:
                work[j] = [a - q * b for a, b in zip(work[j], work[placed])]
        pivot_rows.append(row)
        placed += 1
    return [tuple(c) for c in work[:placed]], pivot_rows


def dense_hnf_solve(basis, pivot_rows, vector):
    """Coefficients of ``vector`` in a dense Hermite basis, None if it is
    not in the lattice: the reference for ``intlinalg.hnf_solve``."""
    coeffs = []
    residual = list(vector)
    for idx, row in enumerate(pivot_rows):
        pivot = basis[idx][row]
        if residual[row] % pivot != 0:
            return None
        q = residual[row] // pivot
        coeffs.append(q)
        if q:
            residual = [a - q * b for a, b in zip(residual, basis[idx])]
    if any(x != 0 for x in residual):
        return None
    return coeffs


def coboundary_reference(complex_, rep, k):
    """delta^k under ``rep`` as a dense IntMatrix, assembled block by
    block: the reference for ``EquivariantComplex.coboundary``.  Rows
    are blocked by (k+1)-cells and columns by k-cells; block (i, j) is
    the evaluation of the boundary entry of the i-th (k+1)-cell on the
    j-th k-cell.  Needs cells in degrees k and k + 1."""
    n = rep.dim
    start = {cell: j * n for j, cell in enumerate(complex_.cells[k])}
    rows = []
    for up in complex_.cells[k + 1]:
        block = [[0] * (n * len(start)) for _ in range(n)]
        for low, elem in complex_.boundaries[up].items():
            j = start[low]
            for row, values in zip(block, rep_eval(rep, elem).data):
                row[j:j + n] = values
        rows += block
    return IntMatrix(rows)


def dense_coboundary(complex_, rep, k):
    """The sparse rows of ``complex_.coboundary(rep, k)`` as an
    IntMatrix."""
    width = rep.dim * complex_.n_cells(k)
    return IntMatrix([dense(row, width)
                      for row in complex_.coboundary(rep, k)])


def is_unimodular(A):
    return A.rows == A.cols and determinant(A) in (1, -1)


def rat_rank(A):
    if not isinstance(A, RatMatrix):
        A = RatMatrix(A)
    m = [list(row) for row in A.data]
    rank = 0
    for c in range(A.cols):
        pr = next((i for i in range(rank, A.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for i in range(rank + 1, A.rows):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _relation(pres, lhs, rhs):
    return pres.word(lhs) * pres.word(rhs).inverse()


def _ring(pres, *terms):
    """GroupRingElement from (coeff, wordtext) pairs."""
    out = GroupRingElement.zero(pres)
    for coeff, text in terms:
        out = out + GroupRingElement.from_word(pres, pres.word(text), coeff)
    return out


def _complex(pres, boundary_spec):
    cells = (("e0",), ("e1_1", "e1_2", "e1_3"), ("e2_1", "e2_2", "e2_3"), ("e3",))
    boundaries = {}
    for cell, entries in boundary_spec.items():
        boundaries[cell] = {target: _ring(pres, *terms)
                            for target, terms in entries.items()}
    return EquivariantComplex(pres, cells, boundaries)


def torus3():
    """Flat 3-torus: trivial holonomy, cube cell structure."""
    base = Presentation(["a", "b", "c"])
    pres = Presentation(["a", "b", "c"], [
        _relation(base, "a*b", "b*a"),
        _relation(base, "a*c", "c*a"),
        _relation(base, "b*c", "c*b"),
    ])
    I = IntMatrix.identity(3)
    ell = Representation("ell", pres, [I, I, I])
    rho = Representation("rho", pres, [I, I, I])
    cx = _complex(pres, {
        "e1_1": {"e0": [(1, "a"), (-1, "1")]},
        "e1_2": {"e0": [(1, "b"), (-1, "1")]},
        "e1_3": {"e0": [(1, "c"), (-1, "1")]},
        "e2_1": {"e1_1": [(1, "1"), (-1, "b")], "e1_2": [(1, "a"), (-1, "1")]},
        "e2_2": {"e1_2": [(1, "1"), (-1, "c")], "e1_3": [(1, "b"), (-1, "1")]},
        "e2_3": {"e1_1": [(1, "c"), (-1, "1")], "e1_3": [(1, "1"), (-1, "a")]},
        "e3": {"e2_1": [(1, "c"), (-1, "1")],
               "e2_2": [(1, "a"), (-1, "1")],
               "e2_3": [(1, "b"), (-1, "1")]},
    })
    periods = PeriodAssignment(3, {
        "e1_1": (0, 1, 0),
        "e1_2": (0, 0, 1),
        "e1_3": (1, 0, 0),
    })
    diagonal = DiagonalApproximation({
        "e3": [(1, "e1_3", pres.word("1"), "e2_1", pres.word("c")),
               (1, "e1_1", pres.word("1"), "e2_2", pres.word("a")),
               (1, "e1_2", pres.word("1"), "e2_3", pres.word("b"))],
    })
    return dict(presentation=pres, ell=ell, rho=rho, complex=cx,
                periods=periods, diagonal=diagonal)


def heisenberg():
    """Heisenberg 3-manifold: nilpotent holonomy, one shear generator."""
    base = Presentation(["a", "b", "c"])
    pres = Presentation(["a", "b", "c"], [
        _relation(base, "a*b", "c*b*a"),
        _relation(base, "a*c", "c*a"),
        _relation(base, "b*c", "c*b"),
    ])
    I = IntMatrix.identity(3)
    ell = Representation("ell", pres, [
        IntMatrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]), I, I])
    rho = Representation("rho", pres, [
        IntMatrix([[1, 0, -1], [0, 1, 0], [0, 0, 1]]), I, I])
    cx = _complex(pres, {
        "e1_1": {"e0": [(1, "a"), (-1, "1")]},
        "e1_2": {"e0": [(1, "b"), (-1, "1")]},
        "e1_3": {"e0": [(1, "c"), (-1, "1")]},
        "e2_1": {"e1_1": [(1, "1"), (-1, "c*b")],
                 "e1_2": [(1, "a"), (-1, "c")],
                 "e1_3": [(-1, "1")]},
        "e2_2": {"e1_2": [(1, "1"), (-1, "c")],
                 "e1_3": [(-1, "1"), (1, "b")]},
        "e2_3": {"e1_1": [(1, "1"), (-1, "c")],
                 "e1_3": [(1, "a"), (-1, "1")]},
        "e3": {"e2_1": [(1, "c"), (-1, "1")],
               "e2_2": [(1, "a"), (-1, "c")],
               "e2_3": [(1, "1"), (-1, "c*b")]},
    })
    periods = PeriodAssignment(3, {
        "e1_1": (0, 1, 0),
        "e1_2": (1, 0, 0),
        "e1_3": (0, 0, 1),
    })
    diagonal = DiagonalApproximation({
        "e3": [(1, "e1_1", pres.word("1"), "e2_2", pres.word("a")),
               (1, "e1_3", pres.word("1"), "e2_3", pres.word("c*b"))],
    })
    return dict(presentation=pres, ell=ell, rho=rho, complex=cx,
                periods=periods, diagonal=diagonal)


def mapping_torus():
    """Mapping torus of the hyperelliptic involution of T^2."""
    base = Presentation(["a", "b", "c"])
    pres = Presentation(["a", "b", "c"], [
        _relation(base, "b*c", "c*b"),
        _relation(base, "a", "b*a*b"),
        _relation(base, "a", "c*a*c"),
    ])
    I = IntMatrix.identity(3)
    flip = IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    ell = Representation("ell", pres, [flip, I, I])
    rho = Representation("rho", pres, [flip, I, I])
    cx = _complex(pres, {
        "e1_1": {"e0": [(1, "a*b*c"), (-1, "1")]},
        "e1_2": {"e0": [(1, "b"), (-1, "1")]},
        "e1_3": {"e0": [(1, "c"), (-1, "1")]},
        "e2_1": {"e1_1": [(1, "1"), (-1, "b")],
                 "e1_2": [(-1, "1"), (-1, "a*c")]},
        "e2_2": {"e1_2": [(1, "1"), (-1, "c")],
                 "e1_3": [(-1, "1"), (1, "b")]},
        "e2_3": {"e1_1": [(1, "1"), (-1, "c")],
                 "e1_3": [(-1, "1"), (-1, "a*b")]},
        "e3": {"e2_1": [(1, "1"), (-1, "c")],
               "e2_2": [(-1, "1"), (1, "a")],
               "e2_3": [(1, "1"), (-1, "b")]},
    })
    periods = PeriodAssignment(3, {
        "e1_1": (-1, Fraction(1, 2), -1),
        "e1_2": (0, 0, 1),
        "e1_3": (1, 0, 0),
    })
    diagonal = DiagonalApproximation({
        "e3": [(1, "e1_3", pres.word("1"), "e2_1", pres.word("1")),
               (1, "e1_1", pres.word("1"), "e2_2", pres.word("1")),
               (1, "e1_1", pres.word("1"), "e2_2", pres.word("a")),
               (1, "e1_2", pres.word("1"), "e2_3", pres.word("1"))],
    })
    return dict(presentation=pres, ell=ell, rho=rho, complex=cx,
                periods=periods, diagonal=diagonal)


ALL_EXAMPLES = {"t3": torus3, "heisenberg": heisenberg,
                "mapping_torus": mapping_torus}
