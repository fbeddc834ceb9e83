"""Exact integer and rational linear algebra.

Everything here runs over Z or Q with arbitrary precision: integer
matrices hold Python ints, rational ones hold ``fractions.Fraction``
(which normalises to positive denominator and lowest terms), and all
decompositions are driven by unimodular row/column operations.  No
floating point appears anywhere.

Main entry points:

* ``snf`` -- Smith normal form S = U*A*V with U, V unimodular and the
  diagonal divisibility chain; pivoting is deterministic (smallest
  absolute nonzero entry, ties broken by row then column index), so
  identical inputs give identical transforms.
* ``hnf_columns`` / ``hnf_solve`` -- canonical column Hermite form of a
  lattice basis, and coordinates of a lattice member in it.
* ``kernel_hnf`` / ``int_kernel`` -- Hermite basis of the saturated
  kernel lattice.
* ``quotient_invariants`` / ``cokernel_invariants`` -- invariant factors
  of Z^n / span(vectors) and of Z^rows / col-span(A).
* ``int_solve`` -- one integer solution of A x = b, deterministic.
* ``kernel_with_torsion`` -- kernel of a map from Z^f (+) sum_i Z/m_i
  into a rational vector space.

The lattice routines work on sparse integer vectors: dicts {index:
nonzero entry}.  A matrix is handed to them as its sparse rows, the form
in which coboundaries are assembled; ``transpose`` gives its columns,
and ``_dot`` and ``_times`` multiply a sparse row by a vector and by a
matrix of sparse rows.  ``int_kernel`` and ``cokernel_invariants`` take
an ``IntMatrix`` and return dense answers.

Kernels and quotients build no transform.  They first reduce the
vectors by sparse row elimination on +-1 pivots, the
unit-pivot-first strategy of Dumas, Saunders and Villard ("On efficient
sparse integer matrix Smith normal form computations", 2001): rows are
dicts of their nonzero entries, and each step takes the +-1 entry of
least Markowitz cost (r - 1)(c - 1), r and c the nonzero counts of its
row and column, ties broken by row then column index.  A unit pivot
adds an invariant factor 1 and fixes its column's coordinate of a
kernel vector through the others, so kernels come from back-substitution
through the pivot rows.  Only the remainder that has no +-1 entry goes
through ``snf``; coboundaries of cell complexes usually leave none.
Both answers are canonical whatever the elimination order: invariant
factors are unique, and kernel bases are put in Hermite form.
"""

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class LinAlgError(Exception):
    """Malformed input to an exact linear algebra routine."""


class TorsionObstructionError(LinAlgError):
    """A map claimed to land in a torsion-free group is nonzero on torsion."""


def _check_grid(data, what):
    if not data or not data[0]:
        raise LinAlgError("%s must have at least one row and one column" % what)
    width = len(data[0])
    for row in data:
        if len(row) != width:
            raise LinAlgError("ragged %s: expected %d columns, got %d"
                              % (what, width, len(row)))


class _Matrix:
    """Immutable row-major matrix; a subclass fixes the entry type."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(map(self.entry, row)) for row in data)
        _check_grid(data, self.kind)
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0])

    @classmethod
    def from_columns(cls, columns):
        if not columns:
            raise LinAlgError("from_columns needs at least one column")
        return cls([[col[i] for col in columns] for i in range(len(columns[0]))])

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def apply(self, vector):
        """Matrix times column vector; works for int or Fraction entries."""
        if len(vector) != self.cols:
            raise LinAlgError("vector length %d does not match %d columns"
                              % (len(vector), self.cols))
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.data)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return type(other) is type(self) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(map(list, self.data)))


class IntMatrix(_Matrix):
    """Immutable integer matrix, row-major, arbitrary precision entries."""

    __slots__ = ()
    entry = int
    kind = "integer matrix"

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    def transpose(self):
        return IntMatrix(list(zip(*self.data)))

    def sparse_rows(self):
        """Each row as a dict {column: entry} of its nonzero entries."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]

    def to_rational(self):
        return RatMatrix(self.data)

    def is_identity(self):
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise LinAlgError("dimension mismatch in product: %dx%d times %dx%d"
                                  % (self.rows, self.cols, other.rows, other.cols))
            ot = list(zip(*other.data))
            return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in ot]
                              for row in self.data])
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, IntMatrix):
            if (self.rows, self.cols) != (other.rows, other.cols):
                raise LinAlgError("dimension mismatch in sum")
            return IntMatrix([[a + b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.data, other.data)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, IntMatrix):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return IntMatrix([[-x for x in row] for row in self.data])

    def scaled(self, c):
        c = int(c)
        return IntMatrix([[c * x for x in row] for row in self.data])


class RatMatrix(_Matrix):
    """Immutable matrix over Q; entries are normalised Fractions."""

    __slots__ = ()
    entry = Fraction
    kind = "rational matrix"


class SnfResult:
    """Smith decomposition S = U * A * V with U, V unimodular."""

    __slots__ = ("U", "S", "V")

    def __init__(self, U, S, V):
        self.U = U
        self.S = S
        self.V = V

    def diagonal(self):
        S = self.S
        return tuple(S.data[i][i] for i in range(min(S.rows, S.cols)))

    def invariant_factors(self):
        return tuple(d for d in self.diagonal() if d != 0)


class AbelianGroup:
    """Z^free_rank (+) Z/m_1 (+) ... with the divisibility chain m_i | m_{i+1}."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        torsion = tuple(int(m) for m in torsion)
        if free_rank < 0:
            raise LinAlgError("negative free rank")
        for m in torsion:
            if m < 2:
                raise LinAlgError("torsion orders must be >= 2, got %d" % m)
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise LinAlgError("torsion list %r is not divisibility-ordered"
                                  % (torsion,))
        self.free_rank = int(free_rank)
        self.torsion = torsion

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % m for m in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "AbelianGroup(%d, %r)" % (self.free_rank, self.torsion)


# ---------------------------------------------------------------------------
# Smith normal form


def _smallest_pivot(S, t, rows, cols):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            a = S[i][j]
            if a != 0:
                key = (abs(a), i, j)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return best[1], best[2]


def snf(A):
    """Smith normal form of an IntMatrix.

    Returns an SnfResult with S = U*A*V, S diagonal with nonnegative
    entries d_1 | d_2 | ..., and |det U| = |det V| = 1.  The pivot at
    each step is the smallest-absolute-value nonzero entry of the
    remaining block (row-then-column tie-break), which makes the output
    reproducible bit for bit.
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    rows, cols = A.rows, A.cols
    S = [list(row) for row in A.data]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, k):
        if i != k:
            S[i], S[k] = S[k], S[i]
            U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        if j != k:
            for row in S:
                row[j], row[k] = row[k], row[j]
            for row in V:
                row[j], row[k] = row[k], row[j]

    def add_row(i, k, c):
        # row_i += c * row_k
        S[i] = [a + c * b for a, b in zip(S[i], S[k])]
        U[i] = [a + c * b for a, b in zip(U[i], U[k])]

    def add_col(j, k, c):
        for row in S:
            row[j] += c * row[k]
        for row in V:
            row[j] += c * row[k]

    t = 0
    while t < rows and t < cols:
        piv = _smallest_pivot(S, t, rows, cols)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Clear row and column t; floor division leaves remainders that
        # are strictly smaller than the pivot, so re-pivoting converges.
        dirty = False
        for i in range(t + 1, rows):
            if S[i][t] != 0:
                add_row(i, t, -(S[i][t] // S[t][t]))
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if S[t][j] != 0:
                add_col(j, t, -(S[t][j] // S[t][t]))
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide the rest of the block or the divisibility
        # chain can fail; fold the first offending row in and retry.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if S[i][j] % S[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if S[i][i] < 0:
            S[i] = [-x for x in S[i]]
            U[i] = [-x for x in U[i]]
    return SnfResult(IntMatrix(U), IntMatrix(S), IntMatrix(V))


def int_inverse(A):
    """Exact inverse of a unimodular integer matrix, None otherwise."""
    if A.rows != A.cols:
        return None
    res = snf(A)
    if any(d != 1 for d in res.diagonal()):
        return None
    # S = U A V = I  =>  A^{-1} = V U
    return res.V * res.U


# ---------------------------------------------------------------------------
# Sparse unit-pivot elimination


def _unit_eliminate(vectors):
    """Row-reduce the matrix with the given sparse rows on +-1 pivots,
    least Markowitz cost first.

    ``vectors`` are dicts {column: entry}; they are not modified.
    Returns ``(pivots, rest)``.  ``pivots`` lists, in elimination order,
    ``(j, u, others)``: the pivot column j, the pivot entry u = +-1 and
    the rest of the pivot row as it stood when chosen, as a dict
    {column: entry}.  That row meets no earlier pivot column.  ``rest``
    holds the other nonzero rows, in row order, as dicts; they are zero
    on every pivot column and have no +-1 entry.  Row operations alone
    are used, so A x = 0 exactly when ``u x_j + others . x = 0`` for every
    pivot and ``row . x = 0`` for every row of ``rest``.
    """
    rows = {}
    col_rows = {}
    for i, vector in enumerate(vectors):
        sparse = {j: a for j, a in vector.items() if a}
        if sparse:
            rows[i] = sparse
            for j in sparse:
                col_rows.setdefault(j, set()).add(i)
    # A heap of (cost, row, column) over the +-1 entries.  An entry is
    # pushed again whenever its row or column count changes, so every
    # live entry has an item with its current cost; stale items are
    # skipped when popped.
    heap = [((len(row) - 1) * (len(col_rows[j]) - 1), i, j)
            for i, row in rows.items() for j, a in row.items()
            if a == 1 or a == -1]
    heapify(heap)
    pivots = []
    while heap:
        cost, i, j = heappop(heap)
        row = rows.get(i)
        if (row is None or row.get(j) not in (1, -1)
                or cost != (len(row) - 1) * (len(col_rows[j]) - 1)):
            continue
        others = rows.pop(i)
        u = others.pop(j)
        to_clear = col_rows.pop(j)
        to_clear.discard(i)
        for l in others:
            col_rows[l].discard(i)
        for k in to_clear:
            row = rows[k]
            f = row.pop(j) * u
            for l, b in others.items():
                v = row.get(l, 0) - f * b
                if v:
                    if l not in row:
                        col_rows[l].add(k)
                    row[l] = v
                else:
                    del row[l]
                    col_rows[l].discard(k)
            if not row:
                del rows[k]
        pivots.append((j, u, others))
        # Row counts changed on the cleared rows, column counts on the
        # pivot row's columns.
        for k in to_clear:
            row = rows.get(k, {})
            r = len(row) - 1
            for l, a in row.items():
                if a == 1 or a == -1:
                    heappush(heap, (r * (len(col_rows[l]) - 1), k, l))
        for l in others:
            c = len(col_rows[l]) - 1
            for k in col_rows[l]:
                a = rows[k][l]
                if a == 1 or a == -1:
                    heappush(heap, ((len(rows[k]) - 1) * c, k, l))
    return pivots, list(rows.values())


def _dense(sparse_rows):
    """The columns sparse rows touch, and the rows as an IntMatrix on them."""
    cols = sorted({j for row in sparse_rows for j in row})
    return cols, IntMatrix([[row.get(j, 0) for j in cols]
                            for row in sparse_rows])


# ---------------------------------------------------------------------------
# Sparse vectors


def transpose(rows, width):
    """The columns {row: entry} of the matrix with the given sparse rows
    and ``width`` columns."""
    columns = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def _dot(row, vector):
    """A sparse row times a vector."""
    return sum(x * vector[j] for j, x in row.items())


def _times(row, rows):
    """A sparse row times the matrix given by its sparse rows."""
    total = {}
    for i, c in row.items():
        for j, x in rows[i].items():
            total[j] = total.get(j, 0) + c * x
    return {j: x for j, x in total.items() if x}


def _add_multiple(target, q, source):
    """target += q * source on sparse vectors, in place; q != 0."""
    for r, b in source.items():
        v = target.get(r, 0) + q * b
        if v:
            target[r] = v
        else:
            del target[r]


# ---------------------------------------------------------------------------
# Hermite form and kernels


def hnf_columns(columns):
    """Canonical column Hermite form of a lattice basis.

    ``columns`` are sparse integer vectors, dicts {row: entry}, spanning
    a lattice; they are not modified.  Returns ``(basis, pivot_rows)``
    where ``basis`` is the canonical list of sparse columns: pivot rows
    strictly increase, each pivot entry is positive and is the first
    nonzero entry of its column, and the entries of earlier columns in
    every pivot row are reduced into [0, pivot).  Zero columns are
    dropped.

    Columns are grouped by their first nonzero row, and a row only
    reduces the columns that start there: Euclid's algorithm on their
    entries leaves one, the pivot, and moves the others to the group of
    their new first row.  The entries above the pivots are reduced once
    all pivots are known.
    """
    groups = {}
    heap = []

    def place(col):
        row = min(col)
        if row not in groups:
            groups[row] = []
            heappush(heap, row)
        groups[row].append(col)

    for col in columns:
        col = {r: a for r, a in col.items() if a}
        if col:
            place(col)
    basis, pivot_rows = [], []
    while heap:
        row = heappop(heap)
        live = groups.pop(row)
        while len(live) > 1:
            pivot = min(live, key=lambda col: abs(col[row]))
            remaining = [pivot]
            for col in live:
                if col is not pivot:
                    _add_multiple(col, -(col[row] // pivot[row]), pivot)
                    if row in col:
                        remaining.append(col)
                    elif col:
                        place(col)
            live = remaining
        col = live[0]
        if col[row] < 0:
            for r in col:
                col[r] = -col[r]
        basis.append(col)
        pivot_rows.append(row)
    # Reduce each column's entries in later pivot rows, smallest row
    # first: a pivot column is zero above its pivot row, so reducing one
    # row leaves the smaller ones alone.  The reduced representative of a
    # column modulo the later columns is unique, so the order in which
    # columns are treated does not matter.
    index = {row: i for i, row in enumerate(pivot_rows)}
    for i, col in enumerate(basis):
        todo = [r for r in col if index.get(r, -1) > i]
        heapify(todo)
        while todo:
            row = heappop(todo)
            pivot = basis[index[row]]
            q = col.get(row, 0) // pivot[row]
            if q:
                new = [r for r in pivot if r not in col]
                _add_multiple(col, -q, pivot)
                for r in new:
                    if index.get(r, -1) > i:
                        heappush(todo, r)
    return basis, pivot_rows


def hnf_solve(basis, pivot_rows, vector):
    """Express a sparse ``vector`` in an HNF column basis.

    Returns the coefficients as a dict {basis index: nonzero int}, or
    None when ``vector`` is not in the lattice.  Only the pivot rows
    where the residual is nonzero are visited: the residual's first
    nonzero row must be a pivot row, else the vector is not a member.
    """
    residual = {r: a for r, a in vector.items() if a}
    coeffs = {}
    while residual:
        row = min(residual)
        i = bisect_left(pivot_rows, row)
        if i == len(pivot_rows) or pivot_rows[i] != row:
            return None
        q, remainder = divmod(residual[row], basis[i][row])
        if remainder:
            return None
        coeffs[i] = q
        _add_multiple(residual, -q, basis[i])
    return coeffs


def kernel_hnf(rows, width):
    """Hermite basis of the saturated lattice {x in Z^width : r . x = 0}.

    ``rows`` are the sparse rows {column: entry} of the matrix.  Returns
    ``(basis, pivot_rows)`` in the form of ``hnf_columns``; the lattice is
    a direct summand of Z^width, and the empty basis means it is zero.
    The kernel is found by back-substitution through the unit pivots of
    ``_unit_eliminate``; only the remainder without a +-1 entry goes
    through ``snf``.
    """
    pivots, rest = _unit_eliminate(rows)
    # The kernel of the remainder on the non-pivot columns: the Smith
    # kernel columns on the columns it touches, a unit vector on each
    # other one.
    fixed = {j for j, _, _ in pivots}
    seeds = []
    if rest:
        cols, R = _dense(rest)
        res = snf(R)
        diag = res.diagonal()
        fixed.update(cols)
        seeds = [{cols[r]: v for r, v in enumerate(res.V.column(i)) if v}
                 for i in range(R.cols) if i >= len(diag) or diag[i] == 0]
    seeds += [{j: 1} for j in range(width) if j not in fixed]
    # Back-substitute, latest pivot first: a pivot row fixes its
    # column's coordinate from later pivot and non-pivot columns, and
    # u = +-1 is its own inverse, so the lift is integral and the kernel
    # lattice stays saturated.  ``values`` maps a column to the nonzero
    # coordinates {seed index: value} of the lifted seeds there.
    values = {}
    for s, seed in enumerate(seeds):
        for l, a in seed.items():
            values.setdefault(l, {})[s] = a
    for j, u, others in reversed(pivots):
        acc = {}
        for l, a in others.items():
            c = u * a
            for s, b in values.get(l, {}).items():
                acc[s] = acc.get(s, 0) - c * b
        values[j] = {s: v for s, v in acc.items() if v}
    vectors = [{} for _ in seeds]
    for l, coords in values.items():
        for s, a in coords.items():
            vectors[s][l] = a
    return hnf_columns(vectors)


def int_kernel(A):
    """HNF-reduced basis of the saturated lattice {x in Z^cols : A x = 0}.

    The returned list of integer vectors spans the full kernel lattice,
    which is automatically a direct summand of Z^cols; the empty list
    means the kernel is trivial.  This is ``kernel_hnf`` with dense
    vectors.
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    basis, _ = kernel_hnf(A.sparse_rows(), A.cols)
    dense = []
    for col in basis:
        vector = [0] * A.cols
        for r, a in col.items():
            vector[r] = a
        dense.append(tuple(vector))
    return dense


def quotient_invariants(vectors, dim):
    """Invariant-factor description of Z^dim / span(vectors), for sparse
    vectors {coordinate: entry}."""
    pivots, rest = _unit_eliminate(vectors)
    factors = snf(_dense(rest)[1]).invariant_factors() if rest else ()
    return AbelianGroup(dim - len(pivots) - len(factors),
                        tuple(d for d in factors if d >= 2))


def cokernel_invariants(A):
    """Invariant-factor description of Z^rows / column-span(A)."""
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    return quotient_invariants(transpose(A.sparse_rows(), A.cols), A.rows)


def int_solve(A, b):
    """One integer solution of A x = b, or None when none exists.

    Deterministic: the solution derives from the Smith transform of A
    with all free coordinates set to zero.
    """
    if not isinstance(A, IntMatrix):
        A = IntMatrix(A)
    if len(b) != A.rows:
        raise LinAlgError("right-hand side length %d does not match %d rows"
                          % (len(b), A.rows))
    res = snf(A)
    c = res.U.apply([int(x) for x in b])
    diag = res.diagonal()
    y = [0] * A.cols
    for i in range(A.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < A.cols:
                y[i] = c[i] // d
    return res.V.apply(y)


# ---------------------------------------------------------------------------
# Rational inputs


def common_denominator(vectors):
    """(L, integer vectors): L the least common denominator of the
    rational entries, and every vector multiplied by it."""
    L = lcm(*(x.denominator for vec in vectors for x in vec))
    return L, [tuple(x.numerator * (L // x.denominator) for x in vec)
               for vec in vectors]


def clear_denominators(A):
    """Integer matrix with the same kernel as the rational input A."""
    scaled_rows = []
    for row in A.data:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
        scaled_rows.append([int(x * lcm) for x in row])
    return IntMatrix(scaled_rows)


class KernelWithTorsion:
    """Kernel of a map Z^f (+) sum Z/m_i -> Q^k whose torsion columns vanish."""

    __slots__ = ("group", "generators", "free_count", "moduli")

    def __init__(self, group, generators, free_count, moduli):
        self.group = group
        self.generators = generators
        self.free_count = free_count
        self.moduli = moduli


def kernel_with_torsion(A, moduli):
    """Kernel of A on Z^f (+) (+)_i Z/m_i, f = A.cols - len(moduli).

    The last ``len(moduli)`` columns of A correspond to the torsion
    generators and must be identically zero (a homomorphism into a
    rational vector space kills torsion); a nonzero torsion column
    raises TorsionObstructionError.  Returns a KernelWithTorsion whose
    generators are coordinate vectors: an HNF-reduced basis of the free
    kernel, then one unit vector per torsion summand.
    """
    if not isinstance(A, RatMatrix):
        A = RatMatrix(A)
    moduli = tuple(int(m) for m in moduli)
    f = A.cols - len(moduli)
    if f < 0:
        raise LinAlgError("more torsion moduli than columns")
    for t, j in enumerate(range(f, A.cols)):
        if any(row[j] != 0 for row in A.data):
            raise TorsionObstructionError(
                "column %d maps the order-%d torsion generator to a nonzero "
                "element of a torsion-free group; obstruction data is "
                "inconsistent" % (j, moduli[t]))
    if f == 0:
        free_basis = []
    else:
        free_block = RatMatrix([row[:f] for row in A.data])
        free_basis = int_kernel(clear_denominators(free_block))
    generators = [tuple(v) + (0,) * len(moduli) for v in free_basis]
    for t in range(len(moduli)):
        unit = [0] * A.cols
        unit[f + t] = 1
        generators.append(tuple(unit))
    group = AbelianGroup(len(free_basis), moduli)
    return KernelWithTorsion(group, generators, len(free_basis), moduli)
