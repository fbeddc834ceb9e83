"""Exact integer linear algebra.

Everything here runs over Z with arbitrary precision Python ints, and
all decompositions are driven by unimodular row/column operations.  No
floating point appears anywhere.  A rational is an integer numerator
over a positive denominator that its caller keeps, and
``rational_text`` writes one as text.

Main entry points:

* ``snf`` -- Smith normal form S = U*A*V with U, V unimodular and the
  diagonal divisibility chain, and the inverse of U; pivoting is
  deterministic (smallest absolute nonzero entry, ties broken by row
  then column index), so identical inputs give identical transforms.
* ``hnf_columns`` / ``hermite_reduce`` -- canonical column Hermite
  form of a lattice basis, and the unique reduced representative of a
  vector modulo it, with the multiples taken off: a member reduces to
  zero, and the multiples are its coordinates.
* ``unit_echelon`` / ``echelon_lift`` -- row reduction on +-1 pivots
  taken from the last column to the first, and back-substitution of
  kernel vectors through its pivot rows.  When every column is free or a
  pivot, the free columns are the Hermite pivot rows of the kernel, and
  a kernel vector is lifted from its entries there.
* ``kernel_hnf`` -- Hermite basis of the saturated kernel lattice.

The lattice routines work on sparse integer vectors: dicts {index:
nonzero entry}.  A matrix is handed to them as its sparse rows, the form
in which coboundaries are assembled; ``transpose`` gives its columns,
and ``_dot`` and ``_times`` multiply a sparse row by a sparse vector and
by a matrix of sparse rows.  ``IntMatrix`` is the dense form of the small
matrices: representation values, and the input and transforms of the
Smith form.

Kernels build no transform.  They come from one sparse row elimination
on +-1 pivots, ``unit_echelon``, which takes the columns from right to
left: rows are dicts of their nonzero entries, and a column with entries
but no +-1 among them is skipped.  A unit pivot fixes its column's
coordinate of a kernel vector through the others, so kernels come from
back-substitution through the pivot rows; only the remainder that the
elimination leaves on the skipped columns goes through ``snf``, and
coboundaries of cell complexes usually leave none.  Kernel bases are put
in Hermite form, so they are canonical whatever the elimination order.
"""

from heapq import heapify, heappop, heappush
from math import gcd
from operator import index, mul


class LinAlgError(Exception):
    """Malformed input to an exact linear algebra routine."""


def _integer(x, error, what):
    """``x`` as an int through ``operator.index``, which refuses a float and
    a Fraction, even an integral one: then ``error`` names the value."""
    try:
        return index(x)
    except TypeError:
        raise error("%s must be an integer, got %r" % (what, x)) from None


class IntMatrix:
    """Immutable integer matrix, row-major, arbitrary precision entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        try:
            data = tuple(tuple(map(index, row)) for row in data)
        except TypeError:
            raise LinAlgError("integer matrix entries must be integers, "
                              "got %r" % (data,)) from None
        if not data or not data[0]:
            raise LinAlgError("integer matrix must have at least one row and "
                              "one column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise LinAlgError("ragged integer matrix: expected %d columns, "
                                  "got %d" % (width, len(row)))
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def _unchecked(cls, data):
        """The matrix over ``data``, a nonempty tuple of equal-length
        tuples of ints, taken as it is: for results computed from
        matrices, and rows a reader has checked, which need neither the
        copy nor the checks."""
        matrix = object.__new__(cls)
        matrix.data = data
        matrix.rows = len(data)
        matrix.cols = len(data[0])
        return matrix

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self):
        return IntMatrix(list(zip(*self.data)))

    def is_identity(self):
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise LinAlgError("dimension mismatch in product: %dx%d times %dx%d"
                                  % (self.rows, self.cols, other.rows, other.cols))
            ot = tuple(zip(*other.data))
            return IntMatrix._unchecked(tuple(
                tuple(sum(map(mul, row, col)) for col in ot)
                for row in self.data))
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "IntMatrix(%r)" % list(map(list, self.data))


class SnfResult:
    """Smith decomposition S = U * A * V with U, V unimodular, and the
    inverse ``U_inv`` of U."""

    __slots__ = ("U", "S", "V", "U_inv")

    def __init__(self, U, S, V, U_inv):
        self.U = U
        self.S = S
        self.V = V
        self.U_inv = U_inv

    def diagonal(self):
        S = self.S
        return tuple(S.data[i][i] for i in range(min(S.rows, S.cols)))


class AbelianGroup:
    """Z^free_rank (+) Z/m_1 (+) ... with the divisibility chain m_i | m_{i+1}."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        free_rank = _integer(free_rank, LinAlgError, "free rank")
        torsion = tuple(_integer(m, LinAlgError, "torsion order")
                        for m in torsion)
        if free_rank < 0:
            raise LinAlgError("negative free rank")
        for m in torsion:
            if m < 2:
                raise LinAlgError("torsion orders must be >= 2, got %d" % m)
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise LinAlgError("torsion list %r is not divisibility-ordered"
                                  % (torsion,))
        self.free_rank = free_rank
        self.torsion = torsion

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
    entries d_1 | d_2 | ..., and |det U| = |det V| = 1; each row
    operation on U is undone by a column operation on its inverse,
    which is kept alongside.  The pivot at
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
    W = [row[:] for row in U]  # U^-1

    def swap_rows(i, k):
        if i != k:
            S[i], S[k] = S[k], S[i]
            U[i], U[k] = U[k], U[i]
            for row in W:
                row[i], row[k] = row[k], row[i]

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
        for row in W:
            row[k] -= c * row[i]

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
            for row in W:
                row[i] = -row[i]
    return SnfResult(*(IntMatrix._unchecked(tuple(map(tuple, M)))
                       for M in (U, S, V, W)))


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


def _sparse_rows(vectors):
    """``(rows, col_rows)`` for elimination: ``rows`` maps the index of
    each nonzero vector to a copy of its nonzero entries, and
    ``col_rows`` maps each column to the set of rows with an entry
    there."""
    rows = {}
    col_rows = {}
    for i, vector in enumerate(vectors):
        sparse = {j: a for j, a in vector.items() if a}
        if sparse:
            rows[i] = sparse
            for j in sparse:
                col_rows.setdefault(j, set()).add(i)
    return rows, col_rows


def _pivot_on(rows, col_rows, i, j, to_clear):
    """Take row i, whose entry in column j is +-1, out of ``rows`` and
    clear column j from ``to_clear``, the other rows with an entry there
    (already taken out of ``col_rows``).  ``col_rows`` keeps following
    the rows left, and a row that becomes zero is dropped.  Returns
    ``(u, others)``: the pivot entry and the rest of the pivot row."""
    others = rows.pop(i)
    u = others.pop(j)
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
    return u, others


def unit_echelon(rows, width):
    """Row-reduce the matrix with the given sparse rows on +-1 pivots,
    taking its ``width`` columns from right to left.

    ``rows`` are dicts {column: entry}; they are not modified.  Column j
    gets a pivot when a row not yet chosen has an entry +-1 there: the
    shortest such row, ties broken by row index, is chosen and cleared
    from the other rows.  A column where no row left has an entry is
    free, and one whose entries left include no +-1 is skipped: it is
    neither free nor a pivot.  Returns ``(free, pivots, rest)``.
    ``free`` lists the free columns in increasing order; ``pivots``
    lists, in elimination order, ``(j, u, others)``: the pivot column j,
    the pivot entry u = +-1 and the rest of the pivot row as it stood
    when chosen, a dict over the columns before j and the skipped
    columns after it.  ``rest`` holds the rows never chosen that are not
    zero, in row order, as dicts over the skipped columns.  Row
    operations alone are used, so A x = 0 exactly when ``u x_j + others
    . x = 0`` for every pivot and ``row . x = 0`` for every row of
    ``rest``; ``kernel_hnf`` reads its kernel from them.  When every
    column is free or a pivot, a column is free exactly when it lies in
    the span of the columns to its right: the free columns are the pivot
    rows of ``kernel_hnf``, and ``echelon_lift`` gives its basis.
    """
    live, col_rows = _sparse_rows(rows)
    free, pivots = [], []
    for j in reversed(range(width)):
        to_clear = col_rows.get(j)
        if not to_clear:
            free.append(j)
            continue
        units = [i for i in to_clear if live[i][j] in (1, -1)]
        if not units:
            continue
        del col_rows[j]
        i = min(units, key=lambda i: (len(live[i]), i))
        u, others = _pivot_on(live, col_rows, i, j, to_clear)
        pivots.append((j, u, others))
    free.reverse()
    return free, pivots, list(live.values())


def echelon_lift(pivots, seeds):
    """The vectors that satisfy the pivot rows of an ``unit_echelon``
    reduction and take given values off the pivot columns.

    ``seeds`` are sparse vectors {column: value} on the columns without
    a pivot.  A pivot row fixes its column's coordinate from the columns
    it reads: earlier ones, and skipped ones after it, which only the
    seed sets.  u = +-1 is its own inverse, so one pass over the pivots
    in increasing column order lifts every seed to a unique integer
    vector.  It lies in the kernel when the seed is a kernel vector of
    the remainder ``rest``, as always when no column is skipped; the
    lift of the unit vector at a free column f is then the
    ``kernel_hnf`` column with pivot row f: 1 at f, and nonzero
    elsewhere only at pivot columns after f.
    """
    # ``values`` maps a column to the nonzero coordinates {seed index:
    # value} of the lifted seeds there.
    values = {}
    for s, seed in enumerate(seeds):
        for l, a in seed.items():
            if a:
                values.setdefault(l, {})[s] = a
    for j, u, others in reversed(pivots):
        acc = {}
        for l, a in others.items():
            got = values.get(l)
            if got:
                c = u * a
                for s, b in got.items():
                    acc[s] = acc.get(s, 0) - c * b
        acc = {s: v for s, v in acc.items() if v}
        if acc:
            values[j] = acc
    vectors = [{} for _ in seeds]
    for l, coords in values.items():
        for s, a in coords.items():
            vectors[s][l] = a
    return vectors


# ---------------------------------------------------------------------------
# Sparse vectors


def _dense(vector, positions):
    """A sparse vector {index: entry} read at ``positions`` (a range, or
    the sorted indices a matrix keeps), as a tuple."""
    return tuple(vector.get(i, 0) for i in positions)


def transpose(rows, width):
    """The columns {row: entry} of the matrix with the given sparse rows
    and ``width`` columns."""
    columns = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return columns


def _dot(row, vector):
    """A sparse row times a sparse vector."""
    return sum(x * vector.get(j, 0) for j, x in row.items())


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
    # Reduce each column's entries in later pivot rows.  The reduced
    # representative of a column modulo the later columns is unique, so
    # the order in which columns are treated does not change the result.
    # The last column is treated first: a column is then reduced by
    # columns that are reduced already, which brings in fewer entries in
    # later pivot rows (none when every pivot is 1).
    index = {row: i for i, row in enumerate(pivot_rows)}
    for i in reversed(range(len(basis))):
        hermite_reduce(basis[i], basis, index, i + 1)
    return basis, pivot_rows


def hermite_reduce(vector, basis, index, first=0):
    """Reduce a sparse ``vector`` in place modulo the Hermite columns
    ``basis[first:]``, so that its entry in each of their pivot rows lies
    in [0, pivot).

    ``index`` maps each pivot row to its column in ``basis``.  The pivot
    rows are taken smallest first, and only those where the vector has
    an entry: a Hermite column is zero above its pivot row, so reducing
    one row leaves the smaller ones alone, and the reduced representative
    is unique.  Returns the multiples taken off, {column: q} with q != 0.
    With ``first=0`` the vector lies in the lattice exactly when it
    reduces to zero, and then it is the sum of q times column.
    """
    todo = [r for r in vector if index.get(r, -1) >= first]
    heapify(todo)
    taken = {}
    while todo:
        row = heappop(todo)
        i = index[row]
        pivot = basis[i]
        q = vector.get(row, 0) // pivot[row]
        if q:
            new = [r for r in pivot if r not in vector]
            _add_multiple(vector, -q, pivot)
            taken[i] = q
            for r in new:
                if index.get(r, -1) >= first:
                    heappush(todo, r)
    return taken


def kernel_hnf(rows, width, echelon=None):
    """Hermite basis of the saturated lattice {x in Z^width : r . x = 0}.

    ``rows`` are the sparse rows {column: entry} of the matrix.  Returns
    ``(basis, pivot_rows)`` in the form of ``hnf_columns``; the lattice is
    a direct summand of Z^width, and the empty basis means it is zero.
    The rows are reduced by ``unit_echelon``, unless the caller passes
    that reduction as ``echelon``.  On the columns without a
    pivot the kernel is spanned by the Smith kernel of the remainder on
    the columns it touches and a unit vector on each other one;
    ``echelon_lift`` extends those over the pivot columns, integrally
    since every pivot is +-1, so the lattice stays saturated.
    """
    _, pivots, rest = echelon or unit_echelon(rows, width)
    fixed = {j for j, _, _ in pivots}
    seeds = []
    if rest:
        cols = sorted(set().union(*rest))
        R = IntMatrix([_dense(row, cols) for row in rest])
        res = snf(R)
        diag = res.diagonal()
        fixed.update(cols)
        seeds = [{cols[r]: v for r, v in enumerate(res.V.column(i)) if v}
                 for i in range(R.cols) if i >= len(diag) or diag[i] == 0]
    seeds += [{j: 1} for j in range(width) if j not in fixed]
    return hnf_columns(echelon_lift(pivots, seeds))


# ---------------------------------------------------------------------------
# Rationals as text


def rational_text(numerator, denominator, as_repr=False):
    """numerator/denominator, ``denominator`` > 0, in lowest terms as
    text: "p/q", or "p" when it is an integer; with ``as_repr``, as
    ``repr`` writes the equal Fraction, "Fraction(p, q)" with q = 1
    included."""
    g = gcd(numerator, denominator)
    p, q = numerator // g, denominator // g
    if as_repr:
        return "Fraction(%d, %d)" % (p, q)
    return "%d/%d" % (p, q) if q != 1 else "%d" % p
