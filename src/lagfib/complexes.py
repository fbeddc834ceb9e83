"""Equivariant cell complexes and cohomology with local coefficients.

A complex stores one basis cell per orbit in each dimension and a
boundary map whose entries are elements of the group ring Z[pi]; this
is exactly the free Z[pi]-module presentation of the chains on the
universal cover.  The boundary is held in one form, a word table: one
tuple of the distinct words it uses, the identity at id 0, and for each
cell its terms as (target index, word id, coefficient) triples.  Nothing
about attaching maps or the affine geometry is kept: the algebra below
is the whole data.

Evaluating the boundary terms under a representation rho gives the
coboundaries of the rho-twisted integer cochain complex.  A complex
assembles each one when a reader first asks for it, once per holonomy,
the tuple of rho's generator matrices, so representations with equal
matrices share it, straight into sparse integer rows {column: entry},
each word's matrix entries looked up once (``boundary_entries``, which
the checks read too) and scattered at the columns of each term's
target.  Every reader of a coboundary takes that one form: the
closedness checks multiply by the rows, kernels come from them and
images from their transpose, through the exact lattice routines.  The
double-boundary check reads no coboundary.  It forms the double boundary
once per degree in the free group ring on the generators, multiplying
word ids in a copy of the word table (``WordTable``), each pair once per
complex, where free cancellation drops every term that is 0 under all
representations, and evaluates the few terms left under each holonomy,
as their coefficient sum under a trivial one.
Free equality of words is used only there, to drop terms, never to
report a failure.  A cochain is a sparse vector over the same
columns, slot s of the i-th cell at column i * n + s (``CochainLayout``),
and is read by its entries or, only to be shown, cell by cell
(``TwistedCochain``).  Twisted H^k
(``twisted_cohomology``) reads the kernel of delta^k from one
elimination on +-1 pivots and the quotient by the image of delta^{k-1}
from one Hermite form and one Smith form (``Quotient``), and lifts only
the printed generators back to cochains.  Under a trivial holonomy of
rank n > 1 the coefficients Z^n are n copies of Z, which never mix, so
the elimination and both Hermite forms are read once under the
augmentation and copied to the n slots of each column; they are the
ones the general path finds, and H^k assembles no coboundary under rho.
Under the trivial one-dimensional representation (the augmentation) the
same machinery computes the cellular cohomology of the base, and its
free part is H^k(B;Q) (``RationalCohomology``).
"""

from math import gcd, prod
from types import MappingProxyType

from .groupring import PresentationMismatch, Representation, Word, WordTable
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    LinAlgError,
    _add_multiple,
    _dot,
    _integer,
    _times,
    echelon_lift,
    hermite_reduce,
    hnf_columns,
    kernel_hnf,
    snf,
    transpose,
    unit_echelon,
)


class ComplexError(Exception):
    """Structurally invalid complex or cochain data."""


class NotACocycleError(ComplexError):
    """A cochain that was required to be closed is not."""


class EquivariantComplex:
    """Cell counts per dimension plus group-ring boundary maps, held as
    one word table.

    ``cells`` is a tuple of name tuples, one per dimension starting at
    0.  ``words`` is a tuple of distinct Words on the presentation's
    generators, id 0 being the identity, and ``terms[k][i]`` the
    boundary of the i-th k-cell as a tuple of (target index, word id,
    coefficient) triples: the target is the index of a (k-1)-cell, the
    coefficient a nonzero int, and no two triples share a target and a
    word; the triples of one target follow each other, and degree 0 has
    none.  Every reader of the boundary reads these triples.

    The constructor takes ``boundaries``, mapping each cell of positive
    dimension to a dict {lower cell name: entry}, an entry of Z[pi]
    being its terms {Word: int}; omitted entries are zero.  It checks
    the cells and the terms: each key is a Word on the presentation's
    generators and each coefficient an integer.  It drops zero
    coefficients and zero entries, and keeps the rest in the order the
    dicts give them.  ``_unchecked`` takes a table that a reader has
    checked the same way as it is.  Equality is by content: the cells
    and each cell's terms {(target, word): coefficient}.
    """

    __slots__ = ("presentation", "cells", "words", "terms", "_coboundaries",
                 "_product_table", "_double_boundaries",
                 "_double_boundary_tables", "_augmentation")

    def __init__(self, presentation, cells, boundaries):
        self.presentation = presentation
        cells = tuple(tuple(names) for names in cells)
        dim_of, index = {}, {}
        for k, names in enumerate(cells):
            for i, name in enumerate(names):
                if name in dim_of:
                    raise ComplexError("cell name %r used twice" % name)
                dim_of[name], index[name] = k, i
        table = WordTable(())
        terms = [[()] * len(names) for names in cells]
        for cell, entries in boundaries.items():
            if cell not in dim_of:
                raise ComplexError("boundary given for unknown cell %r" % cell)
            k = dim_of[cell]
            if k == 0:
                raise ComplexError("0-cell %r cannot have a boundary" % cell)
            row = []
            for target, elem in entries.items():
                if target not in dim_of:
                    raise ComplexError(
                        "boundary of %r references unknown cell %r" % (cell, target))
                if dim_of[target] != k - 1:
                    raise ComplexError(
                        "boundary of %d-cell %r references %d-cell %r"
                        % (k, cell, dim_of[target], target))
                row += [(index[target], table.id(word), c)
                        for word, c in self._entry(cell, target, elem)]
            terms[k][index[cell]] = tuple(row)
        self._start(cells, tuple(table.words), tuple(map(tuple, terms)))

    @classmethod
    def _unchecked(cls, presentation, cells, words, terms):
        """The complex over ``cells``, a tuple of name tuples, with the
        table ``words`` and ``terms``, taken as they are: for a reader
        that has checked what the constructor checks, so that the table
        is one the constructor could have built."""
        complex_ = object.__new__(cls)
        complex_.presentation = presentation
        complex_._start(cells, words, terms)
        return complex_

    def _start(self, cells, words, terms):
        """Keep the cells and the table, with every cache empty."""
        self.cells = cells
        self.words = words
        self.terms = terms
        self._coboundaries = {}
        self._product_table = None
        self._double_boundaries = {}
        self._double_boundary_tables = {}
        self._augmentation = None

    def _entry(self, cell, target, elem):
        """The nonzero terms (Word, int) of the boundary entry of ``cell``
        on ``target``."""
        if not isinstance(elem, (dict, MappingProxyType)):
            raise ComplexError("boundary entry of %r on %r must be a dict "
                               "{Word: int}, got %r" % (cell, target, elem))
        count = len(self.presentation.generators)
        terms = []
        for word, coeff in elem.items():
            if not isinstance(word, Word):
                raise ComplexError("boundary entry of %r on %r has a term "
                                   "%r that is not a Word"
                                   % (cell, target, word))
            for g, _ in word.letters:
                if g >= count:
                    raise ComplexError(
                        "boundary entry of %r on %r: generator index %d is "
                        "out of range for %d generators"
                        % (cell, target, g, count))
            value = _integer(coeff, ComplexError, "boundary coefficient")
            if value:
                terms.append((word, value))
        return terms

    @property
    def top(self):
        return len(self.cells) - 1

    def cells_in(self, k):
        """The cells of degree k; none outside 0..top."""
        return self.cells[k] if 0 <= k <= self.top else ()

    def n_cells(self, k):
        return len(self.cells_in(k))

    def layout(self, k, dim):
        """The ``CochainLayout`` of the k-cochains with values in Z^dim."""
        return CochainLayout(self.cells_in(k), dim)

    @property
    def augmentation(self):
        """The trivial rank-1 representation: the cochains of the base,
        built on first use and kept, with its value cache."""
        if self._augmentation is None:
            self._augmentation = Representation.trivial(
                self.presentation, 1, "augmentation")
        return self._augmentation

    def _holonomy(self, rep, k):
        """The cache key of ``rep`` in degree k, its generator matrices:
        representations with equal ones share every coboundary.  Raises
        PresentationMismatch for one over another presentation."""
        if rep.presentation != self.presentation:
            raise PresentationMismatch(
                "complex and representation use different presentations")
        return rep.matrices, k

    def coboundary(self, rep, k):
        """The sparse rows of delta^k under ``rep`` (``coboundary_rows``),
        assembled once per holonomy and degree; None without cells in
        degree k or k + 1.  Raises LinAlgError when ``rep`` cannot
        evaluate the boundary, and caches nothing then."""
        if not (self.n_cells(k) and self.n_cells(k + 1)):
            return None
        key = self._holonomy(rep, k)
        rows = self._coboundaries.get(key)
        if rows is None:
            rows = self._coboundaries[key] = coboundary_rows(self, rep, k)
        return rows

    def boundary_entries(self, rep, k):
        """{word id: its nonzero matrix entries under ``rep``
        (``rep.word_entries``)} for the words of the k-cells' boundary
        terms, each evaluated once, in the order a coboundary reads them,
        so that LinAlgError names the first word that ``rep`` cannot
        evaluate."""
        words, entries = self.words, {}
        for triples in self.terms[k]:
            for _, w, _ in triples:
                if w not in entries:
                    entries[w] = rep.word_entries(words[w])
        return entries

    def _double_boundary(self, k):
        """The double boundary from the (k+2)-cells to the k-cells in the
        free group ring on the generators, once per degree: (words,
        {index of a (k+2)-cell e: {index of a k-cell f: the terms
        (coefficient, word id) of y_ef = sum_j d_ej . d_jf}}), e
        ascending.  The products are formed in one ``WordTable`` per
        complex, which extends a copy of ``words`` and lists them: each
        pair of word ids is multiplied once, and id 0, the identity, not
        at all.  A term whose coefficient cancels is dropped, as is a
        pair (e, f) left without terms."""
        if self._product_table is None:
            self._product_table = WordTable(self.words)
        extended = self._product_table
        found = self._double_boundaries.get(k)
        if found is not None:
            return extended.words, found
        lower, width = self.terms[k + 1], len(self.cells[k])
        table = {}
        for e, triples in enumerate(self.terms[k + 2]):
            sums = {}  # f + width * (id of w1 . w2) -> coefficient
            for mid, a, c1 in triples:
                by = extended.products.setdefault(a, {})  # b -> id of a . b
                for f, b, c2 in lower[mid]:
                    w = by.get(b) if a and b else a or b
                    if w is None:
                        w = extended.product(a, b)
                    key = f + width * w
                    sums[key] = sums.get(key, 0) + c1 * c2
            row = {}
            for key, c in sums.items():
                if c:
                    w, f = divmod(key, width)
                    row.setdefault(f, []).append((c, w))
            if row:
                table[e] = row
        self._double_boundaries[k] = table
        return extended.words, table

    def double_boundary_table(self, rep, k):
        """Where the boundary does not square to zero under ``rep``:
        {index of a (k+2)-cell: indices of the k-cells on which its row
        block of delta^{k+1} . delta^k is nonzero}, once per holonomy and
        degree; None without cells in degree k, k + 1 or k + 2.

        Block (e, f) is sum_j rho(d_ej) rho(d_jf) = rho(y_ef) for the
        double boundary y_ef in the free group ring
        (``_double_boundary``), as a word's matrix is the product of its
        runs': a letter cancels freely against its inverse, whose matrix
        is exact wherever a boundary word uses it.  So free cancellation
        drops only what is 0 under every representation that evaluates
        the boundary, and never reports a failure; the terms left are
        evaluated exactly, each distinct word once, and under a trivial
        holonomy, where every word is the identity, as their coefficient
        sum.  No coboundary is assembled.  Only an inverse letter can
        fail to evaluate: when ``rep`` lacks one, the boundary words of
        the (k+1)- and (k+2)-cells are evaluated first
        (``boundary_entries``), so LinAlgError names the first that
        fails, and nothing is cached then."""
        if not (self.n_cells(k) and self.n_cells(k + 1)
                and self.n_cells(k + 2)):
            return None
        key = self._holonomy(rep, k)
        table = self._double_boundary_tables.get(key)
        if table is None:
            if any(inverse is None for inverse in rep.inverses):
                self.boundary_entries(rep, k + 1)
                self.boundary_entries(rep, k + 2)
            words, terms = self._double_boundary(k)
            trivial = rep.is_trivial
            values = {} if trivial else {
                w: rep.eval_word(words[w]).data for w in {
                    w for row in terms.values() for kept in row.values()
                    for _, w in kept}}
            table = {}
            for e, row in terms.items():
                cols = {f for f, kept in row.items()
                        if (sum(c for c, _ in kept) if trivial
                            else _nonzero_value(values, kept, rep.dim))}
                if cols:
                    table[e] = cols
            self._double_boundary_tables[key] = table
        return table

    def _content(self):
        """Each cell's terms as {(target index, Word): coefficient}."""
        return [[{(t, self.words[w]): c for t, w, c in triples}
                 for triples in row] for row in self.terms]

    def __eq__(self, other):
        return (isinstance(other, EquivariantComplex)
                and self.presentation == other.presentation
                and self.cells == other.cells
                and self._content() == other._content())


def _nonzero_value(values, terms, n):
    """Whether sum c . rho(w) over the terms (c, id of w) is nonzero,
    ``values`` holding each rho(w) as its n rows.  The coefficients are
    added up per distinct matrix first, so a pair of words with one
    matrix, such as a*b and b*a under commuting matrices, costs no sum."""
    sums = {}
    for c, w in terms:
        matrix = values[w]
        sums[matrix] = sums.get(matrix, 0) + c
    left = [(matrix, c) for matrix, c in sums.items() if c]
    return bool(left) and any(sum(c * matrix[i][j] for matrix, c in left)
                              for i in range(n) for j in range(n))


class CochainLayout:
    """The columns of the cochains on ``cells`` with values in Z^n, n =
    ``dim``: slot s of the i-th cell is column i * n + s, of ``size`` in
    all.  The entries of a cochain and the columns of delta^k follow it,
    and so do the rows of delta^{k-1}."""

    __slots__ = ("cells", "dim", "size")

    def __init__(self, cells, dim):
        self.cells = tuple(cells)
        self.dim = dim
        self.size = dim * len(self.cells)

    def starts(self):
        """{cell: the column of its slot 0}."""
        return {cell: i * self.dim for i, cell in enumerate(self.cells)}

    def block(self, i):
        """The slice of the columns of the i-th cell."""
        return slice(i * self.dim, (i + 1) * self.dim)

    def locate(self, column):
        """(index of the cell, slot) of ``column``."""
        return divmod(column, self.dim)


class TwistedCochain:
    """Z^n-valued cochain on the basis k-cells, n = ``dim``, held as its
    nonzero coordinates: ``entries`` is a read-only mapping {column: int}
    in the ``CochainLayout`` of the cells, the column order of the
    coboundary rows, in index order.  ``nonzero_cells`` gives the
    per-cell view."""

    __slots__ = ("degree", "dim", "cells", "entries")

    def __init__(self, degree, dim, cells, entries):
        self.degree = degree
        self.dim = dim
        self.cells = tuple(cells)
        size = CochainLayout(self.cells, dim).size
        clean = {}
        for i, x in entries.items():
            i = _integer(i, ComplexError, "cochain index")
            if not 0 <= i < size:
                raise ComplexError("cochain index %d out of range 0..%d"
                                   % (i, size - 1))
            x = _integer(x, ComplexError, "cochain entry")
            if x:
                clean[i] = x
        self.entries = MappingProxyType(dict(sorted(clean.items())))

    def nonzero_cells(self):
        """(cell, n-tuple) per cell with a nonzero vector, in cell order."""
        layout = CochainLayout(self.cells, self.dim)
        rows = {}
        for i, x in self.entries.items():
            cell, s = layout.locate(i)
            rows.setdefault(cell, [0] * self.dim)[s] = x
        return [(self.cells[cell], tuple(row)) for cell, row in rows.items()]

    def __eq__(self, other):
        return (isinstance(other, TwistedCochain)
                and (self.degree, self.dim, self.cells, self.entries)
                == (other.degree, other.dim, other.cells, other.entries))

    def __hash__(self):
        return hash((self.degree, self.dim, self.cells,
                     tuple(self.entries.items())))

    def __repr__(self):
        return "TwistedCochain(deg=%d, %r)" % (self.degree,
                                               dict(self.nonzero_cells()))


def coboundary_rows(complex_, rep, k):
    """delta^k : C^k -> C^{k+1} for the given representation, as a tuple
    of sparse integer rows {column: entry}.

    Rows are blocked by (k+1)-cells, rep.dim rows per cell, and columns
    by k-cells; block (i, j) is the evaluation of the boundary entry of
    the i-th (k+1)-cell on the j-th k-cell.  This encodes the twisted
    coboundary (delta phi)(e) = phi(boundary e) with phi(g.e) = rho(g)
    phi(e).  The rows are read from the boundary's triples (target,
    word id, coefficient), in their order: each word's nonzero matrix
    entries are looked up once (``EquivariantComplex.boundary_entries``),
    and a triple adds coefficient times each of them at column target * n
    of its cell's block, dropping an entry that cancels, so no row stores
    a zero.
    Needs cells in degrees k and k + 1; callers go through
    ``EquivariantComplex.coboundary``, which checks that.
    """
    if rep.presentation != complex_.presentation:
        raise PresentationMismatch(
            "complex and representation use different presentations")
    n = rep.dim
    entries = complex_.boundary_entries(rep, k + 1)
    rows = []
    for triples in complex_.terms[k + 1]:
        block = [{} for _ in range(n)]
        for target, w, coeff in triples:
            j0 = target * n
            for i, j, x in entries[w]:
                row, j = block[i], j0 + j
                v = row.get(j, 0) + coeff * x
                if v:
                    row[j] = v
                else:
                    del row[j]
        rows += block
    return tuple(rows)


def validate_complex(complex_, reps):
    """Failures of delta^{k-1} . delta^{k-2} = 0 under each representation.

    The representations are taken one by one, the rank-1 augmentation
    last, each read from its table of failures, computed once per
    holonomy (``EquivariantComplex.double_boundary_table``): a failure
    names a k-cell whose double boundary does not vanish, the (k-2)-cells
    on which it does not and the representation, or a representation
    that cannot evaluate the boundary.  Free cancellation in the group
    ring drops only terms that are 0 under every representation; it
    never reports a failure, and every term it keeps is evaluated
    exactly.  No coboundary is assembled.
    """
    failures = []
    for rep in list(reps) + [complex_.augmentation]:
        for k in range(2, complex_.top + 1):
            try:
                table = complex_.double_boundary_table(rep, k - 2)
            except LinAlgError as exc:
                failures.append("cannot evaluate the boundary: %s" % exc)
                break
            for i, cols in (table or {}).items():
                failures.append(
                    "double boundary of %r is nonzero on %s under "
                    "representation %r" % (complex_.cells[k][i], ", ".join(
                        sorted(complex_.cells[k - 2][j] for j in cols)),
                        rep.name))
    return failures


class CohomologyGroup:
    """H^k with invariant factors, generator cocycles, and coordinates.

    Generators are listed free part first, then torsion generators in
    invariant-factor order; ``orders`` holds 0 for each free generator
    and the torsion order otherwise.  ``per_cell_shape``, when not None,
    is a tuple over k-cells of coefficient-slot descriptors (0 for a Z
    summand, 1 for a killed slot, m >= 2 for Z/m) that reproduces the
    group as a direct sum read off cell by cell; it is only reported
    when that readout provably presents the same group.  The lattices
    behind the generators are kept as sparse columns {index: entry}: the
    kernel of delta^k by its Hermite pivot rows, and by its Hermite basis
    only when ``kernel_hnf`` read it (None when the basis is the
    identity on its pivot rows), and the kernel coordinates modulo the
    image of delta^{k-1} by their ``Quotient``, which gives the group,
    the orders and the generators in kernel coordinates.  The group keeps
    its complex and its representation, whose delta^k ``check_closed``
    reads.
    """

    __slots__ = ("degree", "dim", "cells", "group", "generators", "orders",
                 "per_cell_shape", "_complex", "_rep", "_echelon",
                 "_kernel_basis", "_kernel_pivots", "_quotient")

    def __init__(self, complex_, rep, degree, per_cell_shape, echelon,
                 kernel_basis, kernel_pivots, quotient):
        self.degree = degree
        self.dim = rep.dim
        self.cells = complex_.cells_in(degree)
        self.group = quotient.group
        self.orders = quotient.orders
        self.per_cell_shape = per_cell_shape
        self._complex = complex_
        self._rep = rep
        self._echelon = echelon
        self._kernel_basis = kernel_basis
        self._kernel_pivots = kernel_pivots
        self._quotient = quotient
        self.generators = tuple(
            TwistedCochain(degree, self.dim, self.cells, vec)
            for vec in self._cochains(quotient.generators))

    def _cochains(self, columns):
        """The entries of the cochains with these kernel coordinates."""
        if self._kernel_basis is None:
            return echelon_lift(self._echelon, [
                {self._kernel_pivots[j]: x for j, x in col.items()}
                for col in columns])
        return [_times(col, self._kernel_basis) for col in columns]

    def check_closed(self, entries):
        """Raise NotACocycleError unless delta^k kills these entries,
        read from the complex's delta^k under the representation, which
        the complex assembles once."""
        rows = self._complex.coboundary(self._rep, self.degree)
        if any(_dot(row, entries) for row in rows or ()):
            raise NotACocycleError("cochain is not a cocycle")

    def __repr__(self):
        return "CohomologyGroup(H^%d = %s)" % (self.degree, self.group)


class Quotient:
    """Z^m modulo a lattice L, read from the canonical Hermite form
    ``(basis, pivot_rows)`` of L (``hnf_columns``) with one Smith form.

    A column with pivot 1 is the only one with an entry in its pivot row,
    and the columns with a pivot >= 2, the block T, are zero on those
    rows.  So Z^m / L is Z^outside (+) Z^rows(T) / T, the rows outside
    being those that no column of T reads and that are no pivot-1 row,
    and only T goes through ``snf``: S = U T V with diagonal d_i.  T's
    columns are taken in the order of their pivots, by value and then by
    row, and its rows start with those pivot rows in the same order.

    ``generators`` are sparse columns reduced modulo L
    (``hermite_reduce``): the unit vectors of the rows outside,
    ascending, then U^-1 e_i for each d_i = 0 and for each d_i >= 2.
    ``orders`` holds 0 for a free generator and d_i for a torsion one,
    and ``group`` is the quotient; ``coordinate_rows`` reads the class
    of a vector in the generators.  ``diagonal`` says that every column
    of T has a single entry and that its pivots are the invariant
    factors: then S = T and U = 1, so the generators are unit vectors,
    those of the rows without a pivot and then those of the pivot rows
    of T.
    """

    __slots__ = ("basis", "pivot_rows", "group", "generators", "orders",
                 "diagonal", "_outside", "_rows", "_U", "_factors")

    def __init__(self, basis, pivot_rows, m):
        self.basis = basis
        self.pivot_rows = pivot_rows
        block = sorted(((col[r], r), col) for col, r in zip(basis, pivot_rows)
                       if col[r] != 1)
        rows = [r for (_, r), _ in block]
        read = set().union(*(col for _, col in block))
        rows += sorted(read.difference(rows))
        taken = read.union(pivot_rows)
        self._outside = [r for r in range(m) if r not in taken]
        self._rows = rows
        self._U, self._factors, inverse = None, [], None
        if block:
            res = snf(IntMatrix([[col.get(r, 0) for _, col in block]
                                 for r in rows]))
            diag = list(res.diagonal())
            self._U, inverse = res.U, res.U_inv
            self._factors = diag + [0] * (len(rows) - len(diag))
        self.diagonal = (all(len(col) == 1 for _, col in block)
                         and [d for (d, _), _ in block] == self._factors)
        free = [{r: 1} for r in self._outside]
        torsion, orders = [], []
        # only the Smith block has factors, whose generators are reduced
        index = {r: i for i, r in enumerate(pivot_rows)} if block else {}
        for i, d in enumerate(self._factors):
            if d != 1:
                col = {rows[r]: x for r, x in enumerate(inverse.column(i))
                       if x}
                hermite_reduce(col, basis, index)
                if d:
                    torsion.append(col)
                    orders.append(d)
                else:
                    free.append(col)
        self.generators = free + torsion
        self.orders = (0,) * len(free) + tuple(orders)
        self.group = AbelianGroup(len(free), orders)

    def class_coordinates(self, vector):
        """Coordinates of the class of a sparse vector in ``generators``:
        row . v for each row of ``coordinate_rows``, exact for a free
        generator and taken into [0, d_i) for a torsion one."""
        return tuple(_dot(row, vector) % d if d else _dot(row, vector)
                     for row, d in zip(self.coordinate_rows(), self.orders))

    def coordinate_rows(self):
        """One sparse integer row on Z^m per generator, in their order,
        with row i . v coordinate i of the class of v: the unit row e_r of
        each row r outside, then the row u_i of U on the rows of T for
        each d_i = 0 and each d_i >= 2, each less (row . c) e_p for every
        column c with pivot 1 in row p.

        A row kills L, exactly for a free generator and modulo d_i for a
        torsion one.  It is 0 on a pivot-1 column c, the only column with
        an entry in row p.  T is zero outside and on the pivot-1 rows, and
        row i of U T = S V^-1 is d_i times row i of V^-1.  A row is 1 on
        its own generator and 0 on the others: U^-1 e_j, on the rows of T,
        differs from generator j by a member of L, and u_i . U^-1 e_j is 1
        when i = j, else 0."""
        U = self._U.data if self._U is not None else ()
        free = [u for u, d in zip(U, self._factors) if d == 0]
        torsion = [u for u, d in zip(U, self._factors) if d >= 2]
        rows = [{r: 1} for r in self._outside] + [
            {self._rows[j]: x for j, x in enumerate(u) if x}
            for u in free + torsion]
        units = [(col, p) for col, p in zip(self.basis, self.pivot_rows)
                 if col[p] == 1]
        for row in rows:
            corrections = {p: -_dot(row, col) for col, p in units}
            row.update((p, x) for p, x in corrections.items() if x)
        return rows


def _kernel_coordinates(vectors, kernel_basis, kernel_pivots):
    """Cocycles as sparse vectors in the coordinates of the kernel basis
    of delta^k: their entries at the pivot rows when ``kernel_basis`` is
    None, the basis then being the identity there, else the multiples
    that ``hermite_reduce`` takes off a copy of each.  Raises
    NotACocycleError when a vector leaves a remainder, outside the
    kernel."""
    index = {p: i for i, p in enumerate(kernel_pivots)}
    if kernel_basis is None:
        return [{index[r]: x for r, x in vec.items() if r in index}
                for vec in vectors]
    coordinates = []
    for vec in vectors:
        rest = dict(vec)
        coordinates.append(hermite_reduce(rest, kernel_basis, index))
        if rest:
            raise NotACocycleError("cochain is not a cocycle")
    return coordinates


def twisted_cohomology(complex_, rep, k):
    """H^k(complex; Z^n twisted by rep) = ker delta^k / im delta^{k-1}.

    The kernel lattice is saturated and taken in Hermite form, so
    generator cocycles are reproducible across runs.  It is read from
    ``unit_echelon``, which eliminates the rows of delta^k on +-1 pivots
    from the last column to the first.  When every column is free or a
    pivot, the free columns are the Hermite pivot rows, every pivot is
    1, and the basis is the identity on those rows, so a cocycle's
    kernel coordinates are its entries there and a kernel vector is
    lifted from them by ``echelon_lift``.  Only when the elimination
    skips a column, one whose entries include no +-1, is the basis
    built by ``kernel_hnf``, from the same elimination.  The image of
    delta^{k-1} in kernel coordinates, once delta^k . delta^{k-1} = 0 is
    checked (``EquivariantComplex.double_boundary_table``), is put in
    Hermite form, and its ``Quotient`` gives the group, the generators
    and their orders.  When that quotient is ``diagonal`` the generators
    are plain dual cochains, and a per-cell shape is reported if the
    kernel basis is the identity on its pivot rows too.  Only the
    generators are lifted to cochains.  Above the top dimension H^k = 0.

    Under a trivial holonomy of rank n > 1, Z^n is n copies of Z and
    every coboundary is the augmentation's with each entry repeated on
    the n slots, which never mix.  So the elimination, the kernel and
    the image's Hermite form are read once under the augmentation and
    spread to columns c * n + s (``_spread``): they are exactly those of
    the general path, whose Hermite forms are unique, and the same
    ``Quotient`` and generator lift run on them.  No coboundary is
    assembled under ``rep``.
    """
    if k < 0:
        raise ComplexError("degree %d out of range" % k)
    n = rep.dim
    if complex_.layout(k, n).size == 0:
        return CohomologyGroup(complex_, rep, k, (), [], [], [],
                               Quotient([], [], 0))
    if rep.is_trivial and n > 1:
        complex_._holonomy(rep, k)  # refuses another presentation's rep
        return _cohomology_group(complex_, rep, k, _spread(
            _lattices(complex_, complex_.augmentation, k, rep.name), n))
    return _cohomology_group(complex_, rep, k,
                             _lattices(complex_, rep, k, rep.name))


def _cohomology_group(complex_, rep, k, lattices):
    """The ``CohomologyGroup`` of degree k under ``rep`` read from its
    ``_lattices``: the ``Quotient`` of the kernel by the image, the
    per-cell shape and the generators."""
    pivots, kernel_basis, kernel_pivots, kernel_is_unit, image = lattices
    if image is None:
        return CohomologyGroup(complex_, rep, k, None, pivots, kernel_basis,
                               kernel_pivots, Quotient([], [], 0))
    quotient = Quotient(*image, len(kernel_pivots))

    per_cell_shape = None
    if quotient.diagonal and kernel_is_unit:
        # 1 off the kernel; on it, the image pivot d in its row, else 0
        pivot_value = {row: vec[row] for vec, row
                       in zip(quotient.basis, quotient.pivot_rows)}
        layout = complex_.layout(k, rep.dim)
        slots = [1] * layout.size
        for j, p in enumerate(kernel_pivots):
            slots[p] = pivot_value.get(j, 0)
        per_cell_shape = tuple(tuple(slots[layout.block(i)])
                               for i in range(len(layout.cells)))

    return CohomologyGroup(complex_, rep, k, per_cell_shape, pivots,
                           kernel_basis, kernel_pivots, quotient)


def _lattices(complex_, rep, k, name):
    """The lattices of H^k under ``rep``, for a degree with cochains:
    (the pivots of the ``unit_echelon`` of delta^k, the Hermite basis of
    its kernel, None when that is the identity on its pivot rows, and
    those pivot rows, whether the basis is the identity there and nothing
    more, and the Hermite form (``hnf_columns``) of the image of
    delta^{k-1} in kernel coordinates, None when the kernel is 0).  The
    double-boundary error names ``name``."""
    n = rep.dim
    size = complex_.layout(k, n).size
    delta_out = complex_.coboundary(rep, k)
    echelon = unit_echelon(delta_out or (), size)
    free, pivots, _ = echelon
    if len(free) + len(pivots) < size:
        kernel_basis, kernel_pivots = kernel_hnf(delta_out, size, echelon)
        kernel_is_unit = all(len(col) == 1 and col[p] == 1
                             for col, p in zip(kernel_basis, kernel_pivots))
    else:
        kernel_basis, kernel_pivots = None, free
        # the basis is the identity on the free columns, and nothing more
        # when no pivot row reads a free column
        free = set(free)
        kernel_is_unit = not any(l in free for _, _, others in pivots
                                 for l in others)
    image = None
    if kernel_pivots:
        delta_in = complex_.coboundary(rep, k - 1)
        if delta_in is not None and complex_.double_boundary_table(rep, k - 1):
            raise ComplexError(
                "image of delta^%d does not lie in the kernel of delta^%d; "
                "the boundary does not square to zero under %r"
                % (k - 1, k, name))
        image = hnf_columns(_kernel_coordinates(
            transpose(delta_in or (), complex_.layout(k - 1, n).size),
            kernel_basis, kernel_pivots))
    return pivots, kernel_basis, kernel_pivots, kernel_is_unit, image


def _spread(lattices, n):
    """The ``_lattices`` of the augmentation as those of the trivial
    holonomy of rank n: column c of a cochain and of a kernel coordinate
    to c * n + s on slot s, each slot a copy.  The elimination takes
    column c * n + s before c * n + s - 1 and picks its pivot rows within
    the slot as the augmentation's, and the Hermite columns are ordered
    by pivot row, slot last."""
    pivots, kernel_basis, kernel_pivots, kernel_is_unit, image = lattices
    slots = range(n)

    def copy(vector, s):
        return {c * n + s: x for c, x in vector.items()}

    def lattice(basis, rows):
        return ([copy(col, s) for col in basis for s in slots],
                [r * n + s for r in rows for s in slots])

    pivots = [(j * n + s, u, copy(others, s))
              for j, u, others in pivots for s in reversed(slots)]
    if kernel_basis is None:
        kernel_pivots = [p * n + s for p in kernel_pivots for s in slots]
    else:
        kernel_basis, kernel_pivots = lattice(kernel_basis, kernel_pivots)
    if image is not None:
        image = lattice(*image)
    return pivots, kernel_basis, kernel_pivots, kernel_is_unit, image


def cocycle_coordinates(H, cochain):
    """Coordinates of a cocycle's class in the generator basis of H.

    Free coordinates are exact integers; torsion coordinates are
    residues in [0, m_i).  Raises NotACocycleError when the cochain is
    not closed (``CohomologyGroup.check_closed``), and
    ComplexError on shape mismatch.  The kernel lattice is saturated, so
    a closed integer cochain is a member of it, with the kernel
    coordinates of ``_kernel_coordinates``; ``Quotient.class_coordinates``
    reads the class from them.
    """
    if cochain.degree != H.degree or cochain.dim != H.dim:
        raise ComplexError("cochain degree/dimension does not match H^%d with "
                           "coefficients Z^%d" % (H.degree, H.dim))
    if cochain.cells != H.cells:
        raise ComplexError("cochain is over different cells")
    entries = cochain.entries
    H.check_closed(entries)
    if not H.generators:
        return ()
    kernel_coords, = _kernel_coordinates(
        [entries], H._kernel_basis, H._kernel_pivots)
    return H._quotient.class_coordinates(kernel_coords)


def cochain_from_coordinates(H, coords):
    """Integer combination of the generators with the given coordinates."""
    if len(coords) != len(H.generators):
        raise ComplexError("expected %d coordinates" % len(H.generators))
    entries = {}
    for c, gen in zip(coords, H.generators):
        c = _integer(c, ComplexError, "coordinate")
        if c:
            _add_multiple(entries, c, gen.entries)
    return TwistedCochain(H.degree, H.dim, H.cells, entries)


class RationalCohomology:
    """H^k(base; Q): the free part of ``integral``, the H^k of the base.

    The coordinate map P is the rows of order 0 of
    ``Quotient.coordinate_rows`` on the coordinates of
    the Hermite basis K of ker delta^k, carried to cochains through the
    pivot rows of K, over its least common denominator M =
    ``denominator`` (1 when K is the identity there): the rows of M.P are
    the sparse ``scaled_projection``.  On a closed cochain v,
    ``coordinates(v)`` is P times v, so P kills every coboundary and is
    the identity on the basis classes, which ``basis_labels`` names.
    Basis class i is the earliest vector of K whose class is exactly
    free generator i (whose column of P is e_i), named ``dual(cell)``
    when there is no delta^k and ``kernel[j]`` otherwise, or else, for a
    generator from the Smith block of the quotient, the generator, named
    as its combination of those.  The classes are listed by that vector,
    the others last.  No cochain of a class is built.
    """

    __slots__ = ("degree", "cells", "dimension", "basis_labels",
                 "denominator", "scaled_projection", "integral")

    def __init__(self, integral):
        H = self.integral = integral
        self.degree, self.cells = H.degree, H.cells
        pivots, m = H._kernel_pivots, len(H._kernel_pivots)
        rows = H._quotient.coordinate_rows()[:H.group.free_rank]
        names = (["dual(%s)" % cell for cell in H.cells]
                 if not H._complex.n_cells(H.degree + 1) else
                 ["kernel[%d]" % j for j in range(m)])
        # free generator i -> the earliest vector of K in exactly its class
        columns = transpose(rows, m)
        exact = {i: j for j in reversed(range(m)) for i in columns[j]
                 if columns[j] == {i: 1}}
        order = sorted(range(len(rows)), key=lambda i: exact.get(i, m + i))
        seeds = [{exact[i]: 1} if i in exact else H._quotient.generators[i]
                 for i in order]
        self.dimension = len(seeds)
        self.basis_labels = tuple(_combination_text(seed, names)
                                  for seed in seeds)
        self.denominator, self.scaled_projection = _on_cochains(
            [rows[i] for i in order],
            H._kernel_basis or [{p: 1} for p in pivots], pivots)

    def coordinates(self, values):
        """Class of a rational k-cochain in the chosen basis of H^k(B;Q),
        as Fractions: ``values`` holds an int or a Fraction per k-cell.
        A view for library callers; no command calls it."""
        from fractions import Fraction
        if len(values) != len(self.cells):
            raise ComplexError("expected one rational per %d-cell" % self.degree)
        vec = {j: Fraction(x) for j, x in enumerate(values) if x}
        self.integral.check_closed(vec)
        return tuple(Fraction(_dot(row, vec), self.denominator)
                     for row in self.scaled_projection)


def untwisted_cohomology_Q(complex_, k):
    """Cellular cohomology of the base over Q in degree k, read from the
    integral one under the augmentation, which sends every group element
    to 1; above the top dimension H^k = 0."""
    return RationalCohomology(
        twisted_cohomology(complex_, complex_.augmentation, k))


def _combination_text(column, names):
    """An integer combination {index: coefficient} of ``names`` as text,
    in index order: "dual(A)", "-dual(A) + 2*dual(B)"."""
    text = " ".join("%s %s%s" % ("+" if x > 0 else "-",
                                 "" if abs(x) == 1 else "%d*" % abs(x),
                                 names[j]) for j, x in sorted(column.items()))
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _on_cochains(rows, kernel, pivots):
    """(M, rows of M.x): functionals r on K-coordinates as sparse rows x
    on cochains with x . (K c) = r . c, supported on the pivot rows of K,
    over their least common denominator M.  The block of K on its pivot
    rows is lower triangular, so x comes from back-substitution, last
    kernel vector first, and its denominators divide the product d of
    the pivot entries: the back-substitution runs on the integers d.x."""
    d = abs(prod(col[p] for col, p in zip(kernel, pivots)))
    found = []
    for row in rows:
        x = {}
        for i in reversed(range(len(kernel))):
            # d.x_p = (d.r_i - K_i . d.x) / K_pi, which divides exactly
            v = (d * row.get(i, 0) - _dot(kernel[i], x)) \
                // kernel[i][pivots[i]]
            if v:
                x[pivots[i]] = v
        found.append(x)
    g = gcd(d, *(v for x in found for v in x.values()))
    return d // g, tuple({j: x[j] // g for j in sorted(x)} for x in found)
