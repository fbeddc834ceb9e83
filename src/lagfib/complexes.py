"""Equivariant cell complexes and cohomology with local coefficients.

A complex stores one basis cell per orbit in each dimension and a
boundary map whose entries are group ring elements; this is exactly the
free Z[pi]-module presentation of the chains on the universal cover.
Nothing about attaching maps or the affine geometry is kept: the
algebra below is the whole data.

Evaluating the boundary entries under a representation rho gives the
coboundaries of the rho-twisted integer cochain complex.  A complex
assembles each one once per representation, straight into sparse
integer rows {column: entry}, and every reader takes that one form: the
double-boundary and closedness checks multiply by the rows, kernels come
from them and images from their transpose, through the exact lattice
routines.  Under the trivial one-dimensional representation (the
augmentation) the same machinery computes the ordinary cellular
cohomology of the base.
"""

from fractions import Fraction

from .groupring import GroupRingElement, PresentationMismatch, Representation
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    LinAlgError,
    _add_multiple,
    _dense,
    _dot,
    _times,
    common_denominator,
    hnf_columns,
    hnf_solve,
    int_inverse,
    int_solve,
    kernel_hnf,
    quotient_invariants,
    snf,
    transpose,
)


class ComplexError(Exception):
    """Structurally invalid complex or cochain data."""


class NotACocycleError(ComplexError):
    """A cochain that was required to be closed is not."""


class EquivariantComplex:
    """Cell counts per dimension plus group-ring boundary maps.

    ``cells`` is a sequence of name tuples, one per dimension starting
    at 0.  ``boundaries`` maps each cell of positive dimension to a
    dict {lower cell name: GroupRingElement}; omitted entries are zero.
    """

    __slots__ = ("presentation", "cells", "boundaries", "_dim_of",
                 "_coboundaries", "_augmentation")

    def __init__(self, presentation, cells, boundaries):
        self.presentation = presentation
        self.cells = tuple(tuple(names) for names in cells)
        dim_of = {}
        for k, names in enumerate(self.cells):
            for name in names:
                if name in dim_of:
                    raise ComplexError("cell name %r used twice" % name)
                dim_of[name] = k
        self._dim_of = dim_of
        clean = {}
        for cell, entries in boundaries.items():
            if cell not in dim_of:
                raise ComplexError("boundary given for unknown cell %r" % cell)
            k = dim_of[cell]
            if k == 0:
                raise ComplexError("0-cell %r cannot have a boundary" % cell)
            row = {}
            for target, elem in entries.items():
                if target not in dim_of:
                    raise ComplexError(
                        "boundary of %r references unknown cell %r" % (cell, target))
                if dim_of[target] != k - 1:
                    raise ComplexError(
                        "boundary of %d-cell %r references %d-cell %r"
                        % (k, cell, dim_of[target], target))
                if not isinstance(elem, GroupRingElement):
                    raise ComplexError("boundary entries must be group ring elements")
                if not elem.is_zero():
                    row[target] = elem
            clean[cell] = row
        for k in range(1, len(self.cells)):
            for cell in self.cells[k]:
                clean.setdefault(cell, {})
        self.boundaries = clean
        self._coboundaries = {}
        self._augmentation = None

    @property
    def top(self):
        return len(self.cells) - 1

    def dim_of(self, cell):
        try:
            return self._dim_of[cell]
        except KeyError:
            raise ComplexError("unknown cell %r" % cell) from None

    def cells_in(self, k):
        """The cells of degree k; none outside 0..top."""
        return self.cells[k] if 0 <= k <= self.top else ()

    def n_cells(self, k):
        return len(self.cells_in(k))

    @property
    def augmentation(self):
        """The trivial rank-1 representation: the cochains of the base,
        built on first use and kept, with its value cache."""
        if self._augmentation is None:
            self._augmentation = Representation.trivial(
                self.presentation, 1, "augmentation")
        return self._augmentation

    def coboundary(self, rep, k):
        """The sparse rows of delta^k under ``rep`` (``coboundary_rows``),
        assembled once per representation and degree; None without cells
        in degree k or k + 1.  Raises LinAlgError when ``rep`` cannot
        evaluate the boundary."""
        if not (self.n_cells(k) and self.n_cells(k + 1)):
            return None
        if (rep, k) not in self._coboundaries:
            self._coboundaries[rep, k] = coboundary_rows(self, rep, k)
        return self._coboundaries[rep, k]

    def __eq__(self, other):
        return (isinstance(other, EquivariantComplex)
                and self.presentation == other.presentation
                and self.cells == other.cells
                and self.boundaries == other.boundaries)


class TwistedCochain:
    """Z^n-valued cochain on the basis k-cells, one vector per cell."""

    __slots__ = ("degree", "dim", "cells", "values")

    def __init__(self, degree, dim, cells, values):
        self.degree = degree
        self.dim = dim
        self.cells = tuple(cells)
        values = tuple(tuple(int(x) for x in row) for row in values)
        if len(values) != len(self.cells):
            raise ComplexError("expected one vector per cell")
        for row in values:
            if len(row) != dim:
                raise ComplexError("cochain vectors must have length %d" % dim)
        self.values = values

    @classmethod
    def from_flat(cls, complex_, degree, dim, vector):
        cells = complex_.cells[degree]
        if len(vector) != dim * len(cells):
            raise ComplexError("flat vector has wrong length")
        values = [tuple(vector[i * dim:(i + 1) * dim]) for i in range(len(cells))]
        return cls(degree, dim, cells, values)

    def flatten(self):
        return tuple(x for row in self.values for x in row)

    def __eq__(self, other):
        return (isinstance(other, TwistedCochain)
                and (self.degree, self.dim, self.cells, self.values)
                == (other.degree, other.dim, other.cells, other.values))

    def __hash__(self):
        return hash((self.degree, self.dim, self.cells, self.values))

    def __repr__(self):
        nonzero = {c: v for c, v in zip(self.cells, self.values)
                   if any(x != 0 for x in v)}
        return "TwistedCochain(deg=%d, %r)" % (self.degree, nonzero)


def coboundary_rows(complex_, rep, k):
    """delta^k : C^k -> C^{k+1} for the given representation, as a tuple
    of sparse integer rows {column: entry}.

    Rows are blocked by (k+1)-cells, rep.dim rows per cell, and columns
    by k-cells; block (i, j) is the evaluation of the boundary entry of
    the i-th (k+1)-cell on the j-th k-cell.  This encodes the twisted
    coboundary (delta phi)(e) = phi(boundary e) with phi(g.e) = rho(g)
    phi(e).  A block adds coefficient times each cached nonzero entry
    of the word's matrix (``rep.word_entries``) over the entry's terms,
    and drops an entry that cancels, so no row stores a zero.  Needs
    cells in degrees k and k + 1; callers go through
    ``EquivariantComplex.coboundary``, which checks that.
    """
    if rep.presentation != complex_.presentation:
        raise PresentationMismatch(
            "complex and representation use different presentations")
    n = rep.dim
    start = {cell: j * n for j, cell in enumerate(complex_.cells[k])}
    rows = []
    for up in complex_.cells[k + 1]:
        block = [{} for _ in range(n)]
        for low, elem in complex_.boundaries[up].items():
            j0 = start[low]
            for word, coeff in elem.terms.items():
                for i, j, x in rep.word_entries(word):
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
    last; a failure names a k-cell whose row block of the product, its
    double boundary, does not vanish and the representation, or a
    representation that cannot evaluate the boundary.  Free equality of
    the group-ring entries is never used.
    """
    failures = []
    for rep in list(reps) + [complex_.augmentation]:
        n = rep.dim
        for k in range(2, complex_.top + 1):
            try:
                outer = complex_.coboundary(rep, k - 1)
                inner = complex_.coboundary(rep, k - 2)
            except LinAlgError as exc:
                failures.append("cannot evaluate the boundary: %s" % exc)
                break
            if outer is None or inner is None:
                continue
            lower = complex_.cells[k - 2]
            for i, cell in enumerate(complex_.cells[k]):
                blocks = {j // n for row in outer[i * n:(i + 1) * n]
                          for j in _times(row, inner)}
                if blocks:
                    failures.append(
                        "double boundary of %r is nonzero on %s under "
                        "representation %r" % (cell, ", ".join(
                            sorted(lower[j] for j in blocks)), rep.name))
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
    behind the generators are kept as sparse columns {index: entry}.
    """

    __slots__ = ("degree", "dim", "cells", "group", "generators", "orders",
                 "per_cell_shape", "_kernel_basis", "_kernel_pivots",
                 "_image_hnf", "_gen_columns")

    def __init__(self, degree, dim, cells, group, generators, orders,
                 per_cell_shape, kernel_basis, kernel_pivots,
                 image_hnf, gen_columns):
        self.degree = degree
        self.dim = dim
        self.cells = tuple(cells)
        self.group = group
        self.generators = tuple(generators)
        self.orders = tuple(orders)
        self.per_cell_shape = per_cell_shape
        self._kernel_basis = kernel_basis
        self._kernel_pivots = kernel_pivots
        self._image_hnf = image_hnf
        self._gen_columns = gen_columns

    @property
    def free_rank(self):
        return self.group.free_rank

    @property
    def torsion(self):
        return self.group.torsion

    def __repr__(self):
        return "CohomologyGroup(H^%d = %s)" % (self.degree, self.group)


def _cocycle_lattice(delta_out, size):
    """Hermite basis and pivot rows of ker delta^k, sparse; every cochain
    when there is no delta^k."""
    if delta_out is None:
        return [{i: 1} for i in range(size)], list(range(size))
    return kernel_hnf(delta_out, size)


def _image_coordinates(complex_, rep, k, kernel_basis, kernel_pivots):
    """The nonzero columns of delta^{k-1}, as sparse vectors in the
    coordinates of the kernel basis of delta^k."""
    delta_in = complex_.coboundary(rep, k - 1)
    if delta_in is None:
        return []
    image = []
    for col in transpose(delta_in, rep.dim * complex_.n_cells(k - 1)):
        coords = hnf_solve(kernel_basis, kernel_pivots, col)
        if coords is None:
            raise ComplexError(
                "image of delta^%d does not lie in the kernel of delta^%d; "
                "the boundary does not square to zero under %r"
                % (k - 1, k, rep.name))
        if coords:
            image.append(coords)
    return image


def _reduce_mod_lattice(column, basis, pivots):
    col = dict(column)
    for vec, row in zip(basis, pivots):
        q = col.get(row, 0) // vec[row]
        if q:
            _add_multiple(col, -q, vec)
    return col


def twisted_cohomology(complex_, rep, k):
    """H^k(complex; Z^n twisted by rep) = ker delta^k / im delta^{k-1}.

    The kernel lattice is saturated and HNF-reduced, so generator
    cocycles are reproducible across runs.  The group is read from the
    Hermite form of the image in kernel coordinates.  When its pivots
    give a faithful readout (``_pivot_readout``: d e_r lies in the image
    for each pivot d >= 2 in row r, and those pivots are the torsion),
    the generators are plain dual cochains and a per-cell shape is
    reported; otherwise generators fall back to the Smith transform of
    the image.  Above the top dimension H^k = 0.
    """
    if k < 0:
        raise ComplexError("degree %d out of range" % k)
    n = rep.dim
    cells = complex_.cells_in(k)
    size = n * len(cells)
    if size == 0:
        return CohomologyGroup(k, n, cells, AbelianGroup(0), (), (), (),
                               [], [], [], [])

    delta_out = complex_.coboundary(rep, k)
    kernel_basis, kernel_pivots = _cocycle_lattice(delta_out, size)
    m = len(kernel_basis)
    if m == 0:
        return CohomologyGroup(k, n, cells, AbelianGroup(0), (), (), None,
                               kernel_basis, kernel_pivots, [], [])

    image_cols = _image_coordinates(complex_, rep, k, kernel_basis,
                                    kernel_pivots)
    image_hnf, image_pivots = hnf_columns(image_cols)
    group = quotient_invariants(image_hnf, m)

    readout = _pivot_readout(m, group, image_hnf, image_pivots)
    if readout is not None:
        gen_columns, orders = readout
    else:
        gen_columns, orders = _snf_generators(m, group, image_cols,
                                              image_hnf, image_pivots)

    per_cell_shape = None
    kernel_is_unit = all(len(col) == 1 and col[p] == 1
                         for col, p in zip(kernel_basis, kernel_pivots))
    if readout is not None and kernel_is_unit:
        # 1 off the kernel; on it, the image pivot d in its row, else 0
        pivot_value = {row: vec[row]
                       for vec, row in zip(image_hnf, image_pivots)}
        slots = [1] * size
        for j, p in enumerate(kernel_pivots):
            slots[p] = pivot_value.get(j, 0)
        per_cell_shape = tuple(tuple(slots[i:i + n])
                               for i in range(0, size, n))

    generators = []
    for col in gen_columns:
        vec = {}
        for j, coeff in col.items():
            for r, b in kernel_basis[j].items():
                vec[r] = vec.get(r, 0) + coeff * b
        generators.append(TwistedCochain.from_flat(complex_, k, n,
                                                   _dense(vec, range(size))))

    return CohomologyGroup(k, n, cells, group, generators, orders,
                           per_cell_shape, kernel_basis, kernel_pivots,
                           image_hnf, gen_columns)


def _pivot_readout(m, group, image_hnf, image_pivots):
    """Unit-vector generators read off the image pivots: e_r free for a
    row r without a pivot, e_r of order d for a pivot d >= 2 in row r.
    With the Hermite columns of pivot 1 they form a unit lower triangular
    matrix, so they span Z^m modulo the image; the Hermite columns are
    independent, so the free rows number the free rank.  The readout is
    faithful, else None, when the pivots >= 2 are the torsion of
    ``group`` and every d e_r lies in the image (``hnf_solve``): a
    finitely generated abelian group maps onto itself only
    isomorphically.
    """
    pivot_set = set(image_pivots)
    free_rows = [r for r in range(m) if r not in pivot_set]
    torsion_rows = sorted((vec[row], row) for vec, row
                          in zip(image_hnf, image_pivots) if vec[row] >= 2)
    if [val for val, _ in torsion_rows] != list(group.torsion):
        return None
    if any(hnf_solve(image_hnf, image_pivots, {r: d}) is None
           for d, r in torsion_rows):
        return None
    gen_columns = [{r: 1} for r in free_rows]
    gen_columns += [{r: 1} for _, r in torsion_rows]
    orders = [0] * len(free_rows) + [val for val, _ in torsion_rows]
    return gen_columns, orders


def _snf_generators(m, group, image_cols, image_hnf, image_pivots):
    """Generator columns from the Smith transform of the image lattice."""
    B = IntMatrix.from_columns([_dense(col, range(m)) for col in image_cols])
    res = snf(B)
    diag = res.diagonal()
    u_inv = int_inverse(res.U)
    free_cols, torsion_cols, torsion_orders = [], [], []
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        column = {r: x for r, x in enumerate(u_inv.column(i)) if x}
        col = _reduce_mod_lattice(column, image_hnf, image_pivots)
        if d == 0:
            free_cols.append(col)
        elif d >= 2:
            torsion_cols.append(col)
            torsion_orders.append(d)
    gen_columns = free_cols + torsion_cols
    orders = [0] * len(free_cols) + torsion_orders
    assert len(free_cols) == group.free_rank
    assert torsion_orders == list(group.torsion)
    return gen_columns, orders


def cocycle_coordinates(H, cochain):
    """Coordinates of a cocycle's class in the generator basis of H.

    Free coordinates are exact integers; torsion coordinates are
    residues in [0, m_i).  Raises NotACocycleError when the cochain is
    not closed, ComplexError on shape mismatch.  The kernel lattice is
    saturated, so an integer cochain is closed exactly when it is a
    member of it.
    """
    if cochain.degree != H.degree or cochain.dim != H.dim:
        raise ComplexError("cochain degree/dimension does not match H^%d with "
                           "coefficients Z^%d" % (H.degree, H.dim))
    if cochain.cells != H.cells:
        raise ComplexError("cochain is over different cells")
    kernel_coords = hnf_solve(H._kernel_basis, H._kernel_pivots,
                              {i: x for i, x in enumerate(cochain.flatten())
                               if x})
    if kernel_coords is None:
        raise NotACocycleError("cochain is not a cocycle")
    if not H.generators:
        return ()
    columns = list(H._gen_columns) + list(H._image_hnf)
    m = len(H._kernel_basis)
    solution = int_solve(
        IntMatrix.from_columns([_dense(col, range(m)) for col in columns]),
        _dense(kernel_coords, range(m)))
    if solution is None:
        raise ComplexError("internal error: class not generated by the "
                           "reported generators")
    coords = []
    for i, order in enumerate(H.orders):
        a = solution[i]
        coords.append(a % order if order else a)
    return tuple(coords)


def cochain_from_coordinates(H, coords):
    """Integer combination of the generators with the given coordinates."""
    if len(coords) != len(H.generators):
        raise ComplexError("expected %d coordinates" % len(H.generators))
    n = H.dim
    flat = [0] * (n * len(H.cells))
    for c, gen in zip(coords, H.generators):
        if c:
            for i, x in enumerate(gen.flatten()):
                flat[i] += int(c) * x
    return TwistedCochain(H.degree, n, H.cells,
                          [flat[i:i + n] for i in range(0, len(flat), n)])


class RationalCohomology:
    """H^k(base; Q) through the augmentation, with an exactness oracle.

    ``basis`` holds representing cocycles, the earliest dual cochains
    (top degree) or kernel vectors whose classes are independent, named
    by ``basis_labels``.  ``projection`` holds the rows of the
    coordinate map P over Q: on a closed cochain v, ``coordinates(v)`` is
    ``projection`` times v, so P kills every coboundary and is the
    identity on ``basis``.  ``scaled_projection`` holds the same rows as
    sparse integer rows {cell index: int} of M.P, M = ``denominator``
    the least common denominator of P.
    """

    __slots__ = ("degree", "cells", "dimension", "basis", "basis_labels",
                 "projection", "denominator", "scaled_projection",
                 "_delta_out")

    def __init__(self, degree, cells, basis, basis_labels, projection,
                 delta_out):
        self.degree = degree
        self.cells = tuple(cells)
        self.dimension = len(basis)
        self.basis = tuple(basis)
        self.basis_labels = tuple(basis_labels)
        self.projection = tuple(projection)
        self.denominator, scaled = common_denominator(self.projection)
        self.scaled_projection = tuple(
            {j: x for j, x in enumerate(row) if x} for row in scaled)
        self._delta_out = delta_out

    def check_closed(self, values):
        """Raise NotACocycleError unless the k-cochain is closed."""
        if self._delta_out is not None and any(
                _dot(row, values) for row in self._delta_out):
            raise NotACocycleError("rational cochain is not closed")

    def coordinates(self, values):
        """Class of a rational k-cochain in the chosen basis of H^k(B;Q)."""
        vec = tuple(Fraction(x) for x in values)
        if len(vec) != len(self.cells):
            raise ComplexError("expected one rational per %d-cell" % self.degree)
        self.check_closed(vec)
        return tuple(Fraction(sum(x * vec[j] for j, x in row.items()),
                              self.denominator)
                     for row in self.scaled_projection)


def untwisted_cohomology_Q(complex_, k):
    """Cellular cohomology of the base over Q in degree k.

    Uses the augmentation (send every group element to 1) to collapse
    the equivariant complex to the cellular cochain complex of the
    quotient; above the top dimension there are no cochains, so H^k = 0.
    The classes are read in the Hermite basis K of ker delta^k: the unit
    cochains ``dual(cell)`` when there is no delta^k, as at the top
    degree, else ``kernel[i]``.  The columns of delta^{k-1} in
    K-coordinates span the coboundaries, and the functionals that kill
    them, the left kernel, are H^k(B;Q)'s dual.  Row-reduced over Q,
    their pivot columns pick the basis and their rows are the
    coordinate map; it is carried from K-coordinates to cochains through
    the pivot rows of K.
    """
    if k < 0:
        raise ComplexError("degree %d out of range" % k)
    cells = complex_.cells_in(k)
    if not cells:
        return RationalCohomology(k, cells, (), (), (), None)
    one = complex_.augmentation
    delta_out = complex_.coboundary(one, k)
    size = len(cells)
    kernel, pivots = _cocycle_lattice(delta_out, size)
    if delta_out is None:
        labels = ["dual(%s)" % c for c in cells]
    else:
        labels = ["kernel[%d]" % i for i in range(len(kernel))]
    image = _image_coordinates(complex_, one, k, kernel, pivots)
    left, left_pivots = kernel_hnf(image, len(kernel))
    projection = _on_cochains(_reduced_echelon(left, left_pivots), kernel,
                              pivots, size)
    return RationalCohomology(
        k, cells, [_dense(kernel[p], range(size)) for p in left_pivots],
        [labels[p] for p in left_pivots], projection, delta_out)


def _reduced_echelon(basis, pivots):
    """Reduced row echelon form over Q of Hermite rows: rows in the
    order given, each scaled to 1 at its pivot and zero at the others."""
    reduced = []
    for col, p in zip(reversed(basis), reversed(pivots)):
        row = {j: Fraction(a, col[p]) for j, a in col.items()}
        for later, q in zip(reduced, pivots[len(pivots) - len(reduced):]):
            f = row.get(q)
            if f:
                _add_multiple(row, -f, later)
        reduced.insert(0, row)
    return reduced


def _on_cochains(rows, kernel, pivots, size):
    """Functionals r on K-coordinates as dense rows x on cochains with
    x . (K c) = r . c, supported on the pivot rows of K.  The block of K
    on its pivot rows is lower triangular, so x comes from
    back-substitution, last kernel vector first."""
    index = {p: i for i, p in enumerate(pivots)}
    later = [[(r, a) for r, a in col.items() if index.get(r, -1) > i]
             for i, col in enumerate(kernel)]
    out = []
    for row in rows:
        x = [Fraction(0)] * size
        for i in reversed(range(len(kernel))):
            total = row.get(i, 0) - sum(x[r] * a for r, a in later[i])
            x[pivots[i]] = Fraction(total) / kernel[i][pivots[i]]
        out.append(tuple(x))
    return out
