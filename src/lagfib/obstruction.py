"""The obstruction homomorphism as a twisted cup product.

A degree-2 twisted cocycle c is paired against the rational periods of
an equivariant frame of closed 1-forms, through an explicit diagonal
approximation supplied per 3-cell as signed (front 1-cell, word | back
2-cell, word) terms.  Each term contributes

    sign * < rho(back word) . c(back cell), ell(front word) . P(front cell) >

to the value on that 3-cell; the resulting rational 3-cochain drops to
the base and its class in H^3(B; Q) is the obstruction value of [c].

The pairing is linear in c, so ``cup_matrix`` assembles it once as a
matrix DD, and the obstruction of [c] is P.DD.c with P the coordinate
map of H^3(B; Q).  The periods have a small common denominator L (n
for the periods 1/n of an n-fold subdivided grid, 2 on the mapping
torus), so DD is held as sparse integer rows of L.DD.  H^3(B; Q), the
free part of the integral H^3, holds P as integer rows M.P over its
common denominator M, so the obstruction matrix and certification run
on plain ints: D is held as the integer matrix (M.L).D over M.L, and a
value is reduced to lowest terms only to be written as text.

The periods are checked closed on the boundary's terms (target, word,
coefficient) themselves, sum c . ell(w) . L.P(target) on each 2-cell
(``check_periods_closed``), so no check assembles a coboundary under
ell, which no cohomology reads when its holonomy differs from rho's.

Every word is multiplied out once per parsed problem, and its nonzero
entries are cached on its representation.  A row of L.DD is built from
those entries: the front vector ell(front word) . L.P(front cell) of
each term, then rho(back word)^T of it.  As <rho(w) c, v> = <c, rho(w)^T
v>, a row times c is the term-by-term value on its 3-cell with the sum
taken in the other order, so no run-time check compares the two: they
read the same cells, words and periods, and data that cannot be read
stops the assembly.

Diagonal data is input, not derived: the bundled geometries use cell
structures with a single 3-cell, where no off-the-shelf front/back face
formula applies.  ``validate_diagonal`` certifies a term table by the
two properties that make the construction well defined on cohomology:
(a) coboundaries land in coboundaries, and (b) re-lifting a 3-cell
changes nothing.  Re-lifting a 3-cell by a group word w applies
rho(w)^T ell(w) to the front vector of each of its terms, so it changes
nothing on any table exactly when ell(w) = rho(w^-1)^T: (b) is the
duality rho = ell^-T, which ``groupring.check_duality`` decides, and
certification evaluates (a) alone.  A seeded run counts its random
checks of both kinds and evaluates only the basis cochains of (a),
whose failures are all there is to report.
"""

from math import gcd, lcm

from .complexes import NotACocycleError, TwistedCochain
from .groupring import (
    GeneratorIndexError,
    PresentationMismatch,
    Word,
    check_duality,
)
from .intlinalg import (
    LinAlgError,
    _dot,
    _integer,
    _times,
    rational_text,
    transpose,
)

# Seeded certification counts random 1-cochains for (a) and a tenth as
# many pairs for (c), and random words for (b) per 3-cell and generator.
N_RANDOM_COCHAINS = 100
N_RANDOM_WORDS = 20


class ObstructionError(Exception):
    """Inconsistent period, diagonal, or obstruction data."""


class PeriodAssignment:
    """Rational period vector per basis 1-cell.

    Component l of the vector on a 1-cell is the integral of the l-th
    frame form over that cell; translates of the basis cell are covered
    by the equivariance rule P(g.e) = ell(g) P(e), so only basis values
    are given: ``values`` holds a vector per cell, and the periods are
    its entries over ``denominator``, a positive int.  An entry is an
    int or a Fraction, never a float or a string; the reader passes
    integer vectors L.P over L.  The periods are held once, as their
    least common denominator L, ``denominator``, and the integer vector
    L.P(e) per cell, which ``scaled_vector`` gives.
    """

    __slots__ = ("dim", "denominator", "_scaled")

    def __init__(self, dim, values, denominator=1):
        self.dim = _integer(dim, ObstructionError, "period dimension")
        denominator = _integer(denominator, ObstructionError,
                               "period denominator")
        if denominator < 1:
            raise ObstructionError("period denominator must be positive, "
                                   "got %d" % denominator)
        from fractions import Fraction
        clean = {}
        for cell, vec in values.items():
            vec = tuple(vec)
            if not all(isinstance(x, (int, Fraction)) for x in vec):
                raise ObstructionError("periods on %r must be ints or "
                                       "Fractions, got %r" % (cell, vec))
            if len(vec) != self.dim:
                raise ObstructionError(
                    "period vector on %r has length %d, expected %d"
                    % (cell, len(vec), self.dim))
            clean[cell] = vec
        # the entries are integers over m, an int being over 1, and the
        # periods over m * denominator, reduced by g to the least one
        m = lcm(*(x.denominator for vec in clean.values() for x in vec))
        g = gcd(m * denominator, *(x.numerator * (m // x.denominator)
                                   for vec in clean.values() for x in vec))
        self.denominator = m * denominator // g
        self._scaled = {cell: tuple(x.numerator * (m // x.denominator) // g
                                    for x in vec)
                        for cell, vec in clean.items()}

    @classmethod
    def _unchecked(cls, dim, scaled, denominator):
        """The periods ``scaled`` over ``denominator``, taken as they are:
        for a reader that has checked what the constructor checks, so that
        ``scaled`` holds a tuple of ``dim`` ints per cell and the periods
        over ``denominator`` are in lowest terms."""
        periods = object.__new__(cls)
        periods.dim = dim
        periods.denominator = denominator
        periods._scaled = scaled
        return periods

    def scaled_vector(self, cell):
        """L.P(cell) as a tuple of ints, L = ``denominator``."""
        try:
            return self._scaled[cell]
        except KeyError:
            raise ObstructionError("no period vector for 1-cell %r" % cell) from None

    def __eq__(self, other):
        return (isinstance(other, PeriodAssignment)
                and (self.dim, self.denominator, self._scaled)
                == (other.dim, other.denominator, other._scaled))

    def __repr__(self):
        return "PeriodAssignment(dim=%d, cells=%d)" % (self.dim, len(self._scaled))


class DiagonalApproximation:
    """Signed (front 1-cell, word | back 2-cell, word) terms per 3-cell."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for cell, term_list in terms.items():
            rows = []
            for sign, front_cell, front_word, back_cell, back_word in term_list:
                sign = _integer(sign, ObstructionError, "diagonal term sign")
                if sign not in (1, -1):
                    raise ObstructionError("diagonal term sign must be +-1")
                if not isinstance(front_word, Word) or not isinstance(back_word, Word):
                    raise ObstructionError("diagonal term words must be Words")
                rows.append((sign, front_cell, front_word, back_cell, back_word))
            clean[cell] = tuple(rows)
        self.terms = clean

    @classmethod
    def _unchecked(cls, terms):
        """The table ``terms``, taken as it is: for a reader that has
        checked what the constructor checks, so that it holds a tuple of
        (sign +-1, front cell, Word, back cell, Word) terms per cell."""
        table = object.__new__(cls)
        table.terms = terms
        return table

    def for_cell(self, cell):
        try:
            return self.terms[cell]
        except KeyError:
            raise ObstructionError("no diagonal terms for 3-cell %r" % cell) from None

    def __eq__(self, other):
        return isinstance(other, DiagonalApproximation) and self.terms == other.terms

    def __repr__(self):
        return "DiagonalApproximation(cells=%d)" % len(self.terms)


def check_periods_closed(complex_, rep_form, periods):
    """Failures of the twisted cocycle condition for the period vectors.

    The frame forms are closed, so the periods of every boundary circle
    must vanish: delta^1 (L.P) = 0 over Z for the coboundary of
    rep_form and the scaled periods of ``cup_matrix``, checked per
    2-cell.  No coboundary is assembled: on a 2-cell the condition is
    sum c . ell(w) . L.P(target) = 0 over its boundary's triples
    (target, word id, coefficient), each word's matrix entries looked up
    once.  The words of the 2-cells' boundaries are evaluated first
    (``EquivariantComplex.boundary_entries``), so a word that cannot be
    evaluated is named as the assembly of delta^1 named it.
    """
    if not (complex_.n_cells(1) and complex_.n_cells(2)):
        return []
    if rep_form.presentation != complex_.presentation:
        raise PresentationMismatch(
            "complex and representation use different presentations")
    n = rep_form.dim
    try:
        entries = complex_.boundary_entries(rep_form, 2)
    except LinAlgError as exc:
        return ["periods cannot be checked: %s" % exc]
    if n != periods.dim:
        return ["periods have %d components but representation %r has "
                "dimension %d" % (periods.dim, rep_form.name, n)]
    vectors = [periods.scaled_vector(cell) for cell in complex_.cells[1]]
    failures = []
    for cell, triples in zip(complex_.cells[2], complex_.terms[2]):
        value = [0] * n
        for target, w, c in triples:
            vector = vectors[target]
            for i, j, x in entries[w]:
                value[i] += c * x * vector[j]
        if any(value):
            failures.append("periods are not closed around the boundary "
                            "of %r" % cell)
    return failures


def _apply(entries, vector, transpose=False):
    """A square matrix, or its transpose, times ``vector``, from its
    nonzero ``entries`` (i, j, x)."""
    out = [0] * len(vector)
    for i, j, x in entries:
        if transpose:
            i, j = j, i
        out[i] += x * vector[j]
    return out


def _cup_row(terms, starts, rep_coeff, rep_form, periods):
    """One 3-cell's row of L.DD as {column: int}: a term adds sign *
    rho(bw)^T ell(fw) L.P(fc) to its back cell's block, which starts at
    column ``starts[bc]``, as <rho(w) c, v> = <c, rho(w)^T v>."""
    row = {}
    for sign, front_cell, front_word, back_cell, back_word in terms:
        front = _apply(rep_form.word_entries(front_word),
                       periods.scaled_vector(front_cell))
        if back_cell not in starts:
            raise ObstructionError("back cell %r is not a 2-cell" % back_cell)
        j = starts[back_cell]
        for x in _apply(rep_coeff.word_entries(back_word), front, True):
            if x:
                row[j] = row.get(j, 0) + sign * x
            j += 1
    return {j: x for j, x in row.items() if x}


class CupPairing:
    """The cup pairing DD over one denominator: ``rows`` holds, per
    basis 3-cell, the sparse integer row {column: int} of L.DD, with L =
    ``denominator`` the periods' common denominator."""

    __slots__ = ("rows", "denominator")

    def __init__(self, rows, denominator):
        self.rows = tuple(rows)
        self.denominator = denominator

    def apply(self, entries):
        """L.DD times a 2-cochain's ``entries``: L times the cup pairing
        of the cochain, one int per basis 3-cell."""
        return tuple(_dot(row, entries) for row in self.rows)

    def __repr__(self):
        return "CupPairing(rows=%d, denominator=%d)" % (len(self.rows),
                                                       self.denominator)


def cup_matrix(complex_, diagonal, rep_coeff, rep_form, periods):
    """The cup pairing as a ``CupPairing``, one integer row of L.DD per
    basis 3-cell, over the columns of ``TwistedCochain.entries``: row i
    times ``cochain.entries`` is L times the cochain's cup pairing on the
    i-th 3-cell."""
    if not periods.dim == rep_coeff.dim == rep_form.dim:
        raise ObstructionError("coefficient dimension mismatch")
    # the column where each 2-cell's block of n coordinates starts
    starts = complex_.layout(2, rep_coeff.dim).starts()
    return CupPairing((_cup_row(diagonal.for_cell(cell), starts, rep_coeff,
                                rep_form, periods)
                       for cell in complex_.cells_in(3)),
                      periods.denominator)


class ObstructionMap:
    """The map D from H^2 generator coordinates to H^3(B;Q), as integers
    over one positive ``denominator``.

    ``scaled_matrix`` is a tuple of integer rows of ``denominator``.D,
    one row per H^3(B;Q) basis class, or None when the source or the
    target is zero.  Columns follow the generator order of the source
    cohomology group (free generators first, then torsion); torsion
    columns are zero by construction, which is re-validated on build.
    ``scaled_values`` holds the columns, also when the target is zero;
    the target's basis is that of the H^3(B;Q) the map was built from.
    """

    __slots__ = ("scaled_matrix", "denominator", "source_orders",
                 "scaled_values")

    def __init__(self, scaled_matrix, denominator, source_orders,
                 scaled_values):
        self.scaled_matrix = scaled_matrix
        self.denominator = denominator
        self.source_orders = tuple(source_orders)
        self.scaled_values = tuple(scaled_values)

    def __repr__(self):
        shape = "zero" if self.scaled_matrix is None else "%dx%d" % (
            len(self.scaled_matrix), len(self.scaled_matrix[0]))
        return "ObstructionMap(%s)" % shape


def dd_matrix(H2, cup, h3):
    """Obstruction matrix: one column per H^2 generator.

    Column j is P.DD.g_j, the H^3(B;Q) class (P from ``h3``) of the cup
    pairing DD = ``cup`` of generator j, held over the integers as
    (M.P)(L.DD)g_j over M.L.  A cup pairing that is not
    closed, or a nonzero value on a torsion generator, means the
    supplied diagonal or period data is inconsistent (a torsion class
    must die in a torsion-free target) and raises ObstructionError.
    """
    scale = h3.denominator * cup.denominator
    columns = []
    for j, (gen, order) in enumerate(zip(H2.generators, H2.orders), start=1):
        values = {i: x for i, x in enumerate(cup.apply(gen.entries)) if x}
        try:
            h3.integral.check_closed(values)
        except NotACocycleError:
            raise ObstructionError(
                "diagonal data or inputs inconsistent: the cup pairing of "
                "g%d is not a cocycle" % j) from None
        cls = tuple(_dot(row, values) for row in h3.scaled_projection)
        if order and any(cls):
            raise ObstructionError(
                "diagonal data or inputs inconsistent: the obstruction of an "
                "order-%d torsion generator is nonzero" % order)
        columns.append(cls)
    matrix = tuple(zip(*columns)) if columns and h3.dimension > 0 else None
    return ObstructionMap(matrix, scale, H2.orders, columns)


class DiagonalReport:
    """Certification outcome, and the cup pairing it ran on (or None)."""

    __slots__ = ("failures", "checks_run", "cup")

    def __init__(self, failures, checks_run, cup):
        self.failures = tuple(failures)
        self.checks_run = checks_run
        self.cup = cup

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        return "DiagonalReport(ok=%r, checks=%d)" % (self.ok, self.checks_run)


def validate_diagonal(complex_, diagonal, rep_coeff, rep_form, periods,
                      H2, h3, seed=None):
    """Certify a diagonal table: descent and lift independence.

    Three properties are counted, and (a) alone is evaluated, as an
    exact integer test on L.DD (``cup_matrix``) and on M.P, P the
    coordinate map of ``h3``, read from the integral H^3 of the base,
    and M its common denominator:

    (a) every basis twisted 1-cochain's coboundary pairs to an exact
        3-cochain: its column of P.DD.delta^1 is zero;
    (b) re-lifting any single 3-cell by a group word w leaves the
        classes of the H^2 generators unchanged.  A re-lift applies
        rho(w)^T ell(w) to the front vectors of the cell's terms, so (b)
        is the duality rho = ell^-T, and its failures are the lines of
        ``check_duality``, read only when there are 3-cells and H^2
        generators.  It counts one check per generator word, inverse
        and the empty word, 3-cell and H^2 generator;
    (c) DD agrees with the term-by-term pairing on the first two H^2
        generators (one check for the pair).  A row of L.DD times c is
        the term-by-term value <rho(w) c, v> summed as <c, rho(w)^T v>,
        so (c) holds on every pair once ``cup_matrix`` has read the
        table, and is counted, not evaluated.

    A ``seed`` adds random cochains, words and pairs to the count, and
    its value changes nothing: none is drawn.  The class of a 1-cochain
    psi = sum_i psi_i e_i is sum_i psi_i column_i, so a random cochain
    fails (a) only when a basis column is nonzero, and a random word
    fails (b) only when duality fails; either failure is already listed.

    Failures are listed by check, (a) then (b).  Data that cannot be
    read is one failure, ``diagonal data unusable``, and runs no check.
    """
    cup = None
    try:
        cup = cup_matrix(complex_, diagonal, rep_coeff, rep_form, periods)
        delta1 = complex_.coboundary(rep_coeff, 1)
    except (ObstructionError, GeneratorIndexError, LinAlgError) as exc:
        return DiagonalReport(["diagonal data unusable: %s" % exc], 0, cup)
    n = rep_coeff.dim
    width = complex_.layout(1, n).size
    n_gens = len(complex_.presentation.generators)
    cells = complex_.cells_in(3)

    # (a) coboundary vanishing, on the columns of (M.P).(L.DD).delta^1:
    # the class of the unit 1-cochain at index idx is column idx
    coboundary_classes = []
    if delta1 is not None:
        coboundary_classes = [_times(_times(p, cup.rows), delta1)
                              for p in h3.scaled_projection]
    failures = []
    for idx, cls in enumerate(transpose(coboundary_classes, width)):
        if cls:
            # the class as ``repr`` writes its tuple of Fractions
            texts = [rational_text(cls.get(r, 0),
                                   h3.denominator * cup.denominator,
                                   as_repr=True)
                     for r in range(len(coboundary_classes))]
            failures.append(
                "coboundary of the twisted 1-cochain %r pairs to a nonzero "
                "class (%s%s)" % (TwistedCochain(1, n, complex_.cells[1],
                                                 {idx: 1}),
                                  ", ".join(texts),
                                  "," if len(texts) == 1 else ""))
    # (b) is the duality check
    if cells and H2.generators:
        failures += check_duality(rep_form, rep_coeff)

    # (c) holds by the transpose identity once cup_matrix has succeeded:
    # the generator pair, and a seeded run's pairs, are counted only
    checks = (width + len(cells) * (2 * n_gens + 1) * len(H2.generators)
              + (len(H2.generators) >= 2))
    if seed is not None:
        checks += (N_RANDOM_COCHAINS
                   + len(cells) * N_RANDOM_WORDS * len(H2.generators))
        if width and complex_.top >= 2:
            checks += N_RANDOM_COCHAINS // 10
    return DiagonalReport(failures, checks, cup)
