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
torus), so DD is held as sparse integer rows of L.DD.  H^3(B; Q) holds
P as integer rows M.P over its own common denominator M, so the
obstruction matrix and certification run on plain ints, and a value is
divided by M.L only to be reported.
``dd_evaluate`` is the term-by-term reference DD is checked against: it
pairs rho(back word) . c with ell(front word) . L.P over the integers
and divides by L once per 3-cell.

Every word is multiplied out once per parsed problem, and its nonzero
entries are cached on its representation.  A row of L.DD is built from
those entries: the front vector ell(front word) . L.P(front cell) of
each term, then rho(back word)^T of it.

Diagonal data is input, not derived: the bundled geometries use cell
structures with a single 3-cell, where no off-the-shelf front/back face
formula applies.  ``validate_diagonal`` certifies a term table by the
two properties that make the construction well defined on cohomology
(coboundaries land in coboundaries; re-lifting a 3-cell changes
nothing), and checks DD against ``dd_evaluate``.  Re-lifting by a word
w applies rho(w)^T ell(w) to the cell's front vectors.  That product
is tested exactly against the identity, never assumed; only a word
where it differs has its re-lifted rows built.
"""

import random
from fractions import Fraction
from operator import mul

from .complexes import NotACocycleError, TwistedCochain
from .groupring import Word, rep_eval
from .intlinalg import (
    LinAlgError,
    _dot,
    _times,
    common_denominator,
    transpose,
)

# Seeded certification: random 1-cochains for (a) and a tenth as many
# pairs for (c); random words of up to MAX_WORD_LEN letters for (b).
N_RANDOM_COCHAINS = 100
N_RANDOM_WORDS = 20
MAX_WORD_LEN = 3


class ObstructionError(Exception):
    """Inconsistent period, diagonal, or obstruction data."""


class PeriodAssignment:
    """Rational period vector per basis 1-cell.

    Component l of the vector on a 1-cell is the integral of the l-th
    frame form over that cell; translates of the basis cell are covered
    by the equivariance rule P(g.e) = ell(g) P(e), so only basis values
    are stored.  ``denominator`` is the common denominator L of all
    periods, and ``scaled_vector`` gives L.P(e) as integers.
    """

    __slots__ = ("dim", "values", "denominator", "_scaled")

    def __init__(self, dim, values):
        self.dim = int(dim)
        clean = {}
        for cell, vec in values.items():
            vec = tuple(Fraction(x) for x in vec)
            if len(vec) != self.dim:
                raise ObstructionError(
                    "period vector on %r has length %d, expected %d"
                    % (cell, len(vec), self.dim))
            clean[cell] = vec
        self.values = clean
        self.denominator, scaled = common_denominator(clean.values())
        self._scaled = dict(zip(clean, scaled))

    def vector(self, cell):
        return self._lookup(self.values, cell)

    def scaled_vector(self, cell):
        """L.P(cell) as a tuple of ints, L = ``denominator``."""
        return self._lookup(self._scaled, cell)

    @staticmethod
    def _lookup(vectors, cell):
        try:
            return vectors[cell]
        except KeyError:
            raise ObstructionError("no period vector for 1-cell %r" % cell) from None

    def __eq__(self, other):
        return (isinstance(other, PeriodAssignment)
                and self.dim == other.dim and self.values == other.values)

    def __repr__(self):
        return "PeriodAssignment(dim=%d, cells=%d)" % (self.dim, len(self.values))


class DiagonalApproximation:
    """Signed (front 1-cell, word | back 2-cell, word) terms per 3-cell."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for cell, term_list in terms.items():
            rows = []
            for sign, front_cell, front_word, back_cell, back_word in term_list:
                if sign not in (1, -1):
                    raise ObstructionError("diagonal term sign must be +-1")
                if not isinstance(front_word, Word) or not isinstance(back_word, Word):
                    raise ObstructionError("diagonal term words must be Words")
                rows.append((sign, front_cell, front_word, back_cell, back_word))
            clean[cell] = tuple(rows)
        self.terms = clean

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
    2-cell.
    """
    try:
        delta1 = complex_.coboundary(rep_form, 1)
    except LinAlgError as exc:
        return ["periods cannot be checked: %s" % exc]
    if delta1 is None:
        return []
    n = rep_form.dim
    if n != periods.dim:
        return ["periods have %d components but representation %r has "
                "dimension %d" % (periods.dim, rep_form.name, n)]
    flat = [x for cell in complex_.cells[1] for x in periods.scaled_vector(cell)]
    return ["periods are not closed around the boundary of %r" % cell
            for i, cell in enumerate(complex_.cells[2])
            if any(_dot(row, flat) for row in delta1[i * n:(i + 1) * n])]


def dd_evaluate(complex_, diagonal, rep_coeff, rep_form, periods, cochain):
    """Rational 3-cochain obtained by cup-pairing a degree-2 cocycle.

    Returns a tuple of Fractions aligned with the basis 3-cells.  Linear
    in the cochain; requires the duality between rep_form and rep_coeff
    to have been checked by the caller for the value to drop to the
    base.  Evaluates term by term, <rho(bw) c(bc), ell(fw) L.P(fc)> over
    the integers, and divides each 3-cell's total by L once: the
    reference for ``cup_matrix``, which moves rho(bw) to the other side.
    """
    if cochain.degree != 2:
        raise ObstructionError("cup pairing needs a degree-2 cochain")
    if cochain.dim != periods.dim or cochain.dim != rep_coeff.dim:
        raise ObstructionError("coefficient dimension mismatch")
    on_cell = dict(zip(cochain.cells, cochain.values))
    values = []
    for cell in complex_.cells_in(3):
        total = 0
        for sign, front_cell, front_word, back_cell, back_word in \
                diagonal.for_cell(cell):
            cvec = rep_eval(rep_coeff, back_word).apply(on_cell[back_cell])
            pvec = rep_eval(rep_form, front_word).apply(
                periods.scaled_vector(front_cell))
            total += sign * sum(map(mul, cvec, pvec))
        values.append(Fraction(total, periods.denominator))
    return tuple(values)


def _apply(entries, vector, transpose=False):
    """A square matrix, or its transpose, times ``vector``, from its
    nonzero ``entries`` (i, j, x)."""
    out = [0] * len(vector)
    for i, j, x in entries:
        if transpose:
            i, j = j, i
        out[i] += x * vector[j]
    return out


def _front_vectors(terms, rep_form, periods):
    """A 3-cell's terms as (sign, ell(fw) L.P(fc), back cell, back
    word): the front factor of each term, which no re-lift changes."""
    return [(sign, _apply(rep_form.word_entries(front_word),
                          periods.scaled_vector(front_cell)),
             back_cell, back_word)
            for sign, front_cell, front_word, back_cell, back_word in terms]


def _cup_row(fronts, starts, rep_coeff):
    """One 3-cell's row of L.DD as {column: int}, from its
    ``_front_vectors``: a term adds sign * rho(bw)^T v to its back
    cell's block, which starts at column ``starts[bc]``, as
    <rho(w) c, v> = <c, rho(w)^T v>."""
    row = {}
    for sign, vector, back_cell, back_word in fronts:
        j = starts[back_cell]
        for x in _apply(rep_coeff.word_entries(back_word), vector, True):
            if x:
                row[j] = row.get(j, 0) + sign * x
            j += 1
    return {j: x for j, x in row.items() if x}


def _relifted_row(fronts, word, starts, rep_coeff, rep_form):
    """The ``_cup_row`` of a 3-cell re-lifted by ``word``, from its
    ``_front_vectors``: the re-lifted term (w.fw | w.bw) adds
    rho(bw)^T rho(w)^T ell(w) ell(fw) L.P(fc)."""
    ell_w = rep_form.word_entries(word)
    rho_w = rep_coeff.word_entries(word)
    return _cup_row([(sign, _apply(rho_w, _apply(ell_w, vector), True),
                      back_cell, back_word)
                     for sign, vector, back_cell, back_word in fronts],
                    starts, rep_coeff)


def _relift_is_trivial(word, rep_coeff, rep_form):
    """Whether rho(w)^T ell(w) = 1, tested on each unit column exactly."""
    ell_w = rep_form.word_entries(word)
    rho_w = rep_coeff.word_entries(word)
    n = rep_coeff.dim
    return all(_apply(rho_w, _apply(ell_w, unit), True) == unit
               for unit in ([int(i == k) for i in range(n)] for k in range(n)))


class CupPairing:
    """The cup pairing DD over one denominator: ``rows`` holds, per
    basis 3-cell, the sparse integer row {column: int} of L.DD, with L =
    ``denominator`` the periods' common denominator."""

    __slots__ = ("rows", "denominator")

    def __init__(self, rows, denominator):
        self.rows = tuple(rows)
        self.denominator = denominator

    def apply(self, flat):
        """L.DD times a flat 2-cochain: L times ``dd_evaluate``, as ints."""
        return tuple(_dot(row, flat) for row in self.rows)

    def __repr__(self):
        return "CupPairing(rows=%d, denominator=%d)" % (len(self.rows),
                                                       self.denominator)


def _block_starts(complex_, n):
    """The column where each 2-cell's block of n coordinates starts."""
    return {cell: n * i for i, cell in enumerate(complex_.cells_in(2))}


def cup_matrix(complex_, diagonal, rep_coeff, rep_form, periods):
    """The cup pairing as a ``CupPairing``, one integer row of L.DD per
    basis 3-cell: row i times ``cochain.flatten()`` is L times
    ``dd_evaluate``'s i-th value."""
    if not periods.dim == rep_coeff.dim == rep_form.dim:
        raise ObstructionError("coefficient dimension mismatch")
    starts = _block_starts(complex_, rep_coeff.dim)
    return CupPairing((_cup_row(_front_vectors(diagonal.for_cell(cell),
                                               rep_form, periods),
                                starts, rep_coeff)
                       for cell in complex_.cells_in(3)),
                      periods.denominator)


class ObstructionMap:
    """The map from H^2 generator coordinates to H^3(B;Q).

    ``matrix`` is a tuple of rows of Fractions, one row per H^3(B;Q)
    basis class, or None when the source or the target is zero.  Columns
    follow the generator order of the source cohomology group (free
    generators first, then torsion); torsion columns are zero by
    construction, which is re-validated on build.  ``generator_values``
    holds the columns, also when the target is zero; the target's basis
    is that of the H^3(B;Q) the map was built from.
    """

    __slots__ = ("matrix", "source_orders", "generator_values")

    def __init__(self, matrix, source_orders, generator_values):
        self.matrix = matrix
        self.source_orders = tuple(source_orders)
        self.generator_values = tuple(generator_values)

    def __repr__(self):
        shape = "zero" if self.matrix is None else \
            "%dx%d" % (len(self.matrix), len(self.matrix[0]))
        return "ObstructionMap(%s)" % shape


def dd_matrix(H2, cup, h3):
    """Obstruction matrix: one column per H^2 generator.

    Column j is P.DD.g_j, the H^3(B;Q) class (P from ``h3``) of the cup
    pairing DD = ``cup`` of generator j, computed over the integers as
    (M.P)(L.DD)g_j and divided by M.L once.  A cup pairing that is not
    closed, or a nonzero value on a torsion generator, means the
    supplied diagonal or period data is inconsistent (a torsion class
    must die in a torsion-free target) and raises ObstructionError.
    """
    scale = h3.denominator * cup.denominator
    columns = []
    for j, (gen, order) in enumerate(zip(H2.generators, H2.orders), start=1):
        values = cup.apply(gen.flatten())
        try:
            h3.check_closed(values)
        except NotACocycleError:
            raise ObstructionError(
                "diagonal data or inputs inconsistent: the cup pairing of "
                "g%d is not a cocycle" % j) from None
        cls = tuple(Fraction(_dot(row, values), scale)
                    for row in h3.scaled_projection)
        if order and any(x != 0 for x in cls):
            raise ObstructionError(
                "diagonal data or inputs inconsistent: the obstruction of an "
                "order-%d torsion generator is nonzero" % order)
        columns.append(cls)
    matrix = tuple(zip(*columns)) if columns and h3.dimension > 0 else None
    return ObstructionMap(matrix, H2.orders, columns)


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
    """Certify a diagonal table: descent, lift independence, and DD
    against the term-by-term evaluation.

    The checks are exact integer tests on L.DD (``cup_matrix``) and on
    M.P, the coordinate map P of ``h3`` (the degree-3
    ``untwisted_cohomology_Q``) times its common denominator M:

    (a) every basis twisted 1-cochain's coboundary pairs to an exact
        3-cochain: its column of P.DD.delta^1 is zero;
    (b) re-lifting any single 3-cell by a group word w leaves the
        classes of the H^2 generators unchanged: exactly so where
        rho(w)^T ell(w) = 1, else checked on the cell's re-lifted row
        (``_relifted_row``);
    (c) DD agrees with ``dd_evaluate`` on both cochains of a pair (one
        check per pair).  Both maps are linear, so this also settles the
        pair's sum: additivity holds by construction.

    The deterministic pass covers all basis 1-cochains, all generator
    words and their inverses, and the first two H^2 generators; a ``seed``
    widens (a)-(c) with random cochains, words and pairs drawn from it.
    """
    failures = []
    checks = 0
    cup = None
    try:
        cup = cup_matrix(complex_, diagonal, rep_coeff, rep_form, periods)
        checks = _run_diagonal_checks(
            complex_, diagonal, rep_coeff, rep_form, periods, H2, h3, cup,
            None if seed is None else random.Random(seed), failures)
    except ObstructionError as exc:
        failures.append("diagonal data unusable: %s" % exc)
    return DiagonalReport(failures, checks, cup)


def _run_diagonal_checks(complex_, diagonal, rep_coeff, rep_form, periods,
                         H2, h3, cup, rng, failures):
    checks = 0
    n = rep_coeff.dim
    L = cup.denominator
    M, projection = h3.denominator, h3.scaled_projection

    # (a) coboundary vanishing, on the columns of (M.P).(L.DD).delta^1;
    # each 1-cochain psi is sparse {index: entry}
    width = n * complex_.n_cells(1)
    delta1 = complex_.coboundary(rep_coeff, 1)
    coboundary_classes = []
    if delta1 is not None:
        coboundary_classes = [_times(_times(p, cup.rows), delta1)
                              for p in projection]
    columns = transpose(coboundary_classes, width)
    psis = [{idx: 1} for idx in range(width)]
    if rng is not None:
        for _ in range(N_RANDOM_COCHAINS):
            drawn = [rng.randint(-5, 5) for _ in range(width)]
            psis.append({i: x for i, x in enumerate(drawn) if x})
    for psi in psis:
        checks += 1
        cls = _times(psi, columns)
        if cls:
            flat = [psi.get(i, 0) for i in range(width)]
            failures.append(
                "coboundary of the twisted 1-cochain %r pairs to a nonzero "
                "class %r" % (TwistedCochain.from_flat(complex_, 1, n, flat),
                              tuple(Fraction(cls.get(r, 0), M * L)
                                    for r in range(len(coboundary_classes)))))

    # (b) translation invariance of generator classes
    gen_flats = [gen.flatten() for gen in H2.generators]
    gen_values = [cup.apply(flat) for flat in gen_flats]
    words = []
    for idx in range(len(complex_.presentation.generators)):
        words.append(Word.generator(idx, 1))
        words.append(Word.generator(idx, -1))
    words.append(Word())
    if rng is not None:
        gen_count = len(complex_.presentation.generators)
        for _ in range(N_RANDOM_WORDS):
            length = rng.randint(1, MAX_WORD_LEN)
            letters = tuple((rng.randrange(gen_count), rng.choice((1, -1)))
                            for _ in range(length))
            words.append(Word(letters))
    starts = _block_starts(complex_, n)
    # a word with rho(w)^T ell(w) = 1 re-lifts each cell to its own row,
    # which gives every generator its value: its checks pass unbuilt
    cells = complex_.cells_in(3)
    moving = [word for word in words if cells
              and not _relift_is_trivial(word, rep_coeff, rep_form)]
    checks += len(cells) * (len(words) - len(moving)) * len(gen_flats)
    for i, cell in enumerate(cells if moving else ()):
        # a change in cell i's value moves the class by it times column i
        visible = any(i in p for p in projection)
        fronts = _front_vectors(diagonal.for_cell(cell), rep_form, periods)
        for word in moving:
            row = _relifted_row(fronts, word, starts, rep_coeff, rep_form)
            for flat, values in zip(gen_flats, gen_values):
                checks += 1
                if visible and _dot(row, flat) != values[i]:
                    failures.append(
                        "re-lifting %r by %s changes the class of a generator"
                        % (cell, word.text(complex_.presentation.generators)))

    # (c) the assembled map against the term-by-term one; both are
    # linear, so agreeing on c1 and c2 they agree on c1 + c2 and the
    # sum needs no check of its own
    pairs = []
    if len(H2.generators) >= 2:
        pairs.append((H2.generators[0], H2.generators[1]))
    if rng is not None and width and complex_.top >= 2:
        size = n * complex_.n_cells(2)
        for _ in range(N_RANDOM_COCHAINS // 10):
            c1 = TwistedCochain.from_flat(
                complex_, 2, n, [rng.randint(-5, 5) for _ in range(size)])
            c2 = TwistedCochain.from_flat(
                complex_, 2, n, [rng.randint(-5, 5) for _ in range(size)])
            pairs.append((c1, c2))
    for pair in pairs:
        checks += 1
        if any(cup.apply(c.flatten()) != tuple(
                L * v for v in dd_evaluate(complex_, diagonal, rep_coeff,
                                           rep_form, periods, c))
               for c in pair):
            failures.append("the assembled cup pairing disagrees with the "
                            "term-by-term evaluation")

    return checks
