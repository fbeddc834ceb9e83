"""In-code builders for the three bundled geometries, and exact linear
algebra that only the tests use: among it the dense Hermite form the
sparse one in ``lagfib.intlinalg`` is checked against, and the dense
block assembly of a coboundary from the dense value of each ring element
that the sparse rows of ``EquivariantComplex.coboundary`` are checked
against, the boundary's terms and dict entries derived from the word
table (``boundary_terms``, ``boundary_dicts``), the readers of those entries that the word table
replaced (coboundary rows, the free group ring's double boundary and
the periods check on the rows of delta^1) that its readers are checked
against, the cochains of the basis classes of H^k(B;Q) lifted from
their labels, and the term-by-term cup pairing ``dd_evaluate`` that
``lagfib.obstruction.cup_matrix`` is checked against, with the rational
one it is checked against in turn, and the matrix-times-vector
``apply`` it is built on, and the letter-by-letter word that
the run-stored ``lagfib.groupring.Word`` is checked against, and the
left-kernel coordinate map of H^k(B;Q) that the one read from the
integral quotient (``untwisted_cohomology_Q``) is checked against, and
the seeded certification suite with the random checks of (a) and (b)
drawn and evaluated, the reference for the identities its counts rest on, and the
Fraction views of the integer rationals the library holds (periods, the
obstruction map) and the text ``lagfib.intlinalg.rational_text`` is
checked against.  Also the
cochain and diagonal-table builders the tests construct inputs with, the
parsed problems the oracle tests run over by name, random
representations in GL(3, Z) and their duals, the values a constructor
must refuse as non-integers, and a circle whose cohomology has huge
torsion.

The builders mirror the bundled .iaf files; keeping an independent
in-code copy lets the algebra tests run without the parser and gives the
parser tests something to cross-check against.
"""

import random
import re
import sys
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path
from types import SimpleNamespace

from lagfib.complexes import ComplexError, EquivariantComplex, TwistedCochain
from lagfib.groupring import (
    Presentation,
    Representation,
    Word,
)
from lagfib.intlinalg import (
    IntMatrix,
    LinAlgError,
    _add_multiple,
    int_inverse,
    kernel_hnf,
    transpose,
)
from lagfib.obstruction import (
    DiagonalApproximation,
    ObstructionError,
    N_RANDOM_COCHAINS,
    N_RANDOM_WORDS,
    ObstructionMap,
    PeriodAssignment,
)
from lagfib.cli import load_bundled
from lagfib.problemfile import parse_problem_text, parse_word

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402


def named_problem(name):
    """The parsed problem of a bundled geometry ("t3", "heisenberg",
    "mapping_torus") or of a generated grid named like "sheared 3x2x2"."""
    if name in ("t3", "heisenberg", "mapping_torus"):
        return load_bundled(name)
    holonomy, size = name.split()
    return parse_problem_text(cubical_t3(*map(int, size.split("x")),
                                         holonomy))


# Values a constructor must refuse rather than truncate with int(): an
# integral Fraction is refused too, as operator.index refuses it.
NOT_INTEGERS = [Fraction(1, 2), 1.9, 2.0, Fraction(4, 2)]


class LetterWord:
    """The reference word: a tuple of (generator index, +1 or -1), one
    per letter, freely reduced letter by letter."""

    def __init__(self, letters=()):
        out = []
        for g, e in letters:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, 1 if e > 0 else -1))
        self.letters = tuple(out)

    @classmethod
    def spelled(cls, word):
        """A ``Word``'s runs spelled out letter by letter."""
        return cls(tuple((g, 1 if e > 0 else -1)
                         for g, e in word.letters for _ in range(abs(e))))

    def __mul__(self, other):
        return LetterWord(self.letters + other.letters)

    def inverse(self):
        return LetterWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return LetterWord(base.letters * abs(n))

    def __len__(self):
        return len(self.letters)

    def shortlex_key(self):
        return (len(self.letters),
                tuple((g, 0 if e > 0 else 1) for g, e in self.letters))

    def runs(self):
        """The letters grouped into runs (generator, exponent)."""
        runs = []
        for g, e in self.letters:
            if runs and runs[-1][0] == g:
                runs[-1] = (g, runs[-1][1] + e)
            else:
                runs.append((g, e))
        return tuple(runs)

    def text(self, names):
        if not self.letters:
            return "1"
        parts = []
        run_gen, count = self.letters[0]
        for g, e in self.letters[1:]:
            if g == run_gen and (e > 0) == (count > 0):
                count += e
            else:
                parts.append(_power_text(names[run_gen], count))
                run_gen, count = g, e
        parts.append(_power_text(names[run_gen], count))
        return "*".join(parts)

    def value(self, rep):
        """The letters' matrices under ``rep``, multiplied one by one."""
        out = IntMatrix.identity(rep.dim)
        for g, e in self.letters:
            out = out * (rep.matrices[g] if e > 0 else rep.inverses[g])
        return out


def _power_text(name, exp):
    return name if exp == 1 else "%s^%d" % (name, exp)


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


def apply(matrix, vector):
    """An IntMatrix times a column vector, whose entries may be
    rationals."""
    if len(vector) != matrix.cols:
        raise LinAlgError("vector length %d does not match %d columns"
                          % (len(vector), matrix.cols))
    return tuple(sum(map(mul, row, vector)) for row in matrix.data)


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
    not in the lattice: the reference for ``intlinalg.hermite_reduce``."""
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


def ring_value(rep, element):
    """The matrix of a group ring element under ``rep``: the sum of
    coeff * ``rep.eval_word(word)`` over its terms, as a dense
    IntMatrix."""
    n = rep.dim
    return IntMatrix([[sum(coeff * rep.eval_word(word).data[i][j]
                           for word, coeff in element.items())
                       for j in range(n)] for i in range(n)])


def boundary_terms(complex_):
    """{cell of positive degree: its boundary's triples as (lower cell,
    Word, coefficient), in order}, read from the word table."""
    return {cell: [(complex_.cells[k - 1][t], complex_.words[w], c)
                   for t, w, c in triples]
            for k in range(1, len(complex_.cells))
            for cell, triples in zip(complex_.cells[k], complex_.terms[k])}


def boundary_dicts(complex_):
    """The boundary as the dicts the public constructor of
    ``EquivariantComplex`` takes: {cell of positive degree: {lower cell:
    {Word: int}}}, a cell's entries and terms in the order of its
    triples."""
    found = {}
    for cell, terms in boundary_terms(complex_).items():
        row = found[cell] = {}
        for low, word, c in terms:
            row.setdefault(low, {})[word] = c
    return found


def coboundary_reference(complex_, rep, k):
    """delta^k under ``rep`` as a dense IntMatrix, assembled block by
    block: the reference for ``EquivariantComplex.coboundary``.  Rows
    are blocked by (k+1)-cells and columns by k-cells; block (i, j) is
    the value (``ring_value``) of the boundary entry of the i-th
    (k+1)-cell on the j-th k-cell.  Needs cells in degrees k and k + 1."""
    n, boundaries = rep.dim, boundary_dicts(complex_)
    start = {cell: j * n for j, cell in enumerate(complex_.cells[k])}
    rows = []
    for up in complex_.cells[k + 1]:
        block = [[0] * (n * len(start)) for _ in range(n)]
        for low, elem in boundaries[up].items():
            j = start[low]
            for row, values in zip(block, ring_value(rep, elem).data):
                row[j:j + n] = values
        rows += block
    return IntMatrix(rows)


def boundary_dict_rows(complex_, rep, k):
    """delta^k under ``rep`` as sparse rows {column: entry}, summed term
    by term from the dict entries of ``boundary_dicts``, each word's
    cached entries (``rep.word_entries``) read per term: the dict-based
    assembly that ``lagfib.complexes.coboundary_rows`` replaced, kept as
    its reference.  Needs cells in degrees k and k + 1."""
    n, boundaries = rep.dim, boundary_dicts(complex_)
    start = {cell: j * n for j, cell in enumerate(complex_.cells[k])}
    rows = []
    for up in complex_.cells[k + 1]:
        block = [{} for _ in range(n)]
        for low, elem in boundaries[up].items():
            j0 = start[low]
            for word, coeff in elem.items():
                for i, j, x in rep.word_entries(word):
                    row, j = block[i], j0 + j
                    v = row.get(j, 0) + coeff * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        rows += block
    return tuple(rows)


def double_boundary_dicts(complex_, k):
    """The double boundary from the (k+2)-cells to the k-cells in the
    free group ring, formed from the dict entries of
    ``boundary_dicts`` with products keyed by their runs:
    {index of a (k+2)-cell e: {index of a k-cell f: the terms
    (coefficient, runs of a word) of y_ef}}, the reference for
    ``EquivariantComplex._double_boundary``, whose terms name words by
    id."""
    boundaries = boundary_dicts(complex_)
    index = {cell: i for i, cell in enumerate(complex_.cells[k])}
    lower = {cell: [(index[low], word.letters, c)
                    for low, elem in boundaries[cell].items()
                    for word, c in elem.items()]
             for cell in complex_.cells[k + 1]}
    table = {}
    for e, up in enumerate(complex_.cells[k + 2]):
        sums = {}
        for mid, elem in boundaries[up].items():
            for w1, c1 in elem.items():
                for f, right, c2 in lower[mid]:
                    key = f, (w1 * Word._unchecked(right)).letters
                    sums[key] = sums.get(key, 0) + c1 * c2
        row = {}
        for (f, runs), c in sums.items():
            if c:
                row.setdefault(f, []).append((c, runs))
        if row:
            table[e] = row
    return table


def periods_closed_reference(complex_, rep_form, periods):
    """The periods check on the rows of delta^1 under ``rep_form``
    (``boundary_dict_rows``): a 2-cell fails where a row of its block
    times L.P is nonzero, with the failure texts of
    ``lagfib.obstruction.check_periods_closed``, the check it was."""
    if not (complex_.n_cells(1) and complex_.n_cells(2)):
        return []
    try:
        delta1 = boundary_dict_rows(complex_, rep_form, 1)
    except LinAlgError as exc:
        return ["periods cannot be checked: %s" % exc]
    n = rep_form.dim
    if n != periods.dim:
        return ["periods have %d components but representation %r has "
                "dimension %d" % (periods.dim, rep_form.name, n)]
    vector = {i * n + s: x for i, cell in enumerate(complex_.cells[1])
              for s, x in enumerate(periods.scaled_vector(cell)) if x}
    return ["periods are not closed around the boundary of %r" % cell
            for i, cell in enumerate(complex_.cells[2])
            if any(sum(row.get(j, 0) * x for j, x in vector.items())
                   for row in delta1[i * n:(i + 1) * n])]


def dense_coboundary(complex_, rep, k):
    """The sparse rows of ``complex_.coboundary(rep, k)`` as an
    IntMatrix."""
    width = rep.dim * complex_.n_cells(k)
    return IntMatrix([dense(row, width)
                      for row in complex_.coboundary(rep, k)])


def is_unimodular(A):
    return A.rows == A.cols and determinant(A) in (1, -1)


def random_gl3(rng):
    """A random matrix of GL(3, Z): a signed permutation matrix times up
    to three elementary matrices I + x E_ij, 1 <= |x| <= 2."""
    perm = rng.sample(range(3), 3)
    out = IntMatrix([[rng.choice((1, -1)) if j == perm[i] else 0
                      for j in range(3)] for i in range(3)])
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(3), 2)
        x = rng.choice((-2, -1, 1, 2))
        out = out * IntMatrix([[int(r == c) + (x if (r, c) == (i, j) else 0)
                                for c in range(3)] for r in range(3)])
    return out


def random_pair(rng, presentation, dual):
    """(rho, ell), random representations of ``presentation`` in GL(3, Z)
    named "rho" and "ell".  Each generator of rho is a power -2..2 of one
    random matrix, so that commutation relations hold, or a random matrix
    of its own.  ell is rho^-T when ``dual``, else rho^-T with one
    generator, or every one, drawn at random until it is not rho^-T."""
    base = random_gl3(rng)
    inverse = int_inverse(base)
    powers = {0: IntMatrix.identity(3), 1: base, 2: base * base,
              -1: inverse, -2: inverse * inverse}
    rho = Representation("rho", presentation, [
        powers[rng.randint(-2, 2)] if rng.random() < 0.7 else random_gl3(rng)
        for _ in presentation.generators])
    duals = [inv.transpose() for inv in rho.inverses]
    matrices = list(duals)
    while not dual and matrices == duals:
        if rng.random() < 0.5:
            matrices[rng.randrange(len(matrices))] = random_gl3(rng)
        else:
            matrices = [random_gl3(rng) for _ in matrices]
    return rho, Representation("ell", presentation, matrices)


def rat_rank(rows):
    """Rank over Q of the matrix with the given rows (ints or Fractions)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rational_projection_reference(complex_, k):
    """The basis labels and the coordinate map P of H^k(B;Q) from the
    left kernel over Q: the reference for ``untwisted_cohomology_Q``.

    The columns of delta^{k-1} under the augmentation are written in the
    Hermite basis K of ker delta^k (the unit cochains, named
    ``dual(cell)``, when there is no delta^k, else ``kernel_hnf``'s,
    named ``kernel[i]``).  The functionals that kill them, the left
    kernel, are taken in Hermite form and row-reduced over Q: their
    pivot columns pick the basis, and their rows are P on
    K-coordinates, carried to cochains through the pivot rows of K.
    Returns ``(labels, rows)``, each row a tuple of Fractions over the
    k-cells."""
    cells = complex_.cells_in(k)
    size = len(cells)
    one = complex_.augmentation
    delta_out = complex_.coboundary(one, k)
    if delta_out is None:
        kernel, pivots = [{i: 1} for i in range(size)], list(range(size))
        names = ["dual(%s)" % c for c in cells]
    else:
        kernel, pivots = kernel_hnf(delta_out, size)
        names = ["kernel[%d]" % i for i in range(len(kernel))]
    delta_in = complex_.coboundary(one, k - 1) if k else None
    dense_kernel = [dense(vec, size) for vec in kernel]
    image = []
    for col in transpose(delta_in or (), complex_.n_cells(k - 1)):
        coords = dense_hnf_solve(dense_kernel, pivots, dense(col, size))
        if any(coords):
            image.append(sparse(coords))
    left, left_pivots = kernel_hnf(image, len(kernel))
    # reduced row echelon form over Q of the Hermite rows
    reduced = []
    for col, p in zip(reversed(left), reversed(left_pivots)):
        row = {j: Fraction(a, col[p]) for j, a in col.items()}
        for later, q in zip(reduced, left_pivots[len(left) - len(reduced):]):
            if row.get(q):
                _add_multiple(row, -row[q], later)
        reduced.insert(0, row)
    # x . (K c) = r . c with x on the pivot rows of K, which K's block
    # there makes lower triangular: back-substitution, last vector first
    rows = []
    for r in reduced:
        x = [Fraction(0)] * size
        for i in reversed(range(len(kernel))):
            total = r.get(i, 0) - sum(x[q] * a for q, a in kernel[i].items()
                                      if q != pivots[i])
            x[pivots[i]] = Fraction(total) / kernel[i][pivots[i]]
        rows.append(tuple(x))
    return [names[p] for p in left_pivots], rows


def rational_basis(h):
    """The cochain of each basis class of ``h``, a RationalCohomology, as
    a tuple over its cells: the integer combination of kernel vectors,
    or of dual cochains, that its label in ``basis_labels`` names, lifted
    to a cochain through the kernel lattice of the integral H^k."""
    H = h.integral
    names = (["dual(%s)" % cell for cell in H.cells]
             if not H._complex.n_cells(H.degree + 1) else
             ["kernel[%d]" % j for j in range(len(H._kernel_pivots))])
    seeds = []
    for label in h.basis_labels:
        seed = {}
        for term in label.replace(" - ", " + -").split(" + "):
            sign, coeff, name = re.fullmatch(r"(-?)(?:(\d+)\*)?(\S+)",
                                             term).groups()
            seed[names.index(name)] = (-1 if sign else 1) * int(coeff or 1)
        seeds.append(seed)
    return tuple(tuple(vec.get(j, 0) for j in range(len(H.cells)))
                 for vec in H._cochains(seeds))


def combination(*terms):
    """The IntMatrix sum of c * A over the (c, A) terms."""
    return IntMatrix([[sum(c * A.data[i][j] for c, A in terms)
                       for j in range(terms[0][1].cols)]
                      for i in range(terms[0][1].rows)])


def flat_cochain(complex_, degree, dim, vector):
    """The cochain whose coordinates, in the column order of the
    coboundary rows (slot s of cell i at i * dim + s), are ``vector``."""
    return TwistedCochain(degree, dim, complex_.cells[degree], sparse(vector))


def flat(cochain):
    """The coordinates of a cochain as one tuple, in the column order of
    the coboundary rows: the inverse of ``flat_cochain``."""
    return dense(cochain.entries, cochain.dim * len(cochain.cells))


def cochain_from_dict(complex_, degree, dim, mapping):
    """The cochain with the vectors of ``mapping`` {cell: vector} on its
    cells and zero on the other basis cells of that degree."""
    cells = complex_.cells[degree]
    unknown = set(mapping) - set(cells)
    if unknown:
        raise ComplexError("cochain values on unknown cells: %s"
                           % ", ".join(sorted(unknown)))
    return flat_cochain(complex_, degree, dim, [
        x for c in cells for x in mapping.get(c, (0,) * dim)])


def scaled(cochain, c):
    """The cochain c * ``cochain``."""
    return TwistedCochain(cochain.degree, cochain.dim, cochain.cells,
                          {i: c * x for i, x in cochain.entries.items()})


def relifted(diagonal, cell, word):
    """The diagonal table with one 3-cell's lift replaced by word . cell:
    each of its terms (fc | fw ; bc | bw) becomes (fc | word.fw ; bc |
    word.bw)."""
    terms = dict(diagonal.terms)
    terms[cell] = tuple((sign, fc, word * fw, bc, word * bw)
                        for sign, fc, fw, bc, bw in terms.get(cell, ()))
    return DiagonalApproximation(terms)


def format_rational(value):
    """An int or a Fraction as an integer or a p/q string: the reference
    for ``lagfib.intlinalg.rational_text``."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def period_vector(periods, cell):
    """P(cell) as a tuple of Fractions, from L.P(cell) over L."""
    return tuple(Fraction(x, periods.denominator)
                 for x in periods.scaled_vector(cell))


def fraction_matrix(D):
    """The rows of an ObstructionMap as Fractions, or None for a zero
    map."""
    if D.scaled_matrix is None:
        return None
    return tuple(tuple(Fraction(x, D.denominator) for x in row)
                 for row in D.scaled_matrix)


def fraction_values(D):
    """The generator values (columns) of an ObstructionMap as Fractions."""
    return tuple(tuple(Fraction(x, D.denominator) for x in values)
                 for values in D.scaled_values)


def obstruction_map(H2, rows):
    """The ObstructionMap on H2 with the given rows of ints or Fractions,
    held over their least common denominator."""
    rows = [[Fraction(x) for x in row] for row in rows]
    L = lcm(*(x.denominator for row in rows for x in row))
    scaled = tuple(tuple(x.numerator * (L // x.denominator) for x in row)
                   for row in rows)
    return ObstructionMap(scaled, L, H2.orders, list(zip(*scaled)))


def dd_evaluate(complex_, diagonal, rep_coeff, rep_form, periods, cochain):
    """The cup pairing of a degree-2 cochain, term by term, times the
    periods' common denominator L: a tuple of ints aligned with the basis
    3-cells, the values over L = ``periods.denominator``.  Each term adds
    sign * <rho(bw) c(bc), ell(fw) L.P(fc)> over the integers: the
    reference for ``lagfib.obstruction.cup_matrix``, which moves rho(bw)
    to the other side of the pairing."""
    if cochain.degree != 2:
        raise ObstructionError("cup pairing needs a degree-2 cochain")
    if cochain.dim != periods.dim or cochain.dim != rep_coeff.dim:
        raise ObstructionError("coefficient dimension mismatch")
    on_cell = dict.fromkeys(complex_.cells_in(2), (0,) * cochain.dim)
    on_cell.update(cochain.nonzero_cells())
    values = []
    for cell in complex_.cells_in(3):
        total = 0
        for sign, front_cell, front_word, back_cell, back_word in \
                diagonal.for_cell(cell):
            if back_cell not in on_cell:
                raise ObstructionError("back cell %r is not a 2-cell"
                                       % back_cell)
            cvec = apply(rep_coeff.eval_word(back_word), on_cell[back_cell])
            pvec = apply(rep_form.eval_word(front_word),
                         periods.scaled_vector(front_cell))
            total += sign * sum(map(mul, cvec, pvec))
        values.append(total)
    return tuple(values)


def dd_evaluate_fractions(complex_, diagonal, rep_coeff, rep_form, periods,
                          cochain):
    """The cup pairing of a 2-cochain, term by term over Q on the
    rational periods: the reference for the integer ``dd_evaluate``."""
    values = []
    for cell in complex_.cells_in(3):
        total = Fraction(0)
        for sign, front_cell, front_word, back_cell, back_word in \
                diagonal.for_cell(cell):
            cvec = apply(rep_coeff.eval_word(back_word),
                         dict(cochain.nonzero_cells()).get(
                             back_cell, (0,) * cochain.dim))
            pvec = apply(rep_form.eval_word(front_word),
                         period_vector(periods, front_cell))
            total += sign * sum(Fraction(a) * b for a, b in zip(cvec, pvec))
        values.append(total)
    return tuple(values)


def eager_diagonal_checks(complex_, diagonal, rep_coeff, rep_form, periods,
                          H2, h3, seed):
    """The seeded suite of ``validate_diagonal`` with the random checks of
    (a) and (b) drawn and evaluated: the reference for the identities by
    which the library counts them without drawing them.  One
    ``random.Random(seed)`` draws (a)'s 1-cochains and (b)'s words of one
    to three letters.  (a) projects by M.P the term-by-term pairing
    (``dd_evaluate``) of each cochain's dense coboundary; (b) multiplies
    rho(w)^T ell(w) out letter by letter.  (c), which holds by the
    transpose identity, is counted as the library counts it: the first
    two H^2 generators and ten random pairs.  Needs cells in degrees 0
    to 3.  Returns ``checks_run`` as the library counts it, and
    ``failed``, the cochains and words whose check fails.
    """
    n = rep_coeff.dim
    rng = random.Random(seed)
    gens = complex_.presentation.generators
    width = n * complex_.n_cells(1)

    pairs = (len(H2.generators) >= 2) + N_RANDOM_COCHAINS // 10
    psis = [[int(i == j) for i in range(width)] for j in range(width)]
    psis += [[rng.randint(-5, 5) for _ in range(width)]
             for _ in range(N_RANDOM_COCHAINS)]
    words = [Word.generator(g, e) for g in range(len(gens)) for e in (1, -1)]
    words.append(Word())
    words += [Word(tuple((rng.randrange(len(gens)), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 3))))
              for _ in range(N_RANDOM_WORDS)]

    delta1 = coboundary_reference(complex_, rep_coeff, 1)

    def exact(psi):
        values = dd_evaluate(
            complex_, diagonal, rep_coeff, rep_form, periods,
            flat_cochain(complex_, 2, n, apply(delta1, psi)))
        return not any(sum(x * values[j] for j, x in row.items())
                       for row in h3.scaled_projection)

    def fixed(word):
        spelled = LetterWord.spelled(word)
        return (spelled.value(rep_coeff).transpose()
                * spelled.value(rep_form)).is_identity()

    return SimpleNamespace(
        failed=([psi for psi in psis if not exact(psi)]
                + [word for word in words if not fixed(word)]),
        checks_run=(len(psis) + pairs + len(complex_.cells_in(3))
                    * len(words) * len(H2.generators)))


def _relation(pres, lhs, rhs):
    return parse_word(pres, lhs) * parse_word(pres, rhs).inverse()


def _ring(pres, *terms):
    """A ring element {Word: int} from (coeff, wordtext) pairs, one per
    word."""
    return {parse_word(pres, text): coeff for coeff, text in terms}


def _diagonal(pres, terms):
    """The table of the one 3-cell e3 from (sign, front cell, front word,
    back cell, back word) terms, the words given as text."""
    return DiagonalApproximation({"e3": [
        (sign, fc, parse_word(pres, fw), bc, parse_word(pres, bw))
        for sign, fc, fw, bc, bw in terms]})


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
    diagonal = _diagonal(pres, [(1, "e1_3", "1", "e2_1", "c"),
                                (1, "e1_1", "1", "e2_2", "a"),
                                (1, "e1_2", "1", "e2_3", "b")])
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
    diagonal = _diagonal(pres, [(1, "e1_1", "1", "e2_2", "a"),
                                (1, "e1_3", "1", "e2_3", "c*b")])
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
    diagonal = _diagonal(pres, [(1, "e1_3", "1", "e2_1", "1"),
                                (1, "e1_1", "1", "e2_2", "1"),
                                (1, "e1_1", "1", "e2_2", "a"),
                                (1, "e1_2", "1", "e2_3", "1")])
    return dict(presentation=pres, ell=ell, rho=rho, complex=cx,
                periods=periods, diagonal=diagonal)


ALL_EXAMPLES = {"t3": torus3, "heisenberg": heisenberg,
                "mapping_torus": mapping_torus}


# A circle whose boundary is (a^n - 1)*e0 under a hyperbolic rho(a): H^1
# is finite of order |det(rho(a)^n - 1)|, which has n*log10(2.618...)
# digits.
CIRCLE = """[group]
generators = a

[representation ell]
dim = 2
a = [[2,1],[1,1]]

[representation rho]
dim = 2
a = [[1,-1],[-1,2]]

[bindings]
coefficient_rep = rho
form_rep = ell

[complex]
cells 0 = e0
cells 1 = e1
boundary e1 = (a^%d - 1)*e0

[periods]
e1 = [0, 0]

[diagonal]
"""
