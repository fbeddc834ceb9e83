"""Realisable classes and the final report.

The subgroup of realisable classes is the kernel of the obstruction
map: the free directions of H^2 cut out by the rational matrix plus the
whole torsion part (a homomorphism into a rational vector space kills
torsion).  The matrix's rows are scaled to integers over one common
denominator, which leaves the kernel alone, and the free part is read
as a saturated integer kernel in Hermite form.  The report also exhibits one class that is NOT realisable
whenever the obstruction map is nonzero, since that distinction --
which torus bundles over the base carry a compatible symplectic form
and which merely look like they do -- is the point of the computation.
"""

from .complexes import _dense, cochain_from_coordinates
from .intlinalg import AbelianGroup, common_denominator, kernel_hnf


class RealizableError(Exception):
    pass


class RealizableSubgroup:
    """ker D with generators both as coordinates and as cochains."""

    __slots__ = ("group", "coordinate_generators", "cochain_generators",
                 "free_count", "moduli")

    def __init__(self, group, coordinate_generators, cochain_generators,
                 free_count, moduli):
        self.group = group
        self.coordinate_generators = tuple(coordinate_generators)
        self.cochain_generators = tuple(cochain_generators)
        self.free_count = free_count
        self.moduli = tuple(moduli)

    def __repr__(self):
        return "RealizableSubgroup(%s)" % self.group


def realizable_subgroup(D, H2):
    """Extract ker D as a subgroup of H^2 in the generator basis.

    ``D`` is an ObstructionMap whose source is ``H2``; the result lists
    an HNF-reduced basis of the free kernel followed by the torsion
    generators, each given in H^2 generator coordinates and as an
    explicit cochain.  A nonzero torsion column means inconsistent
    obstruction data and raises RealizableError.
    """
    orders = H2.orders
    if D.source_orders != orders:
        raise RealizableError("obstruction map source does not match H^2")
    free_count = sum(1 for o in orders if o == 0)
    if any(orders[i] for i in range(free_count)):
        raise RealizableError("generator order list is not free-then-torsion")
    moduli = orders[free_count:]
    _, rows = common_denominator(D.matrix or ())
    for j, m in enumerate(moduli, free_count):
        if any(row[j] for row in rows):
            raise RealizableError(
                "column %d maps the order-%d torsion generator to a nonzero "
                "element of a torsion-free group; obstruction data is "
                "inconsistent" % (j, m))
    basis, _ = kernel_hnf([{j: x for j, x in enumerate(row[:free_count]) if x}
                           for row in rows], free_count)
    generators = [_dense(col, len(orders)) for col in basis]
    generators += [_dense({j: 1}, len(orders))
                   for j in range(free_count, len(orders))]
    cochains = [cochain_from_coordinates(H2, coords) for coords in generators]
    return RealizableSubgroup(AbelianGroup(len(basis), moduli), generators,
                              cochains, len(basis), moduli)


class FakeWitness:
    """A generator class with a nonzero obstruction value."""

    __slots__ = ("generator_index", "coordinates", "value")

    def __init__(self, generator_index, coordinates, value):
        self.generator_index = generator_index
        self.coordinates = tuple(coordinates)
        self.value = tuple(value)

    def __repr__(self):
        return "FakeWitness(generator=%d, value=%r)" % (self.generator_index,
                                                        self.value)


def find_fake_witness(D, H2):
    """First H^2 generator with nonzero obstruction, None when D = 0."""
    for j, values in enumerate(D.generator_values):
        if any(x != 0 for x in values):
            coords = tuple(1 if i == j else 0 for i in range(len(H2.generators)))
            return FakeWitness(j, coords, values)
    return None


class ObstructionReport:
    """Everything one run computes, in a deterministic bundle."""

    __slots__ = ("title", "digest", "validation", "h2", "h3", "obstruction",
                 "realizable", "witness")

    def __init__(self, title, digest, validation, h2, h3, obstruction,
                 realizable, witness):
        self.title = title
        self.digest = digest
        self.validation = validation
        self.h2 = h2
        self.h3 = h3
        self.obstruction = obstruction
        self.realizable = realizable
        self.witness = witness

    @property
    def ok(self):
        return all(not failures for _, failures in self.validation)


def build_report(title, digest, validation, h2, h3, obstruction,
                 realizable, witness):
    """Assemble the final report from the pipeline stages.

    The math fields may all be None when validation failed; a witness,
    when present, must actually have a nonzero obstruction value.
    """
    if witness is not None and all(x == 0 for x in witness.value):
        raise RealizableError("fake witness has zero obstruction value")
    return ObstructionReport(title, digest, tuple(validation), h2, h3,
                             obstruction, realizable, witness)
