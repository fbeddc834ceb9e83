"""Realisable classes and a fake-class witness.

The subgroup of realisable classes is the kernel of the obstruction
map: the free directions of H^2 cut out by the rational matrix plus the
whole torsion part (a homomorphism into a rational vector space kills
torsion).  The map holds its rows as integers over one common
denominator, and scaling leaves the kernel alone, so the free part is
read from those rows as a saturated integer kernel in Hermite form.
``find_fake_witness`` exhibits one class that is NOT realisable whenever
the obstruction map is nonzero, since that distinction -- which torus
bundles over the base carry a compatible symplectic form and which
merely look like they do -- is the point of the computation.  The
report that prints both is assembled in ``cli``.
"""

from .complexes import cochain_from_coordinates
from .intlinalg import AbelianGroup, _dense, kernel_hnf


class RealizableError(Exception):
    pass


class RealizableSubgroup:
    """ker D with generators both as coordinates and as cochains."""

    __slots__ = ("group", "coordinate_generators", "cochain_generators")

    def __init__(self, group, coordinate_generators, cochain_generators):
        self.group = group
        self.coordinate_generators = tuple(coordinate_generators)
        self.cochain_generators = tuple(cochain_generators)

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
    rows = D.scaled_matrix or ()
    for j, m in enumerate(moduli, free_count):
        if any(row[j] for row in rows):
            raise RealizableError(
                "column %d maps the order-%d torsion generator to a nonzero "
                "element of a torsion-free group; obstruction data is "
                "inconsistent" % (j, m))
    basis, _ = kernel_hnf([{j: x for j, x in enumerate(row[:free_count]) if x}
                           for row in rows], free_count)
    positions = range(len(orders))
    generators = [_dense(col, positions) for col in basis]
    generators += [_dense({j: 1}, positions)
                   for j in range(free_count, len(orders))]
    cochains = [cochain_from_coordinates(H2, coords) for coords in generators]
    return RealizableSubgroup(AbelianGroup(len(basis), moduli), generators,
                              cochains)


class FakeWitness:
    """A generator class with a nonzero obstruction value, held as the
    integers ``scaled_value`` over ``denominator``."""

    __slots__ = ("generator_index", "scaled_value", "denominator")

    def __init__(self, generator_index, scaled_value, denominator):
        self.generator_index = generator_index
        self.scaled_value = tuple(scaled_value)
        self.denominator = denominator

    def __repr__(self):
        return "FakeWitness(generator=%d, value=%r over %d)" % (
            self.generator_index, self.scaled_value, self.denominator)


def find_fake_witness(D):
    """First H^2 generator with nonzero obstruction, None when D = 0."""
    for j, values in enumerate(D.scaled_values):
        if any(values):
            return FakeWitness(j, values, D.denominator)
    return None
