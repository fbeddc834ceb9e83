import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lagfib.complexes import (
    ComplexError,
    EquivariantComplex,
    NotACocycleError,
    TwistedCochain,
    cochain_from_coordinates,
    cocycle_coordinates,
    twisted_cohomology,
    untwisted_cohomology_Q,
    validate_complex,
)
from lagfib.cli import load_bundled
from lagfib.groupring import GroupRingElement, Presentation, Representation
from lagfib.intlinalg import AbelianGroup, IntMatrix, int_solve

from lagfib.problemfile import parse_problem_text

from helpers import (
    coboundary_reference,
    dense_coboundary,
    heisenberg,
    mapping_torus,
    rat_rank,
    sparse,
    torus3,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from t3grid import cubical_t3  # noqa: E402


def _unit(complex_, degree, dim, cell, comp):
    vec = {cell: tuple(1 if i == comp else 0 for i in range(dim))}
    return TwistedCochain.from_dict(complex_, degree, dim, vec)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_boundary_squares_to_zero(build):
    data = build()
    assert validate_complex(data["complex"], [data["rho"], data["ell"]]) == []


def test_corrupted_boundary_detected():
    data = mapping_torus()
    cx = data["complex"]
    pres = data["presentation"]
    bad_boundaries = {c: dict(entries) for c, entries in cx.boundaries.items()}
    # flip one sign in the top boundary: (1 - c) becomes (1 + c)
    one = GroupRingElement.one(pres)
    c_word = GroupRingElement.from_word(pres, pres.word("c"))
    bad_boundaries["e3"]["e2_1"] = one + c_word
    bad = EquivariantComplex(pres, cx.cells, bad_boundaries)
    failures = validate_complex(bad, [data["rho"]])
    assert any("double boundary of 'e3'" in f for f in failures)


def test_complex_structure_errors():
    pres = Presentation(["a"])
    with pytest.raises(ComplexError):
        EquivariantComplex(pres, [("v",), ("e",)],
                           {"e": {"w": GroupRingElement.one(pres)}})
    with pytest.raises(ComplexError):
        EquivariantComplex(pres, [("v",), ("v",)], {})


# ---------------------------------------------------------------------------
# coboundary matrices


def _z4_complex():
    """e1 = (1 + a) v1 and e2 = v1 + (1 + a) v2: under the augmentation
    delta^0 = [[2, 0], [1, 2]], so H^1 = Z/4."""
    pres = Presentation(["a"])
    one = GroupRingElement.one(pres)
    a = GroupRingElement.from_word(pres, pres.word("a"))
    return EquivariantComplex(pres, [("v1", "v2"), ("e1", "e2")],
                              {"e1": {"v1": one + a},
                               "e2": {"v1": one, "v2": one + a}})


@pytest.mark.parametrize("name", ["t3", "heisenberg", "mapping_torus", "Z/4"])
def test_sparse_coboundary_rows_match_the_dense_assembly(name):
    # every representation and the augmentation, in every degree from -1
    # to the top, where delta^k is None for want of k- or (k+1)-cells
    if name == "Z/4":
        cx, reps = _z4_complex(), []
    else:
        problem = load_bundled(name)
        cx, reps = problem.complex, list(problem.representations.values())
    for rep in reps + [cx.augmentation]:
        for k in range(-1, cx.top + 1):
            rows = cx.coboundary(rep, k)
            if not (cx.n_cells(k) and cx.n_cells(k + 1)):
                assert rows is None, (rep.name, k)
                continue
            reference = coboundary_reference(cx, rep, k)
            assert rows == tuple(sparse(row) for row in reference.data), (
                rep.name, k)


def test_heisenberg_top_coboundary_block():
    data = heisenberg()
    delta2 = dense_coboundary(data["complex"], data["rho"], 2)
    # rows: one 3-cell (3 rows); columns blocked by e2_1, e2_2, e2_3
    assert delta2.rows == 3 and delta2.cols == 9
    block = [list(row[3:6]) for row in delta2.data]
    assert block == [[0, 0, -1], [0, 0, 0], [0, 0, 0]]
    assert all(delta2.data[r][c] == 0 for r in range(3) for c in range(9)
               if not (3 <= c < 6))


def test_mapping_torus_cocycle_and_coboundary_conditions():
    data = mapping_torus()
    cx = data["complex"]
    delta2 = dense_coboundary(cx, data["rho"], 2)
    block = [list(row[3:6]) for row in delta2.data]
    assert block == [[-2, 0, 0], [0, 0, 0], [0, 0, -2]]
    # the image of delta^1 is exactly the lattice 2Z at slots
    # (e2_1, comp 2) and (e2_3, comp 2)
    delta1 = dense_coboundary(cx, data["rho"], 1)
    from lagfib.intlinalg import hnf_columns
    basis, pivots = hnf_columns([sparse(c) for c in delta1.columns()])
    assert (basis, pivots) == ([{1: 2}, {7: 2}], [1, 7])


def test_t3_trivial_rep_coboundaries_vanish():
    data = torus3()
    cx = data["complex"]
    one = Representation.trivial(data["presentation"], 3)
    for k in range(3):
        assert dense_coboundary(cx, one, k).is_zero()


def test_k0_coboundary_definition():
    data = heisenberg()
    cx = data["complex"]
    rho = data["rho"]
    delta0 = dense_coboundary(cx, rho, 0)
    # block for e1_1 is rho(a) - I
    expected = rho.matrices[0] - IntMatrix.identity(3)
    block = [list(row[0:3]) for row in delta0.data[0:3]]
    assert IntMatrix(block) == expected


# ---------------------------------------------------------------------------
# twisted cohomology of the bundled geometries


def test_t3_h2_is_z9():
    data = torus3()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(9)
    assert H.per_cell_shape == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    # generators are the dual cochains in (cell, component) order
    expected = [_unit(data["complex"], 2, 3, cell, comp)
                for cell in ("e2_1", "e2_2", "e2_3") for comp in range(3)]
    assert list(H.generators) == expected


def test_heisenberg_h2_shape():
    data = heisenberg()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(5)
    assert H.per_cell_shape == ((1, 1, 1), (0, 0, 1), (0, 0, 0))
    expected = [_unit(data["complex"], 2, 3, cell, comp)
                for cell, comp in [("e2_2", 0), ("e2_2", 1), ("e2_3", 0),
                                   ("e2_3", 1), ("e2_3", 2)]]
    assert list(H.generators) == expected


def test_mapping_torus_h2_shape():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    assert H.group == AbelianGroup(5, (2, 2))
    assert H.per_cell_shape == ((0, 2, 0), (1, 0, 1), (0, 2, 0))
    assert H.orders == (0, 0, 0, 0, 0, 2, 2)
    free_expected = [_unit(data["complex"], 2, 3, cell, comp)
                     for cell, comp in [("e2_1", 0), ("e2_1", 2), ("e2_2", 1),
                                        ("e2_3", 0), ("e2_3", 2)]]
    torsion_expected = [_unit(data["complex"], 2, 3, cell, 1)
                        for cell in ("e2_1", "e2_3")]
    assert list(H.generators) == free_expected + torsion_expected


def test_t3_betti_numbers_rank_one_coefficients():
    data = torus3()
    one = Representation.trivial(data["presentation"], 1)
    betti = [twisted_cohomology(data["complex"], one, k).group
             for k in range(4)]
    assert betti == [AbelianGroup(1), AbelianGroup(3),
                     AbelianGroup(3), AbelianGroup(1)]


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_generators_are_cocycles_and_torsion_realisable(build):
    data = build()
    cx = data["complex"]
    rho = data["rho"]
    H = twisted_cohomology(cx, rho, 2)
    delta2 = dense_coboundary(cx, rho, 2)
    delta1 = dense_coboundary(cx, rho, 1)
    for gen, order in zip(H.generators, H.orders):
        assert all(x == 0 for x in delta2.apply(gen.flatten()))
        if order:
            target = [order * x for x in gen.flatten()]
            assert int_solve(delta1, target) is not None


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_rank_nullity_per_degree(build):
    data = build()
    cx = data["complex"]
    for rep in (data["rho"], data["ell"]):
        n = rep.dim
        for k in range(cx.top):
            delta = dense_coboundary(cx, rep, k)
            rank = rat_rank(delta.to_rational())
            H = twisted_cohomology(cx, rep, k)
            assert len(H._kernel_basis) + rank == n * cx.n_cells(k)


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_twisted_euler_characteristic_vanishes(build):
    # independent oracles: for a closed 3-manifold B and a rank-n local
    # system, sum (-1)^k rank H^k(B; rho) = n * chi(B) = 0; B is
    # orientable, so Poincare duality gives rank H^k(rho) = rank H^{3-k}
    # of the dual system ell = rho^-T
    data = build()
    cx = data["complex"]
    ranks = {}
    for rep in (data["rho"], data["ell"]):
        ranks[rep.name] = [twisted_cohomology(cx, rep, k).free_rank
                           for k in range(4)]
        r = ranks[rep.name]
        assert r[0] - r[1] + r[2] - r[3] == 0, (rep.name, r)
    assert ranks["rho"] == ranks["ell"][::-1]


def test_coboundaries_are_assembled_once(monkeypatch):
    # every check and every H^k reads the same assembled delta^k
    import lagfib.complexes as complexes
    from lagfib.cli import load_bundled, run
    calls = []
    original = complexes.coboundary_rows

    def counting(complex_, rep, k):
        calls.append((rep.name, k))
        return original(complex_, rep, k)

    monkeypatch.setattr(complexes, "coboundary_rows", counting)
    status, _ = run("report", load_bundled("heisenberg"))
    assert status == 0
    assert sorted(calls) == sorted((name, k) for k in range(3) for name in
                                   ("ell", "rho", "augmentation"))


def test_non_invertible_generator_is_a_validation_failure():
    data = torus3()
    pres = data["presentation"]
    cx = data["complex"]
    boundaries = {c: dict(entries) for c, entries in cx.boundaries.items()}
    boundaries["e1_1"]["e0"] = (
        GroupRingElement.from_word(pres, pres.word("a^-1"))
        - GroupRingElement.one(pres))
    bad = EquivariantComplex(pres, cx.cells, boundaries)
    doubling = Representation("ell", pres, [IntMatrix([[2, 0, 0], [0, 1, 0],
                                                       [0, 0, 1]]),
                                            IntMatrix.identity(3),
                                            IntMatrix.identity(3)])
    assert validate_complex(bad, [data["rho"], doubling]) == [
        "cannot evaluate the boundary: representation 'ell': generator 'a' "
        "is not invertible over Z"]


# ---------------------------------------------------------------------------
# coordinates


def test_coordinates_of_generators_are_units():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    for j, gen in enumerate(H.generators):
        coords = cocycle_coordinates(H, gen)
        assert coords == tuple(1 if i == j else 0 for i in range(len(H.generators)))


def test_coordinates_of_coboundary_vanish():
    data = heisenberg()
    cx = data["complex"]
    rho = data["rho"]
    H = twisted_cohomology(cx, rho, 2)
    delta1 = dense_coboundary(cx, rho, 1)
    rng = random.Random(12)
    for _ in range(20):
        psi = [rng.randint(-4, 4) for _ in range(delta1.cols)]
        image = TwistedCochain.from_flat(cx, 2, 3, delta1.apply(psi))
        assert cocycle_coordinates(H, image) == (0,) * len(H.generators)


def test_torsion_annihilation_in_coordinates():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    torsion_gen = H.generators[5]
    assert H.orders[5] == 2
    doubled = torsion_gen.scaled(2)
    assert cocycle_coordinates(H, doubled) == (0,) * 7


def test_non_cocycle_rejected():
    data = mapping_torus()
    cx = data["complex"]
    H = twisted_cohomology(cx, data["rho"], 2)
    bad = _unit(cx, 2, 3, "e2_2", 0)  # killed slot: not a cocycle
    with pytest.raises(NotACocycleError):
        cocycle_coordinates(H, bad)


def test_cochain_from_coordinates_roundtrip():
    data = mapping_torus()
    H = twisted_cohomology(data["complex"], data["rho"], 2)
    coords = (1, 0, -2, 0, 3, 1, 0)
    cochain = cochain_from_coordinates(H, coords)
    back = cocycle_coordinates(H, cochain)
    assert back == (1, 0, -2, 0, 3, 1, 0)


def test_smith_generators_when_the_pivot_readout_fails(monkeypatch):
    # H^1 = Z/4, but the Hermite pivots of the image are 2 and 2, so the
    # generator comes from the Smith transform
    import lagfib.complexes as complexes
    cx = _z4_complex()
    rep = Representation.trivial(cx.presentation, 1)
    assert dense_coboundary(cx, rep, 0) == IntMatrix([[2, 0], [1, 2]])
    calls = []
    original = complexes._snf_generators

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(complexes, "_snf_generators", counting)
    H = twisted_cohomology(cx, rep, 1)
    assert len(calls) == 1
    assert H.group == AbelianGroup(0, (4,))
    assert H.orders == (4,)
    assert [g.values for g in H.generators] == [((1,), (1,))]
    assert H.per_cell_shape is None
    for m in range(-5, 9):
        assert cocycle_coordinates(H, H.generators[0].scaled(m)) == (m % 4,)


# ---------------------------------------------------------------------------
# rational cohomology of the base


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_h3_rational_dimension_one(build):
    data = build()
    h3 = untwisted_cohomology_Q(data["complex"], 3)
    assert h3.dimension == 1
    assert h3.coordinates([1]) == (1,)
    assert h3.coordinates([0]) == (0,)
    assert h3.basis_labels == ("dual(e3)",)


def test_h3_kills_coboundaries():
    data = heisenberg()
    cx = data["complex"]
    h3 = untwisted_cohomology_Q(cx, 3)
    one = Representation.trivial(data["presentation"], 1)
    delta2 = dense_coboundary(cx, one, 2).to_rational()
    rng = random.Random(77)
    for _ in range(20):
        w = delta2.apply([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(3)])
        assert h3.coordinates(w) == (0,)


def test_t3_rational_betti():
    data = torus3()
    dims = [untwisted_cohomology_Q(data["complex"], k).dimension
            for k in range(4)]
    assert dims == [1, 3, 3, 1]


def test_degenerate_degrees():
    pres = Presentation(["a"])
    cx = EquivariantComplex(
        pres, [("v",), ("e",), ()],
        {"e": {"v": GroupRingElement.from_word(pres, pres.word("a"))
               - GroupRingElement.one(pres)}})
    one = Representation.trivial(pres, 1)
    H2 = twisted_cohomology(cx, one, 2)
    assert H2.group == AbelianGroup(0)
    assert H2.generators == ()


@pytest.mark.parametrize("build", [torus3, heisenberg, mapping_torus])
def test_rational_projection_matches_coordinates(build):
    data = build()
    cx = data["complex"]
    one = Representation.trivial(data["presentation"], 1)
    rng = random.Random(3)
    for k in range(cx.top + 1):
        h = untwisted_cohomology_Q(cx, k)
        closed = [list(b) for b in h.basis]
        if k > 0:
            delta = dense_coboundary(cx, one, k - 1)
            closed.append(delta.apply([rng.randint(-4, 4)
                                       for _ in range(delta.cols)]))
        for vec in closed:
            projected = tuple(sum(a * b for a, b in zip(row, vec))
                              for row in h.projection)
            assert projected == h.coordinates(vec)


def _with_four_cell():
    """t3 with a 4-cell f4, boundary (a - 1) e3: the augmentation kills
    delta^3, so H^3(B;Q) is read below the top degree."""
    data = torus3()
    cx = data["complex"]
    pres = cx.presentation
    boundaries = dict(cx.boundaries)
    boundaries["f4"] = {"e3": GroupRingElement.from_word(pres, pres.word("a"))
                        - GroupRingElement.one(pres)}
    return EquivariantComplex(pres, cx.cells + (("f4",),), boundaries)


def _non_unit_kernel_pivots():
    """delta^1 = [1, -1, 2] under the augmentation: ker delta^1 has the
    Hermite basis (1, 1, 0), (0, 2, 1), whose second pivot is 2."""
    pres = Presentation(["a"])
    loop = GroupRingElement.from_word(pres, pres.word("a")) \
        - GroupRingElement.one(pres)
    one = GroupRingElement.one(pres)
    return EquivariantComplex(
        pres, [("v",), ("e1", "e2", "e3"), ("f",)],
        {"e1": {"v": loop}, "e2": {"v": loop},
         "f": {"e1": one, "e2": one.scaled(-1), "e3": one.scaled(2)}})


RATIONAL_CASES = {
    "non-unit kernel pivots": _non_unit_kernel_pivots,
    "t3": lambda: torus3()["complex"],
    "heisenberg": lambda: heisenberg()["complex"],
    "mapping_torus": lambda: mapping_torus()["complex"],
    "t3 with a 4-cell": _with_four_cell,
    "flat 2x2x1": lambda: parse_problem_text(cubical_t3(2, 2, 1)).complex,
    "sheared 2x2x1": lambda: parse_problem_text(
        cubical_t3(2, 2, 1, holonomy="sheared")).complex,
}


@pytest.mark.parametrize("name", RATIONAL_CASES)
def test_rational_projection_kills_coboundaries_and_fixes_the_basis(name):
    cx = RATIONAL_CASES[name]()
    one = cx.augmentation
    dims = []
    for k in range(cx.top + 1):
        h = untwisted_cohomology_Q(cx, k)
        dims.append(h.dimension)
        assert len(h.basis) == len(h.projection) == h.dimension
        delta = dense_coboundary(cx, one, k - 1) if k else None
        for col in delta.columns() if delta is not None else ():
            assert all(sum(a * b for a, b in zip(row, col)) == 0
                       for row in h.projection)
        for i, vec in enumerate(h.basis):
            assert [sum(a * b for a, b in zip(row, vec))
                    for row in h.projection] == [
                int(i == j) for j in range(h.dimension)]
        assert [[row.get(j, 0) for j in range(len(h.cells))]
                for row in h.scaled_projection] == [
            [h.denominator * x for x in row] for row in h.projection]
    if name.startswith(("t3", "flat", "sheared")):
        assert dims[:4] == [1, 3, 3, 1]


def test_h3_below_the_top_degree():
    cx = _with_four_cell()
    h3 = untwisted_cohomology_Q(cx, 3)
    assert h3.basis_labels == ("kernel[0]",)
    assert h3.coordinates([5]) == (5,)
    cx_bad = EquivariantComplex(cx.presentation, cx.cells,
                                dict(cx.boundaries,
                                     f4={"e3": GroupRingElement.one(
                                         cx.presentation)}))
    h3_bad = untwisted_cohomology_Q(cx_bad, 3)
    assert h3_bad.dimension == 0
    with pytest.raises(NotACocycleError):
        h3_bad.coordinates([1])
