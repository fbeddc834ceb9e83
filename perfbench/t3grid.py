"""Generated cubical 3-tori: an .iaf problem family whose answer is known
at every size.

T^3 = R^3 / Z^3 is cut into an n1 x n2 x n3 grid of cubes.  The deck group
is <a, b, c | abelian>, one basis cell per cube corner/edge/face/cube, and
a step across the far wall in direction i multiplies by the matching
generator.  Edges point along direction 1, 2, 3; squares lie in the planes
(1,2), (2,3), (3,1), as in the bundled ``t3.iaf``.  The diagonal is Serre's
front/back splitting of each cube: the edge in direction i at the near
corner pairs with the opposite square translated one step along i.

Holonomy is either ``flat`` (trivial) or ``sheared``: the unipotent shear
ell(a) = [[1,0,0],[0,1,0],[1,0,1]] with rho = ell^-T.  Periods are 1/n_i
along direction i.  For the flat grid they follow the permuted coframe of
``t3.iaf``; for the sheared grid every period lies on the fixed vectors of
ell(a), which keeps the frame closed.  At 1 x 1 x 1 with flat holonomy
the output is ``t3.iaf`` up to its title and comments.

Run ``python3 perfbench/t3grid.py 2 2 1 sheared`` to print one problem.
"""

import sys
from fractions import Fraction

HOLONOMIES = ("flat", "sheared")

# Topological answer for every grid size: ranks of H^0..H^3 with twisted
# Z^3 coefficients, and the rank of the realisable subgroup R = ker D.
EXPECTED = {
    "flat": {"cohomology": ("Z^3", "Z^9", "Z^9", "Z^3"), "realizable": "Z^8"},
    "sheared": {"cohomology": ("Z^2", "Z^6", "Z^6", "Z^2"),
                "realizable": "Z^5"},
}

_IDENTITY = "[[1,0,0],[0,1,0],[0,0,1]]"
_ELL = {"flat": _IDENTITY, "sheared": "[[1,0,0],[0,1,0],[1,0,1]]"}
_RHO = {"flat": _IDENTITY, "sheared": "[[1,0,-1],[0,1,0],[0,0,1]]"}

# Frame slot that carries the period of an edge in direction 1, 2, 3.
_PERIOD_SLOT = {"flat": (1, 2, 0), "sheared": (1, 2, 1)}

# Squares by the plane they span, in t3.iaf order: (1,2), (2,3), (3,1).
_PLANES = ((0, 1), (1, 2), (2, 0))
_GENERATORS = ("a", "b", "c")


def _name(dim, index, pos, single):
    base = "e%d" % dim if dim in (0, 3) else "e%d_%d" % (dim, index + 1)
    if single:
        return base
    return "%s_%d_%d_%d" % ((base,) + pos)


def cubical_t3(n1, n2, n3, holonomy="flat"):
    """The .iaf text of T^3 cut into n1 x n2 x n3 cubes."""
    sizes = (n1, n2, n3)
    if any(not isinstance(n, int) or n < 1 for n in sizes):
        raise ValueError("grid sizes must be positive integers: %r" % (sizes,))
    if holonomy not in HOLONOMIES:
        raise ValueError("holonomy must be one of %s" % ", ".join(HOLONOMIES))
    single = sizes == (1, 1, 1)
    positions = [(i, j, k) for i in range(n1) for j in range(n2)
                 for k in range(n3)]

    def step(pos, axis):
        """(word, position) of the corner one step from pos along axis."""
        moved = list(pos)
        moved[axis] += 1
        if moved[axis] < sizes[axis]:
            return "", tuple(moved)
        moved[axis] = 0
        return _GENERATORS[axis], tuple(moved)

    def cell(dim, index, pos):
        return _name(dim, index, pos, single)

    def summand(sign, word, name):
        return "%s %s" % ("+" if sign > 0 else "-",
                          "%s*%s" % (word, name) if word else name)

    lines = ["[metadata]",
             "title = cubical 3-torus %dx%dx%d, %s holonomy"
             % (n1, n2, n3, holonomy),
             "", "[group]", "generators = a b c",
             "relation a*b = b*a", "relation a*c = c*a", "relation b*c = c*b"]
    for rep, mats in (("ell", _ELL), ("rho", _RHO)):
        lines += ["", "[representation %s]" % rep, "dim = 3",
                  "a = %s" % mats[holonomy], "b = %s" % _IDENTITY,
                  "c = %s" % _IDENTITY]
    lines += ["", "[bindings]", "coefficient_rep = rho", "form_rep = ell",
              "", "[complex]"]
    lines.append("cells 0 = " + " ".join(cell(0, 0, p) for p in positions))
    for dim in (1, 2):
        lines.append("cells %d = " % dim + " ".join(
            cell(dim, t, p) for p in positions for t in range(3)))
    lines.append("cells 3 = " + " ".join(cell(3, 0, p) for p in positions))

    for p in positions:
        for axis in range(3):
            word, q = step(p, axis)
            lines.append("boundary %s = %s %s" % (
                cell(1, axis, p), summand(1, word, cell(0, 0, q)),
                summand(-1, "", cell(0, 0, p))))
    for p in positions:
        for t, (u, v) in enumerate(_PLANES):
            # Walk the square p -> p+u -> p+u+v -> p+v -> p.
            wu, pu = step(p, u)
            wv, pv = step(p, v)
            lines.append("boundary %s = %s %s %s %s" % (
                cell(2, t, p),
                summand(1, "", cell(1, u, p)),
                summand(1, wu, cell(1, v, pu)),
                summand(-1, wv, cell(1, u, pv)),
                summand(-1, "", cell(1, v, p))))
    for p in positions:
        terms = []
        for t, (u, v) in enumerate(_PLANES):
            # The square in plane t is opposite the remaining axis w.
            w = 3 - u - v
            ww, pw = step(p, w)
            terms.append(summand(1, ww, cell(2, t, pw)))
            terms.append(summand(-1, "", cell(2, t, p)))
        lines.append("boundary %s = %s" % (cell(3, 0, p), " ".join(terms)))

    lines += ["", "[periods]"]
    for p in positions:
        for axis in range(3):
            vec = [Fraction(0)] * 3
            vec[_PERIOD_SLOT[holonomy][axis]] = Fraction(1, sizes[axis])
            lines.append("%s = [%s]" % (cell(1, axis, p),
                                        ", ".join(str(x) for x in vec)))

    lines += ["", "[diagonal]"]
    for p in positions:
        # t3.iaf order: the edge along 3 first, then along 1, then along 2.
        for axis, plane in ((2, 0), (0, 1), (1, 2)):
            word, q = step(p, axis)
            lines.append("%s += (%s | 1 ; %s | %s)" % (
                cell(3, 0, p), cell(1, axis, p), cell(2, plane, q),
                word or "1"))
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) not in (3, 4):
        print("usage: t3grid.py N1 N2 N3 [flat|sheared]", file=sys.stderr)
        return 2
    holonomy = argv[3] if len(argv) == 4 else "flat"
    sys.stdout.write(cubical_t3(*(int(x) for x in argv[:3]), holonomy))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
