"""A universal-coefficient oracle mod p for twisted cohomology.

The twisted cochains form a complex of free abelian groups, so over
F_p = Z/p

    H^k(C (x) F_p) = (H^k (x) F_p) (+) Tor(H^{k+1}, F_p)

(universal coefficients: Hatcher, *Algebraic Topology*, Thm 3.2, in its
cochain form).  Counting dimensions,

    dim C^k - rank_p delta^k - rank_p delta^{k-1}
        = rank H^k + #{d in tors H^k : p | d} + #{d in tors H^{k+1} : p | d}.

The left side needs only Gaussian elimination over F_p on the dense
coboundaries of ``helpers.coboundary_reference``: no Hermite form, no
Smith form and nothing from ``lagfib.intlinalg``, so it checks the
orders of the integral groups, torsion included, and the sparse
assembly of the coboundaries too.
"""

from helpers import coboundary_reference


def rank_mod_p(rows, p):
    """The rank over F_p of the matrix with these integer rows, by
    elimination on sparse rows {column: entry mod p}, each reduced
    against the pivots found so far."""
    pivots = {}
    for row in rows:
        r = {j: x % p for j, x in enumerate(row) if x % p}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(r[col], -1, p)
                pivots[col] = {j: x * inverse % p for j, x in r.items()}
                break
            f = r[col]
            for j, x in pivot.items():
                v = (r.get(j, 0) - f * x) % p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)


def mod_p_dimension(complex_, rep, k, p):
    """dim H^k(C (x) F_p), from the ranks of delta^k and delta^{k-1}."""
    def rank(j):
        if not (complex_.n_cells(j) and complex_.n_cells(j + 1)):
            return 0
        return rank_mod_p(coboundary_reference(complex_, rep, j).data, p)

    return rep.dim * complex_.n_cells(k) - rank(k) - (rank(k - 1) if k else 0)


def uct_dimension(orders, next_orders, p):
    """The right side, from the orders of H^k and H^{k+1}: 0 for a free
    generator, d for a Z/d."""
    return (sum(1 for d in orders if d == 0 or d % p == 0)
            + sum(1 for d in next_orders if d and d % p == 0))


def uct_mismatches(complex_, rep, orders, primes):
    """The (k, p, dim H^k(C (x) F_p), right side) where the identity
    fails, for k = 0..top and each prime; ``orders`` lists the orders of
    H^0..H^top."""
    top = complex_.top
    mismatches = []
    for k in range(top + 1):
        for p in primes:
            lhs = mod_p_dimension(complex_, rep, k, p)
            rhs = uct_dimension(orders[k], orders[k + 1] if k < top else (),
                                p)
            if lhs != rhs:
                mismatches.append((k, p, lhs, rhs))
    return mismatches


def primes_of(orders):
    """2, 3 and every prime that divides one of the given orders."""
    primes = {2, 3}
    for d in (d for group in orders for d in group if d):
        q = 2
        while q * q <= d:
            if d % q == 0:
                primes.add(q)
                d //= q
            else:
                q += 1
        if d > 1:
            primes.add(d)
    return sorted(primes)
