"""Independent references for the kernel and kernel-recovery tests: the
roundoff floor of a double-precision squared power, a 50-digit mpmath power
function, and 50-digit derivative and Laplacian kernel entries.

The floor of one evaluation functional mu against n data functionals, with
u = 2^-53, kernel values k = K(mu, Lambda), Gram G and Lagrange values w, is

    F = n u (|K_mumu| + 2 |w|^T |k| + |w|^T |G| |w|),

the first-order error of P^2 = K_mumu - k^T w when the kernel values carry
rounding errors of relative size u.  Two double routes to P^2 may differ by
up to about F, and the true value may lie that far from either; where
F > UNRESOLVED_RTOL P^2 (kernel_recovery, 1e-4) a row's power is unresolved
in double precision.
"""
from __future__ import annotations

import numpy as np

U = 2.0 ** -53


def roundoff_floor(k_mu_mu: float, k_mu_lambda, lagrange_values, gram) -> float:
    """The floor F above for one row."""
    aw = np.abs(lagrange_values)
    return len(aw) * U * (abs(k_mu_mu) + 2.0 * float(aw @ np.abs(k_mu_lambda))
                          + float(aw @ np.abs(gram) @ aw))


class MaternPointOracle:
    """The Matern point kernel K(x, y) = 2^(1-nu)/Gamma(nu) r^nu K_nu(r),
    r = |x - y|/c, nu = m - d/2, at dps digits, and the power function
    from it.  Points are tuples of doubles, taken exactly; K(x, x) = 1."""

    def __init__(self, m: int, d: int, c: float, dps: int = 50):
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = dps
        self.nu = self.mp.mpf(m) - self.mp.mpf(d) / 2
        self.norm = self.mp.mpf(2) ** (1 - self.nu) / self.mp.gamma(self.nu)
        self.c = self.mp.mpf(c)

    def _distance(self, x, y):
        mp = self.mp
        return mp.sqrt(mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(x, y))) / self.c

    def _phi(self, r):
        return self.norm * r ** self.nu * self.mp.besselk(self.nu, r)

    def kernel(self, x, y):
        r = self._distance(x, y)
        return self.mp.one if r == 0 else self._phi(r)

    def _radial_derivatives(self, r, n: int) -> list:
        """phi(r) and its first n derivatives at r > 0, by mpmath's numerical
        differentiation of the closed form at twice the working precision:
        independent of the g_a recurrence that the kernel uses."""
        with self.mp.workdps(2 * self.mp.dps):
            return list(self.mp.diffs(self._phi, r, n))

    def derivative(self, x: float, a: int, y: float, b: int):
        """lambda^x mu^y K in 1-d for lambda = f^(a)(x) and mu = f^(b)(y),
        x != y.  With u = (x - y)/c, the n-th derivative of phi(|u|) in u is
        sign(u)^n phi^(n)(|u|), and each derivative in y carries a factor -1."""
        mp = self.mp
        u = (mp.mpf(x) - mp.mpf(y)) / self.c
        n = a + b
        value = self._radial_derivatives(abs(u), n)[n]
        return (-1) ** b * mp.sign(u) ** n * value / self.c ** n

    def laplacian(self, x, y, n: int):
        """The 2-d Laplacian applied to one argument of K(x, y) (n = 1; K is
        radial, so either) or to both (n = 2), x != y.  mpmath's K of integer
        order is too slow to differentiate numerically, so this takes
        DLMF 10.29.4 instead: with D = (1/r) d/dr and
        g_j = C r^(nu-j) K_(nu-j)(r), D^j phi = (-1)^j g_j, and the radial
        Laplacian f'' + f'/r is 2 D f + r^2 D^2 f."""
        mp = self.mp
        r = self._distance(x, y)

        def g(j):
            return self.norm * r ** (self.nu - j) * mp.besselk(self.nu - j, r)

        if n == 1:
            value = -2 * g(1) + r ** 2 * g(2)
        else:
            value = 8 * g(2) - 8 * r ** 2 * g(3) + r ** 4 * g(4)
        return value / self.c ** (2 * n)

    def power_squared(self, sites, rows) -> list:
        """P^2(x) = K(x, x) - k^T G^-1 k for each row point x against the
        site points, with G^-1 k by LU at the oracle's precision."""
        mp = self.mp
        n = len(sites)
        gram = mp.matrix(n, n)
        for i in range(n):
            for j in range(i, n):
                gram[i, j] = gram[j, i] = self.kernel(sites[i], sites[j])
        out = []
        for x in rows:
            k = mp.matrix([self.kernel(x, s) for s in sites])
            w = mp.lu_solve(gram, k)
            out.append(self.kernel(x, x) - mp.fsum(k[i] * w[i] for i in range(n)))
        return out
