"""Liberation lab: free-probability numerics.

Subpackages/modules:

- ``ncalg``     symbolic noncommutative word/polynomial algebra with the
  cyclic liberation derivative and the ``Pi^s`` substitution
- ``ncpart``    the first-block moment/cumulant recursion, non-crossing
  partitions and the Kreweras complement
- ``freestate`` finitely atomic initial laws and the exact large-N trace
  oracles (free products, free unitary Brownian motion, liberation states,
  conditional-expectation expansion)
- ``rmt``       finite-N Monte Carlo (atom-diagonal initial families, unitary
  Brownian motion, Haar sampling, word traces)
- ``heatkern``  AGM elliptic integrals in m1 = 1 - k^2, the U(N) heat-kernel
  free energy on the supercritical branch and its sandwich bounds
- ``ratefn``    trajectory metric, moment neighborhoods, orbital-entropy
  Monte Carlo and the rate-function integrand
- ``cli``       experiment runner
"""

__version__ = "0.1.0"
