"""Liberation lab: free-probability numerics.

Subpackages/modules:

- ``ncalg``     symbolic noncommutative word/polynomial algebra with the
  liberation derivation, its cyclic version, and the ``Pi^s`` substitution
- ``ncpart``    the first-block moment/cumulant recursion, non-crossing
  partitions and the Kreweras complement
- ``freestate`` exact large-N trace oracles (free products, free unitary
  Brownian motion, liberation states, conditional-expectation expansion)
- ``rmt``       finite-N Monte Carlo (unitary Brownian motion, Haar sampling,
  word traces)
- ``heatkern``  complete elliptic integrals and the U(N) heat-kernel free
  energy on the supercritical branch
- ``ratefn``    trajectory metric, moment neighborhoods, orbital-entropy
  Monte Carlo and the rate-function integrand
- ``cli``       experiment runner
"""

__version__ = "0.1.0"
