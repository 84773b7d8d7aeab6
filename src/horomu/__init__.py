"""horomu: Mobius orthogonality and horocycle-flow laboratory.

Library layout:

* ``arith``      -- prime and multiplicative-function sieves
* ``decomp``     -- prime blocks, decomposition of [1, N), exact coverage counts
* ``criterion``  -- bilinear pair correlations, tau estimation, ledger
* ``dynamics``   -- modular-surface reduction, orbits, Haar means
* ``correlator`` -- boundary-point classification and parabolic character
* ``cli``        -- reproducible experiment runner (``horomu`` command)
"""

__version__ = "0.1.0"

from .arith import (MultiplicativeTable, PrimeTable, sieve_liouville, sieve_mobius,
                    sieve_primes)
from .correlator import (CorrelatorClass, ParabolicElement, PointDescriptor, chi,
                         classify_correlator, conjugation_exponent_check,
                         surd_group_element)
from .criterion import (BoundedSequence, CriterionReport, PairCorrelation,
                        TauEstimate, bilinear_sum, criterion_ledger,
                        tau_estimate, vinogradov_bound, weighted_sum)
from .decomp import (Classification, CoverageReport, Decomposition, DecompositionParams,
                     PrimeBlock, build_decomposition, classify, coverage_report,
                     default_schedule, prime_blocks, q_membership)
from .dynamics import (CorrelationEstimate, FundamentalDomainCoords,
                       Genericity, ModularPoint, Observable, OrbitEvaluator,
                       QuadratureSpec, birkhoff_average, bump_observable,
                       const_observable, domain_mass, genericity, haar_mean,
                       horocycle_point, mobius_disjointness_sum,
                       orbit_sequence, pair_correlation, reduce,
                       split_observable, step_observable, windy_observable)

__all__ = [name for name in dir() if not name.startswith("_")]
