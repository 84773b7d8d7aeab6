"""Each documented input check raises its own HoromuError subclass.

``cli.main`` maps every ValidationError subclass to exit 2 and a
CapacityError to exit 3; a check that raised ValueError, IndexError or
OSError instead would leave the CLI at exit 1.
"""

import numpy as np
import pytest

from horomu.arith import MultiplicativeTable, sieve_mobius, sieve_primes
from horomu.criterion import SEQUENCE_BUDGET, BoundedSequence, bilinear_sum, weighted_sum
from horomu.decomp import DecompositionParams, classify, q_membership
from horomu.dynamics import (ModularPoint, QuadratureSpec, birkhoff_average,
                             bump_observable, horocycle_point, mobius_disjointness_sum,
                             pair_correlation)
from horomu.errors import (CapacityError, DescriptorError, HoromuError, HorizonError,
                           ValidationError)
from horomu.exactreal import frac_parts

PARAMS = DecompositionParams(1000, 1, 2, 5)  # blocks [4, 8), [8, 16), [16, 32)
PRIMES = sieve_primes(100)
XI = ModularPoint.lower("sqrt2")
BUMP = bump_observable()
F = BoundedSequence.constant(1, 100)
MU = sieve_mobius(50)


def _csv(tmp_path, content: bytes) -> str:
    path = tmp_path / "table.csv"
    path.write_bytes(content)
    return str(path)


CHECKS = {
    "params-n-below-2": (ValidationError, lambda tmp: DecompositionParams(1, 1, 1, 1)),
    "params-j0-above-j1": (ValidationError, lambda tmp: DecompositionParams(1000, 1, 3, 2)),
    "classify-n-0": (ValidationError, lambda tmp: classify(0, PARAMS, PRIMES)),
    "classify-n-at-N": (ValidationError, lambda tmp: classify(1000, PARAMS, PRIMES)),
    "q-membership-m-0": (ValidationError, lambda tmp: q_membership(0, 2, PARAMS, PRIMES)),
    "q-membership-j-outside": (ValidationError, lambda tmp: q_membership(1, 5, PARAMS, PRIMES)),
    "quadrature-nx-1": (ValidationError, lambda tmp: QuadratureSpec(nx=1)),
    "quadrature-nv-1": (ValidationError, lambda tmp: QuadratureSpec(nv=1)),
    "quadrature-ntheta-0": (ValidationError, lambda tmp: QuadratureSpec(ntheta=0)),
    "horocycle-point-n-negative": (ValidationError, lambda tmp: horocycle_point(XI, -1)),
    "birkhoff-N-0": (ValidationError, lambda tmp: birkhoff_average(BUMP, XI, 0)),
    "pair-correlation-N-0": (ValidationError,
                             lambda tmp: pair_correlation(BUMP, XI, 2, 3, 0)),
    "disjointness-N-0": (ValidationError,
                         lambda tmp: mobius_disjointness_sum(XI, BUMP, 0, MU)),
    "disjointness-short-nu": (ValidationError,
                              lambda tmp: mobius_disjointness_sum(XI, BUMP, 51, MU)),
    "weighted-sum-N-0": (ValidationError, lambda tmp: weighted_sum(MU, F, 0)),
    "weighted-sum-short-nu": (HorizonError, lambda tmp: weighted_sum(MU, F, 51)),
    "bilinear-sum-equal-primes": (ValidationError, lambda tmp: bilinear_sum(F, 2, 2, 5)),
    "bilinear-sum-M-0": (ValidationError, lambda tmp: bilinear_sum(F, 2, 3, 0)),
    "sequence-too-short": (ValidationError, lambda tmp: BoundedSequence(np.zeros(1), "x")),
    "sequence-past-budget": (CapacityError,
                             lambda tmp: BoundedSequence.constant(1, SEQUENCE_BUDGET + 1)),
    "frac-parts-negative-index": (DescriptorError, lambda tmp: frac_parts("sqrt2", [3, -1])),
    "table-wrong-shape": (ValidationError,
                          lambda tmp: MultiplicativeTable(3, np.ones(3, np.int8), "x")),
    "table-int8-above-1": (ValidationError, lambda tmp: MultiplicativeTable(
        2, np.array([0, 1, 2], dtype=np.int8), "x")),
    "table-int8-below-minus-1": (ValidationError, lambda tmp: MultiplicativeTable(
        2, np.array([0, 1, -2], dtype=np.int8), "x")),
    "csv-empty-table": (ValidationError,
                        lambda tmp: MultiplicativeTable.from_csv(_csv(tmp, b"n,value\n\n"))),
    "csv-not-csv": (ValidationError, lambda tmp: MultiplicativeTable.from_csv(
        _csv(tmp, b"n,value\n1,\xff\xfe\x00\x01\n"))),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_input_check_raises_its_documented_error(name, tmp_path):
    error, call = CHECKS[name]
    with pytest.raises(HoromuError) as info:
        call(tmp_path)
    assert type(info.value) is error, (name, info.value)
