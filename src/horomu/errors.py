"""Exception taxonomy shared by all horomu modules.

Every error carries a short machine-readable ``code`` so that CLI reports
and exit statuses can be mapped deterministically:

* validation-type errors (bad parameters, domains, descriptors) -> exit 2
* capacity errors (request exceeds the configured memory budget) -> exit 3
* precision errors (working precision insufficient, non-convergence) -> exit 4
* I/O errors -> exit 5
"""


class HoromuError(Exception):
    code = "error"


class ValidationError(HoromuError):
    """Parameter or configuration violates a documented precondition."""

    code = "validation"


class DomainError(ValidationError):
    """Numeric argument outside the mathematical domain of an operation."""

    code = "domain"


class RangeCoverageError(ValidationError):
    """A lookup table does not cover the requested range."""

    code = "range"


class HorizonError(ValidationError):
    """A sequence cannot supply values at the requested indices."""

    code = "horizon"


class DescriptorError(ValidationError):
    """Symbolic descriptor outside the supported vocabulary, or malformed."""

    code = "descriptor"


class ShapeError(ValidationError):
    """Matrix argument has the wrong shape or structure."""

    code = "shape"


class EmptyPairSetError(ValidationError):
    """No admissible prime pairs below the requested cutoff."""

    code = "empty-pairs"


class CapacityError(HoromuError):
    """Request exceeds the configured memory budget."""

    code = "capacity"


class PrecisionError(HoromuError):
    """Working precision is insufficient for the requested computation."""

    code = "precision"


class ConvergenceError(PrecisionError):
    """Quadrature or iteration failed to converge within tolerance."""

    code = "non-convergence"


class ReportIOError(HoromuError):
    """Reading or writing a report/series file failed."""

    code = "io"
