"""Project-wide numerical tolerance ladder.

Three tiers, used consistently everywhere:

* ``ALGEBRA_ATOL`` (1e-12) for identities that hold up to floating-point
  round-off (vectorization identities, matrix-representation equalities).
* ``EIG_ATOL`` (1e-10) for quantities that pass through an
  eigendecomposition (reconstruction bounds, closed-form vs numeric
  measure agreement).
* the admission tolerance (1e-9) for accepting inputs as Hermitian / PSD /
  trace-one / unitary and for the yes-no predicates built on top of them.

Only the admission tolerance may be overridden, via the ``QOPCOH_TOL``
environment variable, which must hold a finite positive number; the algebra
tolerances are fixed.
"""

import math
import os

from .exceptions import InvalidToleranceError

ALGEBRA_ATOL = 1e-12
EIG_ATOL = 1e-10
DEFAULT_ADMISSION_ATOL = 1e-9


def admission_atol() -> float:
    """Admission tolerance, honoring the QOPCOH_TOL override."""
    raw = os.environ.get("QOPCOH_TOL")
    if raw is None:
        return DEFAULT_ADMISSION_ATOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise InvalidToleranceError(f"QOPCOH_TOL must be a finite positive number, got {raw!r}")
    return value
