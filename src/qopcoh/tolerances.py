"""Project-wide numerical tolerance ladder.

Three fixed tiers, used consistently everywhere:

* ``ALGEBRA_ATOL`` (1e-12) for identities that hold up to floating-point
  round-off (vectorization identities, matrix-representation equalities).
* ``EIG_ATOL`` (1e-10) for quantities that pass through an
  eigendecomposition (reconstruction bounds, closed-form vs numeric
  measure agreement).
* ``ADMISSION_ATOL`` (1e-9) for accepting inputs as Hermitian / PSD /
  trace-one / unitary and for the yes-no predicates built on top of them.

No tier can be overridden, so every verdict is a function of its inputs.
"""

ALGEBRA_ATOL = 1e-12
EIG_ATOL = 1e-10
ADMISSION_ATOL = 1e-9
