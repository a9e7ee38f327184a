"""The one table of numeric thresholds the toolkit compares against.

Every tolerance and gate in ``qudisc`` is named here once, with what it
bounds; no other module spells a threshold as a literal.
"""

# Numerical checks.
# Unitarity |M†M - I| of a matrix or isometry, |norm - 1| of a state, |modulus - 1| on the circle.
UNITARY_TOL = 1e-10
# Eigendecomposition contract: residual |U V - V e^{i phi}| and defect |V†V - I| of the few
# eigenvectors found; for the phases, the Hermitian defect |H - H†| of the Cayley transform they
# are read from, times 2 sin^2(gap/4), which takes it back to the scale of the matrix decomposed.
EIGEN_TOL = 1e-8
# Inverse iteration's relative shift of an eigenvalue off the circle: no pivot is exactly 0.
INVERSE_SHIFT = 1e-12
# POVM defects: |B - B^H|, depth of a negative eigenvalue or weight, |sum - I|, |basis†basis - I|.
POVM_TOL = 1e-9
# States coincide (a 1-D span) when the second's part orthogonal to the first is shorter.
COINCIDE_TOL = 1e-9
# Subtracted from a bound before its ceiling, so exact integers are not bumped up by rounding.
CEILING_GUARD = 1e-9
# ... or this many units of roundoff (2**-53) of the bound, when larger: the bound's own rounding.
CEILING_ROUNDING = 3

# Campaign gates.
# Lowest query-count bound slack a record may show.
THEOREM_SLACK_TOL = -1e-6
# Lowest per-step slack of the distance audit a trace may show.
LEMMA_SLACK_TOL = -1e-9
# Largest zero-query trace distance.
D0_TOL = 1e-12

# Protocol search.
# Final overlap at which the search stops: perfect discrimination for every practical purpose.
PERFECT_OVERLAP = 1e-5
# Slack in the half-span T*theta/2 allowed when the search asserts its result against the bound.
BOUND_SAFETY_TOL = 5e-7
