"""Every numerical threshold of the package, each defined once.

A state is classical exactly when no scheme entry is negative, so where the
code draws "zero" decides the answer. Each name below bounds one kind of
quantity, and every module takes its thresholds from here. The operators
handled are small and O(1) in norm, so all thresholds are absolute. The only
tolerance a user sets is the classicality `eps` (CLI `--eps`), whose default
is CLASSICALITY_EPS.
"""

# Slack for quantities exact up to a few ulps of O(1) arithmetic: a Bloch
# norm, a sum of convex weights, the closed-form range checks, the width at
# which the threshold bisection stops.
ROUNDING_ATOL = 1e-12

# Residual of a matrix identity after a few dense products (P^2 = P, the
# resolution of the identity, unit trace and positivity of a state, scheme
# sums, duplicate hermitized orderings, negativity's floor at zero): about
# 100x the rounding such products leave.
RESIDUAL_ATOL = 1e-10

# Anti-Hermitian residual of an input matrix and imaginary residue of a
# trace: inputs may come from files written with fewer digits.
ATOL_LOOSE = 1e-9

# Norm deviation accepted in user-supplied two-qubit amplitudes, which are
# typed or read as decimals; accepted input is renormalised exactly.
NORM_ATOL = 1e-8

# Default classicality threshold: an entry below -eps counts as negative, so
# rounding at the RESIDUAL_ATOL level never makes a classical state look
# non-classical.
CLASSICALITY_EPS = 1e-10

# `spectrum`: a projector pair whose commutator max-norm exceeds this counts
# as noncommuting, far above rounding, so near-commuting pairs are not tested.
COMMUTATOR_CUTOFF = 1e-6

# `spectrum`: a minimum eigenvalue at or above -this counts as non-negative
# (a violation for a noncommuting pair); a few ulps of the O(1) spectrum.
NEGATIVE_EIG_CUTOFF = 1e-14

# `scan-negativity` keeps theta strictly inside (0, pi), where the aligned
# geometry is defined; out-of-range bounds clip to this margin.
THETA_MARGIN = 1e-9
