"""Numerical tolerances shared by the library and its test suite.

Every threshold that an operation or a test depends on lives here, so the
two can never drift apart.
"""

# Spectrum quality gates (eigenvector orthogonality, A = Q diag(w) Q^T).
ORTHOGONALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9

# Graph spectral thresholds.
CONNECTIVITY_TOL = 1e-8       # second-smallest Laplacian eigenvalue
ZERO_EIGENVALUE_TOL = 1e-9    # smallest Laplacian eigenvalue magnitude
ADJACENCY_SYMMETRY_TOL = 1e-12

# Geometry.
UNIT_NORM_TOL = 1e-9

# Closed-form inverse gate for the error-coordinate transformation.
INVERSE_IDENTITY_TOL = 1e-9

# Simulation.
DIVERGENCE_LIMIT = 1e9
DURATION_STEP_RTOL = 1e-9     # duration / step must be this close to a whole number
