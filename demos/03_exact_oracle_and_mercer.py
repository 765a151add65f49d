"""
Exact values on finite supports, and what the Mercer sums reveal
================================================================

On a finite-support joint law every expectation is a finite sum, so the
dependence measures have exact values: a ground truth for the estimators.
Splitting them along a Mercer eigenbasis shows *why* metric covariance is
the weaker measure: it sums signed same-index covariances (which can
cancel), while HSIC sums squared covariances over all index pairs.
"""

import numpy as np

from metricdep import (
    DiscreteJoint,
    EuclideanSquared,
    GaussianKernel,
    LinearKernel,
    cancellation_joint,
    empirical_joint,
    exact_dcov,
    exact_hsic,
    exact_mcov,
    induced_semimetric,
    mcov_plugin,
    mercer_hsic_decomposition,
    mercer_mcov_decomposition,
)

e2 = EuclideanSquared()

# --- a joint small enough to check by hand -------------------------------------

# X = Y uniform on {0, 1}: cross distances are 0 on the diagonal, so coupled
# pairs are closer than re-paired ones by exactly 1/4
ident = DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [[0.5, 0.0], [0.0, 0.5]])
print("identity coupling: mcov =", exact_mcov(ident, e2),
      " hsic =", exact_hsic(ident, LinearKernel()),
      " dcov =", exact_dcov(ident, e2))

# flipping the coupling flips the sign of mcov but not of hsic
anti = DiscreteJoint([[0.0], [1.0]], [[0.0], [1.0]], [[0.0, 0.5], [0.5, 0.0]])
print("antitone coupling: mcov =", exact_mcov(anti, e2),
      " hsic =", exact_hsic(anti, LinearKernel()))

# --- estimators converge to the oracle ------------------------------------------

x, y = ident.sample(5000, seed=0)
print("\nV-statistic at n=5000:", mcov_plugin(x, y, e2), " exact:", 0.25)
print("(identically: exact value of the empirical law:",
      exact_mcov(empirical_joint(x, y), e2), ")")

# --- the cancellation witness ----------------------------------------------------

# Z uniform on {-1,+1}, X = (Z, 0), Y = (0, Z): deterministically dependent,
# but every cross distance equals sqrt(2)
joint = cancellation_joint()
kernel = GaussianKernel(1.0)
print("\ncancellation joint:")
print("  mcov (euclid2)          =", exact_mcov(joint, e2))
print("  mcov (gaussian-induced) =", exact_mcov(joint, induced_semimetric(kernel)))
print("  hsic (gaussian)         =", exact_hsic(joint, kernel))

# all the dependence sits in the eigenspace E of the repeated eigenvalue, where
# the basis is the eigensolver's free choice; the sums over E do not depend on it
dm = mercer_mcov_decomposition(joint, kernel)
dh = mercer_hsic_decomposition(joint, kernel)
print("\n  eigenvalues:", dm.eigenvalues)
e = np.nonzero(np.isclose(dm.eigenvalues, dm.eigenvalues[1], rtol=1e-9, atol=0.0))[0]
c_e = dh.covariances[np.ix_(e, e)]
print(f"  E = eigenvalue {dm.eigenvalues[1]:.6f}, repeated {e.size} times")
print(f"  cross-covariance block C_E: trace = {np.trace(c_e):+.1e}, Frobenius norm = {np.linalg.norm(c_e):.6f}")

# ...so the single sum gets lambda * tr C_E = 0 from E...
print("  mcov terms lambda_j * cov[e_j(X), e_j(Y)] summed over E =", dm.terms[e].sum())
print("  mcov total =", dm.total)

# ...while the double sum gets lambda^2 * ||C_E||^2 > 0, all of HSIC
print("  hsic terms lambda_i lambda_j cov[e_i(X), e_j(Y)]^2 summed over E x E =",
      dh.terms[np.ix_(e, e)].sum())
print("  hsic total =", dh.total)
