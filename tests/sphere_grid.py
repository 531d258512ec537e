"""Dense-grid oracle for a supremum over the unit sphere of C^2."""

import numpy as np


def grid_sup_dim2(values, n_alpha=300, n_phi=600, zooms=1):
    """Dense-grid supremum of a phase-invariant function on the unit sphere
    of C^2; ``values`` maps an (N, 2) array of unit rows to N values.

    The function is invariant under a global phase of e, so the sphere
    modulo phase is covered by e = (cos a, sin a e^{i p}).  Each of
    ``zooms`` passes lays a 201 x 201 grid over the two cells on each side
    of the previous pass's argmax.
    """

    def patch(alphas, phis):
        A, P = np.meshgrid(alphas, phis, indexing="ij")
        es = np.stack(
            [np.cos(A).ravel().astype(complex), (np.sin(A) * np.exp(1j * P)).ravel()],
            axis=1,
        )
        return values(es).reshape(A.shape)

    alphas = np.linspace(0.0, np.pi / 2.0, n_alpha)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    vals = patch(alphas, phis)
    best = vals.max()
    for _ in range(zooms):
        ia, ip = np.unravel_index(np.argmax(vals), vals.shape)
        da = alphas[1] - alphas[0]
        dp = phis[1] - phis[0]
        alphas = np.linspace(alphas[ia] - 2 * da, alphas[ia] + 2 * da, 201)
        phis = np.linspace(phis[ip] - 2 * dp, phis[ip] + 2 * dp, 201)
        vals = patch(alphas, phis)
        best = max(best, vals.max())
    return float(best)
