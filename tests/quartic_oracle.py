"""Companion-matrix eigenvalues: the independent oracle for the closed-form
conflict roots of ``borrowoc.region``.

``conflict_roots`` finds the roots of the conflict quartic
w^4 + 2 alpha w^3 + (alpha^2 - 2 - z_c^2) w^2 - 2 alpha w + 1 + z_c^2 as
the eigenvalues of a stack of 4x4 companion matrices (LAPACK through
``np.linalg.eigvals``), then applies the same regime filter and Newton
steps on the unsquared margin as the engine.  ``boundary_arrays`` is
``region.boundary_arrays`` with these roots in place of the closed form,
so the two differ only in how the quartic is solved.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from borrowoc import region


def conflict_roots(de: np.ndarray, scen, zc: float) -> np.ndarray:
    """Conflict-regime boundary candidates, shape (rows, 4), NaN if none.

    Eigenvalues of a near-double quartic root carry an imaginary part of
    order sqrt(machine eps), below ``region._IMAG_TOL``.
    """
    se = scen.se
    alpha = (de - scen.theta0) / se
    z2 = zc * zc
    comp = np.zeros((de.size, 4, 4))
    comp[:, 0] = np.stack([-2.0 * alpha, 2.0 + z2 - alpha * alpha, 2.0 * alpha,
                           np.full_like(alpha, -1.0 - z2)], axis=1)
    comp[:, (1, 2, 3), (0, 1, 2)] = 1.0
    eig = np.linalg.eigvals(comp)
    w = eig.real
    a = alpha[:, None]
    sw = np.sign(w)
    ok = ((np.abs(eig.imag) <= region._IMAG_TOL * (1.0 + np.abs(w)))
          & (w * w > 1.0))
    w = np.where(ok, w, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(region._NEWTON_STEPS):
            s = np.sqrt(w * w - 1.0)
            w = w - ((sw * (w * (w + a) - 1.0) - zc * s)
                     / (sw * (2.0 * w + a) - zc * w / s))
        r2 = 1.0 + scen.seE**2 / se**2          # (r / se)^2
        return np.where(w * w > r2, de[:, None] + w * se, np.nan)


def boundary_arrays(scen, de, method) -> region.Boundaries:
    """``region.boundary_arrays`` with the conflict roots from eigenvalues."""
    with mock.patch.object(region, "_conflict_roots", conflict_roots):
        return region.boundary_arrays(scen, de, method)
