"""Quadratic vector equation solver and Stieltjes inversion for step kernels.

For a kernel on k parts with values V and part measures lambda the QVE reads
-1/m_i = z + sum_j S_ij m_j with S_ij = V_ij * lambda_j; its unique solution
with Im m > 0 encodes the spectral (QVE) measure of the kernel.

The solver is damped Newton with eta-continuation.  It starts at
Im z = max(4, 2 sqrt(||S||_inf)), where m -> -1/(z + Sm) contracts, and walks
Im z down to its target by a fixed factor, each level warm-started from the
level above; the QVE solution is stable in z (Ajanki, Erdos and Krueger,
Quadratic Vector Equations on Complex Upper Half-Plane), so the walk stays on
the Herglotz branch, and a Newton step is only taken while it lowers the
residual and keeps Im m > 0.  A level that a point misses is retried from
the level above with a finer factor, and a point left unsolved walks once
more with tighter levels.  Accepted solutions always satisfy the residual and
Herglotz contracts; failures raise per-point, never silently.

Stieltjes inversion (``qve_measure``) solves a whole grid x + i eta.  At fixed
eta > 0, m is smooth in x by the same stability, so the grid is solved coarse
to fine: every COARSE_STRIDE-th point (and the last) walks the continuation,
the values are interpolated linearly in x, and Newton at the target starts
from that interpolation.  A convex combination of points with Im m > 0 keeps
Im m > 0; points where Newton misses from it, where m changes faster than the
coarse spacing resolves, fall back to the continuation inside ``solve_qve``.
The density is extrapolated to eta -> 0 with the derivative dm/dz, which the
same stability makes one linear solve per point at the eta solution, so the
grid is Newton-solved once.

``QveMeasure`` is the QVE measure as a ``ProbMeasure1D``: its Stieltjes
transform at Im z > 0 is the mean m(z) . lambda of one solve, which needs no
inversion, and its grid is ``qve_measure`` on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow, NotConverged, PreconditionViolated, SolveFailure
from .kernels import StepKernel, degree_function
from .measures import ProbMeasure1D, _trapezoid_weights
from .report import CheckReport

# Numerical contracts and search sizes.  They are module constants, not
# arguments, so no call can loosen a contract.
RESIDUAL_TOL = 1e-12            # sup-norm residual of every accepted solution
MAX_ITER = 100                  # Newton steps per point and continuation level
CONTINUATION_FACTOR = 16.0      # Im z ratio between continuation levels
MIN_FACTOR = 1.05               # smallest ratio a failing level is retried at
NEWTON_BLOCK = 1000             # points per batched Newton solve
COARSE_STRIDE = 8               # grid stride of the coarse inversion solve
LEVEL_TOL = 1e-2                # residual that ends a level above the target
STABILITY_KAPPA = 128.0         # constant of the perturbation bound
MIN_CAPTURED_MASS = 0.99        # grid mass an inversion must capture
GRID_POINTS = 4000              # points of the default inversion grid
GRID_ETA = 1e-3                 # Im z of the default inversion grid


@dataclass(frozen=True)
class SpectralGrid:
    """n_points equispaced x in [x_min, x_max], evaluated at x + i eta."""

    x_min: float
    x_max: float
    n_points: int
    eta: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


# the points semicircle_reference samples the law on
SEMICIRCLE_GRID = SpectralGrid(-2.2, 2.2, 2000, GRID_ETA)


@dataclass
class QveSolution:
    z_points: np.ndarray           # (nz,) complex
    m_values: np.ndarray           # (nz, k) complex, Im > 0
    residuals: np.ndarray          # (nz,) sup-norm residuals
    part_measures: np.ndarray      # (k,) part measures of the kernel

    def average(self) -> np.ndarray:
        """Stieltjes transform of the QVE measure at each z."""
        return self.m_values @ self.part_measures


def _coupling_matrix(W: StepKernel) -> np.ndarray:
    return W.values * W.partition.part_measures[None, :]


def _sup_res(m, zd, S):
    """Sup-norm residual of m + 1/(zd + S m), zd = z + shift per coordinate,
    formed in place in one temporary."""
    t = m @ S.T
    t += zd
    np.divide(1.0, t, out=t)
    t += m
    return np.abs(t).max(axis=1)


def _newton(m, zd, S, tol):
    """Damped Newton on F(m) = m + 1/(zd + S m) at the unconverged points.

    ``tol`` is a scalar or one tolerance per point.  A step is halved until it
    lowers the residual and keeps Im m > 0 (the Herglotz branch); a point
    where no halving does so stops, and every point stops after MAX_ITER
    steps.  Points are solved in blocks of NEWTON_BLOCK.  Returns m and the
    residuals.

    A step builds the Jacobian J = I - diag(inv^2) S, inv = 1/(zd + S m),
    into workspaces allocated once per call, so it makes no (n, k, k)
    temporary.  The rows every matmul and LAPACK call sees are fixed by
    NEWTON_BLOCK, the live points and the halving sub-batches, and they must
    stay so: numpy's matmul rounds a one-row batch differently from the same
    row in a larger batch, so regrouping the rows would move the output bits.
    """
    k = S.shape[0]
    eye = np.eye(k)
    res = _sup_res(m, zd, S)
    tol = np.zeros_like(res) + tol
    todo = np.flatnonzero(~(res <= tol))
    nb = min(todo.size, NEWTON_BLOCK)
    jac_ws = np.empty((nb, k, k), dtype=complex)
    inv_ws, rhs_ws, trial_ws = np.empty((3, nb, k), dtype=complex)
    for lo in range(0, todo.size, NEWTON_BLOCK):
        idx = todo[lo:lo + NEWTON_BLOCK]
        mb, zb, rb, tb = m[idx], zd[idx], res[idx], tol[idx]
        live = np.ones(idx.size, dtype=bool)
        for _ in range(MAX_ITER):
            live &= ~(rb <= tb)
            if not live.any():
                break
            a = np.flatnonzero(live)
            ma, za, ra = mb[a], zb[a], rb[a]
            n = ma.shape[0]
            inv, rhs, trial, jac = inv_ws[:n], rhs_ws[:n], trial_ws[:n], jac_ws[:n]
            np.matmul(ma, S.T, out=inv)
            inv += za
            np.divide(1.0, inv, out=inv)
            np.multiply(inv, inv, out=rhs)      # inv^2 until J is built
            np.multiply(rhs[:, :, None], S, out=jac)
            np.subtract(eye, jac, out=jac)
            np.add(ma, inv, out=rhs)
            np.negative(rhs, out=rhs)
            try:
                delta = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                break
            np.add(ma, delta, out=trial)
            rt = _sup_res(trial, za, S)
            ok = (rt < ra) & (trial.imag > 0).all(axis=1)
            step = np.ones(n)
            for _halving in range(40):
                redo = np.flatnonzero(~ok)
                if redo.size == 0:
                    break
                step[redo] *= 0.5
                trial[redo] = ma[redo] + step[redo, None] * delta[redo]
                rt[redo] = _sup_res(trial[redo], za[redo], S)
                ok[redo] = (rt[redo] < ra[redo]) & (trial[redo].imag > 0).all(axis=1)
            mb[a[ok]], rb[a[ok]] = trial[ok], rt[ok]
            live[a[~ok]] = False
        m[idx], res[idx] = mb, rb
    return m, res


def _continuation(z, shift, S):
    """Newton down from Im z = top to the target Im z, one level at a time.

    At the top height max(4, 2 sqrt(||S||_inf)) the map m -> -1/(z + Sm)
    contracts, so Newton from -1/z converges there.  Each point then divides
    its height by its factor (CONTINUATION_FACTOR to start), warm-started from
    the level above: the QVE solution is stable in z, so that start lies on
    the Herglotz branch.  Levels above the target only need to start the next
    one, so they stop at LEVEL_TOL; the target level at RESIDUAL_TOL.  A
    level that misses its tolerance is retried from the level above with the
    square root of the factor; a point whose factor falls below MIN_FACTOR
    keeps an infinite residual.

    Near the axis a level can accept an iterate off the branch (Re m of the
    wrong sign) that every retry restarts from, so points left unsolved walk
    once more from the top with level tolerances LEVEL_TOL * min(1, h).
    """
    top = max(4.0, 2.0 * np.sqrt(np.abs(S).sum(axis=1).max()))
    m = np.empty((z.size, S.shape[0]), dtype=complex)
    res = np.full(z.size, np.inf)
    todo = np.arange(z.size)
    for power in (0, 1):   # level tolerance LEVEL_TOL * min(1, h) ** power
        zt, st = z[todo], shift[todo]

        def level_tol(h, target):
            loose = np.maximum(RESIDUAL_TOL, LEVEL_TOL * np.minimum(1.0, h) ** power)
            return np.where(h == target, RESIDUAL_TOL, loose)

        height = np.maximum(zt.imag, top)
        zd = (zt.real + 1j * height)[:, None] + st
        ltol = level_tol(height, zt.imag)
        mt, rt = _newton(-1.0 / zd, zd, S, ltol)
        factor = np.full(todo.size, CONTINUATION_FACTOR)
        live = np.flatnonzero((height > zt.imag) & (rt <= ltol))
        while live.size:
            h = np.maximum(zt.imag[live], height[live] / factor[live])
            zd = (zt[live].real + 1j * h)[:, None] + st[live]
            ltol = level_tol(h, zt.imag[live])
            mn, rn = _newton(mt[live], zd, S, ltol)
            ok = rn <= ltol
            mt[live[ok]], rt[live[ok]], height[live[ok]] = mn[ok], rn[ok], h[ok]
            factor[live[~ok]] = np.sqrt(factor[live[~ok]])
            live = live[(height[live] > zt.imag[live]) & (factor[live] >= MIN_FACTOR)]
        rt[height > zt.imag] = np.inf
        m[todo], res[todo] = mt, rt
        todo = todo[~(rt <= RESIDUAL_TOL)]
        if todo.size == 0:
            break
    return m, res


def solve_qve(W: StepKernel, z_points, m0=None, shift=None) -> QveSolution:
    """Solve the QVE of W at each z in the upper half-plane to a sup-norm
    residual of at most RESIDUAL_TOL.

    ``shift`` optionally adds d_i to z in coordinate i, solving
    -1/m_i = z + d_i + (Sm)_i; it has shape (k,), or (len(z_points), k) for
    one shift per point.  ``m0`` optionally warm-starts Newton at the
    target z (must lie in the upper half-plane entrywise); points it leaves
    unconverged, and all points without ``m0``, follow the eta-continuation
    of ``_continuation``.  MAX_ITER caps the Newton steps per point and
    level.
    """
    z = np.atleast_1d(np.asarray(z_points, dtype=complex))
    if np.any(z.imag <= 0):
        raise ValueError("all z must have Im z > 0")
    S = _coupling_matrix(W)
    k = W.k
    d = np.broadcast_to(np.zeros(k) if shift is None else np.asarray(shift, complex),
                        (z.size, k))
    if m0 is None:
        m = np.empty((z.size, k), dtype=complex)
        res = np.full(z.size, np.inf)
    else:
        m = np.array(m0, dtype=complex).reshape(z.size, k)
        if np.any(m.imag <= 0):
            raise ValueError("warm start must have Im m > 0")
        m, res = _newton(m, z[:, None] + d, S, RESIDUAL_TOL)
    bad = ~(res <= RESIDUAL_TOL)
    if bad.any():
        m[bad], res[bad] = _continuation(z[bad], d[bad], S)

    bad = ~(res <= RESIDUAL_TOL) | np.any(m.imag <= 0, axis=1)
    if bad.any():
        raise NotConverged(
            f"QVE solver failed at {int(bad.sum())} of {z.size} points",
            points=z[bad],
        )
    return QveSolution(z, m, res, W.partition.part_measures)


def support_bound(W: StepKernel) -> float:
    """2 * sqrt(||S||_inf): the QVE measure is supported inside [-b, b]."""
    S = _coupling_matrix(W)
    return float(2.0 * np.sqrt(np.abs(S).sum(axis=1).max()))


def default_grid(W: StepKernel) -> SpectralGrid:
    """GRID_POINTS points at Im z = GRID_ETA, one unit past the support bound."""
    b = support_bound(W)
    return SpectralGrid(-b - 1.0, b + 1.0, GRID_POINTS, GRID_ETA)


def _dm_dz(m, S):
    """dm/dz at QVE solutions m, one row per point.

    Differentiating m + 1/(z + Sm) = 0 in z, with 1/(z + Sm) = -m at a
    solution, gives J m' = m^2 for the Newton Jacobian J = I - diag(m^2) S.
    Points are solved in blocks of NEWTON_BLOCK, each into one workspace
    for m^2 and one for J.  A singular J or a non-finite m' raises
    SolveFailure.
    """
    k = S.shape[0]
    dm = np.empty_like(m)
    neg_s = -S
    nb = min(m.shape[0], NEWTON_BLOCK)
    m2_ws = np.empty((nb, k), dtype=complex)
    jac_ws = np.empty((nb, k, k), dtype=complex)
    for lo in range(0, m.shape[0], NEWTON_BLOCK):
        n = min(NEWTON_BLOCK, m.shape[0] - lo)
        m2 = np.square(m[lo:lo + n], out=m2_ws[:n])
        jac = np.multiply(m2[:, :, None], neg_s, out=jac_ws[:n])
        jac.reshape(-1, k * k)[:, ::k + 1] += 1.0   # J = I - diag(m^2) S in place
        try:
            dm[lo:lo + NEWTON_BLOCK] = np.linalg.solve(jac, m2[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"QVE derivative: {exc}") from exc
    if not np.isfinite(dm).all():
        raise SolveFailure("QVE derivative is not finite")
    return dm


def qve_measure(W: StepKernel, grid: SpectralGrid | None = None) -> ProbMeasure1D:
    """QVE measure by Stieltjes inversion on the grid.

    Density (Im mbar - eta Re mbar')/pi at x + i eta, with mbar = m . lambda
    and mbar' its z-derivative: since d/d eta Im mbar = Re mbar', this is the
    first-order extrapolation to eta -> 0, which removes the leading O(eta)
    smoothing bias.  The eta solve starts coarse to fine: every
    COARSE_STRIDE-th grid point and the last are solved by continuation, and
    Newton on the full grid starts from their linear interpolation in x.
    The grid must capture at least MIN_CAPTURED_MASS of the mass before
    renormalization.
    """
    if grid is None:
        grid = default_grid(W)
    x = grid.x
    mu = W.partition.part_measures

    coarse = np.unique(np.append(np.arange(0, x.size, COARSE_STRIDE), x.size - 1))
    mc = solve_qve(W, x[coarse] + 1j * grid.eta).m_values
    # linear interpolation of values with Im m > 0 keeps Im m > 0, as m0 needs
    m0 = np.stack([np.interp(x, x[coarse], mc[:, i].real)
                   + 1j * np.interp(x, x[coarse], mc[:, i].imag)
                   for i in range(W.k)], axis=1)
    m = solve_qve(W, x + 1j * grid.eta, m0=m0).m_values
    dm = _dm_dz(m, _coupling_matrix(W))
    rho = np.clip(((m @ mu).imag - grid.eta * (dm @ mu).real) / np.pi, 0.0, None)
    mass = float(_trapezoid_weights(x) @ rho)
    if not mass >= MIN_CAPTURED_MASS:   # a NaN mass fails too
        # a spike of width eta (an atom) needs a spacing below eta, which no
        # widening replaces; mass past the support bound needs a wider grid
        spacing = (grid.x_max - grid.x_min) / (grid.n_points - 1)
        b = support_bound(W)
        remedies = []
        if spacing > grid.eta:
            remedies.append("refine the grid to a spacing <= eta")
        if grid.x_min > -b or grid.x_max < b:
            remedies.append(f"widen the grid past +-{b:.3g}")
        raise GridTooNarrow(
            f"grid captured mass {mass:.4f} < {MIN_CAPTURED_MASS} "
            f"(grid spacing {spacing:.3g}, eta {grid.eta:.3g}); "
            + (" and ".join(remedies) or "widen the grid")
        )
    return ProbMeasure1D.from_grid(x, rho)


class QveMeasure(ProbMeasure1D):
    """The QVE measure of the kernel W, a ``ProbMeasure1D`` of kind "qve".

    Its Stieltjes transform is the solver's mean mbar(z) = m(z) . lambda, so
    ``measures._stieltjes_at``, and with it ``metric_d``, solves the QVE at
    the asked points and inverts nothing.  Its grid (x, density, CDF, and so
    quantiles and moments) is ``qve_measure(W)`` on W's default grid, built
    the first time something reads it.  ``kernel`` is W.
    """

    kind = "qve"

    def __init__(self, W: StepKernel):
        object.__setattr__(self, "kernel", W)

    def __repr__(self):
        return f"QveMeasure({self.kernel!r})"

    @functools.cached_property
    def _grid(self) -> ProbMeasure1D:
        return qve_measure(self.kernel)

    @property
    def x(self) -> np.ndarray:
        return self._grid.x

    @property
    def density(self) -> np.ndarray:
        return self._grid.density

    @property
    def cdf_values(self) -> np.ndarray:
        return self._grid.cdf_values


def semicircle_density(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x ** 2, 0.0, None)) / (2.0 * np.pi)


def semicircle_cdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    return 0.5 + xc * np.sqrt(4.0 - xc ** 2) / (4.0 * np.pi) + np.arcsin(xc / 2.0) / np.pi


def semicircle_reference() -> ProbMeasure1D:
    """Semicircle law sampled on SEMICIRCLE_GRID, CDF in closed form."""
    x = SEMICIRCLE_GRID.x
    return ProbMeasure1D.from_grid_cdf(x, semicircle_density(x), semicircle_cdf(x))


def stability_check(W: StepKernel, d, z) -> CheckReport:
    """Perturbation bound far from the real axis.

    Solves the perturbed equation -1/m~ = z + Sm~ + d and asserts
    ||m - m~||_L2 <= kappa (||S||_inf v 1) ||d||_L2 with kappa =
    STABILITY_KAPPA, for Im z >= max(kappa (||S||_inf v 1)^2, |Re z|).
    """
    z = complex(z)
    d = np.asarray(d, dtype=complex)
    S = _coupling_matrix(W)
    snorm = float(np.abs(S).sum(axis=1).max())
    threshold = max(STABILITY_KAPPA * max(snorm, 1.0) ** 2, abs(z.real))
    if z.imag < threshold:
        raise PreconditionViolated(
            f"Im z = {z.imag} below admissible threshold {threshold}"
        )
    # one call solves both equations, so with d = 0 they take the same path
    m, mt = solve_qve(W, [z, z], shift=[np.zeros_like(d), d]).m_values

    lam = W.partition.part_measures
    lhs = float(np.sqrt(np.sum(lam * np.abs(m - mt) ** 2)))
    rhs = float(STABILITY_KAPPA * max(snorm, 1.0)
                * np.sqrt(np.sum(lam * np.abs(d) ** 2)))
    return CheckReport(lhs, rhs, lhs <= rhs, {"z": z, "snorm": snorm})


def solution_to_json(sol: QveSolution) -> str:
    import json

    out = []
    for z, m, r in zip(sol.z_points, sol.m_values, sol.residuals):
        out.append({
            "z": [z.real, z.imag],
            "m": [[c.real, c.imag] for c in m],
            "residual": float(r),
        })
    return json.dumps(out)
