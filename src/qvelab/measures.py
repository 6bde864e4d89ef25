"""One-dimensional probability measures and the metrics used for spectra.

Measures are finite atomic (values + weights) or gridded (x, density, cdf);
this module knows only those two kinds.  ``qve.QveMeasure`` subclasses
``ProbMeasure1D`` for the QVE measure of a kernel and overrides its Stieltjes
transform, ``_stieltjes``, with the QVE solver's.  ``metric_d`` evaluates the
Stieltjes-transform metric on a fixed grid of points with Im z >= 2, so it is
a certified lower bound of the sup metric; every inequality asserted against
it therefore holds a fortiori.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .report import CheckReport

# fixed evaluation grid for metric_d: lower bound of sup over {Im z >= 2}
_D_RE = np.arange(-8.0, 8.0 + 1e-9, 0.25)
_D_IM = np.array([2.0, 2.5, 3.0, 4.0, 6.0, 10.0])
METRIC_D_GRID = (_D_RE[:, None] + 1j * _D_IM[None, :]).ravel()
# entries per row block of a batched Stieltjes evaluation: 256 kB per array
# keeps a block in cache
_BLOCK_ENTRIES = 1 << 15
# midpoint quantile levels of a Wasserstein distance involving a grid measure
QUANTILE_GRID = 10_000
# the rounding slack of d <= min(W1, KS), a constant so that no call can
# loosen the check
METRIC_SLACK = 1e-9


def _trapezoid_weights(x) -> np.ndarray:
    """Weights q with q @ f(x) the trapezoid rule of f over the grid x.

    Every integral over a whole grid (mass, moments, Stieltjes transforms) is
    taken with these weights; ``_cumtrapz`` is the same rule run cumulatively.
    """
    half = np.diff(x) / 2.0
    q = np.zeros(len(x))
    q[:-1] += half
    q[1:] += half
    return q


@dataclass(frozen=True, eq=False)
class ProbMeasure1D:
    """Probability measure on R: atoms or a gridded density with CDF.

    ``==`` is identity and ``hash`` is the object's, so neither compares
    arrays nor makes a QVE measure build its grid.
    """

    kind: str                      # "atoms" | "grid" | "qve" (qve.QveMeasure)
    x: np.ndarray                  # atom locations or grid points
    w: np.ndarray | None = None    # atom weights
    density: np.ndarray | None = None
    cdf_values: np.ndarray | None = None

    @classmethod
    def from_atoms(cls, values, weights=None) -> "ProbMeasure1D":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"atom values must be 1-D, got shape {v.shape}")
        if v.size == 0:
            raise ValueError("no atoms")
        if weights is None:
            w = np.full(v.size, 1.0 / v.size)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != v.shape:
                raise ValueError(f"weights of shape {w.shape} do not match "
                                 f"atom values of shape {v.shape}")
        if not (np.isfinite(v).all() and np.isfinite(w).all()):
            raise ValueError("atom values and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        order = np.argsort(v, kind="stable")
        return cls("atoms", v[order], w=w[order] / total)

    @classmethod
    def from_grid(cls, x, density) -> "ProbMeasure1D":
        """Grid measure of the clipped density, renormalized to mass 1."""
        x = np.asarray(x, dtype=float)
        rho = np.clip(np.asarray(density, dtype=float), 0.0, None)
        mass = _trapezoid_weights(x) @ rho
        if mass <= 0:
            raise ValueError("density has no mass on the grid")
        rho = rho / mass
        cdf = _cumtrapz(rho, x)
        cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
        return cls("grid", x, density=rho, cdf_values=cdf)

    @classmethod
    def from_grid_cdf(cls, x, density, cdf) -> "ProbMeasure1D":
        """Grid measure with an externally supplied (e.g. closed-form) CDF."""
        return cls("grid", np.asarray(x, float),
                   density=np.asarray(density, float),
                   cdf_values=np.asarray(cdf, float))

    # -- CDF / quantiles ----------------------------------------------------

    def cdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "atoms":
            idx = np.searchsorted(self.x, t, side="right")
            cw = np.concatenate(([0.0], np.cumsum(self.w)))
            return cw[idx]
        return np.interp(t, self.x, self.cdf_values, left=0.0, right=1.0)

    def cdf_left(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "atoms":
            idx = np.searchsorted(self.x, t, side="left")
            cw = np.concatenate(([0.0], np.cumsum(self.w)))
            return cw[idx]
        return self.cdf(t)

    def quantile(self, t) -> np.ndarray:
        """Generalized inverse CDF, inf{x : F(x) >= t}."""
        t = np.asarray(t, dtype=float)
        if self.kind == "atoms":
            cw = np.cumsum(self.w)
            idx = np.clip(np.searchsorted(cw, t - 1e-15, side="left"),
                          0, self.x.size - 1)
            return self.x[idx]
        cdf = self.cdf_values
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        return np.interp(t, cdf[keep], self.x[keep],
                         left=self.x[0], right=self.x[-1])

    def moment(self, order: int) -> float:
        if self.kind == "atoms":
            return float(np.sum(self.w * self.x ** order))
        return float(_trapezoid_weights(self.x) @ (self.density * self.x ** order))

    def _stieltjes(self, zs: np.ndarray) -> np.ndarray:
        """m_mu at each of the points zs.

        Atoms and grids are summed a block of rows at a time: with u = x -
        Re z and b = Im z, 1/(x - z) = (u + ib)/(u^2 + b^2), so each block
        takes two real matrix-vector products against the weights.
        """
        c = self.w if self.kind == "atoms" else _trapezoid_weights(self.x) * self.density
        out = np.empty(zs.size, dtype=complex)
        rows = max(1, _BLOCK_ENTRIES // self.x.size)
        for lo in range(0, zs.size, rows):
            zb = zs[lo:lo + rows]
            u = self.x[None, :] - zb.real[:, None]
            inv = u * u
            inv += zb.imag[:, None] ** 2
            np.reciprocal(inv, out=inv)
            im = inv @ c
            u *= inv
            out[lo:lo + rows] = u @ c + 1j * zb.imag * im
        return out


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# ---------------------------------------------------------------------------
# metrics


def metric_d(mu: ProbMeasure1D, nu: ProbMeasure1D) -> float:
    """Max of |m_mu - m_nu| over the fixed grid with Im z >= 2."""
    diffs = mu._stieltjes(METRIC_D_GRID) - nu._stieltjes(METRIC_D_GRID)
    return float(np.abs(diffs).max())


def ks_distance(mu: ProbMeasure1D, nu: ProbMeasure1D) -> float:
    """sup_t |F_mu(t) - F_nu(t)|, evaluated at merged breakpoints and jumps."""
    pts = np.unique(np.concatenate([mu.x, nu.x]))
    d_right = np.abs(mu.cdf(pts) - nu.cdf(pts))
    d_left = np.abs(mu.cdf_left(pts) - nu.cdf_left(pts))
    return float(max(d_right.max(), d_left.max()))


def wasserstein(mu: ProbMeasure1D, nu: ProbMeasure1D, order: int) -> float:
    """1-D L^p Wasserstein distance via quantile functions.

    Atom pairs integrate exactly over merged CDF levels; anything involving a
    grid measure uses QUANTILE_GRID midpoint levels.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if mu.kind == "atoms" and nu.kind == "atoms":
        levels = np.unique(np.concatenate(
            [[0.0], np.cumsum(mu.w), np.cumsum(nu.w), [1.0]]))
        levels = np.clip(levels, 0.0, 1.0)
        mids = 0.5 * (levels[:-1] + levels[1:])
        gaps = np.diff(levels)
        q1, q2 = mu.quantile(mids), nu.quantile(mids)
        total = float(np.sum(gaps * np.abs(q1 - q2) ** order))
        return total ** (1.0 / order)
    t = (np.arange(QUANTILE_GRID) + 0.5) / QUANTILE_GRID
    q1, q2 = mu.quantile(t), nu.quantile(t)
    return float(np.mean(np.abs(q1 - q2) ** order) ** (1.0 / order))


def metric_inequality_check(mu: ProbMeasure1D, nu: ProbMeasure1D) -> CheckReport:
    """d <= min(W1, KS) up to METRIC_SLACK (valid since grid-d lower-bounds
    the sup metric)."""
    d = metric_d(mu, nu)
    w1 = wasserstein(mu, nu, 1)
    ks = ks_distance(mu, nu)
    rhs = min(w1, ks)
    return CheckReport(d, rhs, d <= rhs + METRIC_SLACK, {"w1": w1, "ks": ks})


# ---------------------------------------------------------------------------
# CSV round trips


# fields per row of each measure CSV header
_MEASURE_CSV_WIDTH = {"eigenvalue": 1, "x,weight": 2, "x,density,cdf": 3}


def save_measure_csv(mu: ProbMeasure1D, path):
    with open(path, "w", newline="") as fh:
        if mu.kind == "atoms":
            fh.write("x,weight\n")
            for x, w in zip(mu.x, mu.w):
                fh.write(f"{float(x)!r},{float(w)!r}\n")
        else:
            fh.write("x,density,cdf\n")
            for x, d, c in zip(mu.x, mu.density, mu.cdf_values):
                fh.write(f"{float(x)!r},{float(d)!r},{float(c)!r}\n")


def load_measure_csv(path) -> ProbMeasure1D:
    """Measure from a CSV with the header ``eigenvalue`` (equal atoms, as
    ``save_eigenvalues_csv`` writes), ``x,weight`` (atoms) or
    ``x,density,cdf`` (a grid); ValueError for any other header, for a row
    whose field count differs from the header's, for a value that is not
    finite, for a grid whose x does not strictly increase, or for a file
    with no rows."""
    with open(path) as fh:
        header = fh.readline().strip()
        width = _MEASURE_CSV_WIDTH.get(header)
        if width is None:
            raise ValueError(f"unrecognized measure CSV header: {header.split(',')}")
        with warnings.catch_warnings():  # a header-only file is handled below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"{path}: measure CSV has no rows")
    if data.shape[1] != width:
        raise ValueError(f"{path}: rows have {data.shape[1]} fields, header "
                         f"{header!r} has {width}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"{path}: measure CSV value {float(data[r, c])!r} in "
                         f"data row {r + 1} is not finite")
    if width == 1:
        return ProbMeasure1D.from_atoms(data[:, 0])
    if width == 2:
        return ProbMeasure1D.from_atoms(data[:, 0], data[:, 1])
    down = np.flatnonzero(~(np.diff(data[:, 0]) > 0))
    if down.size:
        r = down[0] + 2
        raise ValueError(f"{path}: grid x {float(data[r - 1, 0])!r} in data row {r} "
                         f"does not exceed the row before")
    return ProbMeasure1D.from_grid_cdf(data[:, 0], data[:, 1], data[:, 2])
