"""One-dimensional probability measures and the metrics used for spectra.

Measures are finite atomic (values + weights), gridded (x, density, cdf), or
the QVE measure of a kernel (``qve.QveMeasure``), whose Stieltjes transform
comes from the QVE solver and whose grid is inverted on first use.
``metric_d`` evaluates the Stieltjes-transform metric on a fixed grid of
points with Im z >= 2, so it is a certified lower bound of the sup metric;
every inequality asserted against it therefore holds a fortiori.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PartitionMismatch, PreconditionViolated
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
# the grid-inversion slack of W2 <= sqrt(L1); the rounding slacks of
# d <= 2|E| (d of two QVE measures comes from the solver, within its
# residual), of d <= min(W1, KS) and of the interlacing precondition
# |E| >= the measure where the kernels differ; they are constants so that no
# call can loosen a check
HW_SLACK = 2e-3
INTERLACING_SLACK = 1e-9
METRIC_SLACK = 1e-9
INTERLACING_PRECONDITION_SLACK = 1e-12


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


@dataclass(frozen=True)
class ProbMeasure1D:
    """Probability measure on R: atoms or a gridded density with CDF."""

    kind: str                      # "atoms" | "grid" | "qve" (qve.QveMeasure)
    x: np.ndarray                  # atom locations or grid points
    w: np.ndarray | None = None    # atom weights
    density: np.ndarray | None = None
    cdf_values: np.ndarray | None = None

    @classmethod
    def from_atoms(cls, values, weights=None) -> "ProbMeasure1D":
        v = np.asarray(values, dtype=float)
        if v.size == 0:
            raise ValueError("no atoms")
        if weights is None:
            w = np.full(v.size, 1.0 / v.size)
        else:
            w = np.asarray(weights, dtype=float)
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

    def stieltjes(self, z) -> complex:
        """m(z) = int dmu(x)/(x - z), Im z > 0."""
        z = complex(z)
        if z.imag <= 0:
            raise ValueError("stieltjes transform requires Im z > 0")
        return complex(_stieltjes_at(self, np.array([z]))[0])


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _stieltjes_at(mu: ProbMeasure1D, zs: np.ndarray) -> np.ndarray:
    """m_mu at each of the points zs.

    A QVE measure answers with the solver's mean m(z) . lambda at zs, from its
    kernel and not from a grid.  Atoms and grids are summed a block of rows
    at a time: with u = x - Re z and b = Im z, 1/(x - z) = (u + ib)/(u^2 +
    b^2), so each block takes two real matrix-vector products against the
    weights.
    """
    if mu.kind == "qve":
        from . import qve

        return qve.solve_qve(mu.kernel, zs).average()
    c = mu.w if mu.kind == "atoms" else _trapezoid_weights(mu.x) * mu.density
    out = np.empty(zs.size, dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // mu.x.size)
    for lo in range(0, zs.size, rows):
        zb = zs[lo:lo + rows]
        u = mu.x[None, :] - zb.real[:, None]
        inv = u * u
        inv += zb.imag[:, None] ** 2
        np.reciprocal(inv, out=inv)
        im = inv @ c
        u *= inv
        out[lo:lo + rows] = u @ c + 1j * zb.imag * im
    return out


# ---------------------------------------------------------------------------
# metrics


def metric_d(mu: ProbMeasure1D, nu: ProbMeasure1D) -> float:
    """Max of |m_mu - m_nu| over the fixed grid with Im z >= 2."""
    diffs = _stieltjes_at(mu, METRIC_D_GRID) - _stieltjes_at(nu, METRIC_D_GRID)
    return float(np.abs(diffs).max())


def ks_distance(mu: ProbMeasure1D, nu: ProbMeasure1D) -> float:
    """sup_t |F_mu(t) - F_nu(t)|, evaluated at merged breakpoints and jumps."""
    pts = np.unique(np.concatenate([mu.x, nu.x]))
    d_right = np.abs(mu.cdf(pts) - nu.cdf(pts))
    d_left = np.abs(mu.cdf_left(pts) - nu.cdf_left(pts))
    return float(max(d_right.max(), d_left.max()))


def wasserstein(mu: ProbMeasure1D, nu: ProbMeasure1D, order: int = 1) -> float:
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
# appendix inequalities on QVE measures (lazy import avoids a module cycle)


def hw_check(W, W_prime, grid=None) -> CheckReport:
    """Hoeffding/Wielandt-style bound: W2 of the spectral measures is at most
    sqrt of the L1 distance of the kernels, up to the inversion slack
    HW_SLACK."""
    from . import kernels as kmod
    from . import qve

    lhs = wasserstein(qve.qve_measure(W, grid), qve.qve_measure(W_prime, grid), 2)
    rhs = float(np.sqrt(kmod.l1_norm(W.sub(W_prime))))
    return CheckReport(lhs, rhs + HW_SLACK, lhs <= rhs + HW_SLACK,
                       {"slack": HW_SLACK})


def interlacing_check(W, W_prime, E_measure: float) -> CheckReport:
    """Kernel interlacing: metric_d of the spectral measures is at most twice
    the measure of the part set where the kernels differ, up to the rounding
    slack INTERLACING_SLACK.  d compares the two kernels' QVE solutions on
    METRIC_D_GRID directly, so no measure is inverted."""
    from . import qve

    a, b = W, W_prime
    if a.partition != b.partition:
        raise PartitionMismatch("kernels must share a partition")
    # smallest part set E covering the difference support: entry (i,j) may
    # differ only if i in E or j in E, so greedily cover rows of the defect
    diff = a.values != b.values
    cover = np.zeros(a.partition.k, dtype=bool)
    while diff.any():
        i = int(np.argmax(diff.sum(axis=1)))
        cover[i] = True
        diff[i, :] = False
        diff[:, i] = False
    measure_diff = float(a.partition.part_measures[cover].sum())
    if measure_diff > E_measure + INTERLACING_PRECONDITION_SLACK:
        raise PreconditionViolated(
            f"kernels differ on measure {measure_diff} > E_measure {E_measure}"
        )
    lhs = metric_d(qve.QveMeasure(a), qve.QveMeasure(b))
    rhs = 2.0 * E_measure
    return CheckReport(lhs, rhs + INTERLACING_SLACK,
                       lhs <= rhs + INTERLACING_SLACK,
                       {"measure_diff": measure_diff})


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
    finite, or for a file with no rows."""
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
    return ProbMeasure1D.from_grid_cdf(data[:, 0], data[:, 1], data[:, 2])
