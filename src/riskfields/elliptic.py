"""Dirichlet solvers on the free mask: Poisson safety function and harmonic
guidance components.

Discretization is the 5-point stencil.  For the Poisson solve every FREE cell
is an unknown and OCCUPIED neighbors act as ghost cells carrying the Dirichlet
value 0 (so a single free cell with f=-4, d=1 solves to exactly 1.0).  For the
Laplace solves the boundary-node free cells are pinned to their imposed data
and only interior free cells are unknowns, which reproduces the boundary trace
exactly at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import (MalformedGrid, NegativeForcingViolation, NonConvergence)
from .grid import ScalarField, VectorField, fill_band, nearest_node_map

SOR = "sor"
GAUSS_SEIDEL = "gauss_seidel"
DENSE_DIRECT = "dense_direct"


class ForcingSpec:
    """Forcing f for the Poisson problem, strictly negative on free space.

    Default is the constant -4, which makes h = R^2 - r^2 the exact solution
    on a disk of radius R.
    """

    def __init__(self, fn=None, const=-4.0):
        self.fn = fn
        self.const = float(const)

    def evaluate(self, grid):
        vals = np.zeros((grid.nx, grid.ny))
        if self.fn is None:
            vals[grid.free] = self.const
        else:
            ii, jj = np.nonzero(grid.free)
            pts = grid.origin + grid.d * np.stack([ii, jj], axis=1).astype(float)
            out = np.array([float(self.fn(p)) for p in pts])
            vals[ii, jj] = out
        return vals


@dataclass
class SolverConfig:
    method: str = SOR
    omega: object = 1.9  # float, or "auto" for 2/(1+sin(pi/N))
    tol: float = 1e-8  # field-unit residual bound; the sweep targets an
    # error-calibrated threshold below this, see _target
    max_iters: int = 0  # 0 means 200*max(nx,ny)

    def resolved_omega(self, n):
        if self.omega == "auto":
            return 2.0 / (1.0 + math.sin(math.pi / n))
        w = float(self.omega)
        if not (0.0 < w < 2.0):
            raise MalformedGrid("omega must lie in (0, 2)")
        return w

    def resolved_max_iters(self, n):
        return self.max_iters if self.max_iters else 200 * n


@dataclass
class SolveStats:
    method: str
    iterations: int
    residual: float
    target: float
    unknowns: int
    converged: bool

    def to_text(self):
        return (f"method={self.method} unknowns={self.unknowns} "
                f"iterations={self.iterations} residual={self.residual:.3e} "
                f"target={self.target:.3e} converged={self.converged}")


def _target(cfg, grid):
    # A residual stop alone does not bound the distance to the exact discrete
    # solution (amplification up to ~N^2/2 through the inverse Laplacian), so
    # sweep down to tol * 2/N^2 in field units.  The stated contract
    # (residual <= tol) then holds with a wide margin and iterative results
    # track the direct solve to ~tol.
    n = max(grid.nx, grid.ny)
    return cfg.tol * 2.0 / (n * n)


def _sublattices(w, unknown, rhs):
    """Strided views of the four checkerboard classes of interior cells.

    A class holds the cells (i, j), 1 <= i <= nx-2, 1 <= j <= ny-2, of one
    parity pair (i mod 2, j mod 2).  Each entry is (centre, i+1, i-1, j+1,
    j-1, rhs, unknown) as views of the same shape, plus two scratch arrays
    of that shape; the four neighbours of a class all lie in the classes of
    the other colour.  Returns the red classes (i + j even) and the black
    ones.
    """
    nx, ny = w.shape
    red, black = [], []
    for pi in (1, 2):
        for pj in (1, 2):
            def at(a, si, sj):
                return a[pi + si:nx - 1 + si:2, pj + sj:ny - 1 + sj:2]
            views = (at(w, 0, 0), at(w, 1, 0), at(w, -1, 0), at(w, 0, 1),
                     at(w, 0, -1), at(rhs, 0, 0), at(unknown, 0, 0))
            views += (np.empty(views[0].shape), np.empty(views[0].shape))
            (red if (pi + pj) % 2 == 0 else black).append(views)
    return red, black


def _sweep_solve(grid, unknown, fixed, rhs, cfg):
    """Red-black SOR / Gauss-Seidel on the unknown mask.

    fixed supplies values for every non-unknown cell referenced by the stencil.
    rhs is d^2 * f on unknowns (zero for Laplace).  Returns (values, stats).
    Each half-sweep updates the strided sub-lattices of one colour in place.
    """
    n = max(grid.nx, grid.ny)
    omega = 1.0 if cfg.method == GAUSS_SEIDEL else cfg.resolved_omega(n)
    max_sweeps = cfg.resolved_max_iters(n)
    target = _target(cfg, grid)

    w = fixed.copy()
    w[unknown] = 0.0
    colours = _sublattices(w, unknown, rhs)
    inner = unknown[1:-1, 1:-1]
    core = w[1:-1, 1:-1]
    rc = rhs[1:-1, 1:-1]

    res = math.inf
    it = 0
    check_every = 8
    while it < max_sweeps:
        for lattices in colours:
            for c, ip, im, jp, jm, r, m, t1, t2 in lattices:
                # (1.0 - omega) * c + (omega * 0.25) * (ip + im + jp + jm - r),
                # same operations in the same order, so bit for bit the same
                np.add(ip, im, out=t1)
                t1 += jp
                t1 += jm
                t1 -= r
                t1 *= omega * 0.25
                np.multiply(c, 1.0 - omega, out=t2)
                t2 += t1
                np.copyto(c, t2, where=m)
        it += 1
        if it % check_every == 0 or it == max_sweeps:
            nb = w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2]
            gap = np.abs(0.25 * (nb - rc) - core)
            res = float(gap[inner].max()) if inner.any() else 0.0
            if res <= target:
                break
    stats = SolveStats(cfg.method, it, res, target, int(unknown.sum()),
                       res <= target)
    if not stats.converged:
        raise NonConvergence(stats.to_text())
    return w, stats


def _dense_solve(grid, unknown, fixed, rhs, cfg):
    ii, jj = np.nonzero(unknown)
    m = len(ii)
    if m == 0:
        return fixed.copy(), SolveStats(DENSE_DIRECT, 0, 0.0, cfg.tol, 0, True)
    if m > 6500:
        raise MalformedGrid(
            "dense direct solve is a small-grid oracle; use SOR above "
            "6500 unknowns")
    idx = -np.ones((grid.nx, grid.ny), dtype=int)
    idx[ii, jj] = np.arange(m)
    A = np.zeros((m, m))
    b = rhs[ii, jj].astype(float)  # -4u + sum nbr = rhs, fixed nbrs move right
    for k in range(m):
        i, j = ii[k], jj[k]
        A[k, k] = -4.0
        for di, dj in gridmod.NB4:
            ni, nj = i + di, j + dj
            if unknown[ni, nj]:
                A[k, idx[ni, nj]] = 1.0
            else:
                b[k] -= fixed[ni, nj]
    sol = np.linalg.solve(A, b)
    w = fixed.copy()
    w[ii, jj] = sol
    nb = np.zeros_like(w)
    nb[1:-1, 1:-1] = (w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:] + w[1:-1, :-2])
    res = float(np.abs(0.25 * (nb - rhs) - w)[unknown].max())
    return w, SolveStats(DENSE_DIRECT, 1, res, cfg.tol, m, True)


def _dispatch(grid, unknown, fixed, rhs, cfg):
    if cfg.method in (SOR, GAUSS_SEIDEL):
        return _sweep_solve(grid, unknown, fixed, rhs, cfg)
    if cfg.method == DENSE_DIRECT:
        return _dense_solve(grid, unknown, fixed, rhs, cfg)
    raise MalformedGrid(f"unknown solver method {cfg.method!r}")


def solve_poisson(grid, boundary, forcing, cfg=None):
    """Safety function h: 5-point Poisson solve with ghost zeros.

    All free cells are unknowns.  After a converged solve h > 0 holds on the
    whole free mask (discrete maximum principle with f < 0) and the residual
    |lap h - f| stays below tol*(4/d^2) everywhere.
    """
    cfg = cfg or SolverConfig()
    f_arr = forcing.evaluate(grid)
    if (f_arr[grid.free] >= 0).any():
        raise NegativeForcingViolation(
            "forcing must be strictly negative on every free cell")
    rhs = np.zeros_like(f_arr)
    rhs[grid.free] = f_arr[grid.free] * grid.d * grid.d
    fixed = np.zeros((grid.nx, grid.ny))
    w, stats = _dispatch(grid, grid.free, fixed, rhs, cfg)
    if float(w[grid.free].min()) <= 0.0:
        raise NonConvergence("positivity lost on the free mask; solve did "
                             "not reach a usable iterate")
    field = ScalarField(grid, fill_band(grid, w, band_value=0.0))
    field.stats = stats
    field.boundary = boundary
    return field


def solve_laplace_component(grid, boundary, dirichlet_values, cfg=None):
    """Harmonic extension of per-node Dirichlet data.

    Node cells are pinned to their values (reproduced exactly); interior free
    cells are the unknowns.
    """
    cfg = cfg or SolverConfig()
    vals = np.asarray(dirichlet_values, dtype=float)
    if vals.shape != (boundary.n,):
        raise MalformedGrid("need one Dirichlet value per boundary node")
    fixed = np.zeros((grid.nx, grid.ny))
    node_mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    ci, cj = boundary.cells[:, 0], boundary.cells[:, 1]
    node_mask[ci, cj] = True
    fixed[ci, cj] = vals
    unknown = grid.free & ~node_mask
    w, stats = _dispatch(grid, unknown, fixed, np.zeros_like(fixed), cfg)
    per_cell = {}
    for cell, k in nearest_node_map(grid, boundary).items():
        per_cell[cell] = vals[k]
    field = ScalarField(grid, fill_band(grid, w, band_value=0.0,
                                        per_cell=per_cell))
    field.stats = stats
    return field


def solve_guidance(grid, boundary, cfg=None):
    """Guidance field: componentwise harmonic extension of v = -beta * n_hat."""
    if boundary.flux is None:
        raise MalformedGrid("boundary flux magnitudes must be assigned first")
    data_x = -boundary.flux * boundary.normals[:, 0]
    data_y = -boundary.flux * boundary.normals[:, 1]
    fx = solve_laplace_component(grid, boundary, data_x, cfg)
    fy = solve_laplace_component(grid, boundary, data_y, cfg)
    field = VectorField(fx, fy)
    field.boundary = boundary
    return field


def check_divergence_identity(h_field, forcing, boundary):
    """Relative gap between the forcing volume integral and the boundary flux.

    The flux is accumulated face by face: each free/occupied interface face
    contributes the one-sided normal difference times its arc length d, which
    for the ghost scheme makes the identity exact up to solver residual.
    """
    grid = h_field.grid
    f_arr = forcing.evaluate(grid)
    vol = float(f_arr[grid.free].sum()) * grid.d * grid.d

    w = h_field.values.copy()
    w[~np.isfinite(w)] = 0.0
    occ = ~grid.free
    flux = 0.0
    for di, dj in gridmod.NB4:
        occ_sh = np.roll(occ, shift=(-di, -dj), axis=(0, 1))
        pair = grid.free & occ_sh
        nbr = np.roll(w, shift=(-di, -dj), axis=(0, 1))
        flux += float((nbr[pair] - w[pair]).sum())
    if vol == 0.0:
        return math.inf
    return abs(vol - flux) / abs(vol)


def hopf_margins(h_field, boundary):
    """Dh . n_hat at every boundary node (all negative after a good solve)."""
    g = h_field.gradient()
    ci, cj = boundary.cells[:, 0], boundary.cells[:, 1]
    gx = g.x.values[ci, cj]
    gy = g.y.values[ci, cj]
    return gx * boundary.normals[:, 0] + gy * boundary.normals[:, 1]
