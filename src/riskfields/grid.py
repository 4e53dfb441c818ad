"""Occupancy lattice, boundary extraction, normals, and field sampling.

World convention: cell (i, j) has its center at origin + d*(i, j), with i along
x and j along y.  The FREE region is a single 4-connected component enclosed by
an OCCUPIED perimeter.  Obstacle components are 8-connected (dual connectivity,
so a diagonal obstacle chain cannot leak free space through itself).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage

from .errors import (
    DegenerateNormal,
    DisconnectedFreeSpace,
    GridMismatch,
    MalformedGrid,
    OpenWorkspace,
    OutOfDomain,
)

FREE = 0
OCCUPIED = 1

# 4-neighborhood offsets, fixed order (east, west, north, south in index space)
NB4 = ((1, 0), (-1, 0), (0, 1), (0, -1))

_FREE_STRUCT = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_OCC_STRUCT = np.ones((3, 3), dtype=bool)


class OccupancyGrid:
    """Annotated occupancy map on a regular lattice.

    state[i, j] is FREE or OCCUPIED.  Optional channels: prob (occupancy
    probability in [0,1]), label (small integer semantic id), vel (per-cell
    obstacle velocity, shape (nx, ny, 2)).  Immutable after construction.
    """

    def __init__(self, state, d, origin=(0.0, 0.0), prob=None, label=None, vel=None):
        state = np.asarray(state)
        if state.ndim != 2:
            raise MalformedGrid("state must be a 2-D array")
        self.nx, self.ny = state.shape
        if self.nx < 3 or self.ny < 3:
            raise MalformedGrid("lattice must be at least 3x3")
        if float(d) <= 0:
            raise MalformedGrid("cell size d must be positive")
        if not np.isin(state, (FREE, OCCUPIED)).all():
            raise MalformedGrid("state entries must be FREE or OCCUPIED")
        self.d = float(d)
        self.origin = np.array(origin, dtype=float)
        self.origin.flags.writeable = False
        # the same numbers as Python floats, for per-point arithmetic
        self.origin_xy = tuple(self.origin.tolist())
        self.state = state.astype(np.int8)
        self.state.flags.writeable = False
        self.free = self.state == FREE
        self.free.flags.writeable = False

        per = np.concatenate([self.state[0, :], self.state[-1, :],
                              self.state[:, 0], self.state[:, -1]])
        if (per != OCCUPIED).any():
            raise OpenWorkspace("perimeter cells must all be OCCUPIED")
        nfree, comps = _label_free(self.free)
        if nfree == 0:
            raise DisconnectedFreeSpace("no FREE cells")
        if comps != 1:
            raise DisconnectedFreeSpace(
                f"FREE region has {comps} components, expected 1")

        self.prob = None
        if prob is not None:
            prob = np.asarray(prob, dtype=float)
            if prob.shape != state.shape:
                raise MalformedGrid("prob channel shape mismatch")
            if np.nanmin(prob) < 0 or np.nanmax(prob) > 1:
                raise MalformedGrid("prob values must lie in [0,1]")
            self.prob = prob
            self.prob.flags.writeable = False
        self.label = None
        if label is not None:
            label = np.asarray(label)
            if label.shape != state.shape:
                raise MalformedGrid("label channel shape mismatch")
            self.label = label.astype(np.int32)
            self.label.flags.writeable = False
        self.vel = None
        if vel is not None:
            vel = np.asarray(vel, dtype=float)
            if vel.shape != (self.nx, self.ny, 2):
                raise MalformedGrid("vel channel must have shape (nx, ny, 2)")
            self.vel = vel
            self.vel.flags.writeable = False

        # occupied cells within one / two rings of free space; sampling is legal
        # out to the first ring plus the convex-hull fringe of the second
        occ = ~self.free
        near1 = occ & ndimage.binary_dilation(self.free, structure=_OCC_STRUCT)
        near2 = occ & ~near1 & ndimage.binary_dilation(near1 | self.free,
                                                       structure=_OCC_STRUCT)
        self.band1 = near1
        self.band2 = near2
        self.band1.flags.writeable = False
        self.band2.flags.writeable = False

    # -- geometry helpers ---------------------------------------------------

    def cell_center(self, i, j):
        return self.origin + self.d * np.array([i, j], dtype=float)

    def centers_x(self):
        return self.origin[0] + self.d * np.arange(self.nx)

    def centers_y(self):
        return self.origin[1] + self.d * np.arange(self.ny)

    def cell_of(self, p):
        """Index of the cell whose center is nearest to p."""
        g = (np.asarray(p, dtype=float) - self.origin) / self.d
        return int(math.floor(g[0] + 0.5)), int(math.floor(g[1] + 0.5))

    def free_cells(self):
        ii, jj = np.nonzero(self.free)
        return ii, jj

    def free_centers(self):
        ii, jj = np.nonzero(self.free)
        return self.origin + self.d * np.stack([ii, jj], axis=1).astype(float)

    def same_geometry(self, other):
        return (self.nx == other.nx and self.ny == other.ny
                and self.d == other.d
                and bool(np.all(self.origin == other.origin)))


def _label_free(free):
    lab, n = ndimage.label(free, structure=_FREE_STRUCT)
    return int(free.sum()), int(n)


class BoundarySet:
    """Boundary nodes: free interface cells with geometry and flux magnitude.

    Parallel arrays over nodes: cells (n,2) lattice indices, pos (n,2) world
    coords, normals (n,2) outward units, arcw (n,) arc weights, comp (n,)
    obstacle component ids.  flux (n,) holds the magnitude beta per node once
    assigned (b = -beta is applied inside the guidance solve).  chains maps a
    component id to the node index order along its closed interface loop, or
    None when no simple loop exists.
    """

    def __init__(self, grid, cells, normals, arcw, comp, chains, flux=None):
        self.grid = grid
        self.cells = np.asarray(cells, dtype=int)
        self.n = len(self.cells)
        self.pos = grid.origin + grid.d * self.cells.astype(float)
        self.normals = np.asarray(normals, dtype=float)
        self.arcw = np.asarray(arcw, dtype=float)
        self.comp = np.asarray(comp, dtype=int)
        self.chains = chains
        self.flux = None if flux is None else np.asarray(flux, dtype=float)

    @functools.cached_property
    def _index(self):
        return {(int(i), int(j)): k for k, (i, j) in enumerate(self.cells)}

    def with_flux(self, flux):
        flux = np.asarray(flux, dtype=float)
        if flux.shape != (self.n,):
            raise MalformedGrid("flux array must have one entry per node")
        if (flux <= 0).any():
            raise MalformedGrid("flux magnitudes must be positive")
        return BoundarySet(self.grid, self.cells, self.normals, self.arcw,
                           self.comp, self.chains, flux=flux)

    def node_at_cell(self, i, j):
        return self._index.get((int(i), int(j)))

    def components(self):
        return sorted(set(int(c) for c in self.comp))

    def nodes_of(self, comp_id):
        return np.nonzero(self.comp == comp_id)[0]


def nb4_of(cells):
    """Row and column indices, each of shape (n, 4), of the NB4 neighbours
    of every (i, j) row of cells, in NB4 order."""
    nb = np.asarray(cells, dtype=int).reshape(-1, 1, 2) + np.array(NB4)
    return nb[..., 0], nb[..., 1]


def estimate_normals(grid, cells):
    """Outward unit normals at interface cells.

    Gradient of the occupancy indicator blurred twice with a 3x3 box filter,
    normalized.  Falls back to the mean occupied-neighbor offset when the
    blurred gradient is numerically zero.
    """
    ind = (~grid.free).astype(float)
    blur = ndimage.uniform_filter(ind, size=3, mode="nearest")
    blur = ndimage.uniform_filter(blur, size=3, mode="nearest")
    out = np.empty((len(cells), 2), dtype=float)
    for k, (i, j) in enumerate(cells):
        gx = (blur[i + 1, j] - blur[i - 1, j]) * 0.5
        gy = (blur[i, j + 1] - blur[i, j - 1]) * 0.5
        nrm = math.hypot(gx, gy)
        if nrm < 1e-8:
            sx = sy = 0.0
            for di, dj in NB4:
                if not grid.free[i + di, j + dj]:
                    sx += di
                    sy += dj
            nrm = math.hypot(sx, sy)
            if nrm < 1e-12:
                raise DegenerateNormal(
                    f"no usable normal at cell ({i}, {j})")
            gx, gy = sx, sy
        out[k, 0] = gx / nrm
        out[k, 1] = gy / nrm
    return out


def _ccw(v):
    return (-v[1], v[0])


def _trace_component(grid, occ_comp, comp_id):
    """Walk the free/occupied interface loop(s) of one obstacle component.

    Returns the list of loops; each loop is the ordered list of free interface
    cells encountered (consecutive duplicates collapsed).  Diagonal-first
    turning matches the 8-connectivity of obstacle components.
    """
    free = grid.free
    inside = occ_comp == comp_id

    faces = set()
    ii, jj = np.nonzero(inside)
    for i, j in zip(ii, jj):
        for m in NB4:
            fi, fj = i + m[0], j + m[1]
            if 0 <= fi < grid.nx and 0 <= fj < grid.ny and free[fi, fj]:
                faces.add((i, j, m))

    loops = []
    while faces:
        start = min(faces)
        cur = start
        loop_cells = []
        while True:
            faces.discard(cur)
            oi, oj, m = cur
            fc = (oi + m[0], oj + m[1])
            if not loop_cells or loop_cells[-1] != fc:
                loop_cells.append(fc)
            t = _ccw(m)
            di, dj = oi + m[0] + t[0], oj + m[1] + t[1]
            si, sj = oi + t[0], oj + t[1]
            diag_occ = (0 <= di < grid.nx and 0 <= dj < grid.ny
                        and not free[di, dj])
            side_occ = (0 <= si < grid.nx and 0 <= sj < grid.ny
                        and not free[si, sj])
            if diag_occ:
                cur = (di, dj, (-t[0], -t[1]))
            elif side_occ:
                cur = (si, sj, m)
            else:
                cur = (oi, oj, t)
            if cur == start:
                break
        if len(loop_cells) > 1 and loop_cells[0] == loop_cells[-1]:
            loop_cells.pop()
        loops.append(loop_cells)
    return loops


def extract_boundary(grid):
    """Boundary nodes with normals, arc weights, components, and chain order.

    One node per FREE cell that touches an OCCUPIED 4-neighbor.  Arc weight is
    d times the number of occupied 4-neighbors (the length of interface the
    node represents).  Nodes are grouped by the 8-connected obstacle component
    they touch and ordered along that component's interface loop when the loop
    is simple.
    """
    occ = ~grid.free
    occ_comp, n_comp = ndimage.label(occ, structure=_OCC_STRUCT)

    cells = []
    comp_of = []
    chains = {}
    seen = {}
    for cid in range(1, n_comp + 1):
        loops = _trace_component(grid, occ_comp, cid)
        if not loops:
            continue  # component sealed away from free space (cannot happen
            # when free space is connected, kept for safety)
        order = []
        simple = len(loops) == 1
        for loop in loops:
            counts = {}
            for c in loop:
                counts[c] = counts.get(c, 0) + 1
            if any(v > 1 for v in counts.values()):
                simple = False
            for c in loop:
                if c in seen:
                    simple = False
                    continue
                seen[c] = cid
                order.append(len(cells))
                cells.append(c)
                comp_of.append(cid)
        chains[cid] = np.array(order, dtype=int) if simple else None

    cells_arr = np.array(cells, dtype=int).reshape(-1, 2)
    normals = estimate_normals(grid, cells_arr) if len(cells) else \
        np.zeros((0, 2))
    ni, nj = nb4_of(cells_arr)
    arcw = grid.d * (~grid.free[ni, nj]).sum(axis=1)
    return BoundarySet(grid, cells_arr, normals, arcw, comp_of, chains)


# -- fields and sampling ----------------------------------------------------

class ScalarField:
    """Real samples at cell centers, meaningful on the FREE mask.

    values holds finite numbers on free cells and on the one-to-two cell ring
    of occupied ghosts next to the interface (Dirichlet or extension data), and
    NaN deeper inside obstacles.
    """

    def __init__(self, grid, values, mask=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.nx, grid.ny):
            raise MalformedGrid("field shape does not match grid")
        self.grid = grid
        self.values = values
        self.mask = grid.free if mask is None else mask
        if not np.isfinite(values[self.mask]).all():
            raise MalformedGrid("field has non-finite values on its mask")
        self.stats = None
        self._grad = None

    def gradient(self):
        if self._grad is None:
            self._grad = gradient_field(self)
        return self._grad


class VectorField:
    """Two scalar components sharing one lattice and mask."""

    def __init__(self, fx, fy):
        if fx.grid is not fy.grid and not fx.grid.same_geometry(fy.grid):
            raise GridMismatch("vector components on different lattices")
        self.grid = fx.grid
        self.x = fx
        self.y = fy
        self.mask = fx.mask


def _cell(grid, px, py):
    """Lower-left lattice cell (i0, j0) of the point and the fractions
    (fx, fy) of the way to the next cell centers."""
    ox, oy = grid.origin_xy
    gx = (px - ox) / grid.d
    gy = (py - oy) / grid.d
    i0 = math.floor(gx)
    j0 = math.floor(gy)
    if i0 < 0 or j0 < 0 or i0 + 1 >= grid.nx or j0 + 1 >= grid.ny:
        raise OutOfDomain(f"point ({px}, {py}) outside the lattice hull")
    return i0, j0, gx - i0, gy - j0


def _lerp(rows, i0, j0, fx, fy):
    """Bilinear blend of the four samples around a cell, in a fixed order.

    rows is a 2-D array or its nested-list snapshot; both give the same bits.
    """
    r0 = rows[i0]
    r1 = rows[i0 + 1]
    return (r0[j0] * (1.0 - fx) * (1.0 - fy) + r1[j0] * fx * (1.0 - fy)
            + r0[j0 + 1] * (1.0 - fx) * fy + r1[j0 + 1] * fx * fy)


def _too_deep(px, py):
    return OutOfDomain(
        f"point ({px}, {py}) deeper than one cell into occupied space")


def _bilinear(values, grid, px, py):
    s = _lerp(values, *_cell(grid, px, py))
    if math.isnan(s):
        raise _too_deep(px, py)
    return s


def _bilinear_many(values, grid, px, py):
    """_cell and _lerp elementwise over arrays of points, in the same order,
    so each entry has the bits of the one-point call."""
    ox, oy = grid.origin_xy
    gx = (px - ox) / grid.d
    gy = (py - oy) / grid.d
    fi = np.floor(gx)
    fj = np.floor(gy)
    inside = (fi >= 0) & (fj >= 0) & (fi + 1 < grid.nx) & (fj + 1 < grid.ny)
    if not inside.all():
        raise OutOfDomain(f"{int((~inside).sum())} points outside the "
                          "lattice hull")
    i0 = fi.astype(int)
    j0 = fj.astype(int)
    fx = gx - fi
    fy = gy - fj
    s = (values[i0, j0] * (1.0 - fx) * (1.0 - fy)
         + values[i0 + 1, j0] * fx * (1.0 - fy)
         + values[i0, j0 + 1] * (1.0 - fx) * fy
         + values[i0 + 1, j0 + 1] * fx * fy)
    if np.isnan(s).any():
        raise OutOfDomain(f"{int(np.isnan(s).sum())} points deeper than one "
                          "cell into occupied space")
    return s


def _point(y):
    """The coordinates of y as Python floats."""
    p = np.asarray(y, dtype=float)
    return float(p[0]), float(p[1])


def sample_scalar(field, y):
    """Bilinear interpolation of the four surrounding cell-center samples."""
    return _bilinear(field.values, field.grid, *_point(y))


def sample_pair(rows_x, rows_y, grid, y):
    """Two channels (2-D arrays or their nested-list snapshots) at y from
    one cell lookup, as a length-2 array."""
    px, py = _point(y)
    cell = _cell(grid, px, py)
    sx = _lerp(rows_x, *cell)
    sy = _lerp(rows_y, *cell)
    if math.isnan(sx) or math.isnan(sy):
        raise _too_deep(px, py)
    return np.array([sx, sy])


def sample_vector(field, y):
    return sample_pair(field.x.values, field.y.values, field.grid, y)


def sample_gradient(field, y):
    """Gradient of a scalar field at y, or at each row of an (n, 2) block.

    Central differences on the lattice (one-sided where a neighbor value is
    missing), bilinearly interpolated.  Occupied interface cells carry their
    Dirichlet/extension values, so free-cell differences see the boundary data.
    """
    g = field.gradient()
    p = np.asarray(y, dtype=float)
    if p.ndim == 2:
        return np.stack([_bilinear_many(g.x.values, field.grid, p[:, 0],
                                        p[:, 1]),
                         _bilinear_many(g.y.values, field.grid, p[:, 0],
                                        p[:, 1])], axis=1)
    return sample_pair(g.x.values, g.y.values, field.grid, p)


class FieldSampler:
    """h, v and, on request, grad h and dh/dt at a point from one cell lookup.

    sf is a SafetyFunction (h and its cached gradient), gf a guidance bundle
    and dh_dt an optional ScalarField, all on one lattice geometry.  By
    default the channels are copied once into nested lists (about 0.1 ms per
    64x64 channel): Python-float arithmetic on list entries costs about a
    fifth of the same arithmetic on numpy scalars and gives the same bits.
    snapshot=False reads the arrays in place, for callers that sample only
    a few points.
    """

    def __init__(self, sf, gf, dh_dt=None, snapshot=True):
        grid = sf.grid
        others = [gf.grid] if dh_dt is None else [gf.grid, dh_dt.grid]
        if any(g is not grid and not grid.same_geometry(g) for g in others):
            raise GridMismatch("sampled fields live on different lattices")

        def rows(field):
            return field.values.tolist() if snapshot else field.values

        self.grid = grid
        self._h = rows(sf.h)
        self._vx = rows(gf.v.x)
        self._vy = rows(gf.v.y)
        self._gx = rows(sf.grad.x)
        self._gy = rows(sf.grad.y)
        self._dh = None if dh_dt is None else rows(dh_dt)

    def at(self, y, grad=False):
        """(h, vx, vy) at y, or with grad=True (h, vx, vy, dh/dx, dh/dy,
        dh/dt), where dh/dt is None without a dh_dt channel.

        Raises OutOfDomain outside the lattice hull or where a returned
        channel is NaN (deeper than the ghost band).
        """
        px, py = _point(y)
        i0, j0, fx, fy = _cell(self.grid, px, py)
        h = _lerp(self._h, i0, j0, fx, fy)
        vx = _lerp(self._vx, i0, j0, fx, fy)
        vy = _lerp(self._vy, i0, j0, fx, fy)
        if h != h or vx != vx or vy != vy:
            raise _too_deep(px, py)
        if not grad:
            return h, vx, vy
        gx = _lerp(self._gx, i0, j0, fx, fy)
        gy = _lerp(self._gy, i0, j0, fx, fy)
        dh = None if self._dh is None else _lerp(self._dh, i0, j0, fx, fy)
        if gx != gx or gy != gy or dh != dh:
            raise _too_deep(px, py)
        return h, vx, vy, gx, gy, dh


def _nearest_hits(cells, target, radius):
    """Nearest target cell within a (2*radius+1)^2 window of each cell.

    cells is (ii, jj); target a boolean lattice mask.  Offsets are visited by
    squared distance and, within one distance, in scan order (di, then dj,
    ascending), so each cell gets the first hit that a strict-< scan of the
    window would keep.  Returns (hit, ti, tj); ti, tj are valid where hit.
    """
    ii, jj = cells
    padded = np.pad(target, radius, constant_values=False)
    ti = np.zeros_like(ii)
    tj = np.zeros_like(jj)
    hit = np.zeros(len(ii), dtype=bool)
    offsets = sorted((di * di + dj * dj, di, dj)
                     for di in range(-radius, radius + 1)
                     for dj in range(-radius, radius + 1))
    for _, di, dj in offsets:
        new = ~hit & padded[ii + radius + di, jj + radius + dj]
        ti[new] = ii[new] + di
        tj[new] = jj[new] + dj
        hit |= new
    return hit, ti, tj


def nearest_node_map(grid, boundary):
    """For each ghost-band cell, the index of the nearest boundary node
    within three cells (ties go to the first offset in scan order)."""
    nodes = np.full((grid.nx, grid.ny), -1)
    nodes[boundary.cells[:, 0], boundary.cells[:, 1]] = np.arange(boundary.n)
    band = np.nonzero(grid.band1 | grid.band2)
    hit, ti, tj = _nearest_hits(band, nodes >= 0, 3)
    keys = zip(band[0][hit].tolist(), band[1][hit].tolist())
    return dict(zip(keys, nodes[ti[hit], tj[hit]].tolist()))


def fill_band(grid, values, band_value=0.0, per_cell=None):
    """Write ghost values into the occupied bands next to the interface.

    band_value fills uniformly (Dirichlet 0 for the safety function); per_cell
    maps (i, j) to a value and wins where present.
    """
    out = values.copy()
    band = grid.band1 | grid.band2
    out[band] = band_value
    out[~grid.free & ~band] = np.nan
    if per_cell:
        for (i, j), v in per_cell.items():
            out[i, j] = v
    return out


def gradient_field(field):
    """Componentwise central-difference gradient as a VectorField.

    Free cells always have finite 4-neighbors (solved values or interface
    ghosts), so they get central differences; one-sided differences cover any
    cell with a single finite side.  Ghost-band cells copy the gradient of the
    nearest free cell so that near-interface interpolation stays usable.
    """
    grid = field.grid
    d = grid.d
    v = field.values
    fin = np.isfinite(v)
    gx = np.full_like(v, np.nan)
    gy = np.full_like(v, np.nan)

    c = fin[2:, :] & fin[:-2, :]
    tgt = np.zeros_like(v[1:-1, :])
    tgt[c] = (v[2:, :][c] - v[:-2, :][c]) / (2.0 * d)
    fwd = fin[1:-1, :] & fin[2:, :] & ~fin[:-2, :]
    tgt[fwd] = (v[2:, :][fwd] - v[1:-1, :][fwd]) / d
    bwd = fin[1:-1, :] & fin[:-2, :] & ~fin[2:, :]
    tgt[bwd] = (v[1:-1, :][bwd] - v[:-2, :][bwd]) / d
    gx[1:-1, :] = np.where(c | fwd | bwd, tgt, np.nan)

    c = fin[:, 2:] & fin[:, :-2]
    tgt = np.zeros_like(v[:, 1:-1])
    tgt[c] = (v[:, 2:][c] - v[:, :-2][c]) / (2.0 * d)
    fwd = fin[:, 1:-1] & fin[:, 2:] & ~fin[:, :-2]
    tgt[fwd] = (v[:, 2:][fwd] - v[:, 1:-1][fwd]) / d
    bwd = fin[:, 1:-1] & fin[:, :-2] & ~fin[:, 2:]
    tgt[bwd] = (v[:, 1:-1][bwd] - v[:, :-2][bwd]) / d
    gy[:, 1:-1] = np.where(c | fwd | bwd, tgt, np.nan)

    # copy free-side gradients into the ghost bands
    band = np.nonzero(grid.band1 | grid.band2)
    hit, ti, tj = _nearest_hits(band, grid.free, 2)
    hit &= np.isfinite(gx[ti, tj]) & np.isfinite(gy[ti, tj])
    gx[band[0][hit], band[1][hit]] = gx[ti[hit], tj[hit]]
    gy[band[0][hit], band[1][hit]] = gy[ti[hit], tj[hit]]

    return VectorField(ScalarField(grid, gx, mask=field.mask),
                       ScalarField(grid, gy, mask=field.mask))


def load_grid(source):
    """OccupancyGrid from a scenario document (path, dict, or Scenario)."""
    from .scenario import Scenario
    sc = source if isinstance(source, Scenario) else Scenario(source)
    return sc.rasterize(0.0)


# -- CSV dumps --------------------------------------------------------------

def dump_csv(array, path):
    """Row-major matrix dump, full precision, nan outside the mask."""
    np.savetxt(path, np.asarray(array, dtype=float), fmt="%.17g",
               delimiter=",")


def load_csv(path):
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return arr
