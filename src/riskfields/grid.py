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
        if not 0.0 < float(d) < math.inf:
            raise MalformedGrid("cell size d must be positive and finite")
        if not ((state == FREE) | (state == OCCUPIED)).all():
            raise MalformedGrid("state entries must be FREE or OCCUPIED")
        self.d = float(d)
        self.origin = np.array(origin, dtype=float)
        if self.origin.shape != (2,) or not np.isfinite(self.origin).all():
            raise MalformedGrid("origin must be two finite numbers")
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
        near1 = occ & _dilate8(self.free)
        near2 = occ & ~near1 & _dilate8(near1 | self.free)
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

    def free_centers(self):
        ii, jj = np.nonzero(self.free)
        return self.origin + self.d * np.stack([ii, jj], axis=1).astype(float)

    def same_geometry(self, other):
        return (self.nx == other.nx and self.ny == other.ny
                and self.d == other.d
                and bool(np.all(self.origin == other.origin)))


def _run_roots(mask, diag):
    """(root, length) per row run of a boolean mask, runs in raster order.

    Runs in adjacent rows join when they share a column, or, with diag,
    when they touch at a corner too (4- or 8-connectivity).  root is the
    index of the first run of each run's component.
    """
    w = mask.shape[1] + 2
    edge = np.zeros((mask.shape[0], w), dtype=np.int8)
    edge[:, 1:-1] = mask
    step = np.diff(edge, axis=1)
    row, start = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]
    # the runs of the row above that a run touches are consecutive: those
    # ending after its start and starting before its end (diag widens both)
    key = row * w
    lo = np.searchsorted(key + end, key - w + start - diag, side="right")
    hi = np.searchsorted(key + start, key - w + end + diag, side="left")
    count = np.maximum(hi - lo, 0)
    b = np.repeat(np.arange(len(start)), count)
    a = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(b))
    # hook each root to the smallest root it touches, then compress paths
    root = np.arange(len(start))
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            return root, end - start
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


def _label(mask, diag):
    """(labels, count): the connected components of a boolean mask,
    4-connected or, with diag, 8-connected.  Labels run from 1 in raster
    order of each component's first cell, as scipy.ndimage.label numbers
    them; 0 off the mask."""
    root, length = _run_roots(mask, diag)
    first = root == np.arange(len(root))
    ids = np.cumsum(first, dtype=np.int32)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(ids[root], length)
    return labels, int(first.sum())


def _label_free(free):
    """(FREE cells, 4-connected FREE components)."""
    root, _ = _run_roots(free, False)
    return int(free.sum()), int((root == np.arange(len(root))).sum())


def _dilate8(mask):
    """Binary dilation by the 3x3 square, with False beyond the edges."""
    p = np.pad(mask, 1)
    rows = p[:-2] | p[1:-1] | p[2:]
    return rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]


def _box3(x):
    """The 3-cell mean along axis 0, edges repeated, summed as
    scipy.ndimage.uniform_filter1d sums it: one running sum, then / 3."""
    ext = np.concatenate([x[:1], x, x[-1:]])
    steps = np.empty_like(x)
    steps[0] = (ext[0] + ext[1]) + ext[2]
    steps[1:] = ext[3:] - ext[:-3]
    return np.add.accumulate(steps, axis=0) / 3.0


def _box_blur(x):
    """The 3x3 box filter with edges repeated, bit for bit as
    scipy.ndimage.uniform_filter(x, 3, mode="nearest"): axis 0, then 1."""
    return _box3(_box3(x).T).T


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

    def with_flux(self, flux):
        flux = np.asarray(flux, dtype=float)
        if flux.shape != (self.n,):
            raise MalformedGrid("flux array must have one entry per node")
        if (flux <= 0).any():
            raise MalformedGrid("flux magnitudes must be positive")
        return BoundarySet(self.grid, self.cells, self.normals, self.arcw,
                           self.comp, self.chains, flux=flux)

    def components(self):
        return np.unique(self.comp).tolist()


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
    blur = _box_blur(_box_blur((~grid.free).astype(float)))
    cells = np.asarray(cells, dtype=int).reshape(-1, 2)
    i, j = cells[:, 0], cells[:, 1]
    g = np.stack([(blur[i + 1, j] - blur[i - 1, j]) * 0.5,
                  (blur[i, j + 1] - blur[i, j - 1]) * 0.5], axis=1)
    nrm = np.array(list(map(math.hypot, g[:, 0].tolist(), g[:, 1].tolist())))
    for k in np.flatnonzero(nrm < 1e-8).tolist():
        # the summed offset to the occupied 4-neighbours
        ni, nj = nb4_of(cells[k])
        sx, sy = np.array(NB4)[~grid.free[ni[0], nj[0]]].sum(axis=0).tolist()
        nrm[k] = math.hypot(sx, sy)
        if nrm[k] < 1e-12:
            raise DegenerateNormal(
                f"no usable normal at cell ({i[k]}, {j[k]})")
        g[k] = sx, sy
    return g / nrm[:, None]


# NB4 in tuple order, so a face (i, j, m) sorts as (i * ny + j) * 4 + its
# direction's rank here; the counter-clockwise turn (-dj, di) of each
# direction, as a rank
_DIRS = np.array(sorted(NB4))
_CCW = np.array([sorted(NB4).index((-dj, di)) for di, dj in sorted(NB4)])


def _interface_loops(grid, occ_comp):
    """Every free/occupied interface loop, as (component id, loop cells).

    A face is an occupied cell o and the direction m to a free 4-neighbour.
    Walking with the free side on the left, a face's successor is, with t
    the counter-clockwise turn of m: (o + m + t, -t) when that diagonal cell
    is occupied, else (o + t, m) when that side cell is, else (o, t).
    Diagonal-first turning matches the 8-connectivity of obstacle
    components, so a loop stays in one component.  Components come in
    label order, and each loop starts at its component's smallest face not
    yet walked, in (i, j, (di, dj)) order.  A loop lists the free cells of
    its faces, as flat indices i * ny + j, in walk order, consecutive
    duplicates collapsed, and the last dropped when it repeats the first.
    """
    nx, ny = grid.nx, grid.ny
    free = grid.free
    occ = ~free
    # the occupied perimeter keeps the rolls from wrapping onto a free cell
    faces = np.stack([occ & np.roll(free, (-di, -dj), axis=(0, 1))
                      for di, dj in _DIRS], axis=-1)
    oi, oj, r = np.nonzero(faces)          # in key order
    m = _DIRS[r]
    tr = _CCW[r]
    t = _DIRS[tr]
    di, dj = oi + m[:, 0] + t[:, 0], oj + m[:, 1] + t[:, 1]
    si, sj = oi + t[:, 0], oj + t[:, 1]
    diag, side = occ[di, dj], occ[si, sj]
    ni = np.where(diag, di, np.where(side, si, oi))
    nj = np.where(diag, dj, np.where(side, sj, oj))
    nr = np.where(diag, _CCW[_CCW[tr]], np.where(side, r, tr))  # -t, m, t
    index = np.full(nx * ny * 4, -1)
    index[np.flatnonzero(faces)] = np.arange(len(oi))
    succ = index[(ni * ny + nj) * 4 + nr].tolist()
    cell = ((oi + m[:, 0]) * ny + oj + m[:, 1]).tolist()
    comp = occ_comp[oi, oj]

    # the successors permute the faces, so each walk closes where it began
    loops = []
    walked = bytearray(len(succ))
    for f0 in np.argsort(comp, kind="stable").tolist():
        if walked[f0]:
            continue
        f = f0
        cells = []
        while not walked[f]:
            walked[f] = 1
            if not cells or cells[-1] != cell[f]:
                cells.append(cell[f])
            f = succ[f]
        if len(cells) > 1 and cells[0] == cells[-1]:
            cells.pop()
        loops.append((int(comp[f0]), cells))
    return loops


def extract_boundary(grid):
    """Boundary nodes with normals, arc weights, components, and chain order.

    One node per FREE cell that touches an OCCUPIED 4-neighbor.  Arc weight is
    d times the number of occupied 4-neighbors (the length of interface the
    node represents).  Nodes are grouped by the 8-connected obstacle component
    they touch, in the order of its interface loops, each cell where it is
    first met.  A component's chain is that order when it has one loop that
    meets no cell twice or already met.
    """
    occ_comp, _ = _label(~grid.free, True)
    cells = []
    comp_of = []
    chains = {}
    seen = set()
    for cid, loop in _interface_loops(grid, occ_comp):
        new = [c for c in dict.fromkeys(loop) if c not in seen]
        simple = cid not in chains and len(new) == len(loop)
        chains[cid] = (np.arange(len(cells), len(cells) + len(new))
                       if simple else None)
        seen.update(new)
        cells += new
        comp_of += [cid] * len(new)

    cells_arr = np.stack(divmod(np.array(cells, dtype=int), grid.ny), axis=1)
    normals = estimate_normals(grid, cells_arr)
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
    """(i0, i1, j0, j1, fx, fy, 1 - fx, 1 - fy): the lattice indices of the
    four cell centres around the point (px, py) and its fractional offsets
    from the first.  Raises OutOfDomain outside the lattice hull or at a
    non-finite point."""
    ox, oy = grid.origin_xy
    gx = (px - ox) / grid.d
    gy = (py - oy) / grid.d
    try:
        i0 = math.floor(gx)
        j0 = math.floor(gy)
    except (ValueError, OverflowError):     # NaN, or an infinite coordinate
        raise OutOfDomain(f"point ({px}, {py}) is not finite") from None
    i1 = i0 + 1
    j1 = j0 + 1
    if i0 < 0 or j0 < 0 or i1 >= grid.nx or j1 >= grid.ny:
        raise OutOfDomain(f"point ({px}, {py}) outside the lattice hull")
    fx = gx - i0
    fy = gy - j0
    return i0, i1, j0, j1, fx, fy, 1.0 - fx, 1.0 - fy


def _interp(channels, grid, px, py):
    """Bilinear interpolation of each channel (a 2-D array) at the point
    (px, py) from one cell lookup, as a list of floats.

    Raises OutOfDomain outside the lattice hull, at a non-finite point, or
    where a channel is NaN (deeper than the ghost band).
    """
    i0, i1, j0, j1, fx, fy, ex, ey = _cell(grid, px, py)
    out = []
    for rows in channels:
        r0 = rows[i0]
        r1 = rows[i1]
        s = (r0[j0] * ex * ey + r1[j0] * fx * ey + r0[j1] * ex * fy
             + r1[j1] * fx * fy)
        if s != s:
            raise _too_deep(px, py)
        out.append(s)
    return out


def _too_deep(px, py):
    return OutOfDomain(f"point ({px}, {py}) deeper than one cell into "
                       "occupied space")


def _bilinear_many(values, grid, px, py):
    """_interp elementwise over arrays of points, in the same order, so each
    entry has the bits of the one-point call.  A non-finite point fails the
    hull test, so it raises OutOfDomain as well."""
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


def point_xy(y):
    """The coordinates of y as Python floats."""
    p = np.asarray(y, dtype=float)
    return float(p[0]), float(p[1])


def sample_scalar(field, y):
    """Bilinear interpolation of the four surrounding cell-center samples."""
    return _interp((field.values,), field.grid, *point_xy(y))[0]


def sample_vector(field, y):
    return np.array(_interp((field.x.values, field.y.values), field.grid,
                            *point_xy(y)))


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
    return sample_vector(g, p)


class FieldSampler:
    """h, v and, unless left out, grad h and dh/dt at a point from one cell
    lookup.

    sf is a SafetyFunction (h and its cached gradient), gf a guidance bundle
    and dh_dt an optional ScalarField, all on one lattice geometry.  The
    point comes in as two Python floats, as the rollouts keep their state.
    By default the channels are copied once into nested lists (about 0.1 ms
    per 64x64 channel): Python-float arithmetic on list entries costs about
    a fifth of the same arithmetic on numpy scalars and gives the same bits.
    snapshot=False reads the arrays in place, for callers that sample only
    a few points.

    at(px, py) is (h, vx, vy, dh/dx, dh/dy, dh/dt), dh/dt None without its
    channel, or with grad=False (h, vx, vy): the channel set is fixed here.
    It is the one point blend of the fields: the cell lookup of _cell and
    _interp's blend per channel, so the same bits and the same OutOfDomain
    messages.  The rollout kernels, safety.filter_kernel and
    backstep.accel_kernel, read every sample of a run through it.
    has_dh_dt is whether at carries dh/dt.
    """

    def __init__(self, sf, gf, dh_dt=None, snapshot=True, grad=True):
        grid = sf.grid
        others = [gf.grid] if dh_dt is None else [gf.grid, dh_dt.grid]
        if any(g is not grid and not grid.same_geometry(g) for g in others):
            raise GridMismatch("sampled fields live on different lattices")

        def rows(field):
            return field.values.tolist() if snapshot else field.values

        self.grid = grid
        H, VX, VY = (rows(f) for f in (sf.h, gf.v.x, gf.v.y))
        HX, HY = (rows(sf.grad.x), rows(sf.grad.y)) if grad else (None, None)
        DT = None if dh_dt is None or not grad else rows(dh_dt)
        self.has_dh_dt = DT is not None
        self.at = _blend_at(grid, H, VX, VY, HX, HY, DT)


def _blend_at(grid, H, VX, VY, HX, HY, DT):
    """FieldSampler.at over its rows on grid: with HX None it reads h and v
    alone, with DT None its dh/dt is None."""
    (ox, oy), d, nx1, ny1 = grid.origin_xy, grid.d, grid.nx - 1, grid.ny - 1

    def at(px, py):
        gx, gy = (px - ox) / d, (py - oy) / d
        if not (0.0 <= gx < nx1 and 0.0 <= gy < ny1):   # NaN fails too
            _cell(grid, px, py)             # raises with _cell's message
        i, j = int(gx), int(gy)
        m, fx, fy = j + 1, gx - i, gy - j
        ex, ey = 1.0 - fx, 1.0 - fy
        p, q = H[i], H[i + 1]
        h = p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy + q[m] * fx * fy
        p, q = VX[i], VX[i + 1]
        vx = p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy + q[m] * fx * fy
        p, q = VY[i], VY[i + 1]
        vy = p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy + q[m] * fx * fy
        if h != h or vx != vx or vy != vy:
            raise _too_deep(px, py)
        if HX is None:
            return h, vx, vy
        p, q = HX[i], HX[i + 1]
        hx = p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy + q[m] * fx * fy
        p, q = HY[i], HY[i + 1]
        hy = p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy + q[m] * fx * fy
        ht = None
        if DT is not None:
            p, q = DT[i], DT[i + 1]
            ht = (p[j] * ex * ey + q[j] * fx * ey + p[m] * ex * fy
                  + q[m] * fx * fy)
        if hx != hx or hy != hy or ht != ht:
            raise _too_deep(px, py)
        return h, vx, vy, hx, hy, ht

    return at


@functools.lru_cache(maxsize=None)
def _window(radius):
    """(di, dj) of a (2*radius+1)^2 window, sorted by (di^2 + dj^2, di, dj):
    by squared distance and, within one distance, in scan order."""
    offsets = sorted((di * di + dj * dj, di, dj)
                     for di in range(-radius, radius + 1)
                     for dj in range(-radius, radius + 1))
    di = np.array([o[1] for o in offsets], dtype=np.intp)
    dj = np.array([o[2] for o in offsets], dtype=np.intp)
    di.flags.writeable = dj.flags.writeable = False
    return di, dj


def _nearest_hits(cells, target, radius):
    """Nearest target cell within a (2*radius+1)^2 window of each cell.

    cells is (ii, jj); target a boolean lattice mask.  One gather reads each
    cell's window from the padded mask, its offsets sorted by (squared
    distance, di, dj), and argmax along the offsets picks the first hit: the
    one a strict-< scan of the window would keep.  Returns (hit, ti, tj);
    ti, tj are valid where hit (elsewhere they are the cell itself).
    """
    ii, jj = cells
    padded = np.pad(target, radius, constant_values=False)
    width = padded.shape[1]
    di, dj = _window(radius)
    # flat index into the padded mask of every cell's window
    idx = ((ii + radius) * width + (jj + radius))[:, None] \
        + (di * width + dj)
    found = padded.ravel()[idx]
    first = found.argmax(axis=1)
    hit = found.any(axis=1)
    return hit, ii + di[first], jj + dj[first]


def nearest_node_map(grid, boundary):
    """For each ghost-band cell, the index of the nearest boundary node
    within three cells (ties go to the first offset in scan order)."""
    nodes = np.full((grid.nx, grid.ny), -1)
    nodes[boundary.cells[:, 0], boundary.cells[:, 1]] = np.arange(boundary.n)
    band = np.nonzero(grid.band1 | grid.band2)
    hit, ti, tj = _nearest_hits(band, nodes >= 0, 3)
    keys = zip(band[0][hit].tolist(), band[1][hit].tolist())
    return dict(zip(keys, nodes[ti[hit], tj[hit]].tolist()))


def fill_band(grid, values, band_value=0.0, cells=None, cell_values=None):
    """Write ghost values into the occupied bands next to the interface.

    band_value fills uniformly (Dirichlet 0 for the safety function); cells,
    a pair of index arrays (ii, jj) without repeats, takes cell_values and
    wins where present.
    """
    out = values.copy()
    band = grid.band1 | grid.band2
    out[band] = band_value
    out[~grid.free & ~band] = np.nan
    if cells is not None:
        out[tuple(cells)] = cell_values
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


# -- CSV dumps --------------------------------------------------------------

def dump_csv(array, path):
    """Row-major matrix dump, full precision, nan outside the mask."""
    np.savetxt(path, np.asarray(array, dtype=float), fmt="%.17g",
               delimiter=",")

