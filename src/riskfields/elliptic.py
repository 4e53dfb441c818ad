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
from .errors import (GridMismatch, MalformedGrid, NegativeForcingViolation,
                     NonConvergence)
from .grid import ScalarField, VectorField, fill_band, nearest_node_map

SOR = "sor"


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
    omega: object = 1.9  # a float in (0, 2), or "auto": per system, Young's
    # optimum 2/(1 + sqrt(1 - mu^2)) for mu the spectral radius of that
    # system's masked Jacobi operator, estimated from its unknown mask
    tol: float = 1e-8  # field-unit residual bound; the sweep targets an
    # error-calibrated threshold below this, see _target
    max_iters: int = 0  # 0 means 200*max(nx,ny)

    def resolved_omega(self, unknown):
        """omega for the system whose unknowns are the lattice mask
        unknown: the number itself, or with "auto" _auto_omega(unknown)."""
        if self.omega == "auto":
            return _auto_omega(unknown)
        w = float(self.omega)
        if not (0.0 < w < 2.0):
            raise MalformedGrid("omega must lie in (0, 2)")
        return w

    def resolved_max_iters(self, n):
        return self.max_iters if self.max_iters else 200 * n


def _auto_omega(unknown):
    """Young's optimal SOR omega, 2/(1 + sqrt(1 - mu^2)), for the unknowns
    of a lattice mask; the sweep updates only those off the lattice edge.

    mu, the spectral radius of the masked Jacobi operator (the sum of the
    four neighbours / 4, on unknowns), comes from Lanczos steps started at
    the indicator, on the mask coarsened 2x (a coarse cell is an unknown
    when any of its four children is): the coarse gap 1 - mu_c is about 4
    times the fine one, so mu = 1 - (1 - mu_c)/4.  The top Ritz value
    settles in a number of steps proportional to the coarse side, as the
    gap shrinks with its square; half the coarse side, n/4 for an n-cell
    lattice side, is enough on lattices of 48 to 128 cells.  The estimate
    reads nothing but the mask, so a mask's omega has the same bits in any
    stack; no unknowns, or an isolated cell, give mu_c = 0.
    """
    inner = unknown[1:-1, 1:-1]
    steps = max(8, max(unknown.shape) // 4)
    # the coarse mask with a ring of zeros, flattened: the four neighbours
    # of flat index i are i +- 1 and i +- W
    H, W = (inner.shape[0] + 1) // 2 + 2, (inner.shape[1] + 1) // 2 + 2
    mask = np.zeros((H, W), dtype=bool)
    for a in (0, 1):
        for b in (0, 1):
            child = inner[a::2, b::2]
            mask[1:1 + child.shape[0], 1:1 + child.shape[1]] |= child
    # every vector is 0 off the mask, so the arithmetic runs on the flat
    # range inside the ring, lo:hi
    lo, hi = W + 1, H * W - W - 1
    quarter = np.where(mask.ravel()[lo:hi], 0.25, 0.0)
    n = int(np.count_nonzero(quarter))
    alpha, beta = [], []
    if n:
        q, q_prev, w = np.zeros((3, H * W))
        q[lo:hi] = quarter * (4.0 / math.sqrt(n))
        b = 0.0
        for _ in range(steps):
            t, v, v_prev = w[lo:hi], q[lo:hi], q_prev[lo:hi]
            np.add(q[lo + W:hi + W], q[lo - W:hi - W], out=t)
            t += q[lo + 1:hi + 1]
            t += q[lo - 1:hi - 1]
            t *= quarter
            a = float(t.dot(v))
            t -= a * v
            t -= b * v_prev
            alpha.append(a)
            b = math.sqrt(float(t.dot(t)))
            if b <= 1e-10:          # the Krylov space is exhausted
                break
            beta.append(b)
            t /= b
            q_prev, q, w = q, w, q_prev
    gap = (1.0 - _top_eigenvalue(alpha, beta)) / 4.0       # 1 - mu
    return 2.0 / (1.0 + math.sqrt(gap * (2.0 - gap)))


def _top_eigenvalue(alpha, beta):
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    alpha and off-diagonal beta (beta[i] joins rows i and i + 1), by
    Sturm-count bisection to the last bit; 0 for no rows."""
    m = len(alpha)
    if not m:
        return 0.0
    beta = beta[:m - 1]
    off = [0.0] + beta + [0.0]
    lo = max(alpha)
    hi = max(a + b0 + b1 for a, b0, b1 in zip(alpha, off, off[1:]))
    sq = [0.0] + [b * b for b in beta]
    while True:
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            return hi
        below, d = 0, 1.0
        for a, b2 in zip(alpha, sq):
            d = a - x - b2 / d
            if d <= 0.0:
                below += 1
                if d == 0.0:
                    d = -1e-300
        if below == m:      # every eigenvalue lies below x
            hi = x
        else:
            lo = x


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


def _residual(items, p):
    """The residual pass's |...| * F at cell p of one class's run, on Python
    floats, in the pass's order: ((((ip + im) + jp) + jm) - r) * 0.25 - c.
    items holds the item methods of the run's (c, ip, im, jp, jm, r, F)."""
    c, ip, im, jp, jm, r, f = items
    return abs((ip(p) + im(p) + jp(p) + jm(p) - r(p)) * 0.25 - c(p)) * f(p)


def _sweep_solve(grid, systems, cfg):
    """Red-black SOR on k systems of one grid at once.

    systems lists (unknown, fixed, rhs) per system: fixed supplies values
    for every non-unknown cell referenced by the stencil, rhs is d^2 * f on
    unknowns (zero for Laplace).  Returns one (values, stats) per system.

    The stack lives in four contiguous parity planes, one per class
    (i mod 2, j mod 2), each flattened over the whole stack: row p,
    column q of plane (a, b) in system s is cell (2p + a, 2q + b) at flat
    index s*R*C + p*C + q.  Its i+1, i-1 neighbours sit at that index plus
    a*C, (a-1)*C in plane (1-a, b) and its j+1, j-1 neighbours at plus b,
    b-1 in plane (a, 1-b), so a half-sweep updates each class of one
    colour as one unit-stride run, from system 0's first interior cell to
    system k-1's last.

    The run has no masked write.  Per-cell coefficient planes make the
    update c*A + (s - r)*B, s the neighbour sum: an unknown has
    A = 1 - omega and B = omega/4, the SOR step, with its system's omega
    (cfg.resolved_omega of its mask, once per distinct mask).  Every other
    cell of the run holds: A = 1, B = 0 and r = the largest float, so
    s - r < 0 and c*1 + (s - r)*0 is c + -0.0, which is c bit for bit, a
    pinned -0.0 included, while |s| stays below 1e291.  Each system stops
    on its own residual check, a max of |...| * F over its cells with F a
    bool plane, True on unknowns; a converged system's cells all hold and
    get F = False, so its values and stats are those of a solve on its
    own.

    Every 8th sweep checks the residual, probe first.  A full pass keeps,
    per system and class, the cell where |...| * F is largest, from one
    argmax per row of the scratch seen as (k, R*C), zero past the run.  At
    the next check those probes are evaluated alone, with the pass's
    arithmetic in its order, each system's largest-first by their values at
    that pass; the full maximum is at least any probe, so when every
    running system has a probe above the target none can stop, and the
    full pass is skipped.
    That decision does not depend on the order, and the largest probe of
    the last pass usually settles a system alone.  Only a full pass, always
    run at the last sweep, records a residual or stops a system.  A probe's
    value must carry the * F: where a class's masked residual is 0 on every
    cell, as for the colour updated last at omega = 1, its argmax is the
    system's first cell in the run, often a holding one, whose |...| alone
    is about 4.5e307, and that system would never stop.
    """
    nx, ny = grid.nx, grid.ny
    n = max(nx, ny)
    max_sweeps = cfg.resolved_max_iters(n)
    target = _target(cfg, grid)
    hold = np.finfo(float).max

    k = len(systems)
    unknown = np.stack([s[0] for s in systems])
    keys = [u.tobytes() for u in unknown]
    found = {}          # one omega per distinct unknown mask
    for key, u in zip(keys, unknown):
        if key not in found:
            found[key] = cfg.resolved_omega(u)
    omega = np.array([found[key] for key in keys])[:, None, None]
    # every plane has R x C cells, with a spare row and column past the
    # lattice, so the shifted runs stay inside the plane
    R, C = nx // 2 + 1, ny // 2 + 1
    w = np.zeros((k, 2 * R, 2 * C))
    w[:, :nx, :ny] = [s[1] for s in systems]
    w[:, :nx, :ny][unknown] = 0.0
    inner = np.zeros(w.shape, dtype=bool)
    inner[:, 1:nx - 1, 1:ny - 1] = unknown[:, 1:-1, 1:-1]

    W, RHS, A, B, F = {}, {}, {}, {}, {}
    for a in (0, 1):
        for b in (0, 1):
            m = inner[:, a::2, b::2]
            W[a, b] = np.ascontiguousarray(w[:, a::2, b::2]).reshape(-1)
            r = np.full((k, R, C), hold)
            for s, system in enumerate(systems):
                part = system[2][a::2, b::2]
                p, q = part.shape
                np.copyto(r[s, :p, :q], part, where=m[s, :p, :q])
            RHS[a, b] = r.reshape(-1)
            A[a, b] = np.where(m, 1.0 - omega, 1.0).reshape(-1)
            B[a, b] = np.where(m, omega * 0.25, 0.0).reshape(-1)
            F[a, b] = m.reshape(-1)
    RC = R * C
    # shared by every class; a full pass zeroes what lies outside a class's
    # run, so each row of its (k, R*C) view is one system's cells
    scratch = np.empty(k * RC)
    rows = scratch.reshape(k, RC)
    first = np.arange(k) * RC
    colours = ([], [])
    for a, b in W:
        # interior cells 1 <= i <= nx-2, 1 <= j <= ny-2 of the class
        li, lj = (nx - 2 + a) // 2, (ny - 2 + b) // 2
        if not (li and lj):
            continue
        # from system 0's first interior cell to system k-1's last; the
        # cells between two systems' interiors hold
        lo = (1 - a) * C + 1 - b
        run = (k - 1) * RC + (li - a) * C + lj - b + 1 - lo
        shifts = ((1 - a, b, a * C), (1 - a, b, (a - 1) * C),
                  (a, 1 - b, b), (a, 1 - b, b - 1))
        views = ((W[a, b][lo:lo + run],)
                 + tuple(W[p, q][lo + s:lo + s + run] for p, q, s in shifts)
                 + tuple(x[a, b][lo:lo + run] for x in (RHS, A, B, F))
                 + (scratch[lo:lo + run], lo))
        colours[(a + b) % 2].append(views)
    lattices = colours[0] + colours[1]
    # per class, what a probe reads: (c, ip, im, jp, jm, r, F) as items
    items = [tuple(x.item for x in v[:6] + v[8:9]) for v in lattices]

    res = np.full(k, math.inf)
    iters = np.zeros(k, dtype=int)
    running = list(range(k))
    probes = None   # per system: (items, cell) of each class's largest
    # masked residual at the last full pass, largest first
    it = 0
    check_every = 8
    while it < max_sweeps and running:
        for colour in colours:
            for c, ip, im, jp, jm, r, ca, cb, _, t, _ in colour:
                # c * A + (ip + im + jp + jm - r) * B, on an unknown
                # (1.0 - omega) * c + (omega * 0.25) * (...), the neighbours
                # summed in the order i+1, i-1, j+1, j-1, which fixes every
                # bit of the iterates
                np.add(ip, im, out=t)
                t += jp
                t += jm
                t -= r
                t *= cb
                c *= ca
                c += t
        it += 1
        if it % check_every and it != max_sweeps:
            continue
        if it != max_sweeps and probes and all(
                any(_residual(q, p) > target for q, p in probes[s])
                for s in running):
            continue
        # |0.25 * (ip + im + jp + jm - r) - c| at each system's unknowns
        gap = np.zeros(k)
        found = [[] for _ in range(k)]
        for q, (c, ip, im, jp, jm, r, _, _, f, t, lo) in \
                zip(items, lattices):
            np.add(ip, im, out=t)
            t += jp
            t += jm
            t -= r
            t *= 0.25
            t -= c
            np.abs(t, out=t)
            t *= f
            scratch[:lo] = 0.0
            scratch[lo + len(t):] = 0.0
            # argmax finds a NaN first, as the maximum propagates it; a
            # system whose cells are all 0 may find a zero before the run,
            # whose first cell then stands for it
            top = rows.argmax(axis=1)
            peak = rows[range(k), top]
            np.maximum(gap, peak, out=gap)
            top = np.maximum(first + top - lo, 0)
            for s, (p, value) in enumerate(zip(top.tolist(), peak.tolist())):
                found[s].append((value, q, p))
        probes = [[(q, p) for _, q, p in sorted(
            mine, key=lambda x: x[0], reverse=True)] for mine in found]
        res[running] = gap[running]
        for s in [s for s in running if res[s] <= target]:
            running.remove(s)
            iters[s] = it
            for coef, value in ((RHS, hold), (A, 1.0), (B, 0.0), (F, False)):
                for plane in coef.values():
                    plane[s * RC:(s + 1) * RC] = value
    iters[running] = it
    for (a, b), plane in W.items():
        w[:, a::2, b::2] = plane.reshape(k, R, C)
    w = w[:, :nx, :ny]
    return [(w[s], SolveStats(cfg.method, int(iters[s]), float(res[s]),
                              target, int(unknown[s].sum()),
                              bool(res[s] <= target)))
            for s in range(k)]


def _sweep_stack(groups, cfg=None):
    """One _sweep_solve over the systems of several grids of one lattice
    shape.  groups lists (grid, systems); returns one [(values, stats)]
    per group, in order, each system's as in a solve on its own."""
    cfg = cfg or SolverConfig()
    if cfg.method != SOR:
        raise MalformedGrid(f"unknown solver method {cfg.method!r}")
    shapes = {(g.nx, g.ny) for g, _ in groups}
    if len(shapes) > 1:
        raise GridMismatch(f"one stack needs one lattice shape, got "
                           f"{sorted(shapes)}")
    systems = [s[:3] for _, group in groups for s in group]
    solved = iter(_sweep_solve(groups[0][0], systems, cfg) if systems else ())
    return [[next(solved) for _ in group] for _, group in groups]


def _fields(systems, solved):
    """Fields of the systems [(unknown, fixed, rhs, finish)] from their
    (values, stats).  Each system's convergence and finish(values) checks
    run in list order, so the first system that fails raises."""
    fields = []
    for (w, stats), system in zip(solved, systems):
        if not stats.converged:
            raise NonConvergence(stats.to_text())
        field = system[3](w)
        field.stats = stats
        fields.append(field)
    return fields


def _solve(grid, systems, cfg):
    """Fields of the systems of one grid, solved in one pass."""
    solved, = _sweep_stack([(grid, systems)], cfg)
    return _fields(systems, solved)


def _poisson(grid, boundary, forcing):
    """Poisson system for h: every free cell is an unknown and occupied
    neighbours are ghost zeros."""
    f_arr = forcing.evaluate(grid)
    if (f_arr[grid.free] >= 0).any():
        raise NegativeForcingViolation(
            "forcing must be strictly negative on every free cell")
    rhs = np.zeros_like(f_arr)
    rhs[grid.free] = f_arr[grid.free] * grid.d * grid.d

    def finish(w):
        if float(w[grid.free].min()) <= 0.0:
            raise NonConvergence("positivity lost on the free mask; solve did "
                                 "not reach a usable iterate")
        field = ScalarField(grid, fill_band(grid, w, band_value=0.0))
        field.boundary = boundary
        return field

    return grid.free, np.zeros((grid.nx, grid.ny)), rhs, finish


def _band_nodes(grid, boundary):
    """nearest_node_map(grid, boundary) as index arrays ((ii, jj), k): the
    ghost-band cells and the boundary node each copies."""
    nodes = nearest_node_map(grid, boundary)
    ij = np.array(list(nodes), dtype=np.intp).reshape(-1, 2)
    k = np.fromiter(nodes.values(), dtype=np.intp, count=len(nodes))
    return (ij[:, 0], ij[:, 1]), k


def _laplace(grid, boundary, dirichlet_values, nodes):
    """Laplace system for one component: node cells are pinned to their
    values and interior free cells are the unknowns.  nodes is
    _band_nodes(grid, boundary), which fills the ghost bands."""
    vals = np.asarray(dirichlet_values, dtype=float)
    if vals.shape != (boundary.n,):
        raise MalformedGrid("need one Dirichlet value per boundary node")
    fixed = np.zeros((grid.nx, grid.ny))
    node_mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    ci, cj = boundary.cells[:, 0], boundary.cells[:, 1]
    node_mask[ci, cj] = True
    fixed[ci, cj] = vals
    cells, k = nodes

    def finish(w):
        return ScalarField(grid, fill_band(grid, w, band_value=0.0,
                                           cells=cells, cell_values=vals[k]))

    return grid.free & ~node_mask, fixed, np.zeros_like(fixed), finish


def _guidance(grid, boundary, nodes=None, comp=None):
    """The two Laplace systems of v = -beta * n_hat, or with comp, of that
    data on the nodes of component comp and 0 on every other node; nodes
    is _band_nodes(grid, boundary), made here when not given."""
    if boundary.flux is None:
        raise MalformedGrid("boundary flux magnitudes must be assigned first")
    if nodes is None:
        nodes = _band_nodes(grid, boundary)
    systems = []
    for c in (0, 1):
        data = -boundary.flux * boundary.normals[:, c]
        if comp is not None:
            data = np.where(boundary.comp == comp, data, 0.0)
        systems.append(_laplace(grid, boundary, data, nodes))
    return systems


def _superpose(grid, terms):
    """The guidance components sum_k a_k (vx_k, vy_k) over terms
    [(a_k, (vx_k, vy_k))] of solved fields, in order, as fresh
    ScalarFields; one term with a_0 = 1 gives a copy of its values and
    stats.  The discrete Laplacian is linear, so a component's residual
    is at most sum |a_k| r_k; its stats carry that bound, with target
    sum |a_k| t_k and the terms' sweeps added up."""
    fields = []
    weights = [abs(a) for a, _ in terms]
    for axis in (0, 1):
        (a, first), rest = terms[0], terms[1:]
        w = first[axis].values * a
        for coef, pair in rest:
            w += coef * pair[axis].values
        stats = [pair[axis].stats for _, pair in terms]
        field = ScalarField(grid, w)
        field.stats = SolveStats(
            stats[0].method, sum(st.iterations for st in stats),
            sum(c * st.residual for c, st in zip(weights, stats)),
            sum(c * st.target for c, st in zip(weights, stats)),
            stats[0].unknowns, all(st.converged for st in stats))
        fields.append(field)
    return fields


def _vector(fx, fy, boundary):
    field = VectorField(fx, fy)
    field.boundary = boundary
    return field


def solve_poisson(grid, boundary, forcing, cfg=None):
    """Safety function h: 5-point Poisson solve with ghost zeros.

    All free cells are unknowns.  After a converged solve h > 0 holds on the
    whole free mask (discrete maximum principle with f < 0) and the residual
    |lap h - f| stays below tol*(4/d^2) everywhere.
    """
    h, = _solve(grid, [_poisson(grid, boundary, forcing)], cfg)
    return h


def solve_laplace_component(grid, boundary, dirichlet_values, cfg=None):
    """Harmonic extension of per-node Dirichlet data.

    Node cells are pinned to their values (reproduced exactly); interior free
    cells are the unknowns.
    """
    system = _laplace(grid, boundary, dirichlet_values,
                      _band_nodes(grid, boundary))
    field, = _solve(grid, [system], cfg)
    return field


def solve_guidance(grid, boundary, cfg=None):
    """Guidance field: componentwise harmonic extension of
    v = -beta * n_hat."""
    fx, fy = _solve(grid, _guidance(grid, boundary), cfg)
    return _vector(fx, fy, boundary)


def solve_fields(grid, boundary, forcing, cfg=None):
    """(h, v): the safety function and the guidance field from one solve
    of all three systems, with the values and stats of the separate
    solve_poisson and solve_guidance."""
    h, fx, fy = _solve(grid, [_poisson(grid, boundary, forcing)]
                       + _guidance(grid, boundary), cfg)
    return h, _vector(fx, fy, boundary)


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
