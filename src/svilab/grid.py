"""Uniform tensor grids on an interval or rectangle, with the discrete
operators used everywhere else: second-order Laplacian and gradient,
weighted quadrature norms, and boundary traces.

Two boundary flavours are supported.  Dirichlet grids hold interior nodes
only and the Laplacian uses ghost value 0.  Neumann grids include boundary
nodes, the Laplacian reflects across the boundary, and quadrature weights
are halved at boundary nodes so that the weighted Laplacian is exactly
symmetric and the discrete divergence theorem holds (mass conservation to
machine precision for the pure reflected operator).  The reflected Laplacian
L alone is not symmetric: a boundary node sees its inward neighbour twice.
But diag(weights) L is, and the 2D Neumann CG of `pathsolver.ImplicitSolver`
relies on it: it runs on the system multiplied by these weights.

The boundary geometry of a grid is computed once, by `build_grid`: the
boundary quadrature weights, the ghost-flux factor sum 2/h over the outward
axes of each boundary node, and (by `normal_derivative`) the one-sided
normal derivative of a field.  On Dirichlet grids the first two are zero.

Fields are flat float arrays of length ``grid.n_nodes`` in C order of the
per-axis index.  Vector fields are lists with one field per axis.  The
Laplacian, gradient, normal derivative, quadratures (the boundary quadrature
too) and norms also act on each row of a stack ``(..., n_nodes)``, giving
exactly what the call on that row alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class Grid:
    """Spatial discretization of the domain with boundary metadata.

    Attributes:
        dim: 1 or 2.
        lengths: domain extent per axis.
        n: unknown count per axis (interior nodes for Dirichlet, all nodes
           for Neumann).
        bc_kind: DIRICHLET or NEUMANN.
        h: spacing per axis.
        coords: strictly increasing node positions per axis.
        weights: quadrature weight per node (flat, product of axis weights).
        boundary_mask: flat flag, True on boundary nodes (all False for
            Dirichlet grids, whose unknowns are interior).
        boundary_weights: boundary quadrature weight per node (flat; zero
            off the boundary).  1D boundary points carry weight 1 (counting
            measure); 2D edges carry trapezoid weights along the edge,
            corners get (hx + hy)/2.
        flux_factor: sum over the outward axes of a node of 2/h, the factor
            of the penalized boundary flux in the Laplacian's ghost values
            (zero off the boundary).  flux_factor * weights equals
            boundary_weights, which makes the ghost-value route and the
            variational form agree to machine precision.
    """

    dim: int
    lengths: tuple[float, ...]
    n: int
    bc_kind: str
    h: np.ndarray = field(repr=False)
    coords: tuple[np.ndarray, ...] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    boundary_mask: np.ndarray = field(repr=False)
    boundary_weights: np.ndarray = field(repr=False)
    flux_factor: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n**self.dim

    def reshape(self, u: np.ndarray) -> np.ndarray:
        """A field (n_nodes,) or a stack (..., n_nodes) as (..., *shape)."""
        if u.shape[-1:] != (self.n_nodes,):
            raise ValueError(f"field has shape {u.shape}, grid expects (..., {self.n_nodes})")
        return u.reshape(u.shape[:-1] + self.shape)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n_nodes)

    def meshes(self) -> list[np.ndarray]:
        """Node coordinates per axis, each flattened to field layout."""
        grids = np.meshgrid(*self.coords, indexing="ij")
        return [g.reshape(-1) for g in grids]

    def axis_weights(self, axis: int) -> np.ndarray:
        return _axis_weights(self.n, self.h[axis], self.bc_kind)


def _axis_weights(n: int, h: float, bc_kind: str) -> np.ndarray:
    """Trapezoid weights on one axis: halved at Neumann boundary nodes."""
    w = np.full(n, h)
    if bc_kind == NEUMANN:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def build_grid(dim: int, lengths, n: int, bc_kind: str = DIRICHLET) -> Grid:
    """Build a uniform tensor grid.

    Dirichlet axes: n interior nodes, h = L/(n+1), nodes at h..n*h.
    Neumann axes: n nodes including both boundary points, h = L/(n-1).
    """
    errors = []
    if dim not in (1, 2):
        errors.append(f"dim must be 1 or 2, got {dim}")
    lengths = tuple(float(L) for L in np.atleast_1d(lengths))
    if dim in (1, 2) and len(lengths) != dim:
        errors.append(f"expected {dim} length(s), got {len(lengths)}")
    if any(L <= 0 for L in lengths):
        errors.append(f"lengths must be positive, got {lengths}")
    if n < 3:
        errors.append(f"n must be >= 3, got {n}")
    if bc_kind not in (DIRICHLET, NEUMANN):
        errors.append(f"bc_kind must be '{DIRICHLET}' or '{NEUMANN}', got {bc_kind!r}")
    if errors:
        raise ConfigError(errors)

    if bc_kind == DIRICHLET:
        h = np.array([L / (n + 1) for L in lengths])
        coords = tuple(np.linspace(hx, L - hx, n) for hx, L in zip(h, lengths))
    else:
        h = np.array([L / (n - 1) for L in lengths])
        coords = tuple(np.linspace(0.0, L, n) for L in lengths)

    axis_w = [_axis_weights(n, hx, bc_kind) for hx in h]
    weights = axis_w[0]
    for w in axis_w[1:]:
        weights = np.multiply.outer(weights, w)
    weights = weights.reshape(-1)

    mask = np.zeros((n,) * dim, dtype=bool)
    bnd_w, flux = np.zeros(mask.shape), np.zeros(mask.shape)
    if bc_kind == NEUMANN:
        for axis in range(dim):
            # the first and last node along the axis, with the axis first
            np.moveaxis(mask, axis, 0)[[0, -1]] = True
            np.moveaxis(bnd_w, axis, 0)[[0, -1]] += axis_w[1 - axis] if dim == 2 else 1.0
            np.moveaxis(flux, axis, 0)[[0, -1]] += 2.0 / h[axis]

    return Grid(
        dim=dim,
        lengths=lengths,
        n=n,
        bc_kind=bc_kind,
        h=h,
        coords=coords,
        weights=weights,
        boundary_mask=mask.reshape(-1),
        boundary_weights=bnd_w.reshape(-1),
        flux_factor=flux.reshape(-1),
    )


def _along(grid: Grid, axis: int):
    """at(s): the index of s along grid axis `axis` of a reshaped field or
    stack, every other axis whole."""
    tail = (slice(None),) * (grid.dim - 1 - axis)  # the grid axes after this one
    return lambda s: (..., s, *tail)


def apply_laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Second-order centered Laplacian with the grid's ghost convention,
    of a field or of each row of a stack.  Along each axis the neighbours of
    every node are the flat field shifted by the axis' stride, one pass over
    the whole stack; the first and last node of the axis, whose shifted
    neighbour lies in another line of nodes, are formed apart from their
    ghost (0.0 on Dirichlet grids, the inward neighbour mirrored on Neumann
    grids) by the same subtraction and addition, so every node gets the bits
    of the stencil on a ghosted copy of the field."""
    U = grid.reshape(u)
    flat = U.reshape(-1)
    dirichlet = grid.bc_kind == DIRICHLET
    for axis in range(grid.dim):
        at = _along(grid, axis)
        step = grid.n ** (grid.dim - 1 - axis)  # the flat stride of the axis
        term = np.multiply(U, 2.0, order="C")
        terms = term.reshape(-1)  # a view: term is C-ordered whatever the layout of u
        # u_{i-1} - 2 u_i, then + u_{i+1}
        first = np.subtract(0.0 if dirichlet else U[at(1)], term[at(0)])
        np.subtract(flat[:-step], terms[step:], out=terms[step:])
        term[at(0)] = first
        last = np.add(term[at(-1)], 0.0 if dirichlet else U[at(-2)])
        np.add(terms[:-step], flat[step:], out=terms[:-step])
        term[at(-1)] = last
        term /= grid.h[axis] ** 2
        if axis == 0:
            term += 0.0  # the sum over axes starts from +0.0: -0.0 + 0.0 is +0.0
            out = term
        else:
            out += term
    return out.reshape(u.shape)


def apply_gradient(grid: Grid, u: np.ndarray) -> list[np.ndarray]:
    """Centered gradient, second-order one-sided at the outermost nodes: one
    component per axis, each shaped like u (a field or a stack)."""
    U = grid.reshape(u)
    flat = U.reshape(-1)
    comps = []
    for axis in range(grid.dim):
        at = _along(grid, axis)
        step = grid.n ** (grid.dim - 1 - axis)  # the flat stride of the axis
        g = np.empty(U.shape)
        h2 = 2.0 * grid.h[axis]
        # centered differences of the flat field, then the end nodes one-sided
        inner = g.reshape(-1)[step:-step]
        np.subtract(flat[2 * step:], flat[: -2 * step], out=inner)
        inner /= h2
        g[at(0)] = (-3.0 * U[at(0)] + 4.0 * U[at(1)] - U[at(2)]) / h2
        g[at(-1)] = (3.0 * U[at(-1)] - 4.0 * U[at(-2)] + U[at(-3)]) / h2
        comps.append(g.reshape(u.shape))
    return comps


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Weighted quadrature of u * v over the last axis: a float for two
    fields, one value per row for stacks (leading axes broadcast)."""
    if u.shape[-1:] != (grid.n_nodes,) or v.shape[-1:] != (grid.n_nodes,):
        raise ValueError("field size mismatch in inner product")
    prod = grid.weights * u
    # in place unless v broadcasts the product to a larger shape
    prod = np.multiply(prod, v, out=prod if v.ndim == 1 or v.shape == u.shape else None)
    s = prod.sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def norm_l2(grid: Grid, u: np.ndarray) -> float | np.ndarray:
    r = np.sqrt(inner(grid, u, u))
    return float(r) if r.ndim == 0 else r


def stiffness_inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Edge-difference quadrature of the Dirichlet form, integral of
    grad u . grad v, per row of a stack like `inner`.

    Consistent with the Laplacian: stiffness_inner(u, v) equals
    -inner(lap u, v) exactly, for either boundary kind.  Dirichlet grids
    include the edges to the zero ghost values.
    """
    if u.shape[-1:] != (grid.n_nodes,) or v.shape[-1:] != (grid.n_nodes,):
        raise ValueError("field size mismatch in stiffness form")
    U = grid.reshape(u)
    V = U if v is u else grid.reshape(v)
    total = 0.0
    for axis in range(grid.dim):
        du = _edge_differences(grid, U, axis)
        dv = du if V is U else _edge_differences(grid, V, axis)
        # edge length h along the axis times the transverse trapezoid weights
        w = grid.h[axis]
        for ax in range(grid.dim):
            if ax != axis:
                w = w * grid.axis_weights(ax).reshape([grid.n if a == ax else 1
                                                       for a in range(grid.dim)])
        terms = w * du
        terms = np.multiply(terms, dv, out=terms if v.ndim == 1 or v.shape == u.shape else None)
        s = terms.reshape(terms.shape[: -grid.dim] + (-1,)).sum(axis=-1)
        total = total + (float(s) if s.ndim == 0 else s)
    return total


def _edge_differences(grid: Grid, U: np.ndarray, axis: int) -> np.ndarray:
    """(u_{i+1} - u_i) / h over the edges along `axis` of a reshaped field or
    stack, with the edges to the zero ghost values on Dirichlet grids."""
    at = _along(grid, axis)
    dirichlet = grid.bc_kind == DIRICHLET
    shape = list(U.shape)
    shape[U.ndim - grid.dim + axis] += 1 if dirichlet else -1
    du = np.empty(shape)
    np.subtract(U[at(slice(1, None))], U[at(slice(None, -1))],
                out=du[at(slice(1, -1) if dirichlet else slice(None))])
    if dirichlet:
        np.subtract(U[at(0)], 0.0, out=du[at(0)])
        np.subtract(0.0, U[at(-1)], out=du[at(-1)])
    du /= grid.h[axis]
    return du


def seminorm_h1(grid: Grid, u: np.ndarray) -> float | np.ndarray:
    """Discrete H1 seminorm, the square root of the Dirichlet form."""
    r = np.sqrt(np.maximum(stiffness_inner(grid, u, u), 0.0))
    return float(r) if r.ndim == 0 else r


def boundary_inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Boundary quadrature of u * v over the last axis, per row of a stack
    like `inner`; zero on Dirichlet grids."""
    if u.shape[-1:] != (grid.n_nodes,) or v.shape[-1:] != (grid.n_nodes,):
        raise ValueError("field size mismatch in boundary quadrature")
    nodes = np.flatnonzero(grid.boundary_mask)  # flat indices keep a stack's rows C-contiguous
    s = (grid.boundary_weights[nodes] * u.take(nodes, -1) * v.take(nodes, -1)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def normal_derivative(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Outward normal derivative at the boundary nodes of a Neumann grid, by
    second-order one-sided stencils, averaged over the outward axes at
    corners; zero off the boundary.  Of a field, or of each row of a stack."""
    U = grid.reshape(u)
    acc, cnt = np.zeros(U.shape), np.zeros(grid.shape)
    for axis in range(grid.dim):
        # views with the axis first; the outward normal at index 0 is -e_axis
        v, a = (np.moveaxis(A, A.ndim - grid.dim + axis, 0) for A in (U, acc))
        a[0] += (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * grid.h[axis])
        a[-1] += (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * grid.h[axis])
        np.moveaxis(cnt, axis, 0)[[0, -1]] += 1.0
    out = np.zeros(U.shape)
    np.divide(acc, cnt, out=out, where=cnt > 0)
    return out.reshape(u.shape)

