"""Dense matrices of the grid operators, test oracles of their own.

The package applies the Laplacian as a stencil only.  These matrices are
built apart from it: one tridiagonal matrix per axis, joined by Kronecker
products.
"""

import numpy as np

from svilab.grid import NEUMANN


def laplacian_matrix(grid) -> np.ndarray:
    """The matrix of `grid.apply_laplacian`: -2/h^2 on the diagonal, 1/h^2
    beside it, and 2/h^2 from a Neumann boundary node to its inward
    neighbour, whose reflection is its ghost."""
    n = grid.n
    blocks = []
    for h in grid.h:
        lower, upper = np.ones(n - 1), np.ones(n - 1)
        if grid.bc_kind == NEUMANN:
            upper[0] = lower[-1] = 2.0
        T = np.diag(np.full(n, -2.0)) + np.diag(lower, -1) + np.diag(upper, 1)
        blocks.append(T / h**2)
    if grid.dim == 1:
        return blocks[0]
    eye = np.eye(n)
    return np.kron(blocks[0], eye) + np.kron(eye, blocks[1])


def implicit_matrix(grid, dt: float, theta: float) -> np.ndarray:
    """A = I - dt theta L of the implicit solve."""
    return np.eye(grid.n_nodes) - (dt * theta) * laplacian_matrix(grid)
