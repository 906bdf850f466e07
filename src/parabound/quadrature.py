"""Deterministic quadrature building blocks shared by solver and oracles.

Three families: tensor Gauss-Hermite rules matched to the whitened kernel
weight exp(-|xi|^2), composite Gauss-Legendre panels with dyadic grading
toward marked kink locations (used where integrands carry |.|^q kinks or
sign jumps that would wreck a plain Hermite rule; solver and oracles
grade to one depth, KINK_LEVELS), and the G7K15 Gauss-Kronrod pair of
the solver's adaptive Duhamel rule. Every tensor product is laid out here
(tensor_rule); large ones and the oracles' batched passes are built in row
blocks of at most BLOCK_VALUES values each (row_blocks).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# pruned_hermite_tensor drops product weights at or below this fraction of
# the total weight.
HERMITE_PRUNE_REL = 1e-18
# Half-width, in kernel standard deviations, of the windows outside which
# the solver and the oracles drop the kernel (a tail below e^{-72}).
TRUNCATION_RADIUS = 12.0
# Dyadic levels of the grading toward a kink, down to 2^-24 of the interval
# (some 70 panels for one kink); 44 levels change no answer beyond roundoff.
KINK_LEVELS = 24
# Float64 values per block of an oracle's batched pass: 14 Ki values make
# 112 KiB arrays, below glibc's 128 KiB M_MMAP_THRESHOLD (mallopt(3)), so a
# block's temporaries come from the heap and are reused rather than mapped
# and page-faulted in afresh on every call. Much smaller blocks pay Python
# per block.
BLOCK_VALUES = 14 * 1024

# The G7K15 pair on [-1, 1], from QUADPACK's qk15 (Piessens et al. 1983): the
# 15 Kronrod nodes in ascending order and their weights (exact to degree 22),
# and the weights of the 7-point Gauss rule on the same nodes, 0 at the nodes
# only the Kronrod rule uses (exact to degree 13).
GK15_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
GK15_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
G7_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082,
    0.0,
])
GK15_NODES.setflags(write=False)
GK15_WEIGHTS.setflags(write=False)
G7_WEIGHTS.setflags(write=False)


@lru_cache(maxsize=64)
def hermite_rule(order: int):
    """1-D Gauss-Hermite nodes/weights for weight exp(-x^2).

    numpy's construction overflows at high order (from order 384 up the
    weights are NaN) without raising; callers must not evaluate a rule
    whose weights are not finite.
    """
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def tensor_nodes(axes):
    """Tensor product of 1-D coordinate arrays as (m, d) points: C order, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def tensor_rule(rules):
    """Tensor product of 1-D rules [(nodes, weights), ...]: tensor_nodes, weights multiplied left to right."""
    weights = rules[0][1]
    for _, w in rules[1:]:
        weights = np.multiply.outer(weights, w)
    return tensor_nodes([x for x, _ in rules]), weights.reshape(-1)


@lru_cache(maxsize=64)
def hermite_tensor(order: int, dim: int):
    """Tensor-product Gauss-Hermite rule on R^dim.

    Returns nodes of shape (order^dim, dim) and the product weights. The
    weights sum to pi^(dim/2) exactly up to roundoff, which makes the rule
    exact for constant data.
    """
    nodes, weights = tensor_rule([hermite_rule(order)] * dim)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def pruned_hermite_tensor(order: int, dim: int):
    """hermite_tensor(order, dim) without its nodes of negligible weight.

    Keeps the nodes whose product weight exceeds HERMITE_PRUNE_REL times
    the total weight (Jaeckel 2005, "A note on multivariate Gauss-Hermite
    quadrature"). Returns (nodes, weights, mass, moment), where mass is
    sum w and moment is sum w |xi| over the dropped nodes, so a caller can
    bound what they would have added. The weights are symmetric under
    xi -> -xi, so the kept set keeps the full rule's pairing: node k and
    node N-1-k are negatives of each other. The full tensor is never
    built: it is pruned in row blocks over the first coordinate.
    """
    x, w = hermite_rule(order)
    floor = HERMITE_PRUNE_REL * w.sum() ** dim
    kept, mass, moment = [], 0.0, 0.0
    for block in row_blocks(order, order ** (dim - 1) * dim):
        nodes, weights = tensor_rule([(x[block], w[block])] + [(x, w)] * (dim - 1))
        keep = weights > floor
        drop = ~keep
        mass += float(weights[drop].sum())
        moment += float(weights[drop] @ np.sqrt(np.einsum("ij,ij->i", nodes[drop], nodes[drop])))
        kept.append((nodes[keep], weights[keep]))
    nodes, weights = (np.concatenate(part) for part in zip(*kept))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights, mass, moment


def row_blocks(items: int, values: int):
    """Consecutive slices of range(items) for items of `values` values each.

    Each slice holds at most BLOCK_VALUES values, or a single item where one
    item alone holds more.
    """
    step = max(1, BLOCK_VALUES // values)
    return [slice(start, start + step) for start in range(0, items, step)]


@lru_cache(maxsize=64)
def legendre_rule(order: int):
    """1-D Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_edges(lo: float, hi: float, kinks=(), base_panels: int = 32, levels: int = KINK_LEVELS):
    """Panel edges on [lo, hi]: uniform base grid plus dyadic grading.

    Around every interior kink the edges refine geometrically down to
    (hi - lo) * 2^-levels, so integrands with algebraic kinks or steep
    sigmoidal transitions there are resolved to near machine precision.
    """
    return panel_edges_batch([lo], [hi], [kinks], base_panels, levels)[0]


def panel_edges_batch(lo, hi, kinks, base_panels: int = 32, levels: int = KINK_LEVELS):
    """panel_edges of many intervals [lo_i, hi_i] at once, each with its own kinks (kinks[i]).

    Returns the edges of every interval, concatenated, and their number per
    interval. Each row holds the base grid and the graded points, NaN where
    one lies outside its interval; sorted, a point is kept when it lies more
    than 1e-15 (hi - lo) above the one before it, which drops duplicates and
    the zero-width panels that clustering near the interval ends causes.
    """
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    if not (hi > lo).all():
        bad = np.argmin(hi > lo)
        raise ValueError(f"empty panel interval [{lo[bad, 0]}, {hi[bad, 0]}]")
    width = hi - lo
    # the base grid as np.linspace computes it: start + k * step, the last point stop
    base = np.arange(base_panels + 1) * (width / base_panels) + lo
    base[:, -1] = hi[:, 0]
    points = [base]
    most = max(map(len, kinks))
    if most:
        marks = np.full((lo.size, most), np.nan)
        for row, at in zip(marks, kinks):
            row[:len(at)] = at
        # a kink outside its interval is NaN, and so is every point graded about it
        marks[~((marks > lo) & (marks < hi))] = np.nan
        steps = width[:, None] * 0.5 ** np.arange(1, levels + 1)
        marks = marks[:, :, None]
        graded = np.concatenate([marks, marks - steps, marks + steps], axis=2).reshape(lo.size, -1)
        graded[~((graded > lo) & (graded < hi))] = np.nan
        points.append(graded)
    edges = np.sort(np.concatenate(points, axis=1), axis=1)
    keep = np.ones(edges.shape, dtype=bool)
    keep[:, 1:] = edges[:, 1:] - edges[:, :-1] > 1e-15 * width
    return edges[keep], keep.sum(1)


def legendre_panels(lefts: np.ndarray, rights: np.ndarray, order: int):
    """Gauss-Legendre nodes and weights, each (..., order), on panels [lefts, rights] of shape (..., 1)."""
    x, w = legendre_rule(order)
    half = 0.5 * (rights - lefts)
    return lefts + half * (x + 1.0), half * w


def panel_nodes(edges: np.ndarray, order: int = 12):
    """All Gauss-Legendre nodes/weights for the panels between edges."""
    nodes, weights = legendre_panels(edges[:-1][:, None], edges[1:][:, None], order)
    return nodes.reshape(-1), weights.reshape(-1)
