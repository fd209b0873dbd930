"""Numerically stable special-function and quadrature primitives.

Generalized Laguerre polynomials by upward recurrence, log-factorials,
Gauss-Laguerre rules, and a closed-form radial integral identity used to
cross-check all of it. A rule's nodes start from the Golub-Welsch
eigenvalues of the Jacobi matrix and are polished by Newton iteration
vectorized over all nodes; its weights are reciprocal Christoffel sums.
Rules are memoized per order and hold read-only arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_laguerre",
    "laguerre",
    "laguerre_ladder",
    "log_factorial",
    "verify_laguerre_integral",
]

_MAX_LAGUERRE_DEGREE = 10**6
_MAX_RULE_ORDER = 512
_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100
_EPS = np.finfo(float).eps


def laguerre(n: int, mu: float, x):
    """Evaluate the generalized Laguerre polynomial of degree ``n`` and order ``mu``.

    Uses the upward three-term recurrence in the degree (see
    ``laguerre_ladder``), which is stable in the x >= 0, mu >= 0 regime
    needed here. Exact for n = 0 and n = 1 and normalized so that the value
    at x = 0 equals binomial(n + mu, n).

    Parameters
    ----------
    n : int
        Polynomial degree, 0 <= n <= 1e6.
    mu : float
        Order parameter (non-negative in all supported uses).
    x : float or ndarray
        Argument(s); broadcasting over arrays is supported.

    Returns
    -------
    float or ndarray
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n > _MAX_LAGUERRE_DEGREE:
        raise ValueError(
            f"degree {n} exceeds the recurrence depth guard {_MAX_LAGUERRE_DEGREE}"
        )
    if isinstance(x, np.ndarray):
        x = x.astype(float, copy=False)
    else:
        x = float(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    return next(itertools.islice(laguerre_ladder(float(mu), x), n, None))


def laguerre_ladder(mu: float, x):
    """Yield L_0^mu(x), L_1^mu(x), L_2^mu(x), ... without end.

    One upward three-term recurrence serves every degree, so a caller that
    needs degrees 0..n pays for degree n once. ``x`` is used as given:
    ``laguerre`` is the validating single-degree entry point. ``mu`` may be
    an array that broadcasts against ``x``, such as a column of orders over
    a row of nodes; L_0 keeps the shape of ``x``.
    """
    p = x * 0.0 + 1.0
    yield p
    q = 1.0 + mu - x
    k = 1
    while True:
        yield q
        p, q = q, ((2.0 * k + mu + 1.0 - x) * q - (k + mu) * p) / (k + 1.0)
        k += 1


def log_factorial(n: int) -> float:
    """ln(n!): exact integer product through 20!, log-gamma beyond."""
    n = int(n)
    if n < 0:
        raise ValueError(f"factorial argument must be non-negative, got {n}")
    if n <= 20:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


def _generalized_binomial(top, k):
    """Exact binomial coefficient with an integer top index of either sign.

    For top >= 0 this is the usual coefficient (zero once k exceeds top);
    a negative top follows the falling-factorial definition, e.g.
    C(-2, 1) = -2. Both arguments broadcast as int arrays: the coefficient
    is the falling factorial top (top - 1) ... (top - k + 1) over k!, in
    int64, so it is exact while that product stays below 2^63, as it does
    for the desk-scale arguments of ``verify_laguerre_integral``.
    """
    top, k = np.broadcast_arrays(np.asarray(top, dtype=np.int64), np.asarray(k, dtype=np.int64))
    if np.any(k < 0):
        raise ValueError(f"lower index must be non-negative, got {k.min()}")
    j = np.arange(k.max(initial=0))
    taken = j < k[..., None]
    falling = np.where(taken, top[..., None] - j, 1).prod(axis=-1)
    return (falling // np.where(taken, j + 1, 1).prod(axis=-1))[()]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Laguerre rule for the weight e^{-u} on [0, inf).

    The constructor checks node ordering and the zeroth and first moments
    (both exactly 1 for this weight). Weights beyond order ~190 underflow
    binary64 at the largest nodes (smallest weight ~ e^{-4 order}); they are
    accepted as zero since their true contribution is far below roundoff.
    It keeps read-only copies of the node and weight arrays, so a rule can
    be shared between callers.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "order", int(self.order))
        if self.order < 1 or nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("order must match the node and weight counts")
        if not np.all(nodes > 0.0) or not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be positive and strictly increasing")
        if np.any(weights < 0.0) or not np.any(weights > 0.0):
            raise ValueError("weights must be non-negative with positive total mass")
        if abs(float(np.sum(weights)) - 1.0) > 1e-13:
            raise ValueError("zeroth moment deviates from 1 beyond 1e-13")
        if abs(float(np.dot(weights, nodes)) - 1.0) > 1e-12:
            raise ValueError("first moment deviates from 1 beyond 1e-12")


def _scaled_ladder(orders: np.ndarray, x: np.ndarray, sums: bool = True):
    """Laguerre data of each entry of x at its own degree, with overflow rescaling.

    ``orders`` gives each entry's degree and does not increase along x.
    Returns (L_{order-1}, L_order, sum_{k < order} L_k^2, log_scale) per
    entry: the pair is divided by e^{log_scale} and the sum by its square,
    which is left at zero without ``sums``. One upward recurrence serves
    every entry; at step k it runs over the prefix of entries whose order
    exceeds k, so each entry takes exactly the steps its own order takes.
    Plain upward recurrence overflows around degree 220 for x near the top
    of the order-512 node range, so an entry is renormalized once it passes
    1e120. Since |L_k(x)| <= e^{x/2} for x >= 0 (A&S 22.14.12), no entry
    comes near that for x in [0, 500], and there the test is left out.
    """
    p = np.zeros_like(x)
    q = np.ones_like(x)
    s = np.zeros_like(x)
    log_scale = np.zeros_like(x)
    checked = not np.all((x >= 0.0) & (x <= 500.0))
    top = int(orders[0]) if orders.size else 0
    # entries with an order above k, for every step k
    running = orders.size - np.searchsorted(orders[::-1], np.arange(top), side="right")
    for k, count in enumerate(running.tolist()):
        xk, pk, qk, sk = x[:count], p[:count], q[:count], s[:count]
        if sums:
            sk += qk * qk
        step = ((2.0 * k + 1.0 - xk) * qk - k * pk) / (k + 1.0)
        pk[...] = qk
        qk[...] = step
        if not checked:
            continue
        mag = np.abs(qk)
        big = mag > 1e120
        if big.any():
            scale = np.where(big, mag, 1.0)
            inv = 1.0 / scale
            pk *= inv
            qk *= inv
            sk *= inv * inv
            log_scale[:count] += np.log(scale)
    return p, q, s, log_scale


def _newton_polish(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Newton-refine every root estimate at once, each until it settles.

    Entry i of x is a root estimate of the Laguerre polynomial of degree
    ``orders[i]``, and the orders do not increase along x. A node stops
    when its step falls below 1e-14 absolute (or four ulps at large
    abscissas), or when a tiny step stops contracting: that is the
    roundoff limit cycle, and the node cannot be improved in binary64.
    """
    x = x.copy()
    prev_step = np.full_like(x, math.inf)
    active = np.arange(x.size)
    for _ in range(_NEWTON_MAX_ITER):
        xa, order = x[active], orders[active]
        p, q, _, _ = _scaled_ladder(order, xa, sums=False)
        # x L'_n(x) = n (L_n - L_{n-1}); the running scale cancels in the step
        denom = order * (q - p)
        if np.any(denom == 0.0):
            stalled = order[denom == 0.0][0]
            raise RuntimeError(f"Gauss-Laguerre root search stalled at order {stalled}")
        delta = q * xa / denom
        step = np.abs(delta)
        x_new = xa - delta
        x[active] = x_new
        converged = (step <= np.maximum(_NEWTON_TOL, 4.0 * _EPS * np.abs(xa))) | (x_new == xa)
        cycling = (step >= 0.5 * prev_step[active]) & (
            step <= 1e-11 * np.maximum(1.0, np.abs(xa))
        )
        prev_step[active] = step
        active = active[~(converged | cycling)]
        if active.size == 0:
            return x
    raise RuntimeError(
        f"Gauss-Laguerre root search failed to converge at order {orders[active[0]]}"
    )


# Every rule built so far, by order; a rule's arrays are read-only.
_RULES: dict[int, QuadratureRule] = {}


def _build_rules(orders) -> None:
    """Build the rules of the given orders that are not built yet, together.

    Golub-Welsch: each rule's nodes start as the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the Laguerre recurrence
    (diagonal 2k+1, off-diagonal k). Then one Newton iteration runs over
    the nodes of every missing order, and one recurrence gives their
    weights as reciprocal Christoffel sums: 1 / sum_{k < order} L_k(x)^2 equals the
    textbook derivative formula x / [(order+1) L_{order+1}(x)]^2 at the
    exact roots (Christoffel-Darboux) but, being a positive sum, does not
    amplify the roundoff left in the node, which the derivative form does
    by two orders of magnitude. Every node takes the steps of its own
    order, so a rule is the same bit for bit however it is batched.
    """
    missing = sorted({order for order in orders if order not in _RULES}, reverse=True)
    if not missing:
        return
    sizes = np.array(missing)
    node_orders = np.repeat(sizes, sizes)
    guesses = []
    for order in missing:
        k = np.arange(1.0, order)
        jacobi = np.diag(2.0 * np.arange(order) + 1.0) + np.diag(k, 1) + np.diag(k, -1)
        guesses.append(np.linalg.eigvalsh(jacobi))
    nodes = _newton_polish(node_orders, np.concatenate(guesses))
    _, _, s, log_scale = _scaled_ladder(node_orders, nodes)
    weights = np.exp(-(np.log(s) + 2.0 * log_scale))
    starts = np.cumsum(sizes) - sizes
    for order, lo in zip(missing, starts.tolist()):
        _RULES[order] = QuadratureRule(
            nodes=nodes[lo : lo + order], weights=weights[lo : lo + order], order=order
        )


def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule with the given number of nodes, built once per order.

    Nodes are the roots of the degree-``order`` Laguerre polynomial. They
    start as the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub & Welsch, Math. Comp. 1969) and are polished to 1e-14 absolute
    (or one ulp at large abscissas, whichever is coarser) by Newton
    iteration run on all nodes at once. Weights are the Christoffel numbers,
    evaluated as a reciprocal sum of squares rather than through the
    equivalent derivative formula; see ``_build_rules``. The rule
    integrates polynomials of degree <= 2 order - 1 exactly against the
    weight e^{-u}.

    Rules are memoized, one per order (at most 512 of them), and shared by
    every caller, so their node and weight arrays are read-only.
    """
    order = int(order)
    if not 1 <= order <= _MAX_RULE_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_RULE_ORDER}], got {order}")
    if order not in _RULES:
        _build_rules([order])
    return _RULES[order]


def verify_laguerre_integral(n, mu, lam) -> tuple:
    """Closed form and quadrature value of the weighted radial Laguerre integral.

    The target is 2 int_0^inf x^{2 lam + 1} e^{-x^2} L_n^mu(x^2) dx, which the
    substitution u = x^2 turns into int_0^inf u^lam e^{-u} L_n^mu(u) du. The
    closed form is (-1)^n lam! C(lam - mu, n) with the integer-top binomial,
    so it vanishes for n >= 1 whenever lam = mu. The quadrature is the
    Gauss-Laguerre rule of order lam + n + 2, the dot of its weights with
    u^lam L_n^mu at its nodes.

    n, mu and lam are ints or broadcastable int arrays, so a whole sweep is
    one call. Its rules are built together, and one Laguerre ladder runs
    over every integral's row of nodes, padded to the largest order, with
    mu as a column; each row takes u^lam and its own degree. The weights'
    dot products go one stacked product per order, over that order's rows
    alone. Returns (closed_form, quadrature) as float arrays of the
    broadcast shape, float scalars for scalar arguments; desk-scale
    arguments only.
    """
    n, mu, lam = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.int64) for v in (n, mu, lam))
    )
    for name, values, top in (("degree", n, 10), ("order", mu, 8), ("power", lam, 8)):
        outside = (values < 0) | (values > top)
        if np.any(outside):
            raise ValueError(f"{name} must be in [0, {top}], got {values[outside][0]}")
    factorial = np.cumprod(np.arange(9).clip(1))  # 0! .. 8!
    closed = (-1) ** n * factorial[lam] * _generalized_binomial(lam - mu, n)
    orders = (lam + n + 2).ravel()
    # the integrals by rule order, so that each order's rows are one run
    by_order = np.argsort(orders, kind="stable")
    n, mu, lam, orders = (v.ravel()[by_order] for v in (n, mu, lam, orders))
    counts = np.bincount(orders)
    # the orders present, ascending; np.unique would import numpy.ma on numpy 2
    present = np.flatnonzero(counts).tolist()
    _build_rules(present)
    rules = [gauss_laguerre(order) for order in present]
    # row o holds the order-o rule's nodes, padded with ones
    nodes = np.ones((orders.max(initial=2) + 1, present[-1] if present else 0))
    for rule in rules:
        nodes[rule.order, : rule.order] = rule.nodes
    u = nodes[orders]
    powers = np.empty_like(u)
    for power in np.flatnonzero(np.bincount(lam)).tolist():
        rows = lam == power
        powers[rows] = u[rows] ** power
    values = np.empty_like(u)
    ladder = laguerre_ladder(mu[:, None].astype(float), u)
    for degree, poly in zip(range(n.max(initial=0) + 1), ladder):
        np.multiply(powers, poly, out=values, where=(n == degree)[:, None])
    quadrature = np.empty(n.shape)
    lo = 0
    for rule in rules:
        hi = lo + counts[rule.order]
        # one dot product per row, as a stack of (1, order) @ (order, 1) products
        rows = values[lo:hi, : rule.order, None]
        quadrature[by_order[lo:hi]] = np.matmul(rule.weights, rows)[:, 0]
        lo = hi
    return closed.astype(float)[()], quadrature.reshape(closed.shape)[()]
