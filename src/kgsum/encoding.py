"""Description-length arithmetic: rule costs, assertion costs, and error costs.

Everything is scored in fractional bits (base-2 logs).  Binomials are
evaluated in log space so that tensor-sized arguments like |V|^2 * |L_E|
never materialize; an exact big-integer path is used for small n.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .graph import KnowledgeGraph

if TYPE_CHECKING:  # pragma: no cover
    from .rules import AssertionSet, Rule

RISSANEN_C0 = 2.865064
_LOG2_C0 = math.log2(RISSANEN_C0)
_LN2 = math.log(2.0)
_EXACT_BINOMIAL_MAX_N = 1000


class EncodingDomainError(ValueError):
    """An encoding was requested outside its domain (e.g. zero-frequency symbol)."""


def universal_int(n: int) -> float:
    """Rissanen's code length for an unbounded positive integer."""
    if n < 1:
        raise EncodingDomainError(f"universal_int requires n >= 1, got {n}")
    bits = _LOG2_C0
    x = math.log2(n)
    while x > 0:
        bits += x
        x = math.log2(x)
    return bits


@lru_cache(maxsize=1_000_000)
def log_binomial(n: int, k: int) -> float:
    """log2 C(n, k); exact for n <= 1000.  Beyond that, small k uses the
    falling-factorial sum (the plain log-gamma difference cancels
    catastrophically when k << n) and large k uses log-gamma."""
    if k < 0 or k > n:
        raise EncodingDomainError(f"log_binomial requires 0 <= k <= n, got n={n} k={k}")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    if n <= _EXACT_BINOMIAL_MAX_N:
        return math.log2(math.comb(n, k))
    if k <= 256:
        # a left fold in a fixed order, not sum(), which compensates from Python 3.12
        bits = 0.0
        for i in range(k):
            bits += math.log2(n - i)
        return bits - math.lgamma(k + 1) / _LN2
    # Stirling with the 1/12 correction, arranged so no n-sized terms cancel
    # (k <= n/2 after the symmetry swap, so log1p stays well-conditioned)
    nk = n - k
    ln = k * math.log(n / k) - nk * math.log1p(-k / n)
    ln -= 0.5 * math.log(2.0 * math.pi * k * (nk / n))
    ln += (1.0 / n - 1.0 / k - 1.0 / nk) / 12.0
    return ln / _LN2


def rule_cost(rule: Rule, g: KnowledgeGraph) -> float:
    """Bits to transmit the rule itself: root labels, child count, children."""
    if not rule.root_labels:
        raise EncodingDomainError("rule root_labels must be nonempty")
    bits = math.log2(g.num_labels)
    for l in sorted(rule.root_labels):  # a fixed order, however the set was built
        n_l = g.n_label[l] if 0 <= l < g.num_labels else 0
        if n_l <= 0:
            raise EncodingDomainError(f"label id {l} has zero frequency")
        bits += math.log2(g.num_nodes) - math.log2(n_l)
    bits += universal_int(len(rule.children) + 1)
    for c in rule.children:
        n_p = g.n_pred[c.predicate] if 0 <= c.predicate < g.num_preds else 0
        if n_p <= 0:
            raise EncodingDomainError(f"predicate id {c.predicate} has zero frequency")
        bits += math.log2(g.num_edges) - math.log2(n_p)  # prefix code for the predicate
        bits += 1.0  # direction
        bits += rule_cost(c.child, g)
    return bits


def assertion_overhead(num_assertions: int, num_exceptions: int) -> float:
    """Exception count and exception ids, chosen among the assertions."""
    if num_assertions < 1:
        raise EncodingDomainError("a rule with zero assertions cannot be encoded")
    return math.log2(num_assertions) + log_binomial(num_assertions, num_exceptions)


def assertions_cost(aset: AssertionSet, g: KnowledgeGraph) -> float:
    """Bits for a rule's assertions: the exception partition plus every
    correct traversal."""
    return assertion_overhead(aset.num_assertions, len(aset.exception_starts)) + aset.traversal_bits


def error_cost_counts(
    g: KnowledgeGraph, num_modeled_labels: int, num_modeled_edges: int
) -> float:
    """Error bits from coverage counts alone (positions of the unexplained 1s)."""
    rem_labels = g.num_label_assignments - num_modeled_labels
    rem_edges = g.num_distinct_edges - num_modeled_edges
    if rem_labels < 0 or rem_edges < 0:
        raise EncodingDomainError("modeled counts exceed graph totals")
    return log_binomial(g.universe_labels - num_modeled_labels, rem_labels) + log_binomial(
        g.universe_edges - num_modeled_edges, rem_edges
    )


def model_constant(g: KnowledgeGraph) -> float:
    """Upper bound on the rule count; identical across models of one graph."""
    return math.log2(2 * g.num_labels * g.num_labels * g.num_preds + 1)

