"""Single-question testing kernels shared by the composed strategies.

The central rule is the Salloum-Breuer / Ben-Dov (SBB) strategy for k-of-n
functions: to decide whether at least k of the untested 0/1 variables are 1
(where z = untested - k + 1 zeros would refute), it is optimal to test a
variable lying in both the k cheapest by c/p and the z cheapest by c/(1-p).
Since k + z exceeds the number of untested variables by one, the two
prefixes intersect by pigeonhole.

Contents:

* prefix_masks / _sbb_pick: one SBB choice over an untested mask, found
  by binary searches over the prefix bitmasks of both ratio orders, which
  abs4 builds once per target; abs4's kernel runs the walk, one pick per
  state;
* support_order / refutation_order: a candidate's c/p and c/(1-p) orders;
* modified_round_robin: the cost-sensitive merge of Allen et al.;
* kofn_permutation_for / two_candidate_round_robin: that merge applied to
  the orders of one candidate or of two, each restricted to the voters
  untested in a mask; the orders come sorted from the caller, which sorts
  each candidate's once.
"""

from __future__ import annotations

from typing import Sequence

from .core import Instance


def prefix_masks(order: Sequence[int]) -> list[int]:
    """prefix[i]: the bitmask of the first i voters of order, for i = 0..len."""
    prefix = [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << v)
    return prefix


def _shortest_prefix(prefix: Sequence[int], mask: int, count: int) -> int:
    """The untested voters of the shortest prefix holding count of them."""
    lo, hi = 1, len(prefix) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (prefix[mid] & mask).bit_count() < count:
            lo = mid + 1
        else:
            hi = mid
    return prefix[lo] & mask


def _sbb_pick(k: int, z: int, prefix_cp: Sequence[int], prefix_cq: Sequence[int],
              mask: int) -> int:
    """Lowest-index voter inside both ratio prefixes, over the voters whose
    bit is set in the untested mask.

    prefix_cp and prefix_cq are the prefix_masks of the c/p and c/(1-p)
    orders.  The k-prefix is the first k untested voters by c/p, found by a
    binary search for the shortest prefix mask holding k of them; likewise
    the z-prefix by c/(1-p).  The pick is the lowest set bit of their AND,
    which is never empty: k + z = untested + 1, so they intersect by
    pigeonhole.  ValueError unless k, z >= 1 and k + z = untested + 1.
    """
    untested = mask.bit_count()
    if k < 1 or z < 1 or k + z != untested + 1:
        raise ValueError(f"k={k}, z={z}: k + z must be untested + 1 = "
                         f"{untested + 1}, both at least 1")
    both = _shortest_prefix(prefix_cp, mask, k) & _shortest_prefix(prefix_cq, mask, z)
    return (both & -both).bit_length() - 1


def support_order(instance: Instance, candidate: int) -> list[int]:
    """All voters in increasing c_i / p_{i,candidate}, index tie-break."""
    j = candidate - 1
    return sorted(range(instance.n),
                  key=lambda v: (instance.costs[v] / instance.probs[v][j], v))


def refutation_order(instance: Instance, candidate: int) -> list[int]:
    """All voters in increasing c_i / (1 - p_{i,candidate}), index tie-break."""
    j = candidate - 1
    return sorted(range(instance.n),
                  key=lambda v: (instance.costs[v] / (1.0 - instance.probs[v][j]), v))


def modified_round_robin(lists: Sequence[Sequence[int]],
                         costs: Sequence[float]) -> list[int]:
    """Cost-sensitive round-robin merge of testing orders (Allen et al.).

    Each list keeps a spent-cost accumulator D; at every step the list
    minimizing D + (cost of its next element) contributes that element and
    is charged for it.  Ties break toward the lowest list index.  Later
    duplicates are removed, so each voter appears once.
    """
    if not lists:
        raise ValueError("modified_round_robin requires at least one list")
    for li, lst in enumerate(lists):
        if len(set(lst)) != len(lst):
            raise ValueError(f"lists[{li}] contains duplicate voters")
    spent = [0.0] * len(lists)
    cursor = [0] * len(lists)
    pi: list[int] = []
    seen: set[int] = set()
    # The merge is complete once every distinct voter is placed: later
    # steps would only emit duplicates.
    size = len(set().union(*lists))
    while len(pi) < size:
        best_li = -1
        best_key = None
        for li, lst in enumerate(lists):
            if cursor[li] >= len(lst):
                continue
            key = spent[li] + costs[lst[cursor[li]]]
            if best_key is None or key < best_key:
                best_key, best_li = key, li
        v = lists[best_li][cursor[best_li]]
        spent[best_li] += costs[v]
        cursor[best_li] += 1
        if v not in seen:
            seen.add(v)
            pi.append(v)
    return pi


def _restrict(order: Sequence[int], mask: int) -> list[int]:
    return [v for v in order if mask >> v & 1]


def kofn_permutation_for(costs: Sequence[float], mask: int,
                         orders: Sequence[Sequence[int]]) -> list[int]:
    """Round-robin of one candidate's (support, refutation) orders over the
    voters untested in mask."""
    return modified_round_robin([_restrict(order, mask) for order in orders], costs)


def two_candidate_round_robin(costs: Sequence[float], mask: int,
                              alpha_orders: Sequence[Sequence[int]],
                              beta_orders: Sequence[Sequence[int]]) -> list[int]:
    """Round-robin over the four (support, refutation) orders of two
    candidates, over the voters untested in mask."""
    return modified_round_robin(
        [_restrict(order, mask) for order in (*alpha_orders, *beta_orders)], costs)
