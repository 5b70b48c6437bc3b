"""Single-question testing kernels shared by the composed strategies.

The central rule is the Salloum-Breuer / Ben-Dov (SBB) strategy for k-of-n
functions: to decide whether at least k of the untested 0/1 variables are 1
(where z = untested - k + 1 zeros would refute), it is optimal to test a
variable lying in both the k cheapest by c/p and the z cheapest by c/(1-p).
Since k + z exceeds the number of untested variables by one, the two
prefixes intersect by pigeonhole.

Contents:

* _sbb_pick: one SBB choice over an untested mask; abs4's kernel runs the
  walk, one pick per state;
* support_order / refutation_order: a candidate's c/p and c/(1-p) orders;
* modified_round_robin: the cost-sensitive merge of Allen et al.;
* kofn_permutation_for / two_candidate_round_robin: that merge applied to
  the orders of one candidate or of two.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Instance


def _sbb_pick(k: int, z: int, order_cp: Sequence[int], order_cq: Sequence[int],
              mask: int) -> int:
    """Lowest-index voter inside both ratio prefixes (which must intersect),
    over the voters whose bit is set in the untested mask."""
    head = set()
    for v in order_cp:
        if mask >> v & 1:
            head.add(v)
            if len(head) == k:
                break
    best = -1
    seen = 0
    for v in order_cq:
        if mask >> v & 1:
            seen += 1
            if v in head and (best < 0 or v < best):
                best = v
            if seen == z:
                break
    if best < 0:
        raise AssertionError("ratio prefixes failed to intersect; k + z must be untested + 1")
    return best


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


def modified_round_robin(lists: Sequence[Sequence[int]], costs: Sequence[float],
                         dedup: bool = True) -> list[int]:
    """Cost-sensitive round-robin merge of testing orders (Allen et al.).

    Each list keeps a spent-cost accumulator D; at every step the list
    minimizing D + (cost of its next element) contributes that element and
    is charged for it.  Ties break toward the lowest list index.  With
    dedup, later duplicates are removed so each voter appears once.
    """
    if not lists:
        raise ValueError("modified_round_robin requires at least one list")
    for li, lst in enumerate(lists):
        if len(set(lst)) != len(lst):
            raise ValueError(f"lists[{li}] contains duplicate voters")
    spent = [0.0] * len(lists)
    cursor = [0] * len(lists)
    pi: list[int] = []
    remaining = sum(len(lst) for lst in lists)
    while remaining:
        best_li = -1
        best_key = None
        for li, lst in enumerate(lists):
            if cursor[li] >= len(lst):
                continue
            key = spent[li] + costs[lst[cursor[li]]]
            if best_key is None or key < best_key:
                best_key, best_li = key, li
        v = lists[best_li][cursor[best_li]]
        pi.append(v)
        spent[best_li] += costs[v]
        cursor[best_li] += 1
        remaining -= 1
    if not dedup:
        return pi
    seen: set[int] = set()
    out = []
    for v in pi:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _restrict(order: Iterable[int], keep: set[int]) -> list[int]:
    return [v for v in order if v in keep]


def kofn_permutation_for(instance: Instance, untested: Iterable[int],
                         target: int) -> list[int]:
    """Round-robin of the support and refutation orders for one candidate."""
    keep = set(untested)
    lists = [_restrict(support_order(instance, target), keep),
             _restrict(refutation_order(instance, target), keep)]
    return modified_round_robin(lists, instance.costs)


def two_candidate_round_robin(instance: Instance, untested: Iterable[int],
                              alpha: int, beta: int) -> list[int]:
    """Round-robin over the four support/refutation orders of two candidates."""
    keep = set(untested)
    lists = [_restrict(support_order(instance, alpha), keep),
             _restrict(refutation_order(instance, alpha), keep),
             _restrict(support_order(instance, beta), keep),
             _restrict(refutation_order(instance, beta), keep)]
    return modified_round_robin(lists, instance.costs)
