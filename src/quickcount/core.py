"""Election instances, winner rules, and winner certificates.

An election has n voters and d candidates.  Voter i votes for candidate j
with probability p[i][j-1], independently of all other voters, and reading
that vote off the ballot costs c[i].  Candidates are numbered 1..d
everywhere in the public API; outcome 0 means "no winner".  Voters are
numbered 0..n-1 internally; file formats and the CLI use 1-based voter ids.

Two winner rules are supported:

* absolute majority: candidate j wins iff N_j >= floor(n/2) + 1,
* relative majority: candidate j wins iff N_j > N_k for every k != j,

where N_j is candidate j's final tally.  The votes inspected so far are
summed up by their tallies, tallies[j-1] of them for candidate j, and the
number of votes still unknown: the (tallies, unknown) slots of every
strategy state.  Every certificate and contention rule here reads only
these, with n.  A certificate is the outcome that the tallies force in
every completion of the unknown votes.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Outcomes are plain ints in 0..d (0 = no winner / tie).
Outcome = int

OBJECTIVES = ("abs", "rel")


class InstanceError(ValueError):
    """Raised when an instance file or constructor argument is invalid."""


def _check_objective(objective: str) -> None:
    """ValueError unless objective names a winner rule."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def majority_threshold(n: int) -> int:
    """Votes needed for an absolute majority: floor(n/2) + 1."""
    return n // 2 + 1


def blocking_threshold(n: int) -> int:
    """Votes against a candidate that rule them out: ceil(n/2)."""
    return (n + 1) // 2


def _integer(field: str, value) -> int:
    """value as an int; InstanceError naming the field unless it is an
    integer (operator.index) other than a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InstanceError(f"{field}: expected an integer, got {value!r}")


def _numbers(field: str, values) -> tuple[float, ...]:
    """values as floats; InstanceError naming the field unless they are a
    list or tuple of real numbers other than bools."""
    if not isinstance(values, (list, tuple)):
        raise InstanceError(f"{field}: expected a list of numbers, got {values!r}")
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise InstanceError(f"{field}[{i}]: expected a number, got {x!r}")
    return tuple(float(x) for x in values)


@dataclass(frozen=True)
class Instance:
    """A vote-inspection instance.

    n and d must be integers, and costs and each probs row lists or tuples
    of real numbers (bools are none of these); a value of the wrong type
    raises InstanceError naming its field.  probs rows are validated to lie
    strictly inside (0, 1) and to sum to 1 within 1e-9, then normalized
    exactly; degenerate 0/1 probabilities are rejected rather than clamped.
    """

    n: int
    d: int
    costs: tuple[float, ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = _integer("n", self.n)
        d = _integer("d", self.d)
        if n < 1:
            raise InstanceError(f"n: must be >= 1, got {n}")
        if d < 2:
            raise InstanceError(f"d: must be >= 2, got {d}")
        costs = _numbers("costs", self.costs)
        if len(costs) != n:
            raise InstanceError(f"costs: expected {n} entries, got {len(costs)}")
        for i, c in enumerate(costs):
            if not (c >= 0.0) or math.isinf(c) or math.isnan(c):
                raise InstanceError(f"costs[{i}]: must be a non-negative real, got {c!r}")
        if not isinstance(self.probs, (list, tuple)):
            raise InstanceError(f"probs: expected a list of rows, got {self.probs!r}")
        if len(self.probs) != n:
            raise InstanceError(f"probs: expected {n} rows, got {len(self.probs)}")
        rows = []
        for i, row in enumerate(self.probs):
            row = _numbers(f"probs[{i}]", row)
            if len(row) != d:
                raise InstanceError(f"probs[{i}]: expected {d} entries, got {len(row)}")
            for j, p in enumerate(row):
                if not (0.0 < p < 1.0):
                    raise InstanceError(f"probs[{i}][{j}]: must lie in (0, 1), got {p!r}")
            s = sum(row)
            if abs(s - 1.0) > 1e-9:
                raise InstanceError(f"probs[{i}]: row sums to {s!r}, not 1 within 1e-9")
            rows.append(tuple(p / s for p in row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "probs", tuple(rows))

    @classmethod
    def loads(cls, text: str) -> "Instance":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InstanceError("top level: expected a JSON object")
        for key in ("n", "d", "costs", "probs"):
            if key not in obj:
                raise InstanceError(f"{key}: missing required field")
        return cls(n=obj["n"], d=obj["d"], costs=obj["costs"], probs=obj["probs"])

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.loads(text)
        except InstanceError as exc:
            raise InstanceError(f"{path}: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps({"n": self.n, "d": self.d, "costs": list(self.costs),
                           "probs": [list(row) for row in self.probs]})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")


def _require_full(x: Sequence[Optional[int]]) -> None:
    for i, v in enumerate(x):
        if v is None:
            raise ValueError(f"entry {i} is unknown; a full assignment is required")


def _tallies_of(x: Sequence[int], d: int) -> list[int]:
    tallies = [0] * d
    for v in x:
        if not 1 <= v <= d:
            raise ValueError(f"vote value {v!r} outside 1..{d}")
        tallies[v - 1] += 1
    return tallies


def abs_majority(x: Sequence[int], d: int) -> Outcome:
    """Absolute-majority winner of a full assignment, or 0 if none."""
    _require_full(x)
    tallies = _tallies_of(x, d)
    need = majority_threshold(len(x))
    for j, t in enumerate(tallies, start=1):
        if t >= need:
            return j
    return 0


def rel_majority(x: Sequence[int], d: int) -> Outcome:
    """Relative-majority winner of a full assignment, or 0 on a shared maximum."""
    _require_full(x)
    tallies = _tallies_of(x, d)
    best = max(tallies)
    leaders = [j for j, t in enumerate(tallies, start=1) if t == best]
    return leaders[0] if len(leaders) == 1 else 0


def _top_two(tallies: Sequence[int]) -> tuple[int, int]:
    """Largest and second-largest tally values (the two may coincide)."""
    first = second = -1
    for t in tallies:
        if t > first:
            first, second = t, first
        elif t > second:
            second = t
    return first, second


def abs_certificate_from_tallies(tallies: Sequence[int], unknown: int,
                                 n: int) -> Optional[Outcome]:
    """Outcome forced by the tallies under the absolute-majority rule.

    Returns j once candidate j holds floor(n/2)+1 votes, 0 once every
    candidate has at least ceil(n/2) votes against them, and None while the
    outcome still depends on uninspected votes.
    """
    best = max(tallies)
    if best >= majority_threshold(n):
        return tallies.index(best) + 1
    # Everyone blocked iff even the front-runner has ceil(n/2) votes against.
    if n - unknown - best >= blocking_threshold(n):
        return 0
    return None


def rel_certificate_from_tallies(tallies: Sequence[int], unknown: int,
                                 n: int) -> Optional[Outcome]:
    """Outcome forced by the tallies under the relative-majority rule.

    Returns j once N_j exceeds N_k plus the number of uninspected votes for
    every rival k.  Returns 0 only on a full assignment whose maximum tally
    is shared; short of full inspection a tie can always still be broken.
    """
    first, second = _top_two(tallies)
    if first > second + unknown:
        for j, t in enumerate(tallies, start=1):
            if t == first:
                return j
    if unknown == 0:
        return 0
    return None


# The certificate of each objective, as a function of (tallies, unknown, n).
CERTIFICATES = {"abs": abs_certificate_from_tallies,
                "rel": rel_certificate_from_tallies}


def phase1_stop_from_tallies(tallies: Sequence[int], unknown: int, n: int,
                             objective: str) -> bool:
    """True once at most two candidates remain in contention.  A candidate
    is in contention while its tally plus the untested votes reaches a bar:
    for abs the majority, so it can still win; for rel the largest tally,
    which its holders reach and every other candidate must catch, so it can
    still win or tie for the lead.  So at most two are in contention
    exactly when the third-largest tally falls short, as it always does
    with two candidates."""
    if len(tallies) < 3:
        return True
    top = sorted(tallies, reverse=True)
    bar = majority_threshold(n) if objective == "abs" else top[0]
    return top[2] + unknown < bar


# Array forms of the tallies rules.  counts[j - 1] holds candidate j's
# tally in every one of many tallies vectors (an integer array over the
# vectors, so counts has the candidates on its first axis), and unknown
# holds each vector's untested count, broadcast against counts[0].  Each
# form answers, vector by vector, the yes-or-no question its scalar rule
# above answers, through the few largest tallies of each vector: maxima,
# minima and comparisons, a few elementwise numpy calls per candidate
# with no data-dependent selection.  The scalar rules stay, since they
# serve one state at a time, and they alone name the outcome.

def _largest(counts, k: int) -> list:
    """The min(k, d) largest tallies of every vector, largest first,
    counted with multiplicity: each candidate's tally is inserted in turn,
    and every place keeps the larger value and passes the smaller on."""
    top = [counts[0]]
    for t in counts[1:]:
        for i, kept in enumerate(top):
            top[i], t = np.maximum(kept, t), np.minimum(kept, t)
        if len(top) < k:
            top.append(t)
    return top


def abs_certified_array(counts, unknown, n: int) -> np.ndarray:
    """Where abs_certificate_from_tallies is not None: the largest tally
    holds a majority, or has ceil(n/2) votes against it."""
    best, = _largest(counts, 1)
    tested = n - np.asarray(unknown)
    return (best >= majority_threshold(n)) | (tested - best >= blocking_threshold(n))


def rel_certified_array(counts, unknown, n: int) -> np.ndarray:
    """Where rel_certificate_from_tallies is not None: the largest tally is
    out of the second's reach, or no vote is left."""
    unknown = np.asarray(unknown)
    first, second = _largest(counts, 2)
    return (first > second + unknown) | (unknown == 0)


# Whether the tallies hold a certificate, for each objective, over count
# arrays.
CERTIFIED_ARRAYS = {"abs": abs_certified_array,
                    "rel": rel_certified_array}


def phase1_stop_array(counts, unknown, n: int, objective: str) -> np.ndarray:
    """phase1_stop_from_tallies of every vector, by the same criterion:
    the third-largest tally plus the untested votes falls short of the
    bar, as it always does with two candidates."""
    top = _largest(counts, 3)
    if len(top) < 3:
        return np.ones(np.broadcast(top[0], unknown).shape, dtype=bool)
    bar = majority_threshold(n) if objective == "abs" else top[0]
    return top[2] + np.asarray(unknown) < bar


def refuted_array(counts, unknown, n: int, candidate) -> np.ndarray:
    """Where a candidate has ceil(n/2) votes against it, so it can no
    longer reach a majority (strategies.Abs4's z <= 0 for it).

    counts is an array whose last axis runs over the vectors, and
    candidate, one per vector along that axis, names the candidate, 1..d,
    or is 0 for none, which is never refuted."""
    candidate = np.asarray(candidate)
    own = np.moveaxis(counts[candidate - 1, ..., np.arange(len(candidate))], 0, -1)
    tested = n - np.asarray(unknown)
    return (candidate > 0) & (tested - own >= blocking_threshold(n))
