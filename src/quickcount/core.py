"""Election instances, partial vote assignments, and winner certificates.

An election has n voters and d candidates.  Voter i votes for candidate j
with probability p[i][j-1], independently of all other voters, and reading
that vote off the ballot costs c[i].  Candidates are numbered 1..d
everywhere in the public API; outcome 0 means "no winner".  Voters are
numbered 0..n-1 internally; file formats and the CLI use 1-based voter ids.

Two winner rules are supported:

* absolute majority: candidate j wins iff N_j >= floor(n/2) + 1,
* relative majority: candidate j wins iff N_j > N_k for every k != j,

where N_j is candidate j's final tally.  A partial assignment records the
votes inspected so far; a certificate is a partial assignment that forces
the same outcome in every completion.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

UNKNOWN = None

# Outcomes are plain ints in 0..d (0 = no winner / tie).
Outcome = int

OBJECTIVES = ("abs", "rel")


class InstanceError(ValueError):
    """Raised when an instance file or constructor argument is invalid."""


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def majority_threshold(n: int) -> int:
    """Votes needed for an absolute majority: floor(n/2) + 1."""
    return n // 2 + 1


def blocking_threshold(n: int) -> int:
    """Votes against a candidate that rule them out: ceil(n/2)."""
    return (n + 1) // 2


@dataclass(frozen=True)
class Instance:
    """A vote-inspection instance.

    probs rows are validated to lie strictly inside (0, 1) and to sum to 1
    within 1e-9, then normalized exactly; degenerate 0/1 probabilities are
    rejected rather than clamped.
    """

    n: int
    d: int
    costs: tuple[float, ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InstanceError(f"n: must be >= 1, got {self.n}")
        if self.d < 2:
            raise InstanceError(f"d: must be >= 2, got {self.d}")
        costs = tuple(float(c) for c in self.costs)
        if len(costs) != self.n:
            raise InstanceError(f"costs: expected {self.n} entries, got {len(costs)}")
        for i, c in enumerate(costs):
            if not (c >= 0.0) or math.isinf(c) or math.isnan(c):
                raise InstanceError(f"costs[{i}]: must be a non-negative real, got {c!r}")
        if len(self.probs) != self.n:
            raise InstanceError(f"probs: expected {self.n} rows, got {len(self.probs)}")
        rows = []
        for i, row in enumerate(self.probs):
            row = tuple(float(p) for p in row)
            if len(row) != self.d:
                raise InstanceError(f"probs[{i}]: expected {self.d} entries, got {len(row)}")
            for j, p in enumerate(row):
                if not (0.0 < p < 1.0):
                    raise InstanceError(f"probs[{i}][{j}]: must lie in (0, 1), got {p!r}")
            s = sum(row)
            if abs(s - 1.0) > 1e-9:
                raise InstanceError(f"probs[{i}]: row sums to {s!r}, not 1 within 1e-9")
            rows.append(tuple(p / s for p in row))
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
        return cls(n=obj["n"], d=obj["d"], costs=tuple(obj["costs"]),
                   probs=tuple(tuple(row) for row in obj["probs"]))

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


class PartialAssignment:
    """Vote values revealed so far, with cached per-candidate tallies.

    entries[i] is the candidate voter i voted for (1..d) or None while the
    vote is uninspected.  Tallies are updated incrementally by reveal();
    audit_tallies() recomputes them from scratch for consistency checks.
    """

    __slots__ = ("n", "d", "entries", "tallies", "unknown_count")

    def __init__(self, n: int, d: int,
                 entries: Optional[Sequence[Optional[int]]] = None) -> None:
        if d < 2:
            raise ValueError("d must be >= 2")
        self.n = n
        self.d = d
        if entries is None:
            self.entries: list[Optional[int]] = [UNKNOWN] * n
            self.tallies = [0] * d
            self.unknown_count = n
        else:
            if len(entries) != n:
                raise ValueError(f"expected {n} entries, got {len(entries)}")
            self.entries = list(entries)
            self.tallies = [0] * d
            self.unknown_count = 0
            for v in self.entries:
                if v is UNKNOWN:
                    self.unknown_count += 1
                elif 1 <= v <= d:
                    self.tallies[v - 1] += 1
                else:
                    raise ValueError(f"vote value {v!r} outside 1..{d}")

    @classmethod
    def empty(cls, n: int, d: int) -> "PartialAssignment":
        return cls(n, d)

    @classmethod
    def from_entries(cls, entries: Sequence[Optional[int]], d: int) -> "PartialAssignment":
        return cls(len(entries), d, entries)

    def copy(self) -> "PartialAssignment":
        dup = PartialAssignment.__new__(PartialAssignment)
        dup.n = self.n
        dup.d = self.d
        dup.entries = list(self.entries)
        dup.tallies = list(self.tallies)
        dup.unknown_count = self.unknown_count
        return dup

    def reveal(self, voter: int, value: int) -> None:
        if self.entries[voter] is not UNKNOWN:
            raise ValueError(f"voter {voter} already inspected")
        if not 1 <= value <= self.d:
            raise ValueError(f"vote value {value!r} outside 1..{self.d}")
        self.entries[voter] = value
        self.tallies[value - 1] += 1
        self.unknown_count -= 1

    def count(self, candidate: int) -> int:
        """N_j: inspected votes for the given candidate."""
        return self.tallies[candidate - 1]

    @property
    def tested_count(self) -> int:
        return self.n - self.unknown_count

    def is_full(self) -> bool:
        return self.unknown_count == 0

    def unknown_voters(self) -> Iterator[int]:
        return (i for i, v in enumerate(self.entries) if v is UNKNOWN)

    def audit_tallies(self) -> bool:
        """Recompute tallies from entries and compare with the cache."""
        fresh = [0] * self.d
        unknown = 0
        for v in self.entries:
            if v is UNKNOWN:
                unknown += 1
            else:
                fresh[v - 1] += 1
        return fresh == self.tallies and unknown == self.unknown_count

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PartialAssignment)
                and self.d == other.d and self.entries == other.entries)

    def __repr__(self) -> str:
        body = ",".join("*" if v is UNKNOWN else str(v) for v in self.entries)
        return f"PartialAssignment({body})"


def _require_full(x: Sequence[Optional[int]]) -> None:
    for i, v in enumerate(x):
        if v is UNKNOWN:
            raise ValueError(f"entry {i} is UNKNOWN; a full assignment is required")


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
    need = majority_threshold(n)
    tested = n - unknown
    best = -1
    arg = 0
    for j, t in enumerate(tallies, start=1):
        if t > best:
            best, arg = t, j
    if best >= need:
        return arg
    # Everyone blocked iff even the front-runner has ceil(n/2) votes against.
    if tested - best >= blocking_threshold(n):
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


def abs_certificate(b: PartialAssignment) -> Optional[Outcome]:
    """Absolute-majority certificate of a partial assignment, if any."""
    return abs_certificate_from_tallies(b.tallies, b.unknown_count, b.n)


def rel_certificate(b: PartialAssignment) -> Optional[Outcome]:
    """Relative-majority certificate of a partial assignment, if any."""
    return rel_certificate_from_tallies(b.tallies, b.unknown_count, b.n)


# The certificate of each objective, as a function of (tallies, unknown, n).
CERTIFICATES = {"abs": abs_certificate_from_tallies,
                "rel": rel_certificate_from_tallies}


def certificate(b: PartialAssignment, objective: str) -> Optional[Outcome]:
    _check_objective(objective)
    return CERTIFICATES[objective](b.tallies, b.unknown_count, b.n)


def viable_from_tallies(tallies: Sequence[int], unknown: int, n: int,
                        objective: str) -> set[int]:
    _check_objective(objective)
    if objective == "abs":
        need = majority_threshold(n)
        return {j for j, t in enumerate(tallies, start=1) if t + unknown >= need}
    first, second = _top_two(tallies)
    viable = set()
    for j, t in enumerate(tallies, start=1):
        rival = second if t == first else first
        if t + unknown > rival:
            viable.add(j)
    return viable


def viable_candidates(b: PartialAssignment, objective: str) -> set[int]:
    """Candidates that win in at least one completion of b.

    abs: j with N_j + N_* >= floor(n/2)+1.  rel: j with N_j + N_* > N_k for
    all k != j (strictly; ties at the top do not count as winning).
    """
    return viable_from_tallies(b.tallies, b.unknown_count, b.n, objective)


def toppers_from_tallies(tallies: Sequence[int], unknown: int) -> set[int]:
    first, second = _top_two(tallies)
    out = set()
    for j, t in enumerate(tallies, start=1):
        rival = second if t == first else first
        if t + unknown >= rival:
            out.add(j)
    return out


def possible_toppers(b: PartialAssignment) -> set[int]:
    """Candidates that can still reach the top of the relative-majority count.

    Unlike viable_candidates(b, "rel") this includes candidates that can at
    best tie for the lead.  A candidate outside this set finishes strictly
    below the winner's tally in every completion, so once at most two
    toppers remain the election outcome is a function of those two alone.
    """
    return toppers_from_tallies(b.tallies, b.unknown_count)


def phase1_stop_from_tallies(tallies: Sequence[int], unknown: int, n: int,
                             objective: str) -> bool:
    """True once at most two candidates remain in contention: viable ones
    for abs, possible toppers for rel."""
    if objective == "abs":
        return len(viable_from_tallies(tallies, unknown, n, "abs")) <= 2
    return len(toppers_from_tallies(tallies, unknown)) <= 2


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
    """phase1_stop_from_tallies of every vector.

    A candidate is in contention while its tally plus the untested votes
    reaches a bar: the majority for abs; for rel the largest tally, which
    its holders reach and every other candidate must catch.  So at most
    two are in contention exactly when the third-largest tally falls
    short, as it always does with two candidates.
    """
    top = _largest(counts, 3)
    if len(top) < 3:
        return np.ones(np.broadcast(top[0], unknown).shape, dtype=bool)
    bar = majority_threshold(n) if objective == "abs" else top[0]
    return top[2] + np.asarray(unknown) < bar
