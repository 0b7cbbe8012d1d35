"""Enumeration of embedding strata: multiplicity families, stabilizers, orbit dims.

A conjugacy class of embedded SU(2) subgroups of U(N) is a finite-support
multiplicity family m_d (spin label d contributes blocks of size d + 1)
with sum m_d (d + 1) = N; it is faithful iff some odd d occurs, its
stabilizer is prod_d U(m_d), and its orbit has dimension N^2 - sum m_d^2.
Families are in bijection with integer partitions of N (part size s maps
to label d = s - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput

#: Largest n that ``enumerate_families`` and ``enumerate_strata`` take: they
#: list every partition of n, 8,349 at 32 (about 0.35 s and 0.9 MB of JSON
#: from ``twolevel strata``) and 966,467 at 60.
STRATA_MAX_DIM = 32


@dataclass(frozen=True)
class MultiplicityFamily:
    """Finite-support map d -> m_d, stored as a sorted tuple of (d, m_d) pairs."""

    mults: tuple

    def __post_init__(self):
        items = []
        for d, m in dict(self.mults).items():
            d, m = int(d), int(m)
            if d < 0 or m < 0:
                raise InvalidInput(f"negative spin label or multiplicity: ({d}, {m})")
            if m > 0:
                items.append((d, m))
        object.__setattr__(self, "mults", tuple(sorted(items, reverse=True)))

    @classmethod
    def from_parts(cls, parts) -> "MultiplicityFamily":
        """Build from partition parts: a part of size s contributes to m_{s-1}."""
        counts: dict[int, int] = {}
        for s in parts:
            counts[s - 1] = counts.get(s - 1, 0) + 1
        return cls(tuple(counts.items()))

    def total_dim(self) -> int:
        return sum(m * (d + 1) for d, m in self.mults)

    def parts(self) -> tuple:
        """Partition view: part sizes d + 1, each repeated m_d times, descending."""
        out = []
        for d, m in self.mults:
            out.extend([d + 1] * m)
        return tuple(out)

    def to_json(self) -> dict:
        return {str(d): m for d, m in self.mults}


@dataclass(frozen=True)
class StratumInfo:
    """One stratum: family, faithfulness, stabilizer U(m_d) factors, orbit dimension."""

    family: MultiplicityFamily
    faithful: bool
    stabilizer_factors: tuple
    orbit_dim: int

    def to_json(self) -> dict:
        return {
            "mults": self.family.to_json(),
            "faithful": bool(self.faithful),
            "stabilizer": [int(m) for m in self.stabilizer_factors],
            "orbit_dim": int(self.orbit_dim),
        }


def _partitions(n: int, max_part: int):
    """Integer partitions of n with parts <= max_part, descending-lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_families(n: int) -> list[MultiplicityFamily]:
    """All multiplicity families with total dimension n, in partition order."""
    if not 1 <= n <= STRATA_MAX_DIM:
        raise InvalidInput(f"dimension must lie in [1, {STRATA_MAX_DIM}], got {n}")
    return [MultiplicityFamily.from_parts(p) for p in _partitions(n, n)]


def is_faithful(family: MultiplicityFamily) -> bool:
    """Parity criterion: faithful iff some odd spin label occurs."""
    return any(d % 2 == 1 for d, m in family.mults if m > 0)


def stratum_info(family: MultiplicityFamily, n: int) -> StratumInfo:
    """Stabilizer factors and orbit dimension N^2 - sum m_d^2 for a family."""
    if family.total_dim() != n:
        raise InvalidInput(f"family has total dimension {family.total_dim()}, expected {n}")
    stab = tuple(m for _, m in family.mults)
    orbit = n * n - sum(m * m for m in stab)
    return StratumInfo(family, is_faithful(family), stab, orbit)


def sort_strata(infos) -> list[StratumInfo]:
    """Strata by decreasing orbit dimension, ties broken by the lexicographic
    partition view of the family."""
    return sorted(infos, key=lambda s: (-s.orbit_dim, s.family.parts()))


def enumerate_strata(n: int) -> list[StratumInfo]:
    """All faithful strata at dimension n <= STRATA_MAX_DIM, in ``sort_strata`` order."""
    if n < 2:
        raise InvalidInput(f"SU(2) has no faithful representation in dimension {n}")
    return sort_strata(stratum_info(f, n) for f in enumerate_families(n) if is_faithful(f))


def two_level_stratum_dim(n: int) -> int:
    """Dimension 4N - 5 of the two-level stratum (m_1 = 1, m_0 = N - 2)."""
    if n < 3:
        raise InvalidInput(f"two-level stratum needs dim >= 3, got {n}")
    value = 4 * n - 5
    check = stratum_info(MultiplicityFamily(((1, 1), (0, n - 2))), n).orbit_dim
    if value != check:
        raise RuntimeError(f"two-level dimension mismatch: {value} vs {check}")
    return value
