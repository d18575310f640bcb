"""Skew-symmetric matrices of polynomials: Pfaffians and sub-Pfaffians."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .errors import InvalidInput
from .poly import ExactPolynomial, PolyRing


class SkewMatrix:
    """Antisymmetric matrix; only entries above the diagonal are stored."""

    def __init__(self, ring: PolyRing, size: int,
                 upper: dict[tuple[int, int], ExactPolynomial]):
        self.ring = ring
        self.size = size
        self.upper = {}
        for (i, j), p in upper.items():
            if not (0 <= i < j < size):
                raise InvalidInput(f"bad upper index {(i, j)}")
            if not p.is_zero():
                self.upper[(i, j)] = p

    @staticmethod
    def from_upper_rows(ring: PolyRing, rows: Sequence[Sequence]) -> "SkewMatrix":
        """Build from the rows above the diagonal: rows[i] lists entries (i, i+1..n-1).

        Entries may be polynomials or parseable strings.
        """
        size = len(rows) + 1
        upper = {}
        for i, row in enumerate(rows):
            if len(row) != size - 1 - i:
                raise InvalidInput(f"row {i} should have {size - 1 - i} entries")
            for k, entry in enumerate(row):
                j = i + 1 + k
                p = entry if isinstance(entry, ExactPolynomial) else ring.parse(entry)
                upper[(i, j)] = p
        return SkewMatrix(ring, size, upper)

    def entry(self, i: int, j: int) -> ExactPolynomial:
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.upper.get((i, j), self.ring.zero())
        return -self.upper.get((j, i), self.ring.zero())

    def _pf(self, indices: tuple[int, ...]) -> ExactPolynomial:
        if not indices:
            return self.ring.one()
        if len(indices) == 2:
            return self.entry(indices[0], indices[1])
        first, rest = indices[0], indices[1:]
        result = self.ring.zero()
        for pos, j in enumerate(rest):
            a = self.entry(first, j)
            if not a.is_zero():
                sign = 1 if pos % 2 == 0 else -1
                result = result + a * self._pf(rest[:pos] + rest[pos + 1:]) * sign
        return result

    def sub_pfaffians(self, k: int) -> list[tuple[tuple[int, ...], ExactPolynomial]]:
        """All principal k x k Pfaffians, indexed by the selected row set."""
        return [(subset, self.ring.zero() if k % 2 else self._pf(subset))
                for subset in combinations(range(self.size), k)]

    def multiply_vector(self, vector: Sequence[ExactPolynomial]) -> list[ExactPolynomial]:
        if len(vector) != self.size:
            raise InvalidInput("vector length mismatch")
        return [
            sum((self.entry(i, j) * vector[j] for j in range(self.size)), self.ring.zero())
            for i in range(self.size)
        ]
