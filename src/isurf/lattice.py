"""Integer linear algebra and lattice cones.

Hermite normal form with transformation, saturated kernel bases with a
deterministic sign convention, Gale-dual ray generators for grading
matrices, and Hilbert bases of pointed rational cones: the lattice points of
the box spanned by the extreme rays, less the decomposable ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidInput, NotPointed, RankDeficient

Vec = tuple[int, ...]


@dataclass(frozen=True)
class IntegerMatrix:
    rows: tuple[Vec, ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in r) for r in self.rows))

    @staticmethod
    def of(rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix.of(zip(*self.rows)) if self.rows else IntegerMatrix(())

    def mul_vec(self, v: Sequence[int]) -> Vec:
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rank(self) -> int:
        h, _ = hermite_normal_form(self)
        return sum(1 for row in h.rows if any(row))


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row HNF: returns (H, U) with U unimodular, U*M = H.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are swept to the bottom.
    """
    rows = [list(r) for r in m.rows]
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if not rows:
        return IntegerMatrix(()), IntegerMatrix(())
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= n:
            break
        # euclidean elimination below pivot_row in this column
        while True:
            nonzero = [i for i in range(pivot_row, n) if rows[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[i_min] = rows[i_min], rows[pivot_row]
            u[pivot_row], u[i_min] = u[i_min], u[pivot_row]
            p = rows[pivot_row][col]
            finished = True
            for i in range(pivot_row + 1, n):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
                    if rows[i][col] != 0:
                        finished = False
            if finished:
                break
        if rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-a for a in rows[pivot_row]]
                u[pivot_row] = [-a for a in u[pivot_row]]
            p = rows[pivot_row][col]
            for i in range(pivot_row):
                q = rows[i][col] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
            pivot_row += 1
    return IntegerMatrix.of(rows), IntegerMatrix.of(u)


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Rows form an HNF-canonical Z-basis of {v : A v = 0}; rows primitive."""
    if a.ncols == 0:
        return IntegerMatrix(())
    h, u = hermite_normal_form(a.transpose())
    kernel_rows = [u.rows[i] for i in range(h.nrows) if not any(h.rows[i])]
    if not kernel_rows:
        return IntegerMatrix(())
    canon, _ = hermite_normal_form(IntegerMatrix.of(kernel_rows))
    rows = [r for r in canon.rows if any(r)]
    return IntegerMatrix.of(rows)


def unimodular_normal_form(vectors: Sequence[Sequence[int]]) -> list[Vec]:
    """The vectors after the integral change of coordinates that maps the
    lexicographically first unimodular block among them to the standard basis.

    Two configurations differ by one unimodular transform exactly when their
    normal forms agree.  A square block is unimodular exactly when its
    Hermite normal form is the identity, and then U is its inverse.
    RankDeficient if no block is unimodular.
    """
    d = len(vectors[0])
    identity = IntegerMatrix.of([[int(i == j) for j in range(d)] for i in range(d)])
    for subset in combinations(range(len(vectors)), d):
        h, u = hermite_normal_form(IntegerMatrix.of([[vectors[i][k] for i in subset]
                                                     for k in range(d)]))
        if h == identity:
            return [u.mul_vec(v) for v in vectors]
    raise RankDeficient("no unimodular block among the vectors")


def gale_rays(weights: IntegerMatrix) -> list[Vec]:
    """Primitive ray generators dual to the grading matrix.

    Every grading row a satisfies sum_i a_i * v_i = 0.  The rays are the
    kernel columns in unimodular normal form.
    """
    n = weights.ncols
    r = weights.nrows
    if weights.rank() != r:
        raise RankDeficient("weight matrix does not have full row rank")
    basis = kernel_basis(weights)  # (n-r) x n
    d = basis.nrows
    if d != n - r:
        raise RankDeficient("kernel rank inconsistent with matrix rank")
    if d == 0:
        return [() for _ in range(n)]
    rays = unimodular_normal_form(basis.transpose().rows)
    for i, ray in enumerate(rays):
        g = 0
        for x in ray:
            g = gcd(g, x)
        if g not in (0, 1):
            raise InvalidInput(f"ray for column {i} is not primitive: {ray}")
    return rays


@dataclass(frozen=True)
class LatticeCone:
    """{v in Z^n : equations * v = 0, v_i >= 0 for i in nonneg}."""

    rank: int
    equations: IntegerMatrix
    nonneg: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.equations.rows and self.equations.ncols != self.rank:
            raise ValueError("equation width does not match rank")
        object.__setattr__(self, "nonneg", tuple(sorted(set(self.nonneg))))

    @staticmethod
    def nonnegative_solutions(equations: IntegerMatrix) -> "LatticeCone":
        n = equations.ncols
        return LatticeCone(n, equations, tuple(range(n)))

    @staticmethod
    def ray_preimage(mapping: IntegerMatrix, ray: Sequence[int]) -> "LatticeCone":
        """{v >= 0 : mapping*v proportional (nonnegatively) to ray}.

        Proportionality is encoded linearly: with p the first index where
        ray is nonzero, require ray[p]*(D_i v) - ray[i]*(D_p v) = 0 for all i
        and (D_i v) = 0 where ray[i] = 0.
        """
        ray = tuple(int(x) for x in ray)
        if len(ray) != mapping.nrows:
            raise ValueError("ray length does not match mapping rows")
        if not any(ray):
            raise ValueError("ray must be nonzero")
        p = next(i for i, x in enumerate(ray) if x)
        eqs = []
        for i in range(mapping.nrows):
            if i == p:
                continue
            row = tuple(ray[p] * a - ray[i] * b
                        for a, b in zip(mapping.rows[i], mapping.rows[p]))
            eqs.append(row)
        return LatticeCone.nonnegative_solutions(IntegerMatrix.of(eqs)) if eqs else \
            LatticeCone.nonnegative_solutions(IntegerMatrix(()))

    def contains(self, v: Sequence[int]) -> bool:
        v = tuple(v)
        if len(v) != self.rank:
            return False
        if any(v[i] < 0 for i in self.nonneg):
            return False
        return all(sum(a * b for a, b in zip(row, v)) == 0 for row in self.equations.rows)

    def is_pointed(self) -> bool:
        """No line: a kernel vector vanishing on every signed coordinate is zero."""
        free = [i for i in range(self.rank) if i not in self.nonneg]
        constrained = list(self.nonneg)
        extra = [tuple(1 if j == i else 0 for j in range(self.rank)) for i in constrained]
        stacked = IntegerMatrix.of(list(self.equations.rows) + extra)
        return kernel_basis(stacked).nrows == 0 if free else True


def extreme_rays(cone: LatticeCone) -> list[Vec]:
    """Primitive generators of the one-dimensional faces (plus possibly a few
    non-extreme cone vectors, which is harmless for the uses below).

    Every subset of coordinates is tried as the zero set of a face; a subset
    whose solution space is one-dimensional with consistent signs on the
    constrained coordinates contributes its nonnegative generator.
    """
    n = cone.rank
    if n > 22:
        raise InvalidInput("extreme ray enumeration limited to rank <= 22")

    eqs = [row for row in cone.equations.rows if any(row)]
    found: set[Vec] = set()
    for size in range(n):
        for zeros in combinations(range(n), size):
            extra = [tuple(1 if j == i else 0 for j in range(n)) for i in zeros]
            basis = kernel_basis(IntegerMatrix.of(eqs + extra))
            if basis.nrows != 1:
                continue
            g = basis.rows[0]
            signs = [g[i] for i in cone.nonneg if g[i] != 0]
            if signs and all(x > 0 for x in signs):
                found.add(g)
            elif signs and all(x < 0 for x in signs):
                found.add(tuple(-x for x in g))
            elif not signs and cone.nonneg:
                continue
    return sorted(found)


# nodes the Hilbert-basis box enumeration may visit before it gives up
MAX_BOX_NODES = 50_000_000


def hilbert_basis(cone: LatticeCone) -> list[Vec]:
    """Minimal generating set of the monoid cone ∩ Z^n, sorted canonically.

    Every minimal generator lies in the fundamental box spanned by the
    extreme rays (its ray coordinates are < 1), so the basis is found by
    enumerating lattice points of the box that satisfy the constraints and
    filtering out decomposable ones.  Node-count overruns raise an explicit
    error rather than truncating.
    """
    if not cone.is_pointed():
        raise NotPointed("cone contains a line")
    n = cone.rank
    rays = extreme_rays(cone)
    if not rays:
        return []
    lo = []
    hi = []
    for j in range(n):
        neg = sum(min(r[j], 0) for r in rays)
        pos = sum(max(r[j], 0) for r in rays)
        lo.append(0 if j in cone.nonneg else neg)
        hi.append(pos)
    candidates = _enumerate_box(cone, lo, hi)
    candidates.discard(tuple([0] * n))

    def decomposable(v: Vec) -> bool:
        for h in candidates:
            if h == v:
                continue
            rest = tuple(a - b for a, b in zip(v, h))
            if any(rest) and cone.contains(rest):
                return True
        return False

    minimal = [v for v in candidates if not decomposable(v)]
    return sorted(minimal, key=lambda v: (sum(v), v))


def _enumerate_box(cone: LatticeCone, lo: list[int], hi: list[int]) -> set[Vec]:
    """All cone points within the coordinate box, by DFS with interval pruning."""
    eqs = [row for row in cone.equations.rows if any(row)]
    n = cone.rank
    # suffix ranges of each linear form over the remaining box
    suffix_min = [[0] * (n + 1) for _ in eqs]
    suffix_max = [[0] * (n + 1) for _ in eqs]
    for k, row in enumerate(eqs):
        for j in range(n - 1, -1, -1):
            a, b = row[j] * lo[j], row[j] * hi[j]
            suffix_min[k][j] = suffix_min[k][j + 1] + min(a, b)
            suffix_max[k][j] = suffix_max[k][j + 1] + max(a, b)
    out: set[Vec] = set()
    nodes = 0
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), tuple(0 for _ in eqs))]
    while stack:
        j, prefix, partial = stack.pop()
        nodes += 1
        if nodes > MAX_BOX_NODES:
            raise InvalidInput("hilbert basis box enumeration exceeded the node cap")
        if j == n:
            if all(p == 0 for p in partial):
                out.add(prefix)
            continue
        for v in range(lo[j], hi[j] + 1):
            new_partial = tuple(p + row[j] * v for p, row in zip(partial, eqs))
            ok = True
            for k in range(len(eqs)):
                rest_lo = suffix_min[k][j + 1]
                rest_hi = suffix_max[k][j + 1]
                if not (new_partial[k] + rest_lo <= 0 <= new_partial[k] + rest_hi):
                    ok = False
                    break
            if ok:
                stack.append((j + 1, prefix + (v,), new_partial))
    return out
