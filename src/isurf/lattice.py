"""Integer linear algebra and lattice cones.

Hermite normal form with transformation, saturated kernel bases with a
deterministic sign convention, Gale-dual ray generators for grading
matrices, and Hilbert bases of pointed rational cones: the extreme rays and
the points of the half-open fundamental parallelepipeds of a placing
triangulation, less the decomposable ones.  Integer arithmetic throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from math import gcd, lcm, prod
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
        and (D_i v) = 0 where ray[i] = 0.  The sign is enforced by v >= 0
        only when ray[p]*D_p has no negative entry; otherwise InvalidInput.
        """
        ray = tuple(int(x) for x in ray)
        if len(ray) != mapping.nrows:
            raise ValueError("ray length does not match mapping rows")
        if not any(ray):
            raise ValueError("ray must be nonzero")
        p = next(i for i, x in enumerate(ray) if x)
        if any(ray[p] * a < 0 for a in mapping.rows[p]):
            raise InvalidInput(f"row {p} of the mapping times ray[{p}] has a negative entry, "
                               "so v >= 0 does not keep mapping*v on the side of the ray")
        eqs = [tuple(ray[p] * a - ray[i] * b for a, b in zip(mapping.rows[i], mapping.rows[p]))
               for i in range(mapping.nrows) if i != p]
        n = mapping.ncols
        return LatticeCone(n, IntegerMatrix.of(eqs), tuple(range(n)))

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
        return _kernel(list(self.equations.rows) + extra, self.rank).nrows == 0 if free else True


def _kernel(rows: Sequence[Sequence[int]], width: int) -> IntegerMatrix:
    """kernel_basis of the rows, read as a matrix of the given width even
    when there are none (then the kernel is all of Z^width)."""
    return kernel_basis(IntegerMatrix.of(list(rows) or [(0,) * width]))


def extreme_rays(cone: LatticeCone) -> list[Vec]:
    """Primitive generators of the one-dimensional faces (plus possibly a few
    non-extreme cone vectors, which is harmless for the uses below).

    Every subset of coordinates is tried as the zero set of a face; a subset
    whose solution space is one-dimensional with consistent signs on the
    constrained coordinates contributes its nonnegative generator.  Setting k
    coordinates to zero lowers the dimension of ker(equations) by at most k,
    so zero sets with fewer than dim ker - 1 coordinates are skipped.
    """
    n = cone.rank
    if n > 22:
        raise InvalidInput("extreme ray enumeration limited to rank <= 22")

    eqs = [row for row in cone.equations.rows if any(row)]
    dim = n - IntegerMatrix.of(eqs).rank() if eqs else n
    found: set[Vec] = set()
    for size in range(max(dim - 1, 0), n):
        for zeros in combinations(range(n), size):
            extra = [tuple(1 if j == i else 0 for j in range(n)) for i in zeros]
            basis = _kernel(eqs + extra, n)
            if basis.nrows != 1:
                continue
            g = basis.rows[0]
            signs = [g[i] for i in cone.nonneg if g[i] != 0]
            if signs and all(x > 0 for x in signs):
                found.add(g)
            elif signs and all(x < 0 for x in signs):
                found.add(tuple(-x for x in g))
    return sorted(found)


# summed index of the simplices of the triangulation (the number of
# parallelepiped points) above which hilbert_basis gives up; its filter makes
# about (index + rays)^2 membership tests.  Five-variable cones with
# |coefficients| <= 7 stay below 800, the canonical cone has index 25.
MAX_LATTICE_INDEX = 5_000


def hilbert_basis(cone: LatticeCone) -> list[Vec]:
    """Minimal generating set of the monoid cone ∩ Z^n, sorted canonically.

    The extreme rays are written in a basis of the lattice L = span(rays) ∩
    Z^n and triangulated by placing.  Every point of the monoid is a
    nonnegative integer combination of the rays of one simplex plus a point
    of that simplex's half-open fundamental parallelepiped (the points
    sum lam_i r_i of L with 0 <= lam_i < 1, one per class of L/<r_i>), so
    the rays and those points generate the monoid and contain its minimal
    generators; the decomposable ones are filtered out over the whole cone
    (Bruns & Koch 2001; Bruns, Ichim & Söger 2016).  An index sum above
    MAX_LATTICE_INDEX raises an explicit error before any enumeration.
    """
    if not cone.is_pointed():
        raise NotPointed("cone contains a line")
    n = cone.rank
    rays = extreme_rays(cone)
    if not rays:
        return []
    lattice = _kernel(_kernel(rays, n).rows, n).rows
    coords = [_coordinates(lattice, r) for r in rays]
    simplices = []
    for simplex in _placing_triangulation(coords):
        h, _ = hermite_normal_form(IntegerMatrix.of([coords[i] for i in simplex]))
        simplices.append((simplex, [h.rows[j][j] for j in range(len(simplex))]))
    index = sum(prod(diagonal) for _, diagonal in simplices)
    if index > MAX_LATTICE_INDEX:
        raise InvalidInput(f"hilbert basis: the triangulation has index {index}, "
                           f"above the cap {MAX_LATTICE_INDEX}")
    candidates = set(rays)
    for simplex, diagonal in simplices:
        candidates.update(_parallelepiped(
            [rays[i] for i in simplex], [coords[i] for i in simplex], diagonal))
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


def _coordinates(basis: Sequence[Vec], v: Vec) -> Vec:
    """c with sum_i c_i basis_i = v, for echelon rows with positive pivots
    and v in the lattice they span."""
    rest = list(v)
    out = []
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        q = rest[p] // row[p]
        rest = [a - q * b for a, b in zip(rest, row)]
        out.append(q)
    return tuple(out)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _facet_normal(points: Sequence[Vec], facet: Sequence[int], apex: int) -> tuple[Vec, int]:
    """Primitive normal of the hyperplane through the facet points, pointing
    to the apex point, and the apex's height over it (points of full rank)."""
    normal = _kernel([points[i] for i in facet], len(points[apex])).rows[0]
    height = _dot(normal, points[apex])
    if height < 0:
        return tuple(-x for x in normal), -height
    return normal, height


def _placing_triangulation(points: Sequence[Vec]) -> list[tuple[int, ...]]:
    """Simplices (sorted index tuples) of a placing triangulation of the cone
    spanned by the points, which span Z^d rationally.

    The first simplex takes the first independent points in order; each
    further point is joined to every boundary facet it lies strictly beyond.
    """
    d = len(points[0])
    first: list[int] = []
    for i, p in enumerate(points):
        if len(first) < d and IntegerMatrix.of([points[j] for j in first] + [p]).rank() > len(first):
            first.append(i)
    simplices = [tuple(first)]
    for i, p in enumerate(points):
        if i in first:
            continue
        shared = Counter(f for s in simplices for f in combinations(s, d - 1))
        beyond = []
        for s in simplices:
            for k in range(d):
                facet = s[:k] + s[k + 1:]
                if shared[facet] == 1 and _dot(_facet_normal(points, facet, s[k])[0], p) < 0:
                    beyond.append(tuple(sorted(facet + (i,))))
        simplices += beyond
    return simplices


def _parallelepiped(rays: Sequence[Vec], coords: Sequence[Vec],
                    diagonal: Sequence[int]) -> list[Vec]:
    """The points sum lam_i rays_i with 0 <= lam_i < 1 in the lattice L, for
    rays with L-coordinates coords, one per class of L/<rays>.

    The classes are represented by the box of the Hermite normal form's
    diagonal; lam_i of a class is <n_i, y>/h_i with n_i the normal of the
    facet opposite ray i and h_i its height, so the point is
    sum ((<n_i, y> mod h_i) * (D/h_i)) rays_i / D with D = lcm(h_i).
    """
    d = len(coords)
    facets = [_facet_normal(coords, [j for j in range(d) if j != i], i) for i in range(d)]
    denominator = lcm(*(h for _, h in facets))
    out = []
    for y in product(*(range(a) for a in diagonal)):
        weights = [_dot(normal, y) % h * (denominator // h) for normal, h in facets]
        out.append(tuple(_dot(weights, column) // denominator for column in zip(*rays)))
    return out
