"""Integer linear algebra and lattice cones.

Hermite normal form with transformation, saturated kernel bases with a
deterministic sign convention, Gale-dual ray generators for grading
matrices, and Hilbert bases of the nonnegative solutions of integer
equations: the extreme rays by double description, a placing triangulation
with one fraction-free elimination per simplex, and the points of its
half-open fundamental parallelepipeds, walked one box coordinate at a time,
less the reducible ones.
Integer arithmetic throughout; IntegerMatrix checks what callers pass in,
and the stages in between pass plain rows.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidInput

Vec = tuple[int, ...]


class IntegerMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = tuple(tuple(int(x) for x in r) for r in rows)
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise InvalidInput("ragged matrix")

    @staticmethod
    def of(rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return IntegerMatrix(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(zip(*self.rows))

    def mul_vec(self, v: Sequence[int]) -> Vec:
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rank(self) -> int:
        return _rank(self.rows)


def _hnf(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of a list of rows: positive pivots, entries
    above a pivot reduced into [0, pivot), zero rows swept to the bottom.

    Rows extended by an identity block [M | I] come out as [H | U] with U
    unimodular and U*M = H; the rows whose M part vanished are then the
    Hermite normal form of the kernel lattice {u : u*M = 0}.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    pivot_row = 0
    for col in range(len(rows[0]) if rows else 0):
        # euclidean elimination below pivot_row in this column
        while nonzero := [i for i in range(pivot_row, n) if rows[i][col]]:
            i_min = min(nonzero, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[i_min] = rows[i_min], rows[pivot_row]
            top = rows[pivot_row]
            if len(nonzero) == 1:
                break
            for i in range(pivot_row + 1, n):
                q = rows[i][col] // top[col]
                rows[i] = [a - q * b for a, b in zip(rows[i], top)]
        else:
            continue
        if top[col] < 0:
            top = rows[pivot_row] = [-a for a in top]
        for i in range(pivot_row):
            q = rows[i][col] // top[col]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], top)]
        pivot_row += 1
    return rows


def _with_identity(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    return [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]


def _rank(rows: Sequence[Sequence[int]]) -> int:
    return sum(1 for row in _hnf(rows) if any(row))


def _kernel(rows: Sequence[Sequence[int]], width: int) -> list[Vec]:
    """The HNF-canonical Z-basis of {v in Z^width : row . v = 0 for every
    row}, all of Z^width when there are no rows; each basis row primitive."""
    m = len(rows)
    return [tuple(r[m:]) for r in _hnf(_with_identity(list(zip(*rows)) or [()] * width))
            if not any(r[:m])]


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Rows form an HNF-canonical Z-basis of {v : A v = 0}; rows primitive."""
    return IntegerMatrix(_kernel(a.rows, a.ncols))


def unimodular_normal_form(vectors: Sequence[Sequence[int]]) -> list[Vec]:
    """The vectors after the integral change of coordinates that maps the
    lexicographically first unimodular block among them to the standard basis.

    Two configurations differ by one unimodular transform exactly when their
    normal forms agree.  A square block is unimodular exactly when its
    Hermite normal form is the identity, and then U is its inverse.
    InvalidInput if no block is unimodular.
    """
    d = len(vectors[0])
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    for subset in combinations(range(len(vectors)), d):
        hu = _hnf(_with_identity([[vectors[i][k] for i in subset] for k in range(d)]))
        if [r[:d] for r in hu] == identity:
            return [tuple(_dot(r[d:], v) for r in hu) for v in vectors]
    raise InvalidInput("no unimodular block among the vectors")


def gale_rays(weights: IntegerMatrix) -> list[Vec]:
    """Primitive ray generators dual to the grading matrix.

    Every grading row a satisfies sum_i a_i * v_i = 0.  The rays are the
    kernel columns in unimodular normal form.
    """
    if weights.rank() != weights.nrows:
        raise InvalidInput("weight matrix does not have full row rank")
    basis = _kernel(weights.rows, weights.ncols)  # (n-r) x n
    if not basis:
        return [() for _ in range(weights.ncols)]
    rays = unimodular_normal_form(list(zip(*basis)))
    for i, ray in enumerate(rays):
        if gcd(*ray) > 1:
            raise InvalidInput(f"ray for column {i} is not primitive: {ray}")
    return rays


class LatticeCone:
    """{v in Z^n : equations * v = 0, v >= 0}."""

    __slots__ = ("rank", "equations")

    def __init__(self, rank: int, equations: IntegerMatrix):
        if equations.rows and equations.ncols != rank:
            raise InvalidInput("equation width does not match rank")
        self.rank, self.equations = rank, equations

    @staticmethod
    def nonnegative_solutions(equations: IntegerMatrix) -> "LatticeCone":
        return LatticeCone(equations.ncols, equations)

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
            raise InvalidInput("ray length does not match mapping rows")
        if not any(ray):
            raise InvalidInput("ray must be nonzero")
        p = next(i for i, x in enumerate(ray) if x)
        if any(ray[p] * a < 0 for a in mapping.rows[p]):
            raise InvalidInput(f"row {p} of the mapping times ray[{p}] has a negative entry, "
                               "so v >= 0 does not keep mapping*v on the side of the ray")
        eqs = [tuple(ray[p] * a - ray[i] * b for a, b in zip(mapping.rows[i], mapping.rows[p]))
               for i in range(mapping.nrows) if i != p]
        return LatticeCone(mapping.ncols, IntegerMatrix(eqs))

    def contains(self, v: Sequence[int]) -> bool:
        return len(v) == self.rank and all(x >= 0 for x in v) \
            and all(_dot(row, v) == 0 for row in self.equations.rows)


def _project(v: Vec, w: Vec, i: int) -> Vec:
    """The primitive vector along w[i]*v - v[i]*w, which is 0 at i."""
    u = [w[i] * a - v[i] * b for a, b in zip(v, w)]
    g = gcd(*u)
    return tuple(x // g for x in u)


def extreme_rays(cone: LatticeCone) -> list[Vec]:
    """The primitive generators of the one-dimensional faces, sorted.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996): the cone starts as the kernel of the equations, all of it
    lineality, and takes the sign constraints x_i >= 0 one at a time.  If a
    lineality vector is nonzero at i, it becomes a ray with x_i > 0, and the
    other lineality vectors and the rays are projected along it to x_i = 0.
    Otherwise the rays with x_i >= 0 stay, and each pair of rays with x_i > 0
    and x_i < 0 adds its combination at x_i = 0 if the two are adjacent: no
    third ray is zero on every added constraint on which both are zero.  A
    lineality vector left at the end would be 0 at every coordinate, so none
    is: the cone holds no line.
    """
    lines = _kernel(cone.equations.rows, cone.rank)
    rays: list[tuple[Vec, int]] = []  # a ray, and the bit set of the added constraints it is 0 on
    for i in range(cone.rank):
        bit = 1 << i
        moving = [j for j, v in enumerate(lines) if v[i]]
        if moving:
            ray = lines.pop(moving[0])
            if ray[i] < 0:
                ray = tuple(-x for x in ray)
            lines = [_project(v, ray, i) for v in lines]
            rays = [(_project(r, ray, i), zeros | bit) for r, zeros in rays] + [(ray, bit - 1)]
            continue
        positive = [(r, zeros) for r, zeros in rays if r[i] > 0]
        negative = [(r, zeros) for r, zeros in rays if r[i] < 0]
        kept = [(r, zeros if r[i] else zeros | bit) for r, zeros in rays if r[i] >= 0]
        for p, zp in positive:
            for q, zq in negative:
                common = zp & zq
                if sum(1 for _, zeros in rays if zeros & common == common) == 2:
                    kept.append((_project(q, p, i), common | bit))
        rays = kept
    return sorted(r for r, _ in rays)


# summed index of the simplices of the triangulation (the number of
# parallelepiped points) above which hilbert_basis gives up; its filter tests
# each point against the kept generators of at most half its degree.  Five-
# variable cones with |coefficients| <= 7 stay below 800, the canonical 25.
MAX_LATTICE_INDEX = 5_000


def hilbert_basis(cone: LatticeCone) -> list[Vec]:
    """Minimal generating set of the monoid cone ∩ Z^n, sorted canonically.

    The extreme rays are written in a basis of the lattice L = span(rays) ∩
    Z^n and triangulated by placing.  Every point of the monoid is a
    nonnegative integer combination of the rays of one simplex plus a point
    of that simplex's half-open fundamental parallelepiped (the points
    sum lam_i r_i of L with 0 <= lam_i < 1, one per class of L/<r_i>), so
    the rays and those points generate the monoid and contain its minimal
    generators (Bruns & Koch 2001; Bruns, Ichim & Söger 2016), which
    _irreducible keeps.  An index sum (the D of each simplex's _dual) above
    MAX_LATTICE_INDEX raises an explicit error before any enumeration.
    """
    n = cone.rank
    rays = extreme_rays(cone)
    if not rays:
        return []
    lattice = _kernel(_kernel(rays, n), n)
    coords = [_coordinates(lattice, r) for r in rays]
    simplices = _placing_triangulation(coords)
    index = sum(denominator for _, _, denominator in simplices)
    if index > MAX_LATTICE_INDEX:
        raise InvalidInput(f"hilbert basis: the triangulation has index {index}, "
                           f"above the cap {MAX_LATTICE_INDEX}")
    candidates = set(rays)
    for simplex, normals, denominator in simplices:
        candidates.update(_parallelepiped([rays[i] for i in simplex],
                                          [coords[i] for i in simplex], normals, denominator))
    candidates.discard((0,) * n)
    return sorted(_irreducible(cone, candidates), key=lambda v: (sum(v), v))


def _irreducible(cone: LatticeCone, candidates: Iterable[Vec]) -> list[Vec]:
    """The candidates that are no sum of two nonzero points of the cone,
    given that they include every such point of lower degree.

    The degree, the sum of the coordinates, is positive on every nonzero
    point of the cone, so a reducible v is h plus a cone point for an
    irreducible h of at most half its degree.  Taken by
    increasing degree, v is tested only against the kept irreducibles up to
    that bound (Bruns & Ichim, J. Algebra 324, 2010).
    """
    kept: list[tuple[int, Vec]] = []
    for degree, v in sorted((sum(v), v) for v in candidates):
        for low, h in kept:
            if 2 * low > degree:
                kept.append((degree, v))
                break
            if cone.contains(tuple(a - b for a, b in zip(v, h))):
                break
        else:
            kept.append((degree, v))
    return [v for _, v in kept]


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


def _dual(points: Sequence[Vec]) -> tuple[list[Vec], int]:
    """The columns of A, and D = |det M|, with M*A = D*I for the matrix M whose
    rows are the points: column k is a normal of the facet opposite point k,
    positive on it.  Fraction-free Gauss-Jordan elimination of [M | I], each
    step dividing exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968)."""
    d = len(points)
    rows = _with_identity(points)
    previous = 1
    for k in range(d):
        i = next(i for i in range(k, d) if rows[i][k])
        rows[k], rows[i] = rows[i], rows[k]
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(pivot[k] * a - row[k] * b) // previous for a, b in zip(row, pivot)]
        previous = pivot[k]
    sign = 1 if previous > 0 else -1
    return [tuple(sign * row[d + k] for row in rows) for k in range(d)], abs(previous)


def _placing_triangulation(points: Sequence[Vec]) -> list[tuple[tuple[int, ...], list[Vec], int]]:
    """Simplices (sorted index tuples) of a placing triangulation of the cone
    spanned by the points, which span Z^d rationally, each with its _dual:
    the facet normals, the k-th opposite its k-th point, and |det|.

    The first simplex takes the first independent points in order; each
    further point is joined to every boundary facet it lies strictly beyond.
    """
    d = len(points[0])
    first: list[int] = []
    for i, p in enumerate(points):
        if len(first) < d and _rank([points[j] for j in first] + [p]) > len(first):
            first.append(i)

    def placed(s: tuple[int, ...]):
        return (s, *_dual([points[i] for i in s]))

    simplices = [placed(tuple(first))]
    for i, p in enumerate(points):
        if i in first:
            continue
        shared = Counter(f for s, _, _ in simplices for f in combinations(s, d - 1))
        beyond = []
        for s, normals, _ in simplices:
            for k in range(d):
                facet = s[:k] + s[k + 1:]
                if shared[facet] == 1 and _dot(normals[k], p) < 0:
                    beyond.append(placed(tuple(sorted(facet + (i,)))))
        simplices += beyond
    return simplices


def _parallelepiped(rays: Sequence[Vec], coords: Sequence[Vec], normals: Sequence[Vec],
                    denominator: int) -> list[Vec]:
    """The points sum lam_i rays_i with 0 <= lam_i < 1 in the lattice L, one
    per class of L/<rays>, for a simplex with L-coordinates coords and their
    _dual (normals, denominator D).

    The classes are the box y of the diagonal of coords' Hermite normal form,
    lam_i = (<n_i, y> mod D)/D.  A step in y_k adds n_i[k] mod D to numerator
    i and sum_i (n_i[k] mod D) rays_i / D, an integer vector, to the point; a
    numerator that reaches D wraps and takes ray i off the point.
    """
    states = [([0] * len(rays), (0,) * len(rays[0]))]
    for k, row in enumerate(_hnf(coords)):
        step = [normal[k] % denominator for normal in normals]
        shift = [_dot(step, column) // denominator for column in zip(*rays)]
        for numerators, point in states[:]:
            for _ in range(row[k] - 1):
                numerators = [x + c for x, c in zip(numerators, step)]
                point = [p + s for p, s in zip(point, shift)]
                for i, x in enumerate(numerators):
                    if x >= denominator:
                        numerators[i] = x - denominator
                        point = [p - r for p, r in zip(point, rays[i])]
                states.append((numerators, point))
    return [tuple(point) for _, point in states]
