import itertools
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isurf import lattice, rings
from isurf.errors import InvalidInput, RankDeficient
from isurf.lattice import (IntegerMatrix, LatticeCone, extreme_rays, gale_rays, hilbert_basis,
                           kernel_basis, unimodular_normal_form)


def test_kernel_examples():
    assert kernel_basis(IntegerMatrix([[1, 1]])).rows == ((1, -1),)
    assert kernel_basis(IntegerMatrix([[1, 0], [0, 1]])).rows == ()
    f_weights = IntegerMatrix([[1, 1, -3, 0, 0], [0, 0, 1, 2, 3]])
    assert kernel_basis(f_weights).nrows == 3


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_kernel_property(rows):
    a = IntegerMatrix(rows)
    k = kernel_basis(a)
    for row in k.rows:
        assert all(sum(x * y for x, y in zip(arow, row)) == 0 for arow in a.rows)
        assert abs(gcd_of(row)) == 1
    assert k.nrows == a.ncols - a.rank()


def gcd_of(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def test_hnf_transformation_is_unimodular():
    assert determinant([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18
    assert determinant([[0, 1], [1, 0]]) == -1
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        hu = lattice._hnf(lattice._with_identity(rows))
        h, u = [r[:3] for r in hu], [r[3:] for r in hu]
        # U * M = H
        for i in range(3):
            got = [sum(u[i][k] * rows[k][j] for k in range(3)) for j in range(3)]
            assert got == h[i]
        assert determinant(u) in (1, -1)


def determinant(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def test_hilbert_diagonal_example():
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix([[1, -1]]))
    assert hilbert_basis(cone) == [(1, 1)]


def brute_force_hilbert(equation_rows, bound):
    """Oracle: enumerate all solutions within a box and filter minimal."""
    n = len(equation_rows[0])
    sols = []
    for v in itertools.product(range(bound + 1), repeat=n):
        if any(v) and all(sum(a * b for a, b in zip(row, v)) == 0
                          for row in equation_rows):
            sols.append(v)
    minimal = [v for v in sols
               if not any(w != v and all(x >= y for x, y in zip(v, w)) for w in sols)]
    return sorted(minimal, key=lambda v: (sum(v), v))


def test_hilbert_derived_example_against_bruteforce():
    rows = [[1, 1, -2]]
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
    got = hilbert_basis(cone)
    assert got == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]
    assert got == brute_force_hilbert(rows, 3)


def test_hilbert_random_systems_against_bruteforce():
    rng = random.Random(9)
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(3)]]
        if not any(rows[0]):
            continue
        cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
        got = hilbert_basis(cone)
        expect = brute_force_hilbert(rows, 7)
        small = [v for v in got if all(x <= 7 for x in v)]
        assert small == expect
        # no generator should exceed the brute-force box for these tiny systems
        assert small == got


def test_hilbert_minimality_no_nonneg_combination():
    rows = [[1, 1, -2], [0, 1, -1]]
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
    basis = hilbert_basis(cone)
    for v in basis:
        others = [w for w in basis if w != v]
        for coeffs in itertools.product(range(4), repeat=len(others)):
            combo = tuple(sum(c * w[i] for c, w in zip(coeffs, others))
                          for i in range(len(v)))
            if combo == v:
                assert sum(coeffs) == 0, f"{v} decomposes as {coeffs}"


def test_hilbert_unit_cone():
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(()))
    # no equations: there is no IntegerMatrix shape, emulate with zero row
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix([[0, 0]]))
    assert hilbert_basis(cone) == [(0, 1), (1, 0)]


def test_seven_variable_cone_full():
    grading = IntegerMatrix([
        [1, 0, 0, 0, 0, 10, 15],
        [0, 1, 0, 0, 5, 30, 45],
        [0, 0, 1, 0, 10, 55, 85],
        [0, 0, 0, 5, 15, 85, 125],
    ])
    cone = LatticeCone.ray_preimage(grading, (3, 9, 17, 25))
    basis = hilbert_basis(cone)
    expected = sorted([
        (3, 9, 17, 5, 0, 0, 0), (3, 4, 7, 2, 1, 0, 0), (6, 3, 4, 1, 3, 0, 0),
        (9, 2, 1, 0, 5, 0, 0), (2, 6, 13, 3, 0, 1, 0), (2, 1, 3, 0, 1, 1, 0),
        (0, 0, 0, 0, 0, 0, 1), (1, 3, 9, 1, 0, 2, 0), (1, 3, 14, 0, 0, 5, 0),
    ], key=lambda v: (sum(v), v))
    assert basis == expected
    rays = extreme_rays(cone)
    assert set(rays) >= {(0, 0, 0, 0, 0, 0, 1), (3, 9, 17, 5, 0, 0, 0)}


def test_seven_variable_cone_spot_check_decomposition():
    """Low points of the monoid decompose over the computed basis."""
    grading = IntegerMatrix([
        [1, 0, 0, 0, 0, 10, 15],
        [0, 1, 0, 0, 5, 30, 45],
        [0, 0, 1, 0, 10, 55, 85],
        [0, 0, 0, 5, 15, 85, 125],
    ])
    cone = LatticeCone.ray_preimage(grading, (3, 9, 17, 25))
    basis = hilbert_basis(cone)

    def decomposes(v, start=0):
        if not any(v):
            return True
        for i in range(start, len(basis)):
            g = basis[i]
            if all(a >= b for a, b in zip(v, g)):
                if decomposes(tuple(a - b for a, b in zip(v, g)), i):
                    return True
        return False

    # products of generators up to degree three, plus a few hand-picked points
    import itertools
    points = set()
    for g1, g2 in itertools.combinations_with_replacement(basis, 2):
        points.add(tuple(a + b for a, b in zip(g1, g2)))
    points.add((23, 14, 22, 5, 11, 1, 0))   # a degree-11 product monomial
    for v in points:
        assert cone.contains(v)
        assert decomposes(v), v


def test_gale_rays_examples():
    rays = gale_rays(IntegerMatrix([[1, 1, 1]]))
    assert tuple(sum(c) for c in zip(*rays)) == (0, 0)
    with pytest.raises(RankDeficient):
        gale_rays(IntegerMatrix([[1, 1], [2, 2]]))


def test_gale_rays_deterministic():
    w = IntegerMatrix([[1, 1, -3, 0, 0], [0, 0, 1, 2, 3]])
    assert gale_rays(w) == gale_rays(w)
    for ray in gale_rays(w):
        assert abs(gcd_of(ray)) == 1


def test_unimodular_normal_form_is_invariant_and_separating():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 3)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 2)]
        try:
            form = unimodular_normal_form(vectors)
        except RankDeficient:
            continue
        # a random unimodular T: elementary row operations and a sign change
        t = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(4):
            i, j = rng.randrange(d), rng.randrange(d)
            if i != j:
                k = rng.randint(-3, 3)
                t[i] = [a + k * b for a, b in zip(t[i], t[j])]
        t[0] = [-x for x in t[0]]
        image = [tuple(sum(a * x for a, x in zip(row, v)) for row in t) for v in vectors]
        assert unimodular_normal_form(image) == form
        # doubling one nonzero vector leaves the unimodular class
        i = next(i for i, v in enumerate(vectors) if any(v))
        scaled = list(vectors)
        scaled[i] = tuple(2 * x for x in vectors[i])
        try:
            assert unimodular_normal_form(scaled) != form
        except RankDeficient:
            pass
        checked += 1
    with pytest.raises(RankDeficient):
        unimodular_normal_form([(2, 0), (0, 2)])


# ---------------------------------------------------------------------------
# oracles: extreme rays over every zero set with the rank test, the all-pairs
# irreducibility filter, and the Hilbert basis from every cone point of the
# box spanned by the extreme rays


def unit_rows(n, coordinates):
    return [tuple(int(j == i) for j in range(n)) for i in coordinates]


def rays_over_all_zero_sets(cone):
    """Signed primitive generators of every one-dimensional solution space of
    the equations with some coordinates set to zero: the extreme rays and
    possibly some non-extreme cone vectors.  Setting k coordinates to zero
    lowers the dimension of ker(equations) by at most k, so zero sets with
    fewer than dim ker - 1 coordinates are skipped."""
    n = cone.rank
    eqs = [row for row in cone.equations.rows if any(row)]
    dim = n - IntegerMatrix(eqs).rank() if eqs else n
    found = set()
    for size in range(max(dim - 1, 0), n):
        for zeros in itertools.combinations(range(n), size):
            basis = kernel_basis(IntegerMatrix(eqs + unit_rows(n, zeros) or [(0,) * n]))
            if basis.nrows != 1:
                continue
            g = basis.rows[0]
            signs = [x for x in g if x]
            if signs and all(x > 0 for x in signs):
                found.add(g)
            elif signs and all(x < 0 for x in signs):
                found.add(tuple(-x for x in g))
    return sorted(found)


def is_extreme(cone, ray):
    """A cone vector spans a one-dimensional face exactly when the equations
    and the coordinates on which it is zero have rank n - 1."""
    zeros = [i for i, x in enumerate(ray) if x == 0]
    rows = list(cone.equations.rows) + unit_rows(cone.rank, zeros)
    return IntegerMatrix(rows or [(0,) * cone.rank]).rank() == cone.rank - 1


def extreme_rays_oracle(cone):
    return [r for r in rays_over_all_zero_sets(cone) if is_extreme(cone, r)]


def all_pairs_irreducible(cone, candidates):
    """The candidates that are no other candidate plus a nonzero cone point."""
    return [v for v in candidates
            if not any(h != v and cone.contains(tuple(a - b for a, b in zip(v, h)))
                       for h in candidates)]


def ray_box(cone, rays):
    """Bounds of the box spanned by the rays, from 0; every minimal
    generator lies in it."""
    lo = [0] * cone.rank
    hi = [sum(max(r[j], 0) for r in rays) for j in range(cone.rank)]
    return lo, hi


def enumerate_box(cone, lo, hi):
    """All cone points within the coordinate box, by DFS with interval pruning."""
    eqs = [row for row in cone.equations.rows if any(row)]
    n = cone.rank
    suffix_min = [[0] * (n + 1) for _ in eqs]
    suffix_max = [[0] * (n + 1) for _ in eqs]
    for k, row in enumerate(eqs):
        for j in range(n - 1, -1, -1):
            a, b = row[j] * lo[j], row[j] * hi[j]
            suffix_min[k][j] = suffix_min[k][j + 1] + min(a, b)
            suffix_max[k][j] = suffix_max[k][j + 1] + max(a, b)
    out = set()
    stack = [(0, (), tuple(0 for _ in eqs))]
    while stack:
        j, prefix, partial = stack.pop()
        if j == n:
            if not any(partial):
                out.add(prefix)
            continue
        for v in range(lo[j], hi[j] + 1):
            new_partial = tuple(p + row[j] * v for p, row in zip(partial, eqs))
            if all(new_partial[k] + suffix_min[k][j + 1] <= 0 <= new_partial[k] + suffix_max[k][j + 1]
                   for k in range(len(eqs))):
                stack.append((j + 1, prefix + (v,), new_partial))
    return out


def box_points(cone):
    """The nonzero cone points in the box spanned by the extreme rays."""
    rays = rays_over_all_zero_sets(cone)
    if not rays:
        return set()
    return enumerate_box(cone, *ray_box(cone, rays)) - {(0,) * cone.rank}


def box_hilbert_basis(cone):
    return sorted(all_pairs_irreducible(cone, box_points(cone)), key=lambda v: (sum(v), v))


def box_volume(cone, rays):
    lo, hi = ray_box(cone, rays)
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    return volume


@st.composite
def small_cones(draw):
    """The nonnegative solutions in 3-5 variables of 1-2 equations with
    |coefficients| <= 4, whose ray box the oracle can walk."""
    n = draw(st.integers(3, 5))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=1, max_size=2))
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
    assume(box_volume(cone, rays_over_all_zero_sets(cone)) <= 20_000)
    return cone


@settings(max_examples=120, deadline=None)
@given(small_cones())
def test_hilbert_basis_equals_box_oracle(cone):
    assert hilbert_basis(cone) == box_hilbert_basis(cone)


@settings(max_examples=120, deadline=None)
@given(small_cones())
def test_extreme_rays_equal_all_zero_sets_oracle(cone):
    assert extreme_rays(cone) == extreme_rays_oracle(cone)


@settings(max_examples=120, deadline=None)
@given(small_cones())
def test_degree_filter_equals_the_all_pairs_oracle(cone):
    """On the cone points of the ray box, which hold every minimal
    generator, and the sums of two minimal generators (2h among them)."""
    points = box_points(cone)
    minimal = all_pairs_irreducible(cone, points)
    candidates = points | {tuple(a + b for a, b in zip(g, h))
                           for g, h in itertools.combinations_with_replacement(minimal, 2)}
    assert sorted(lattice._irreducible(cone, candidates)) == \
        sorted(all_pairs_irreducible(cone, candidates))


@st.composite
def wide_cones(draw):
    """The nonnegative solutions in 6-7 variables of 1-3 equations with
    |coefficients| <= 4: too large for the box oracle, not for the rank
    test."""
    n = draw(st.integers(6, 7))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    return LatticeCone.nonnegative_solutions(IntegerMatrix(rows))


@settings(max_examples=120, deadline=None)
@given(wide_cones())
def test_double_description_gives_exactly_the_extreme_rays(cone):
    rays = extreme_rays(cone)
    assert rays == extreme_rays_oracle(cone)
    for r in rays:
        assert cone.contains(r) and abs(gcd_of(r)) == 1


def cone_dimension(rays):
    return IntegerMatrix(rays).rank()


@pytest.mark.parametrize("rows,dimension,basis", [
    ([[1, 1, 0, 0], [0, 0, 2, -3]], 1, [(0, 0, 3, 2)]),
    ([[2, 1, 0, 0, 0], [0, 0, 2, -3, 1]], 2, [(0, 0, 1, 1, 1), (0, 0, 0, 1, 3), (0, 0, 3, 2, 0)]),
])
def test_lower_dimensional_cone_in_the_kernel(rows, dimension, basis):
    """x_0 = x_1 = 0 on the cone, so it spans less than ker(E); the
    parallelepipeds live in span(rays) ∩ Z^n."""
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
    assert kernel_basis(cone.equations).nrows == dimension + 1
    assert cone_dimension(extreme_rays(cone)) == dimension
    assert hilbert_basis(cone) == basis == box_hilbert_basis(cone)


@pytest.mark.parametrize("rows", [
    [[1, 1, 1, -1, -1, -1]],    # 9 rays in dimension 5
    [[2, 3, -1, -4]],
    [[1, 0, 2, -2, -2], [-1, 1, -1, 1, 1]],
])
def test_non_simplicial_cones_against_the_oracle(rows):
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix(rows))
    rays = extreme_rays(cone)
    assert len(rays) > cone_dimension(rays)
    assert hilbert_basis(cone) == box_hilbert_basis(cone)


@pytest.mark.parametrize("a", [(-4, -6, -7, 1, 2), (5, -1, -2, 7, 2),
                               (3, 7, 3, -2, -1), (3, 3, -3, -2, -7)])
def test_exact_algebra_shaped_cones_against_the_oracle(a):
    """Five variables, mixed signs, |a_i| <= 7 and six extreme rays."""
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix([a]))
    assert len(extreme_rays(cone)) == 6
    assert hilbert_basis(cone) == box_hilbert_basis(cone)


def canonical_cone():
    return LatticeCone.ray_preimage(rings.AMBIENT_GRADING, rings.CANONICAL_RAY)


def count_contains(monkeypatch):
    calls = []
    inner = LatticeCone.contains

    def counted(self, v):
        calls.append(v)
        return inner(self, v)

    monkeypatch.setattr(LatticeCone, "contains", counted)
    return calls


def test_canonical_cone_filters_at_most_28_candidates(monkeypatch):
    """One simplex of index 25: 24 nonzero parallelepiped points and the 4
    rays.  Testing each only against the kept generators of at most half its
    degree makes 63 membership tests, where all pairs would make 28 * 27."""
    cone = canonical_cone()
    assert len(extreme_rays(cone)) == 4 == cone_dimension(extreme_rays(cone))
    calls = count_contains(monkeypatch)
    assert len(hilbert_basis(cone)) == 9
    assert len(calls) == 63


def test_index_cap_raises_before_any_enumeration(monkeypatch):
    cone = canonical_cone()
    hilbert_basis(cone)
    monkeypatch.setattr(lattice, "MAX_LATTICE_INDEX", 24)
    calls = count_contains(monkeypatch)
    with pytest.raises(InvalidInput, match="index 25"):
        hilbert_basis(cone)
    assert calls == []
    monkeypatch.setattr(lattice, "MAX_LATTICE_INDEX", 25)
    assert len(hilbert_basis(cone)) == 9


def test_ray_preimage_of_a_one_row_mapping():
    cone = LatticeCone.ray_preimage(IntegerMatrix([[1, 2]]), (3,))
    assert cone.rank == 2
    assert hilbert_basis(cone) == [(0, 1), (1, 0)]
    flipped = LatticeCone.ray_preimage(IntegerMatrix([[-1, -2]]), (-3,))
    assert hilbert_basis(flipped) == [(0, 1), (1, 0)]


def test_ray_preimage_rejects_a_sign_it_cannot_enforce():
    # v = (2, 1) >= 0 maps to 0 and v = (1, 1) to -1, the wrong side of 3
    with pytest.raises(InvalidInput, match="negative entry"):
        LatticeCone.ray_preimage(IntegerMatrix([[1, -2]]), (3,))
    with pytest.raises(InvalidInput, match="negative entry"):
        LatticeCone.ray_preimage(IntegerMatrix([[0, 1], [1, 2]]), (-1, 4))
    assert LatticeCone.ray_preimage(IntegerMatrix([[0, 1], [1, -2]]), (1, 4)).rank == 2
