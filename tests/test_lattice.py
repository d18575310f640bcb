import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isurf.errors import NotPointed, RankDeficient
from isurf.lattice import (IntegerMatrix, LatticeCone, extreme_rays, gale_rays,
                           hermite_normal_form, hilbert_basis, kernel_basis,
                           unimodular_normal_form)


def test_kernel_examples():
    assert kernel_basis(IntegerMatrix.of([[1, 1]])).rows == ((1, -1),)
    assert kernel_basis(IntegerMatrix.of([[1, 0], [0, 1]])).rows == ()
    f_weights = IntegerMatrix.of([[1, 1, -3, 0, 0], [0, 0, 1, 2, 3]])
    assert kernel_basis(f_weights).nrows == 3


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_kernel_property(rows):
    a = IntegerMatrix.of(rows)
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
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        m = IntegerMatrix.of(rows)
        h, u = hermite_normal_form(m)
        # U * M = H
        for i in range(3):
            got = [sum(u.rows[i][k] * m.rows[k][j] for k in range(3)) for j in range(3)]
            assert tuple(got) == h.rows[i]


def test_hilbert_diagonal_example():
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix.of([[1, -1]]))
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
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix.of(rows))
    got = hilbert_basis(cone)
    assert got == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]
    assert got == brute_force_hilbert(rows, 3)


def test_hilbert_random_systems_against_bruteforce():
    rng = random.Random(9)
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(3)]]
        if not any(rows[0]):
            continue
        cone = LatticeCone.nonnegative_solutions(IntegerMatrix.of(rows))
        got = hilbert_basis(cone)
        expect = brute_force_hilbert(rows, 7)
        small = [v for v in got if all(x <= 7 for x in v)]
        assert small == expect
        # no generator should exceed the brute-force box for these tiny systems
        assert small == got


def test_hilbert_minimality_no_nonneg_combination():
    rows = [[1, 1, -2], [0, 1, -1]]
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix.of(rows))
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
    cone = LatticeCone.nonnegative_solutions(IntegerMatrix.of([[0, 0]]))
    assert hilbert_basis(cone) == [(0, 1), (1, 0)]


def test_not_pointed_detection():
    cone = LatticeCone(2, IntegerMatrix.of([[1, -1]]), ())
    with pytest.raises(NotPointed):
        hilbert_basis(cone)
    pointed = LatticeCone(2, IntegerMatrix.of([[1, -1]]), (1,))
    assert pointed.is_pointed()
    assert hilbert_basis(pointed) == [(1, 1)]


def test_seven_variable_cone_full():
    grading = IntegerMatrix.of([
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
    grading = IntegerMatrix.of([
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
    rays = gale_rays(IntegerMatrix.of([[1, 1, 1]]))
    assert tuple(sum(c) for c in zip(*rays)) == (0, 0)
    with pytest.raises(RankDeficient):
        gale_rays(IntegerMatrix.of([[1, 1], [2, 2]]))


def test_gale_rays_deterministic():
    w = IntegerMatrix.of([[1, 1, -3, 0, 0], [0, 0, 1, 2, 3]])
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
