import itertools
import random

import pytest

from isurf.errors import InvalidInput
from isurf.poly import PolyRing
from isurf.skew import SkewMatrix

K = PolyRing.of("a", "b", "c", "d", "e", "f")


def permutation_determinant(rows, ring):
    """Independent oracle: Leibniz expansion over all permutations."""
    n = len(rows)
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = ring.constant(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def dense_rows(m):
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]


def determinant(rows, ring):
    """Fraction-free (Bareiss) determinant of a square polynomial matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for swap in range(k + 1, n):
                if not m[swap][k].is_zero():
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_divide(prev)
        prev = m[k][k]
    return m[n - 1][n - 1] * sign


def test_classical_four_by_four():
    m = SkewMatrix.from_upper_rows(K, [["a", "b", "c"], ["d", "e"], ["f"]])
    assert m.sub_pfaffians(m.size)[0][1] == K.parse("a*f - b*e + c*d")


def test_two_by_two_and_empty():
    ring = PolyRing.of("a")
    m = SkewMatrix.from_upper_rows(ring, [["a"]])
    assert m.sub_pfaffians(m.size)[0][1] == ring.var("a")


def test_odd_size_pfaffian_vanishes():
    ring = PolyRing.of("a", "b", "c")
    m = SkewMatrix.from_upper_rows(ring, [["a", "b"], ["c"]])
    assert m.sub_pfaffians(m.size)[0][1].is_zero()
    subs = m.sub_pfaffians(3)
    assert len(subs) == 1 and subs[0][1].is_zero()


def test_sub_pfaffians_count_and_indexing():
    m = SkewMatrix.from_upper_rows(K, [["a", "b", "c"], ["d", "e"], ["f"]])
    subs = m.sub_pfaffians(2)
    assert len(subs) == 6
    assert dict(subs)[(0, 1)] == K.var("a")


def test_pfaffian_squared_is_determinant_random():
    ring = PolyRing.of("q")
    rng = random.Random(5)
    for n in (2, 4, 6, 8):
        for _ in range(12):
            upper = {}
            for i in range(n):
                for j in range(i + 1, n):
                    upper[(i, j)] = ring.constant(rng.randint(-4, 4))
            m = SkewMatrix(ring, n, upper)
            pf = m.sub_pfaffians(m.size)[0][1]
            det_fast = determinant(dense_rows(m), ring)
            assert pf * pf == det_fast
            if n <= 6:
                det_oracle = permutation_determinant(dense_rows(m), ring)
                assert det_fast == det_oracle


def test_pfaffian_squared_polynomial_entries():
    m = SkewMatrix.from_upper_rows(K, [["a", "b", "c"], ["d", "e"], ["f"]])
    assert m.sub_pfaffians(m.size)[0][1] ** 2 == determinant(dense_rows(m), K)


def test_multiply_vector():
    ring = PolyRing.of("a", "v1", "v2")
    m = SkewMatrix.from_upper_rows(ring, [["a"]])
    out = m.multiply_vector([ring.var("v1"), ring.var("v2")])
    assert out[0] == ring.parse("a*v2")
    assert out[1] == ring.parse("-a*v1")


@pytest.mark.parametrize("build, message", [
    (lambda: SkewMatrix(K, 3, {(1, 0): K.var("a")}), r"bad upper index \(1, 0\)"),
    (lambda: SkewMatrix.from_upper_rows(K, [["a", "b"], ["c", "d"]]), "row 1 should have 1 entries"),
    (lambda: SkewMatrix.from_upper_rows(K, [["a"]]).multiply_vector([K.var("b")]),
     "vector length mismatch"),
], ids=["upper-index", "row-length", "vector-length"])
def test_bad_input_raises_invalid_input(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()
