"""Reference computations that tests compare the package against."""

from fractions import Fraction


def evaluate(p, assignment) -> Fraction:
    """The value of polynomial ``p`` at a point, one term at a time."""
    total = Fraction(0)  # Fraction values: an int ** -1 would be a float
    values = [Fraction(assignment[name]) for name in p.ring.variables]
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(values, exps):
            v *= x ** e
        total += v
    return total
