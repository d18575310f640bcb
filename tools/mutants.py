"""Mutation check of the polynomial kernel, the series solver, germ
classification, the Hilbert-basis stage, the coefficient reads of ``toric``
and ``rings``, the blow-down and minimal-model rules of ``curves``, and the
input checks of ``PolyRing.from_terms`` and
``toric.toric_blowup``: each named mutant must make the fast tests fail.

    python tools/mutants.py     # about 10 minutes on 2 cores

The tree (``src``, ``tests``, ``pyproject.toml``) is copied to a temporary
directory, and only that copy is ever changed.  A mutant replaces the source
of one AST node inside one function (the first whose source is the given
text) with text of the same number of lines, so every other line keeps its
number.  The unmutated copy must pass first; then ``pytest -x`` runs
``TESTS`` once per mutant, which is killed if they fail (or do not finish
within ``TIMEOUT_S``) and survives if they pass.  The exit code is 1 if a
mutant survives that is not listed as equivalent, or if one listed as
equivalent is killed (its reason is then wrong).
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_poly.py", "tests/test_series.py", "tests/test_tsing.py",
         "tests/test_lattice.py", "tests/test_toric.py", "tests/test_rings.py",
         "tests/test_curves.py")
TIMEOUT_S = 600

# No packed key equals the limit, nor does a sum of two keys: the limit lies
# half a digit below the least key of degree ``order`` (``_Keys.limit``), and
# a key is its degree digit plus a part of absolute value below that half.
OFF_THE_KEYS = ("the limit is never a key nor a sum of two keys (_Keys.limit), "
                "so < and <= against it, and >= and > against limit - ka, agree")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the tree
    function: str      # the function whose body holds the node
    original: str      # the node's exact source text
    replacement: str
    equivalent: str | None = None  # why no test can kill it


MUTANTS = (
    Mutant("raw terms without the invertibility check", "src/isurf/poly.py",
           "from_terms", "e < 0 and name not in self.invertible", "False"),
    Mutant("identity fold without the invertibility check", "src/isurf/poly.py",
           "substitute_terms", "e < 0 and name not in target.invertible", "False"),
    Mutant("no constant-term check on images", "src/isurf/poly.py",
           "substitute_terms", "order is not None and img.constant_term() != 0", "False"),
    Mutant("keep the seed at the limit", "src/isurf/poly.py",
           "substitute_terms", "seed < limit", "seed <= limit", equivalent=OFF_THE_KEYS),
    Mutant("keep every seed past the limit", "src/isurf/poly.py",
           "substitute_terms", "num and seed < limit", "num"),
    Mutant("trim images at <= the limit", "src/isurf/poly.py",
           "substitute_terms", "t[0] < limit", "t[0] <= limit", equivalent=OFF_THE_KEYS),
    Mutant("decode the substitution without d", "src/isurf/poly.py",
           "substitute_terms", "keys.decoded(result, common)", "keys.decoded(result, 1)"),
    Mutant("pair loop breaks at kb > room", "src/isurf/poly.py",
           "product_terms", "kb >= room", "kb > room", equivalent=OFF_THE_KEYS),
    Mutant("pair loop never breaks", "src/isurf/poly.py",
           "product_terms", "kb >= room", "False"),
    Mutant("_check_reach is a no-op", "src/isurf/poly.py",
           "_check_reach", "reach >= EXPONENT_BOUND", "False"),
    Mutant("keep the terms of degree order", "src/isurf/poly.py",
           "limit", "order << self.shift", "(order + 1) << self.shift"),
    Mutant("drop the terms of degree order - 1", "src/isurf/poly.py",
           "limit", "order << self.shift", "(order - 1) << self.shift"),
    Mutant("return before the certifying sweep", "src/isurf/series.py",
           "solve_system", "done = False", "done = True"),
    Mutant("flip the Hessian determinant test", "src/isurf/tsing.py",
           "_classify_with_pair", "hxx * hyy - hxy * hxy == 0", "hxx * hyy - hxy * hxy != 0"),
    Mutant("the Hessian without the factor 2 on x^2", "src/isurf/tsing.py",
           "_classify_with_pair", "2 * f.poly.coefficient(e(2, 0, 0))",
           "f.poly.coefficient(e(2, 0, 0))"),
    Mutant("no weight check on the hyperbolic pair", "src/isurf/tsing.py",
           "_classify_with_pair", "(wi + wj) % n != 0", "False"),
    Mutant("a pair weight that is no unit mod n", "src/isurf/tsing.py",
           "_classify_with_pair", "gcd(wi, n) != 1", "False"),
    Mutant("a residual multiplicity not divisible by n", "src/isurf/tsing.py",
           "_classify_with_pair", "k % n != 0", "False"),
    Mutant("the residual weight left unnormalised", "src/isurf/tsing.py",
           "_classify_with_pair", "pow(wi, -1, n) * wk", "wi * wk"),
    Mutant("no invariance test", "src/isurf/tsing.py",
           "classify_germ", "germ.invariance_class != 0", "False"),
    Mutant("re-raise below the cap", "src/isurf/tsing.py",
           "chart_germ", "t >= order", "True"),
    Mutant("step past the cap", "src/isurf/tsing.py",
           "chart_germ", "min(order, 2 * t - 1)", "2 * t - 1"),
    Mutant("start at the cap", "src/isurf/tsing.py",
           "chart_germ", "min(order, 4)", "order"),
    Mutant("skip the lineality step", "src/isurf/lattice.py",
           "extreme_rays", "[j for j, v in enumerate(lines) if v[i]]", "[]"),
    Mutant("orient a lineality ray to x_i < 0", "src/isurf/lattice.py",
           "extreme_rays", "ray[i] < 0", "ray[i] > 0"),
    Mutant("drop the adjacency test", "src/isurf/lattice.py",
           "extreme_rays", "sum(1 for _, zeros in rays if zeros & common == common) == 2", "True"),
    Mutant("a new ray forgets the constraint it was made at", "src/isurf/lattice.py",
           "extreme_rays", "common | bit", "common"),
    Mutant("stop the filter at deg(v), not deg(v)/2", "src/isurf/lattice.py",
           "_irreducible", "2 * low > degree", "low >= degree"),
    Mutant("stop the filter below deg(v)/2", "src/isurf/lattice.py",
           "_irreducible", "2 * low > degree", "2 * low >= degree"),
    Mutant("no reduction above the pivot", "src/isurf/lattice.py",
           "_hnf", "range(pivot_row)", "range(0)"),
    Mutant("the Bareiss step divides by 1, not the previous pivot", "src/isurf/lattice.py",
           "_dual", "(pivot[k] * a - row[k] * b) // previous", "(pivot[k] * a - row[k] * b) // 1"),
    Mutant("the dual keeps the sign of det", "src/isurf/lattice.py",
           "_dual", "1 if previous > 0 else -1", "1"),
    Mutant("place a point on a facet's hyperplane too", "src/isurf/lattice.py",
           "_placing_triangulation", "_dot(normals[k], p) < 0", "_dot(normals[k], p) <= 0"),
    Mutant("wrap a numerator only past the denominator", "src/isurf/lattice.py",
           "_parallelepiped", "x >= denominator", "x > denominator"),
    Mutant("a wrap keeps its ray on the point", "src/isurf/lattice.py",
           "_parallelepiped", "[p - r for p, r in zip(point, rays[i])]", "point"),
    Mutant("the square rule keeps the full power", "src/isurf/toric.py",
           "reduce_square", "x ** (e % 2)", "x ** e"),
    Mutant("a blowup row of any length", "src/isurf/toric.py",
           "toric_blowup", "len(new_row) != cox.ring.nvars + 1", "False"),
    Mutant("a blowup centre of any multiplicities", "src/isurf/toric.py",
           "toric_blowup", "any(x < 0 for x in old_part) or not any(old_part)", "False"),
    Mutant("an unlisted fiber variable is read at power 1", "src/isurf/toric.py",
           "_coefficient_of", "fiber_powers.get(name, 0)", "fiber_powers.get(name, 1)"),
    Mutant("no stray-variable check on a fiber coefficient", "src/isurf/toric.py",
           "_coefficient_of", "partial.degree_in(name) != 0", "False"),
    Mutant("divide the whole relation by the lead", "src/isurf/rings.py",
           "split_by_lead", "rel - rest", "rel"),
    Mutant("the rest is the lead-linear part", "src/isurf/rings.py",
           "split_by_lead", "rel.coefficients_in(lead).get(0, rel.ring.zero())",
           "rel.coefficients_in(lead).get(1, rel.ring.zero())"),
    Mutant("the clearing monomial is the inverse one", "src/isurf/rings.py",
           "_clearing_monomial", "-min(0, *p.coefficients_in(name))",
           "min(0, *p.coefficients_in(name))"),
    Mutant("a blow-down adds m, not m^2, to the self-intersection", "src/isurf/curves.py",
           "blow_down", "c.self_int + m * m", "c.self_int + m"),
    Mutant("meeting (-1)-curves are no contradiction", "src/isurf/curves.py",
           "check_rules", "any(self.pairing(a, b) > 0 for a, b in combinations(minus_one, 2))",
           "False"),
    Mutant("K.C < 0 is no contradiction", "src/isurf/curves.py",
           "check_rules", "any(c.k_degree() < 0 for c in self.curves)", "False"),
    Mutant("a fiber meeting a K-trivial curve is no contradiction", "src/isurf/curves.py",
           "check_rules", "self.pairing(f, c.name) > 0", "False"),
)


def mutated(source: str, mutant: Mutant) -> tuple[str, int]:
    """(the mutated source, the line of the node); ValueError if the node is
    not found or the replacement would move a line."""
    if mutant.original.count("\n") != mutant.replacement.count("\n"):
        raise ValueError(f"{mutant.name}: the replacement changes the number of lines")
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == mutant.function]
    if len(functions) != 1:
        raise ValueError(f"{mutant.name}: {len(functions)} functions named {mutant.function}")
    data = source.encode()  # AST columns count UTF-8 bytes
    line_starts = [0]
    for text in data.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(text))

    def span(node) -> tuple[int, int]:
        return (line_starts[node.lineno - 1] + node.col_offset,
                line_starts[node.end_lineno - 1] + node.end_col_offset)

    original = mutant.original.encode()
    spans = [(span(node), node.lineno) for node in ast.walk(functions[0])
             if isinstance(node, (ast.expr, ast.stmt)) and data[slice(*span(node))] == original]
    if not spans:
        raise ValueError(f"{mutant.name}: no node reads {mutant.original!r}")
    (start, end), line = min(spans)  # the first in source order
    out = (data[:start] + mutant.replacement.encode() + data[end:]).decode()
    ast.parse(out)
    return out, line


def tests_pass(tree: Path) -> bool:
    """Whether ``pytest -x`` passes ``TESTS`` on the copy, in a fresh
    interpreter that imports the copy's package (``PYTHONPATH`` comes before
    any installed one) and writes no bytecode, so no stale module is read."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no examples carried over
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="isurf-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        sources = {m.path: (tree / m.path).read_text() for m in MUTANTS}
        # every mutant must apply before anything runs
        edits = [(m, *mutated(sources[m.path], m)) for m in MUTANTS]
        if not tests_pass(tree):
            print(f"the unmutated copy fails {' '.join(TESTS)}", file=sys.stderr)
            return 1
        counts = {"killed": 0, "equivalent": 0, "survived": 0, "wrongly equivalent": 0}
        for m, text, line in edits:
            target = tree / m.path
            target.write_text(text)
            try:
                killed = not tests_pass(tree)
            finally:
                target.write_text(sources[m.path])
            if killed:
                verdict = "wrongly equivalent" if m.equivalent else "killed"
            else:
                verdict = "equivalent" if m.equivalent else "survived"
            counts[verdict] += 1
            note = f"  ({m.equivalent})" if m.equivalent else ""
            print(f"{verdict:<10} {Path(m.path).name}:{line}  {m.name}{note}", flush=True)
    print(f"{len(edits)} mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items() if n))
    return 1 if counts["survived"] or counts["wrongly equivalent"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
