"""The three benchmark workloads: inputs from a seed, one request, its check.

Every request is split into ``run`` (the timed calls into isurf) and
``check`` (exact correctness checks on what ``run`` returned, outside the
timed region and outside the trace).  A failed check raises ``CheckFailed``.

Seed pools: ``verify-all`` uses the isurf seeds whose ``--all`` report
digests are stored in ``expected_reports.json``; ``germ-sweep`` uses isurf
seeds 0-59.  Both leave out the seeds whose seeded "general" coefficients
are not general enough for the scenario predicates (see NOTES.md);
``exact-algebra`` checks identities that hold for every seed, so it draws
seeds freely.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import threading
import time
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EXPECTED_REPORTS = {int(k): v for k, v in
                    json.loads((HERE / "expected_reports.json").read_text()).items()}
NOT_GENERAL_SEEDS = {5: "wps51: index-3 point for tau = 0 classifies as 1/18(1,5)",
                     57: "family-munu: y-chart for nu = 0 classifies as 1/8(1,3)"}
GERM_POOL = tuple(s for s in range(60) if s not in NOT_GENERAL_SEEDS)
GERM_ORDERS = (10, 12)
CHILD_TIMEOUT_S = 150


class CheckFailed(Exception):
    """An output of the program differs from what the check expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def shuffled_forever(pool: list[int], rng: random.Random):
    """Endless stream of isurf seeds: the pool again and again, each pass in
    a fresh seeded order."""
    while True:
        rng.shuffle(pool)
        yield from pool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], out_dir: Path, tag: str):
    """Run a child process to completion; return (exit code, stdout bytes,
    stderr text, wall seconds, peak RSS in MB of that child)."""
    out_path = out_dir / f"{tag}.stdout"
    err_path = out_dir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# verify-all: one fresh `isurf --all` process per request


class VerifyAll:
    name = "verify-all"
    in_process = False
    setup_code = "import isurf.cli"

    @staticmethod
    def inputs(rng: random.Random):
        return shuffled_forever(sorted(EXPECTED_REPORTS), rng)

    @staticmethod
    def argv(seed: int) -> list[str]:
        return ["--all", "--seed", str(seed), "--format", "json"]

    @staticmethod
    def check(seed: int, result) -> None:
        code, stdout, stderr = result
        expect(code == 0, f"seed {seed}: exit code {code}: {stderr.strip()[-300:]}")
        report = json.loads(stdout)
        bad = [r["scenario"] for r in report["scenarios"] if r["status"] != "pass"]
        expect(len(report["scenarios"]) == 16 and not bad,
               f"seed {seed}: scenarios not passing: {bad}")
        digest = hashlib.sha256(stdout).hexdigest()
        expect(digest == EXPECTED_REPORTS[seed],
               f"seed {seed}: report sha256 {digest} differs from the stored one")


# ---------------------------------------------------------------------------
# germ-sweep: the wps51 and family-munu germ cases, in process


def _is_type(cls, d, n, a) -> bool:
    from isurf import tsing

    return isinstance(cls, tsing.TSingularity) and \
        cls.same_singularity(tsing.TSingularity(d, n, a))


# (point, theta, tau, predicate): the cases and predicates of scenario wps51
S51_CASES = (
    ("ze", 3, 2, lambda c: _is_type(c, 1, 5, 3)),
    ("s0", 3, 2, lambda c: c == "absent"),
    ("t1", 3, 2, lambda c: c == "absent"),
    ("t1", 3, 0, lambda c: _is_type(c, 1, 3, 2)),
    ("t1", 0, 0, lambda c: _is_type(c, 2, 3, 1)),
)
# (mu, nu, chart, predicate): the cases and predicates of scenario family-munu
FAMILY_CASES = (
    (1, 1, "y", lambda c: c == "absent"),
    (1, 0, "y", lambda c: _is_type(c, 1, 2, 1)),
    (0, 1, "u", lambda c: _is_type(c, 2, 3, 1)),
    (0, 0, "y", lambda c: _is_type(c, 1, 2, 1)),
    (0, 0, "u", lambda c: _is_type(c, 2, 3, 1)),
)


class GermSweep:
    name = "germ-sweep"
    in_process = True
    setup_code = "import isurf.wps"

    @staticmethod
    def inputs(rng: random.Random):
        return shuffled_forever(list(GERM_POOL), rng)

    @staticmethod
    def run(seed: int):
        from isurf import wps

        out = []
        for order in GERM_ORDERS:
            for point, theta, tau, _ in S51_CASES:
                out.append(wps.s51_point_analysis(point, Fraction(theta), Fraction(tau),
                                                  seed, order))
            for mu, nu, chart, _ in FAMILY_CASES:
                fam = wps.TwoSingularityFamily.of(mu, nu, seed)
                out.append(fam.germ_at_y(order) if chart == "y" else fam.germ_at_u(order))
        return out

    @staticmethod
    def check(seed: int, result) -> None:
        preds = [c[-1] for c in S51_CASES + FAMILY_CASES] * len(GERM_ORDERS)
        cases = [c[:3] for c in S51_CASES + FAMILY_CASES] * len(GERM_ORDERS)
        for got, pred, case in zip(result, preds, cases):
            expect(pred(got), f"seed {seed}: case {case} classified as {got}")


# ---------------------------------------------------------------------------
# exact-algebra: polynomial and lattice work with no series calls, in process

PARAMETER_POINTS = ((3, 2), (3, 0), (0, 0))
CONE_VARIABLES = 5
CONE_MAX_COEFF = 7
# Hilbert-basis time grows with the volume of the box spanned by the extreme
# rays (about 0.4 s at 240k on 2 cores, Python 3.11.7), so each request takes
# cones until their box volumes reach a fixed total; single cones above the
# cap are skipped
CONE_BOX_CAP = 150_000
CONE_BOX_TOTAL = 300_000


def cone_rays(a) -> list[tuple[int, ...]]:
    """Extreme rays of {v >= 0 : a.v = 0} for a with nonzero entries."""
    n = len(a)
    rays = []
    for i in range(n):
        for j in range(n):
            if a[i] > 0 > a[j]:
                g = gcd(a[i], -a[j])
                v = [0] * n
                v[i], v[j] = -a[j] // g, a[i] // g
                rays.append(tuple(v))
    return rays


def box_volume(a) -> int:
    rays = cone_rays(a)
    return prod(sum(r[j] for r in rays) + 1 for j in range(len(a)))


def seeded_cones(seed: int) -> list[tuple[int, ...]]:
    """Pointed cones {v >= 0 : a.v = 0} with mixed-sign |a_i| <= 7."""
    rng = random.Random(f"{seed}:cones")
    cones = []
    total = 0
    while total < CONE_BOX_TOTAL:
        a = tuple(rng.randint(1, CONE_MAX_COEFF) * rng.choice((1, -1))
                  for _ in range(CONE_VARIABLES))
        if min(a) > 0 or max(a) < 0:
            continue
        volume = box_volume(a)
        if volume > CONE_BOX_CAP:
            continue
        cones.append(a)
        total += volume
    return cones


def _irreducible(a, h) -> bool:
    """No cone point u other than 0 and h lies in the box [0, h]; such a u
    would write h as the sum of the cone elements u and h - u."""
    *head, last = range(len(h))

    def go(k: int, partial: int, nonzero: bool, equal: bool) -> bool:
        if k == last:
            num = -partial
            if num % a[last]:
                return True
            u = num // a[last]
            if not 0 <= u <= h[last]:
                return True
            return not (nonzero or u) or (equal and u == h[last])
        for x in range(h[k] + 1):
            if not go(k + 1, partial + a[k] * x, nonzero or x > 0, equal and x == h[k]):
                return False
        return True

    return go(0, 0, False, True)


class ExactAlgebra:
    name = "exact-algebra"
    in_process = True
    setup_code = "import isurf.rings, isurf.toric, isurf.lattice"

    @staticmethod
    def inputs(rng: random.Random):
        while True:
            yield rng.randrange(1_000_000)

    @staticmethod
    def run(seed: int):
        from isurf import lattice, rings, toric
        from isurf.poly import PolyRing

        out = {"seed": seed}
        out["specialized"] = [rings.specialize_standard(Fraction(th), Fraction(ta), seed)
                              for th, ta in PARAMETER_POINTS]
        table = rings.expected_generator_table()
        surface = rings.ambient_surface_equation(seed)
        out["surface"] = surface
        out["derived"] = {name: rings.derive_relation(surface, excess, table)
                          for name, excess in rings.EXCESS_MONOMIALS.items()}
        parent = rings.parent_equation(seed)
        r6 = PolyRing.of("t0", "t1", "s1", "s0", "ze", "c", "theta", "tau")
        c = r6.var("c")
        first = toric.blowup_transform(
            parent, {"t0": c ** 2 * r6.var("t0"), "s0": c * r6.var("s0"),
                     "ze": c * r6.var("ze")}, c ** 2)
        r7 = PolyRing.of(*toric.FTILDE_VARS, "theta", "tau")
        e = r7.var("e")
        out["second"] = toric.blowup_transform(
            first, {"t0": e * r7.var("t0"), "ze": e * r7.var("ze"), "c": e * r7.var("c")}, e)
        out["collapsed"] = toric.wps_collapse(out["second"])
        out["formats"] = {label: rings.verify_format(fmt, rels)
                          for label, (fmt, rels) in rings.load_formats().items()}
        out["smoothing"] = rings.smoothing_eliminate(
            rings.family_relations(), ["lam", "tau"],
            [("R1", "w"), ("R2", "u0"), ("R3", "u1"), ("R6", "t")])
        lt = rings.lam_theta_relations()
        lt0 = rings.RelationSystem(lt.ring, tuple(
            (n, r.substitute({"theta": lt.ring.zero()})) for n, r in lt.relations))
        out["smoothing_lam_theta"] = rings.smoothing_eliminate(
            lt0, ["lam"], [("R2", "u0"), ("R3", "u1"), ("R6", "t")])
        out["cones"] = [
            (a, lattice.hilbert_basis(lattice.LatticeCone.nonnegative_solutions(
                lattice.IntegerMatrix.of([a]))))
            for a in seeded_cones(seed)]
        return out

    @staticmethod
    def check(seed: int, out) -> None:
        from isurf import rings, toric

        for spec in out["specialized"]:
            expect(spec.ring.variables == rings.GENERATOR_ORDER and len(spec.names()) == 14,
                   f"seed {seed}: specialized system has ring {spec.ring.variables}")
        surface = out["surface"]
        amb = surface.ring
        table = rings.expected_generator_table()
        assign = {n: table.monomial(n, amb) for n in table.names()}
        for name, excess in rings.EXCESS_MONOMIALS.items():
            back = out["derived"][name].substitute(assign, ring=amb)
            expect(back == amb.monomial(excess) * surface,
                   f"seed {seed}: back-substitution of {name} is not excess*F")
        expect(out["second"] == rings.double_blowup_equation(seed),
               f"seed {seed}: second strict transform differs from the bundled equation")
        expect(out["collapsed"].weighted_degree(toric.WPS_WEIGHTS) == 51,
               f"seed {seed}: collapsed equation is not of weighted degree 51")
        for label, report in out["formats"].items():
            expect(report["checks"] and all(c["ok"] for c in report["checks"]),
                   f"seed {seed}: format {label} has failing certificates")
        elim = out["smoothing"]
        expect({"R4", "R8", "R9"} <= set(elim.identities),
               f"seed {seed}: smoothing identities are {elim.identities}")
        clear = {n: str(c) for n, c, _ in elim.residuals}
        expect(clear.get("R10") == "lam^11*tau^3",
               f"seed {seed}: clearing factor of R10 is {clear.get('R10')}")
        res2 = {n: str(p) for n, _, p in out["smoothing_lam_theta"].residuals}
        expect(res2.get("R1") == "-1*x1^3 + x0*y",
               f"seed {seed}: first residual of the lam*theta family is {res2.get('R1')}")
        for a, basis in out["cones"]:
            expect(bool(basis), f"seed {seed}: empty Hilbert basis for {a}")
            for h in basis:
                expect(any(h) and min(h) >= 0 and sum(x * y for x, y in zip(a, h)) == 0,
                       f"seed {seed}: {h} is not in the cone of {a}")
                expect(_irreducible(a, h),
                       f"seed {seed}: {h} is a sum of two cone elements of {a}")


WORKLOADS = {w.name: w for w in (VerifyAll, GermSweep, ExactAlgebra)}
