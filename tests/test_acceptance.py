"""Exit criteria for the build, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all
even on success).  Criteria assert exact values; the stated time budgets are
enforced with monotonic clocks.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from isurf import curves as cv
from isurf import rings, toric, tsing, wps
from isurf.poly import PolyRing
from isurf.tsing import DEFAULT_ORDER, TSingularity

ROOT = Path(__file__).resolve().parents[1]


def report(number: int, label: str, ok: bool):
    print(f"\n[ACCEPTANCE] criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_continued_fractions():
    start = time.monotonic()
    ok = (tsing.hj_expand(4, 1) == [4]
          and tsing.hj_expand(18, 5) == [4, 3, 2]
          and tsing.hj_expand(25, 14) == [2, 5, 3])
    elapsed = time.monotonic() - start
    # three expansions well under a millisecond each
    ok = ok and elapsed < 3e-3
    report(1, "table of continued-fraction strings, under 1 ms each", ok)


def test_criterion_02_codiscrepancies_and_sweep():
    start = time.monotonic()
    ok = (tsing.codiscrepancy([4]).coefficients == (Fraction(1, 2),)
          and tsing.codiscrepancy([4, 3, 2]).coefficients
          == (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
          and tsing.codiscrepancy([3, 5, 2]).coefficients
          == (Fraction(3, 5), Fraction(4, 5), Fraction(2, 5)))
    n = 2
    while n * n <= 200:
        d = 1
        while d * n * n <= 200:
            for a in range(1, n):
                from math import gcd
                if gcd(a, n) != 1:
                    continue
                sing = TSingularity(d, n, a)
                chain = tsing.hj_expand(sing.order, sing.weight)
                d2 = tsing.delta_squared(tsing.codiscrepancy(chain))
                ok = ok and d2 == sing.d - len(chain) - 1
            d += 1
        n += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(2, "codiscrepancy table and the d - r - 1 sweep, under 1 s", ok)


def test_criterion_03_generators_within_a_minute():
    start = time.monotonic()
    table = rings.canonical_generators()
    elapsed = time.monotonic() - start
    ok = (len(table.entries) == 9 and table.extras == ()
          and [d for _, _, d in table.entries] == [1, 1, 2, 3, 4, 4, 5, 7, 17]
          and table.entries == rings.expected_generator_table().entries
          and elapsed < 60.0)
    report(3, "nine monoid generators with the right degrees, under 60 s", ok)


def test_criterion_04_binomials_and_first_derived_relation():
    start = time.monotonic()
    table = rings.expected_generator_table()
    binom = rings.verify_binomials(table, rings.standard_relations())
    ok = len(binom) == 10 and all(r["ok"] for r in binom)
    F = rings.ambient_surface_equation(seed=0)
    derived = rings.derive_relation(F, rings.EXCESS_MONOMIALS["R11"], table)
    ring = derived.ring
    v = {n: ring.var(n) for n in rings.GENERATOR_ORDER}
    th, ta = ring.var("theta"), ring.var("tau")
    _, rest = rings.split_by_lead(derived, "x0")
    ok = ok and rest == th * v["x1"] ** 2 * v["u1"] * v["z"] \
        + ta * v["x1"] ** 2 * v["w"] ** 3 + v["u0"] * v["t"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(4, "binomials vanish and the excess rewriting has the stated shape, "
              "under 1 s", ok)


def test_criterion_05_format_certificates():
    start = time.monotonic()
    formats = rings.load_formats()
    ok = True
    for label in ("rank6", "family_m1", "family_m2"):
        fmt, rels = formats[label]
        rep = rings.verify_format(fmt, rels)
        ok = ok and all(c["ok"] for c in rep["checks"])
    fmt, rels = formats["family_m1"]
    fifth = next(c for c in fmt.certificates
                 if c.kind == "product" and c.index == (4,))
    names = sorted(name for _, name in fifth.combo)
    multipliers = {name: mult for mult, name in fifth.combo}
    ring = rels.ring
    ok = ok and names == ["R11", "R3"]
    ok = ok and multipliers["R3"] in (ring.parse("tau*w*(x1*w - lam*u1)"),
                                      ring.parse("-tau*w*(x1*w - lam*u1)"))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(5, "all certificates of the three formats, including the corrected "
              "fifth product entry, under 10 s", ok)


def test_criterion_06_smoothing_elimination():
    fam = rings.family_relations()
    elim = rings.smoothing_eliminate(
        fam, ["lam", "tau"], [("R1", "w"), ("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    ok = {"R4", "R8", "R9"} <= set(elim.identities)
    res = {n: (c, p) for n, c, p in elim.residuals}
    clear10, poly10 = res["R10"]
    ring = poly10.ring
    q = ring.parse("x0*y - x1^3")
    lam, tau, P = ring.var("lam"), ring.var("tau"), ring.var("P")
    x0, x1, y = ring.var("x0"), ring.var("x1"), ring.var("y")
    display = x0 * q ** 3 + 3 * lam ** 3 * tau * x1 ** 2 * y * q ** 2 \
        + 3 * lam ** 6 * tau ** 2 * x1 * y ** 3 * q \
        + lam ** 9 * tau ** 3 * y ** 5 + lam ** 12 * tau ** 3 * P
    ok = ok and str(clear10) == "lam^11*tau^3" and poly10 == display
    lt = rings.lam_theta_relations()
    lt0 = rings.RelationSystem(
        lt.ring, tuple((n, r.substitute({"theta": lt.ring.zero()}))
                       for n, r in lt.relations))
    elim2 = rings.smoothing_eliminate(lt0, ["lam"],
                                      [("R2", "u0"), ("R3", "u1"), ("R6", "t")])
    res2 = {n: p for n, _, p in elim2.residuals}
    ring2 = res2["R10"].ring
    ok = ok and res2["R1"] == ring2.parse("x0*y - x1^3")
    ok = ok and res2["R10"] == ring2.parse(
        "lam^3*P + y^5 - 3*x1*y^3*w + 3*x1^2*y*w^2 - x0*w^3")
    report(6, "elimination identities, the cleared degree-10 equation term for "
              "term, and the constrained-family pair", ok)


def test_criterion_07_hilbert_series():
    res = wps.bundled_resolution()
    ok = len(res.l1) == 14 and len(res.l2) == 35
    ranks = (1, 14, 35, 35, 14, 1)
    ok = ok and sum(r * (-1) ** i for i, r in enumerate(ranks)) == 0
    hs = wps.hilbert_series_from_resolution(res)
    ok = ok and hs.equals(wps.footnote_series())
    coeffs = hs.coefficients(2)
    ok = ok and coeffs[1] == 2 and coeffs[2] == 4
    report(7, "resolution series equals the closed form; degree-1 and degree-2 "
              "dimensions are 2 and 4", ok)


def test_criterion_08_weighted_hypersurface_and_germs():
    inv = wps.wps_hypersurface_invariants(51, (1, 3, 17, 25))
    ok = inv.canonical_degree == 5 and inv.k_squared == 1
    always = wps.s51_point_analysis("ze", 3, 2, seed=0, order=DEFAULT_ORDER)
    ok = ok and isinstance(always, TSingularity) \
        and always.same_singularity(TSingularity(1, 5, 3))
    tau0 = wps.s51_point_analysis("t1", 3, 0, seed=0, order=DEFAULT_ORDER)
    ok = ok and tau0.same_singularity(TSingularity(1, 3, 2))
    both0 = wps.s51_point_analysis("t1", 0, 0, seed=0, order=DEFAULT_ORDER)
    ok = ok and both0.same_singularity(TSingularity(2, 3, 1))
    ok = ok and wps.s51_point_analysis("t1", 3, 2, seed=0, order=DEFAULT_ORDER) == "absent"
    report(8, "degree-51 model invariants and its coordinate-point germs", ok)


def test_criterion_09_toric_layer():
    rays = toric.gale_rays(toric.FTILDE_PRESENTATION)
    vc = tuple(2 * a + b + c for a, b, c in zip(rays["t0"], rays["s0"], rays["ze"]))
    ve = tuple(a + b + c for a, b, c in zip(rays["t0"], rays["ze"], rays["c"]))
    ok = rays["c"] == vc and rays["e"] == ve
    parent = rings.parent_equation(seed=0)
    R6 = PolyRing.of("t0", "t1", "s1", "s0", "ze", "c", "theta", "tau")
    first = toric.blowup_transform(
        parent,
        {"t0": R6.var("c") ** 2 * R6.var("t0"), "s0": R6.var("c") * R6.var("s0"),
         "ze": R6.var("c") * R6.var("ze")},
        R6.var("c") ** 2)
    R7 = PolyRing.of(*toric.FTILDE_VARS, "theta", "tau")
    second = toric.blowup_transform(
        first,
        {"t0": R7.var("e") * R7.var("t0"), "ze": R7.var("e") * R7.var("ze"),
         "c": R7.var("e") * R7.var("c")},
        R7.var("e"))
    ok = ok and second == rings.double_blowup_equation(seed=0)
    ring = PolyRing.of(*toric.FTILDE_VARS)
    core = second.substitute({"theta": 1, "tau": 1}, ring=ring)
    ok = ok and toric.multidegree(core, toric.FTILDE_PRESENTATION.weights) == (0, 6, 2, 1)
    ok = ok and toric.multidegree(core, toric.SHIFTED_WEIGHTS) == (6, 18, 34, 51)
    collapsed = toric.wps_collapse(second)
    stripped = collapsed.substitute(
        {"theta": 1, "tau": 1}, ring=PolyRing.of("e", "t1", "s0", "ze"))
    ok = ok and stripped.weighted_degree(toric.WPS_WEIGHTS) == 51
    report(9, "ray relations, strict transforms with their multidegrees, and "
              "the degree-51 collapse", ok)


def test_criterion_10_nonexistence_and_examples():
    start = time.monotonic()
    profiles = cv.enumerate_gamma_profiles(
        [[3, 5, 2], [4]], (Fraction(1, 10), Fraction(3, 10)), {"A1": 1, "C1": 1})
    ok = [p["incidence"] for p in profiles] == [
        {"A1": 1, "A2": 1}, {"B1": 1, "C1": 1}, {"B1": 1, "A2": 1}]
    for key, entry in cv.load_profile_scripts().items():
        result = cv.replay_script(entry["configuration"], entry["script"])
        ok = ok and result["verdict"] == "contradiction"
        ok = ok and entry["expected_rule"] in result["violations"]
    blowups = {"III-fiber": 4, "I3-fiber": 4, "I2-fiber": 2}
    strings = {
        "III-fiber": {"index5": [2, 5, 3], "index3": [4, 3, 2]},
        "I3-fiber": {"index5": [2, 5, 3], "index3": [4, 3, 2]},
        "I2-fiber": {"index2": [4], "index3": [4, 3, 2]},
    }
    for name, count in blowups.items():
        ex = cv.build_example(name)
        for cname, chain in strings[name].items():
            ok = ok and ex["chains"][cname]["entries"] == chain
            ok = ok and isinstance(ex["chains"][cname]["type"], TSingularity)
        result = cv.replay_script(ex["configuration"], ex["script"])
        ok = ok and result["verdict"] == "survives"
        ok = ok and cv.final_state_matches(result["final"], ex["expected_final"])
        entries = [v["entries"] for v in ex["chains"].values()]
        ok = ok and tsing.ktilde_squared(entries) == -count
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(10, "three profiles, three contradictions, three constructions with "
               "the blowup count identity, under 5 s", ok)


def test_criterion_11_determinism_and_runtime():
    start = time.monotonic()
    cmd = [sys.executable, "-m", "isurf.cli", "--all", "--seed", "0",
           "--format", "json"]
    # two string-hash seeds, so no output depends on set or dict hash order
    first, second = (
        subprocess.run(cmd, capture_output=True,
                       env={**os.environ, "PYTHONHASHSEED": hash_seed})
        for hash_seed in ("0", "1"))
    elapsed = time.monotonic() - start
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout
    data = json.loads(first.stdout)
    ok = ok and all(r["status"] == "pass" for r in data["scenarios"])
    ok = ok and elapsed < 300.0
    # the same bytes as the report digest the benchmark stores for seed 0
    stored = json.loads((ROOT / "perfbench" / "expected_reports.json").read_text())["0"]
    ok = ok and hashlib.sha256(first.stdout).hexdigest() == stored
    report(11, "byte-identical JSON for two seeded full runs, both passing, "
               "matching the stored digest, within the five-minute budget", ok)
