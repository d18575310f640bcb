import itertools
from fractions import Fraction

import pytest

from isurf import curves as cv
from isurf.errors import InvalidInput, NotContractible
from isurf.tsing import TSingularity, ktilde_squared


def small_config():
    return cv.CurveConfiguration(
        curves=(
            cv.Curve("Gamma", -1, roles=frozenset({"eps-exceptional"})),
            cv.Curve("C1", -2, codisc=Fraction(2, 5), roles=frozenset({"f-exceptional"})),
            cv.Curve("B1", -5, codisc=Fraction(4, 5), roles=frozenset({"f-exceptional"})),
            cv.Curve("A1", -3, codisc=Fraction(3, 5), roles=frozenset({"f-exceptional"})),
        ),
        incidence=(("Gamma", "C1", 1), ("Gamma", "B1", 1),
                   ("B1", "C1", 1), ("A1", "B1", 1)),
    )


def test_blow_down_example_chain():
    cfg = small_config()
    after = cfg.blow_down("Gamma")
    c1 = after.curve("C1")
    b1 = after.curve("B1")
    assert (c1.self_int, c1.pa) == (-1, 0)
    assert (b1.self_int, b1.pa) == (-4, 0)
    assert after.pairing("B1", "C1") == 2
    nodal = after.blow_down("C1")
    b1 = nodal.curve("B1")
    assert (b1.self_int, b1.pa) == (0, 1)
    assert nodal.pairing("A1", "B1") == 1


def test_blow_down_rejects_non_minus_one():
    cfg = small_config()
    with pytest.raises(NotContractible):
        cfg.blow_down("C1")


def test_k_degree_bookkeeping():
    cfg = small_config()
    assert cfg.curve("Gamma").k_degree() == -1
    assert cfg.curve("C1").k_degree() == 0
    assert cfg.curve("B1").k_degree() == 3


def test_kx_pairing_examples():
    scripts = cv.load_profile_scripts()
    cfg1 = scripts["I"]["configuration"]
    assert cfg1.kx_pairing("Gamma") == Fraction(1, 10)
    cfg2 = scripts["II"]["configuration"]
    assert cfg2.kx_pairing("Gamma") == Fraction(2, 10)
    for name in ("A1", "B1", "C1", "A2"):
        assert cfg1.kx_pairing(name) == 0


def test_kx_pairing_missing_coefficients():
    cfg = cv.CurveConfiguration(
        curves=(cv.Curve("D", -2, roles=frozenset({"f-exceptional"})),
                cv.Curve("G", -1)),
        incidence=(("D", "G", 1),))
    with pytest.raises(InvalidInput, match="D is f-exceptional but has no coefficient"):
        cfg.kx_pairing("G")


def test_rule_two_meeting_minus_one_curves():
    cfg = cv.CurveConfiguration(
        curves=(cv.Curve("G1", -1), cv.Curve("G2", -1)),
        incidence=(("G1", "G2", 1),))
    assert "disjoint-(-1)-curves" in cfg.check_rules()


def test_rule_minimal_model_with_minus_one():
    cfg = cv.CurveConfiguration(
        curves=(cv.Curve("G", -1),), incidence=())
    assert "nef-canonical" in cfg.check_rules()


def test_rule_full_fiber_meeting_minus_two():
    cfg = cv.CurveConfiguration(
        curves=(cv.Curve("F", 0, pa=1), cv.Curve("D", -2)),
        incidence=(("F", "D", 1),))
    assert "full-fiber" in cfg.check_rules()


def test_incidence_validation():
    with pytest.raises(InvalidInput):
        cv.CurveConfiguration(
            curves=(cv.Curve("A", -1),), incidence=(("A", "B", 1),))
    with pytest.raises(InvalidInput):
        cv.CurveConfiguration(
            curves=(cv.Curve("A", -1), cv.Curve("B", -2)),
            incidence=(("A", "B", -1),))


def brute_force_profiles(menu, lo, hi, caps):
    names = [n for n, _ in menu]
    coeffs = dict(menu)
    bounds = [min(caps.get(n, 5), 5) for n in names]
    out = []
    for point in itertools.product(*(range(b + 1) for b in bounds)):
        total = sum(Fraction(m) * coeffs[n] for m, n in zip(point, names))
        k = total - 1
        if lo <= k <= hi:
            out.append({n: m for n, m in zip(names, point) if m})
    return out


def test_enumerate_profiles_exactly_three():
    profiles = cv.enumerate_gamma_profiles(
        [[3, 5, 2], [4]], (Fraction(1, 10), Fraction(3, 10)), {"A1": 1, "C1": 1})
    assert [p["incidence"] for p in profiles] == [
        {"A1": 1, "A2": 1}, {"B1": 1, "C1": 1}, {"B1": 1, "A2": 1}]
    assert [p["kx_gamma"] for p in profiles] == [
        Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)]


def test_enumerate_profiles_against_bruteforce_oracle():
    menu = [("A1", Fraction(3, 5)), ("B1", Fraction(4, 5)),
            ("C1", Fraction(2, 5)), ("A2", Fraction(1, 2))]
    caps = {"A1": 1, "C1": 1}
    for lo, hi in ((Fraction(1, 10), Fraction(3, 10)),
                   (Fraction(1, 10), Fraction(1))):
        got = cv.enumerate_gamma_profiles([[3, 5, 2], [4]], (lo, hi), caps)
        oracle = brute_force_profiles(menu, lo, hi, caps)
        assert sorted(map(str, (p["incidence"] for p in got))) == \
            sorted(map(str, oracle))


def test_enumerate_profiles_menu_relabelling_invariance():
    a = cv.enumerate_gamma_profiles(
        [[3, 5, 2], [4]], (Fraction(1, 10), Fraction(3, 10)), {"A1": 1, "C1": 1})
    b = cv.enumerate_gamma_profiles(
        [[4], [3, 5, 2]], (Fraction(1, 10), Fraction(3, 10)), {"A2": 1, "C2": 1})
    swap = {"A1": "A2", "B1": "B2", "C1": "C2", "A2": "A1"}
    relabelled = [tuple(sorted((swap[k], v) for k, v in p["incidence"].items()))
                  for p in a]
    got = [tuple(sorted(p["incidence"].items())) for p in b]
    assert sorted(relabelled) == sorted(got)


def test_capped_curves_of_codiscrepancy_zero_are_enumerated():
    # A1, B1 of [2, 2] and A2 of [2] have coefficient 0: capped, they are
    # enumerated like any other curve
    both = [{}, {"A1": 1}, {"B1": 1}, {"A1": 1, "B1": 1}]
    got = cv.enumerate_gamma_profiles([[2, 2]], (-1, 0), {"A1": 1, "B1": 1})
    assert sorted(map(str, (p["incidence"] for p in got))) == sorted(map(str, both))
    assert all(p["kx_gamma"] == -1 for p in got)
    menu = [("A1", Fraction(3, 5)), ("B1", Fraction(4, 5)),
            ("C1", Fraction(2, 5)), ("A2", Fraction(0))]
    lo, hi = Fraction(1, 10), Fraction(1)
    got = cv.enumerate_gamma_profiles([[3, 5, 2], [2]], (lo, hi), {"A2": 2})
    oracle = brute_force_profiles(menu, lo, hi, {"A2": 2})
    assert any(p["incidence"].get("A2") == 2 for p in got)
    assert sorted(map(str, (p["incidence"] for p in got))) == sorted(map(str, oracle))


def test_uncapped_curve_of_codiscrepancy_zero_is_invalid_input():
    with pytest.raises(InvalidInput, match="B1"):
        cv.enumerate_gamma_profiles([[2, 2]], (-1, 0), {"A1": 1})
    with pytest.raises(InvalidInput, match="A2"):
        cv.enumerate_gamma_profiles([[3, 5, 2], [2]], (Fraction(1, 10), Fraction(1)), {})


def test_empty_menu():
    assert cv.enumerate_gamma_profiles([], (Fraction(1, 10), Fraction(3, 10)), {}) == []


def test_profile_scripts_reach_expected_contradictions():
    for key, entry in cv.load_profile_scripts().items():
        result = cv.replay_script(entry["configuration"], entry["script"])
        assert result["verdict"] == "contradiction", key
        assert entry["expected_rule"] in result["violations"]


def test_replay_rejects_illegal_step():
    cfg = small_config()
    with pytest.raises(InvalidInput, match="blow_down C1: "):
        cv.replay_script(cfg, ["C1"])
    with pytest.raises(InvalidInput, match="blow_down Z: "):
        cv.replay_script(cfg, ["Z"])


def test_examples_recognize_chains_and_contract():
    expects = {
        "III-fiber": {"index5": TSingularity(1, 5, 3), "index3": TSingularity(2, 3, 1)},
        "I3-fiber": {"index5": TSingularity(1, 5, 3), "index3": TSingularity(2, 3, 1)},
        "I2-fiber": {"index3": TSingularity(2, 3, 1), "index2": TSingularity(1, 2, 1)},
    }
    blowups = {"III-fiber": 4, "I3-fiber": 4, "I2-fiber": 2}
    for name, chains in expects.items():
        ex = cv.build_example(name)
        for cname, sing in chains.items():
            assert ex["chains"][cname]["type"].same_singularity(sing)
        result = cv.replay_script(ex["configuration"], ex["script"])
        assert result["verdict"] == "survives"
        assert cv.final_state_matches(result["final"], ex["expected_final"])
        entries = [v["entries"] for v in ex["chains"].values()]
        assert ktilde_squared(entries) == -blowups[name]


def test_unknown_recipe():
    with pytest.raises(InvalidInput, match="unknown recipe 'IV-fiber'"):
        cv.build_example("IV-fiber")
