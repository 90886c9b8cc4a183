"""Exit codes, report payloads, and golden lines for the command surface."""

import json
from pathlib import Path

import pytest

from fpowers.cli import load_problem, main, render_text, run_command

DATA = Path(__file__).parent / "data"


def run(*argv):
    return run_command([str(a) for a in argv])


def strip_timing(payload):
    payload = dict(payload)
    payload.pop("timing_seconds", None)
    return payload


# ------------------------------------------------------------ worked inputs


def test_bs_poly_golden_line():
    code, payload = run("bs-poly", "--input", DATA / "ex_x2x2yz.json")
    assert code == 0
    res = payload["results"]
    assert res["generator"] == "(s+1)^3*(3*s+4)*(3*s+5)/9"
    assert res["roots"] == [
        {"root": "-1", "multiplicity": 3},
        {"root": "-4/3", "multiplicity": 1},
        {"root": "-5/3", "multiplicity": 1},
    ]
    assert res["validity"] == "full"
    assert "nonrational_factor" not in res


def test_bs_poly_collapses_multifactor_input():
    code, payload = run("bs-poly", "--input", DATA / "ex_mixed.json")
    assert code == 0
    assert payload["results"]["generator"] == "(s+1)^3*(3*s+4)*(3*s+5)/9"


def test_bs_poly_finds_the_roots_once(monkeypatch):
    from fpowers import bside
    calls = []
    real = bside.rational_roots

    def counted(coeffs):
        calls.append(coeffs)
        return real(coeffs)
    monkeypatch.setattr(bside, "rational_roots", counted)
    for name in ("ex_x2x2yz.json", "ex_mixed.json"):
        del calls[:]
        code, payload = run("bs-poly", "--input", DATA / name)
        assert code == 0 and payload["results"]["roots"]
        assert len(calls) == 1


def test_hypotheses_on_large_prime_coefficients(tmp_path):
    # the hypothesis gate factors this binary form; its end coefficients
    # are products of two primes near 10^6
    path = tmp_path / "primes.json"
    path.write_text(json.dumps({
        "variables": ["x", "y"],
        "factors": ["(1000003*x - 999983*y)*(999979*x + 1000033*y)"]}))
    code, payload = run("hypotheses", "--input", path)
    assert code == 0
    assert payload["hypotheses"]["arrangement"]["status"] == "yes"


def test_hyperplane_contained():
    code, payload = run("hyperplane", "--input", DATA / "arr_xy_xplusy.json",
                        "--form", "s1+s2+s3+2")
    assert code == 0
    assert payload["results"]["contained"] is True
    assert payload["results"]["validity"] == "full"


def test_hyperplane_not_contained():
    code, payload = run("hyperplane", "--input", DATA / "ex_xy.json",
                        "--form", "s1 + 5")
    assert code == 0
    assert payload["results"]["contained"] is False


def test_nabla_surjective_with_certificate():
    code, payload = run("nabla", "--input", DATA / "ex_xy.json",
                        "--point", "1,1")
    assert code == 0
    res = payload["results"]
    assert res["surjective"] is True
    assert res["injective"] == "yes"
    cert = payload["certificates"]
    assert cert["reduction"]
    assert cert["generators"]


def test_bs_ideal_components():
    code, payload = run("bs-ideal", "--input", DATA / "ex_mixed.json")
    assert code == 0
    res = payload["results"]
    assert res["principal"] is True
    assert res["validity"] == "full"
    forms = {c["form"] for c in res["components"]}
    assert forms == {"s1 + 1", "s2 + 1", "s1 + 2*s2 + 3",
                     "s1 + 2*s2 + 4", "s1 + 2*s2 + 5"}
    assert "unfactored_part" not in res


def test_witness_round_trip():
    code, payload = run("witness", "--input", DATA / "ex_xy.json",
                        "--form", "(s1 + 1)*(s2 + 1)")
    assert code == 0
    assert payload["results"]["verified"] is True
    assert payload["certificates"]["Q"]


def test_witness_non_member_reports_failure():
    code, payload = run("witness", "--input", DATA / "ex_xy.json",
                        "--form", "s1 + 7")
    assert code == 0
    assert payload["results"]["verified"] is False


def test_theta_full_validity():
    code, payload = run("theta", "--input", DATA / "ex_mixed.json")
    assert code == 0
    assert payload["results"]["validity"] == "full"
    assert len(payload["results"]["generators"]) >= 2


def test_logder_serialization():
    code, payload = run("logder", "--input", DATA / "ex_xy.json")
    assert code == 0
    for line in payload["results"]["log"]:
        assert " ; cofactors " in line
    assert payload["results"]["log0"]


def test_liouville_dimensions():
    code, payload = run("liouville", "--input", DATA / "ex_xy.json")
    assert code == 0
    res = payload["results"]
    assert res["L_in_Ltilde"] is True
    assert res["dim_Ltilde_F"] == res["ambient_n_plus_r"] == 4
    assert res["dim_In010_L_F"] >= res["dim_L_F"]


def test_gr_check_certified():
    code, payload = run("gr-check", "--input", DATA / "ex_xy.json")
    assert code == 0
    assert payload["results"]["Ltilde_eq_kernel"] is True
    assert payload["certificates"]["primality"] is True


def test_regularity_report():
    code, payload = run("regularity", "--input", DATA / "ex_xy.json")
    assert code == 0
    res = payload["results"]
    assert res["passed"] is True
    assert res["final_quotient_matches"] is True
    assert [s["variable"] for s in res["steps"]] == ["s1", "s2"]


def test_spencer_report():
    code, payload = run("spencer", "--input", DATA / "ex_xy.json")
    assert code == 0
    res = payload["results"]
    assert res["built"] is True
    for key in ("d2_zero", "terminal_image_eq_thetaF",
                "gr_exactness_certificate", "dual_lift",
                "tau_transposed_chain"):
        assert res[key] is True
    assert "d^-1" in res["differentials"] and "d^-2" in res["differentials"]


def test_spencer_not_free_exits_2():
    code, payload = run("spencer", "--input", DATA / "ex_mixed.json")
    assert code == 2
    assert payload["results"]["built"] is False


def test_arrangement_analysis():
    code, payload = run("arrangement", "--input", DATA / "arr_xy_xplusy.json")
    assert code == 0
    res = payload["results"]
    assert res["is_arrangement"] is True
    assert res["analysis"]["indecomposable"]["status"] == "yes"
    assert res["analysis"]["essential"]["status"] == "yes"


def test_hypotheses_command():
    code, payload = run("hypotheses", "--input", DATA / "ex_mixed.json")
    assert code == 0
    assert payload["results"]["all_required_yes"] is True
    table = payload["hypotheses"]
    assert table["free"]["status"] == "no"
    # every verdict names the operation that produced it
    for entry in table.values():
        assert ":" in entry["provenance"]


def test_appendix_check_small():
    code, payload = run("appendix-check", "--input",
                        DATA / "ex_small_suite.json")
    assert code == 0
    res = payload["results"]
    assert res["all_pass"] is True
    assert res["count"] == 2
    assert res["file_check"]["initial_dim_ge"] is True


# --------------------------------------------------------------- exit codes


def test_missing_command_is_usage_error():
    code, payload = run_command([])
    assert code == 1
    assert "error" in payload


def test_missing_input_is_usage_error():
    code, payload = run("bs-poly")
    assert code == 1
    assert "--input" in payload["error"]


def test_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ["x"], "factors": ["x + * 2"]}')
    code, payload = run("theta", "--input", bad)
    assert code == 1
    assert "position" in payload["error"]


def test_unknown_variable_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ["x"], "factors": ["x + w"]}')
    code, payload = run("theta", "--input", bad)
    assert code == 1
    assert "w" in payload["error"]


def test_malformed_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ')
    code, payload = run("theta", "--input", bad)
    assert code == 1


def test_bad_point_rejected():
    code, payload = run("nabla", "--input", DATA / "ex_xy.json",
                        "--point", "1,q")
    assert code == 1
    code, payload = run("nabla", "--input", DATA / "ex_xy.json",
                        "--point", "1")
    assert code == 1


def test_negative_point_both_spellings():
    # "--point -1,0" must not be read as an unknown option "-1,0"
    spaced = run("nabla", "--input", DATA / "ex_xy.json", "--point", "-1,0")
    joined = run("nabla", "--input", DATA / "ex_xy.json", "--point=-1,0")
    assert spaced[0] == joined[0] == 0
    assert spaced[1]["results"]["point"] == ["-1", "0"]
    assert strip_timing(spaced[1]) == strip_timing(joined[1])


def test_negative_form_value():
    code, payload = run("hyperplane", "--input", DATA / "ex_xy.json",
                        "--form", "-s1-1")
    assert code == 0
    assert payload["results"]["contained"] is True


def test_constant_factor_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variables": ["x", "y"], "factors": ["x", "3"]}')
    code, payload = run("theta", "--input", bad)
    assert code == 1
    assert payload["error"] == "factor 2 must be nonzero and nonconstant"


@pytest.mark.parametrize("name, blocks", [("s1", "X and in block S"),
                                          ("dx", "X and in block DX"),
                                          ("y1", "X and in block Y")])
def test_variable_clashing_with_a_derived_name_is_named(tmp_path, name,
                                                        blocks):
    # s1, dx and y1 are also the names of an s-variable, the derivation of
    # x and a symbol variable: the message names the variable and where
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variables": ["x", name],
                               "factors": [f"x*{name}"]}))
    code, payload = run("bs-ideal", "--input", bad)
    assert code == 1
    assert payload["error"] == ("variable names must be unique across "
                                f"blocks: '{name}' is in block {blocks}")


@pytest.mark.parametrize("cmd", ["theta", "bs-ideal", "liouville", "spencer"])
def test_variable_named_like_the_tag_variable(tmp_path, cmd):
    # intersections and radical membership add a tag variable; a declared
    # _w must not clash with it: the answer is the one for w, renamed
    payloads = []
    for name in ("_w", "w"):
        prob = tmp_path / f"{name}.json"
        prob.write_text(json.dumps({"variables": [name, "x"],
                                    "factors": [f"x*{name}"]}))
        code, payload = run(cmd, "--input", prob)
        assert code == 0
        payloads.append(json.dumps(payload["results"]))
    assert payloads[0].replace("_w", "w") == payloads[1]
    if cmd == "bs-ideal":
        assert payloads[0] == payloads[1]


def test_arrangement_block_must_multiply_out(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "variables": ["x", "y"], "factors": ["x", "y"],
        "arrangement": {"forms": ["x", "x + y"],
                        "multiplicities": [1, 1],
                        "grouping": [[0], [1]]}}))
    code, payload = run("arrangement", "--input", bad)
    assert code == 1
    assert "multiplies out" in payload["error"]


def test_arrangement_multiplicity_mismatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "variables": ["x", "y"], "factors": ["x", "y"],
        "arrangement": {"forms": ["x", "y"],
                        "multiplicities": [2, 1],
                        "grouping": [[0], [1]]}}))
    code, payload = run("arrangement", "--input", bad)
    assert code == 1
    assert "disagree" in payload["error"]


def test_hypothesis_failure_exits_2(tmp_path):
    prob = tmp_path / "nonseh.json"
    prob.write_text('{"variables": ["x"], "factors": ["x + x^2"]}')
    code, payload = run("theta", "--input", prob)
    assert code == 2
    assert payload["results"]["validity"] == "contained"
    assert payload["caveats"]


def test_assume_hypotheses_overrides_with_caveat(tmp_path):
    prob = tmp_path / "nonseh.json"
    prob.write_text('{"variables": ["x"], "factors": ["x + x^2"]}')
    code, payload = run("theta", "--input", prob, "--assume-hypotheses")
    assert code == 0
    assert payload["results"]["validity"] == "full"
    assert any("ASSUME" in c for c in payload["caveats"])


def test_resource_limit_exits_3():
    code, payload = run("bs-ideal", "--input", DATA / "ex_mixed.json",
                        "--max-degree", "3")
    assert code == 3
    assert "resource limit" in payload["error"]


# ------------------------------------------------------------ report format


def test_json_reruns_byte_identical():
    _, p1 = run("bs-poly", "--input", DATA / "ex_x2x2yz.json")
    _, p2 = run("bs-poly", "--input", DATA / "ex_x2x2yz.json")
    s1 = json.dumps(strip_timing(p1), indent=2)
    s2 = json.dumps(strip_timing(p2), indent=2)
    assert s1 == s2


def test_text_and_json_share_result_payload():
    _, payload = run("bs-ideal", "--input", DATA / "ex_mixed.json")
    text = render_text(payload)
    for key in payload["results"]:
        assert f"result {key}" in text
    for key in payload.get("certificates", {}):
        assert f"certificate {key}" in text


def test_text_report_is_line_oriented():
    _, payload = run("hypotheses", "--input", DATA / "ex_xy.json")
    text = render_text(payload)
    assert text.splitlines()[0] == "command: hypotheses"
    assert any(line.startswith("hypothesis ") for line in text.splitlines())


def test_main_prints_text_and_returns_code(capsys):
    code = main(["hypotheses", "--input", str(DATA / "ex_xy.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: hypotheses")


def test_main_json_mode(capsys):
    code = main(["hypotheses", "--input", str(DATA / "ex_xy.json"),
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "hypotheses"
    assert payload["results"]["all_required_yes"] is True


def test_load_problem_echo():
    pf = load_problem(str(DATA / "arr_xy_xplusy.json"))
    assert pf.variables == ["x", "y"]
    assert pf.arrangement is not None
    assert pf.arrangement_echo["multiplicities"] == [1, 1, 1]


# ------------------------------------------------------- degree/basis bounds


def _problem_with_options(tmp_path, options):
    prob = tmp_path / "opts.json"
    prob.write_text(json.dumps({"variables": ["x", "y"],
                                "factors": ["x", "y"], "options": options}))
    return prob


def test_max_degree_zero_is_usage_error():
    code, payload = run("hypotheses", "--input", DATA / "ex_xy.json",
                        "--max-degree", "0")
    assert code == 1
    assert "--max-degree must be a positive integer" in payload["error"]


def test_negative_max_degree_is_usage_error():
    code, payload = run("bs-ideal", "--input", DATA / "ex_xy.json",
                        "--max-degree", "-3")
    assert code == 1
    assert "--max-degree must be a positive integer" in payload["error"]
    assert "resource limit" not in payload["error"]


def test_max_basis_zero_is_usage_error():
    code, payload = run("appendix-check", "--max-basis", "0")
    assert code == 1
    assert "--max-basis must be a positive integer" in payload["error"]


@pytest.mark.parametrize("options", [
    {"max_degree": "5"}, {"max_degree": True}, {"max_degree": 0},
    {"max_degree": 2.5}, {"max_basis": -1}, {"max_basis": "20000"},
])
def test_bad_bound_option_in_file_is_usage_error(tmp_path, options):
    prob = _problem_with_options(tmp_path, options)
    code, payload = run("hypotheses", "--input", prob)
    assert code == 1
    name = next(iter(options))
    assert f'option "{name}" must be a positive integer' in payload["error"]


def test_bounds_resolve_flag_then_file_then_default(tmp_path):
    prob = _problem_with_options(tmp_path, {"max_degree": 40})
    _, payload = run("hypotheses", "--input", prob)
    assert payload["options"]["max_degree"] == 40
    assert payload["options"]["max_basis"] == 20000
    _, payload = run("hypotheses", "--input", prob, "--max-degree", "7",
                     "--max-basis", "900")
    assert payload["options"]["max_degree"] == 7
    assert payload["options"]["max_basis"] == 900


def test_consecutive_requests_share_no_parser_state():
    from fpowers.cli import _build_parser
    assert _build_parser() is _build_parser()
    code, first = run("nabla", "--input", DATA / "ex_xy.json",
                      "--point", "-1,0", "--max-degree", "30", "--order",
                      "lex", "--assume-hypotheses")
    assert code == 0
    assert first["options"] == {"order": "lex", "max_degree": 30,
                                "max_basis": 20000,
                                "assume_hypotheses": True}
    code, second = run("hypotheses", "--input", DATA / "ex_xy.json")
    assert code == 0
    assert second["options"] == {"order": "grevlex", "max_degree": 60,
                                 "max_basis": 20000,
                                 "assume_hypotheses": False}
    code, third = run("nabla", "--input", DATA / "ex_xy.json")
    assert code == 1
    assert "--point" in third["error"]
    code, fourth = run("nabla", "--input", DATA / "ex_xy.json",
                       "--point", "-1,0", "--max-degree", "30", "--order",
                       "lex", "--assume-hypotheses")
    assert strip_timing(fourth) == strip_timing(first)


@pytest.mark.parametrize("options, message", [
    ({"appendix_count": "many"}, 'option "appendix_count" must be a positive'),
    ({"appendix_count": 0}, 'option "appendix_count" must be a positive'),
    ({"appendix_count": True}, 'option "appendix_count" must be a positive'),
    ({"appendix_count": 2.0}, 'option "appendix_count" must be a positive'),
    ({"appendix_seed": -1}, 'option "appendix_seed" must be a non-negative'),
    ({"appendix_seed": False}, 'option "appendix_seed" must be a non-negative'),
    ({"appendix_seed": "7"}, 'option "appendix_seed" must be a non-negative'),
])
def test_bad_appendix_option_is_usage_error(tmp_path, options, message):
    prob = _problem_with_options(tmp_path, options)
    for cmd in ("appendix-check", "hypotheses"):
        code, payload = run(cmd, "--input", prob)
        assert code == 1
        assert message in payload["error"]


def test_appendix_seed_zero_and_count_accepted(tmp_path):
    prob = _problem_with_options(tmp_path, {"appendix_count": 1,
                                            "appendix_seed": 0})
    code, payload = run("appendix-check", "--input", prob)
    assert code == 0
    assert payload["options"]["appendix_count"] == 1
    assert payload["options"]["appendix_seed"] == 0
    assert payload["results"]["count"] == 1


# --------------------------------------------------------------------- help


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: fpowers [-h] command"),
    (["-h"], "usage: fpowers [-h] command"),
    (["bs-poly", "--help"], "usage: fpowers bs-poly [-h]"),
    (["nabla", "--input", "missing.json", "-h"], "usage: fpowers nabla [-h]"),
])
def test_help_returns_in_process(argv, usage):
    code, payload = run_command(argv)
    assert code == 0
    assert payload["help"].startswith(usage)
    assert "error" not in payload and "results" not in payload


def test_main_prints_help(capsys):
    # the text argparse would have printed, as it is, in either mode
    for argv in (["bs-poly", "--help"], ["--help", "--json"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == run_command(argv)[1]["help"]


def test_left_basis_degree_bound_message():
    # the B_F elimination basis reports its degree bound in the wording of
    # every other basis (it used to say "degree bound exceeded in left
    # basis")
    code, payload = run("bs-ideal", "--input", DATA / "arr_xy_xplusy.json",
                        "--max-degree", "3")
    assert code == 3
    assert payload["error"] == "resource limit: total degree 4 exceeds bound 3"


@pytest.mark.parametrize("order", ["revlex", 5, None])
def test_bad_order_option_in_file_is_usage_error(tmp_path, order):
    # it used to exit 0, echo the value and report under grevlex
    prob = _problem_with_options(tmp_path, {"order": order})
    code, payload = run("hypotheses", "--input", prob)
    assert code == 1
    assert payload["error"] == ('option "order" must be one of '
                                f"['grevlex', 'lex'], not {order!r}")
    assert "options" not in payload


def test_order_option_in_file_is_echoed(tmp_path):
    for order in ("grevlex", "lex"):
        prob = _problem_with_options(tmp_path, {"order": order})
        code, payload = run("hypotheses", "--input", prob)
        assert code == 0
        assert payload["options"]["order"] == order


# ------------------------------------------------------- one bound per request


def _spy_on_bases(monkeypatch):
    """(function name, (max_degree, max_basis)) of the bound in effect at
    every groebner_basis and weyl_left_gb call, wherever a module of the
    package binds those names."""
    import importlib
    from fpowers import gb, weyl
    seen = []
    modules = [importlib.import_module(f"fpowers.{name}")
               for name in ("arrange", "bside", "cli", "gb", "liouville",
                            "logder", "nabla", "spencer", "weyl")]
    for real in (gb.groebner_basis, weyl.weyl_left_gb):
        def spy(*args, real=real, **kwargs):
            bound = gb.Limits.current()
            seen.append((real.__name__, (bound.max_degree, bound.max_basis)))
            return real(*args, **kwargs)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, name, spy)
    return seen


@pytest.mark.parametrize("cmd", ["hypotheses", "gr-check", "regularity",
                                 "liouville", "spencer"])
def test_every_basis_of_a_request_sees_its_bound(monkeypatch, cmd):
    # each of these commands used to run one to three bases under the
    # default bound whatever the request asked for
    from fpowers.gb import DEFAULT_LIMITS, Limits
    seen = _spy_on_bases(monkeypatch)
    code, payload = run(cmd, "--input", DATA / "ex_xy.json",
                        "--max-degree", "7", "--max-basis", "900")
    assert code == 0
    assert seen
    assert {bound for _, bound in seen} == {(7, 900)}
    assert Limits.current() is DEFAULT_LIMITS


def test_resource_limit_leaves_the_default_bound(monkeypatch):
    from fpowers.gb import DEFAULT_LIMITS, Limits
    code, _ = run("bs-ideal", "--input", DATA / "ex_mixed.json",
                  "--max-degree", "3")
    assert code == 3
    assert Limits.current() is DEFAULT_LIMITS
    seen = _spy_on_bases(monkeypatch)
    code, _ = run("logder", "--input", DATA / "ex_xy.json")
    assert code == 0
    assert {bound for _, bound in seen} <= {(60, 20000)}


def test_witness_without_form_builds_one_elimination_basis(monkeypatch):
    # bs_ideal and the witness share the spec's elimination basis
    seen = _spy_on_bases(monkeypatch)
    code, payload = run("witness", "--input", DATA / "ex_xy.json")
    assert code == 0
    assert payload["results"]["verified"] is True
    assert [name for name, _ in seen].count("weyl_left_gb") == 1
