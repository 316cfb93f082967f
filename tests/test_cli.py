import contextlib
import io
import json

import pytest

from conftest import run_python
from superkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_unknown_suite_usage_error(capsys):
    code, _ = run(capsys, "identities", "--suite", "nope")
    assert code == 2


def test_brackets_suite_passes(capsys):
    code, out = run(capsys, "identities", "--suite", "brackets", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "brackets"
    assert all(c["status"] == "pass" for c in data["checks"])
    assert "ledger" in data and "eps_lower" in data["ledger"]


def test_algebra_suite_reports_known_route_defect(capsys):
    code, out = run(capsys, "identities", "--suite", "algebra", "--json")
    data = json.loads(out)
    by_id = {c["id"]: c["status"] for c in data["checks"]}
    assert by_id["algebra.anticommutation_ie"] == "pass"
    assert by_id["algebra.susy_invariance"] == "pass"
    assert by_id["algebra.chiral_kernel"] == "pass"
    # the factorized/composed comparison is honestly red (ledger L7)
    assert by_id["algebra.d2_route_equivalence"] == "fail"
    assert code == 1


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "--alpha", "1", "--beta", "1/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["spins"] == {"0.5": 1, "1.5": 1}
    assert data["dimension"] == 6


def test_multiplet_and_content(capsys):
    code, out = run(capsys, "multiplet", "--sigma", "0", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["spins"] == {"0": 2, "0.5": 1}
    assert data["bosonic"] == data["fermionic"] == 2
    code, out = run(capsys, "content", "--sigma", "1", "--json")
    data = json.loads(out)
    assert data["superspins"] == {"0.5": 1, "1": 2, "1.5": 1}


def test_orbit_classify(capsys):
    code, out = run(capsys, "orbit-classify", "--momentum", "[1,1,0,0]", "--json")
    assert code == 0
    assert json.loads(out)["orbit"] == "NullPlus"
    code, out = run(capsys, "orbit-classify", "--momentum", "[0,1,0,0]", "--json")
    assert json.loads(out)["orbit"] == "ImaginaryMass"


def test_kernel_dirac_and_chiral(capsys):
    code, out = run(capsys, "kernel", "--symbol", "dirac", "--mass", "1",
                    "--momentum", "[[5,4],[3,4],0,0]", "--json")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 2
    code, out = run(capsys, "kernel", "--symbol", "chiral", "--mass", "1",
                    "--momentum", "[2,1,1,1]", "--json")
    assert json.loads(out)["kernel_dim"] == 4
    code, out = run(capsys, "kernel", "--symbol", "superspin0", "--mass", "1",
                    "--momentum", "[2,1,1,1]", "--json")
    data = json.loads(out)
    assert data["constraints"]["bosonic_factor"] == "0"
    code, _ = run(capsys, "kernel", "--symbol", "bogus", "--momentum", "[1,0,0,0]")
    assert code == 2


def test_solve_and_wz_check(capsys):
    code, out = run(capsys, "solve", "--mass", "1", "--momentum", "[2,1,1,1]",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert "phi" in data and "psi1" in data
    code, out = run(capsys, "wz-check", "--mass", "1", "--momentum", "[2,1,1,1]",
                    "--grid", "9,0.2", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["status"] == "pass" for c in data["checks"])
    code, _ = run(capsys, "solve", "--mass", "1", "--momentum", "[3,1,1,1]")
    assert code == 2


@pytest.mark.parametrize("momentum, detail", [
    ("[2,1,1,1]", "Lambda_4 module dim 64, expected 64"),
    ("[1.25,0.6,0.0,0.45]", "skipped (float momentum)"),
], ids=["exact", "float"])
def test_wz_check_reports_lambda_n_equivalence(capsys, momentum, detail):
    code, out = run(capsys, "wz-check", "--mass", "1", "--momentum", momentum, "--json")
    assert code == 0
    check = {c["id"]: c for c in json.loads(out)["checks"]}["lambda_n_equivalence"]
    assert (check["status"], check["max_error"], check["detail"]) == ("pass", 0.0, detail)


def test_superft_files(tmp_path, capsys):
    fin = tmp_path / "f.json"
    fout = tmp_path / "fhat.json"
    fin.write_text(json.dumps({
        "side": "position",
        "components": {"1|": [[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1]]},
    }))
    code, _ = run(capsys, "superft", "--input", str(fin), "--output", str(fout))
    assert code == 0
    data = json.loads(fout.read_text())
    assert data["side"] == "momentum"
    # psi-slot lands on tau^1 (x) taubar^12 with factor i
    assert data["components"]["1|12"][0][:2] == [0.0, 1.0]


@pytest.mark.parametrize("content", [
    None, "not json", '{"components": {"|": [[1,0,"x",0,0,0,1]]}}',
    # monomial keys outside '<I>|<J>' with I, J in '', '1', '2', '12'
    '{"components": {"21|": [[1,0,1,0,0,0,1]], "12|": [[2,0,1,0,0,0,1]]}}',
    '{"components": {"11|": [[1,0,1,0,0,0,1]]}}',
    '{"components": {"|22": [[1,0,1,0,0,0,1]]}}',
    '{"components": {"9|": [[1,0,1,0,0,0,1]]}}',
    '{"components": {"1|3": [[1,0,1,0,0,0,1]]}}',
    # rows: non-finite, boolean, a sign other than +-1, too short, an int beyond
    # the float range; components, then the whole file, not an object
    '{"components": {"|": [[NaN,0,1,0,0,0,1]]}}',
    '{"components": {"|": [[1,0,1,Infinity,0,0,1]]}}',
    '{"components": {"|": [[1,0,true,0,0,0,1]]}}',
    '{"components": {"|": [[1,0,1,0,0,0,2]]}}',
    '{"components": {"|": [[1,0,1,0,0,0]]}}',
    '{"components": {"|": [[1,0,1' + "0" * 400 + ',0,0,0,1]]}}',
    '{"components": []}', '[]',
])
def test_superft_bad_input_is_a_usage_error(tmp_path, capsys, content):
    """A missing file, a non-JSON file, a bad monomial key and a bad row exit
    2 with one line."""
    fin = tmp_path / "f.json"
    if content is not None:
        fin.write_text(content)
    assert main(["superft", "--input", str(fin)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()] and err.startswith("superkit superft: ")


def test_human_report_follows_redirect_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["pipeline", "--mass", "1", "--momentum", "[1,0,0,0]"]) == 0
    lines = buf.getvalue().splitlines()
    assert lines[0] == "suite: pipeline  (seed 0)" and lines[-1] == "result: all passed"


def test_pipeline_rest_momentum(capsys):
    code, out = run(capsys, "pipeline", "--mass", "1", "--momentum", "[1,0,0,0]",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["status"] == "pass" for c in data["checks"])


@pytest.mark.parametrize("command", ["pipeline", "wz-check"])
def test_chirality_is_tested_once(capsys, monkeypatch, command):
    """pipeline reports the chirality check and wz-check lets wz_operator
    test it; neither tests the same superfunction again."""
    from superkit import components
    seen = []
    is_chiral = components.is_chiral
    monkeypatch.setattr(components, "is_chiral", lambda f, tol=0.0: seen.append(f)
                        or is_chiral(f, tol))
    code, _ = run(capsys, command, "--mass", "1", "--momentum", "[[5,4],[3,4],0,0]", "--json")
    assert code == 0 and len(seen) == 1


@pytest.mark.parametrize("seed", range(10))
def test_pipeline_grid_at_rest(capsys, seed):
    # the refined grid must cover the same domain, or the kg ratio mixes the
    # domain with the order of the scheme (5.32 at seed 0 on half the domain)
    code, out = run(capsys, "pipeline", "--mass", "1", "--momentum", "[1,0,0,0]",
                    "--grid", "9,0.2", "--seed", str(seed), "--json")
    assert code == 0
    grid = {c["id"]: c for c in json.loads(out)["checks"]}["grid_convergence"]
    assert grid["status"] == "pass" and grid["detail"].startswith("kg ratio ")
    assert ", dirac ratio " in grid["detail"]


@pytest.mark.parametrize("command", ["pipeline", "wz-check", "solve"])
def test_superkit_tol_reaches_the_shell_test(capsys, monkeypatch, command):
    argv = [command, "--mass", "1", "--momentum", "[1.000001,0.0,0.0,0.0]"]
    monkeypatch.delenv("SUPERKIT_TOL", raising=False)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("off orbit: ")
    monkeypatch.setenv("SUPERKIT_TOL", "1e-3")
    assert main(argv) == 0


@pytest.mark.parametrize("momentum", [
    "[2,0,0,0]",
    # exact and off shell by 2e-10: within float tolerance, but never exact
    "[[10000000001,10000000000],0,0,0]",
], ids=["integer", "exact-near-shell"])
def test_pipeline_off_orbit_usage(capsys, momentum):
    assert main(["pipeline", "--mass", "1", "--momentum", momentum]) == 2
    err = capsys.readouterr().err
    assert err.startswith("off orbit: ") and len(err.strip().splitlines()) == 1


def test_pipeline_boosted_float_momentum(capsys):
    import math
    q = f"[{math.cosh(1)},{math.sinh(1)},0.0,0.0]"
    code, out = run(capsys, "pipeline", "--mass", "1", "--momentum", q, "--json")
    assert code == 0
    data = json.loads(out)
    assert all(c["status"] == "pass" for c in data["checks"])
    assert max(c["max_error"] for c in data["checks"]) <= 1e-9


def test_momentum_rejects_json_booleans(capsys):
    # bool is an int subclass, so true/false would otherwise read as 1/0
    for text in ("[true,0,0,0]", "[1,0,0,false]", "[[1,true],0,0,0]"):
        assert main(["orbit-classify", "--momentum", text]) == 2, text
        assert "bad momentum component" in capsys.readouterr().err


def test_momentum_pairs_must_be_integer_ratios(capsys):
    for text in ("[[1,0],0,0,0]", "[[1.5,2],0,0,0]"):
        code, _ = run(capsys, "orbit-classify", "--momentum", text)
        assert code == 2, text
    code, out = run(capsys, "orbit-classify", "--momentum", "[[5,4],[3,4],0,0]", "--json")
    assert code == 0
    assert json.loads(out)["orbit"] == "MassivePlus"


@pytest.mark.parametrize("argv", [
    ["pipeline", "--mass", "-1", "--momentum", "[1,0,0,0]"],
    ["pipeline", "--mass", "0", "--momentum", "[1,1,0,0]"],
    ["kernel", "--symbol", "dirac", "--mass", "-1", "--momentum", "[1,0,0,0]"],
    ["solve", "--mass", "1/0", "--momentum", "[1,0,0,0]"],
    ["decompose", "--alpha", "1/3", "--beta", "1"],
    ["decompose", "--alpha", "1", "--beta", "-1/2"],
    ["multiplet", "--sigma", "1/3"],
    ["content", "--sigma", "-1"],
    ["pipeline", "--mass", "1", "--momentum", "[1,0,0,0]", "--grid", "3,0.2"],
    ["wz-check", "--mass", "1", "--momentum", "[2,1,1,1]", "--grid", "3,0.2"],
    ["wz-check", "--mass", "1", "--momentum", "[2,1,1,1]", "--grid", "9,0"],
    ["pipeline", "--mass", "1", "--momentum", "[1,0,0,0]", "--grid", "9,nan"],
    ["orbit-classify", "--momentum", "[0,0,0,0]", "--tol", "-1"],
    ["solve", "--momentum", "[1e400,0,0,0]"],
    ["pipeline", "--mass", "1", "--momentum", "[NaN,0,0,0]"],
    ["orbit-classify", "--momentum", "[Infinity,0,0,0]"],
    ["wz-check", "--mass", "1", "--momentum", "[1,0,0,-Infinity]"],
])
def test_bad_numeric_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(f"superkit {argv[0]}: error: ")


@pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
def test_bad_superkit_tol_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SUPERKIT_TOL", value)
    assert main(["orbit-classify", "--momentum", "[0,0,0,0]"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()] and err.startswith("superkit: SUPERKIT_TOL: ")


def test_superkit_tol_reaches_every_float_check_of_the_symbols_suite(capsys, monkeypatch):
    """At tolerance 0 the float shell test in the boost and the float rank of
    the Dirac symbol both fail; the exact checks still pass."""
    argv = ["identities", "--suite", "symbols", "--json"]
    monkeypatch.setenv("SUPERKIT_TOL", "0")
    code, out = run(capsys, *argv)
    status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
    assert code == 1
    assert status == {"symbols.propagation_route": "fail", "symbols.dirac_kernel": "fail",
                      "symbols.superspin0_elimination": "pass",
                      "symbols.divergence_kernel": "pass"}
    monkeypatch.delenv("SUPERKIT_TOL")
    code, out = run(capsys, *argv)
    assert code == 0


def test_momentum_constraints_count_a_zero_bosonic_factor_at_tolerance_0(capsys, monkeypatch):
    """At p = (1.25, 0.6, 0, 0.45) the float bosonic factor |p|^2 - m^2 is
    exactly 0, so momentum_constraints passes even at SUPERKIT_TOL=0."""
    monkeypatch.setenv("SUPERKIT_TOL", "0")
    _, out = run(capsys, "pipeline", "--mass", "1", "--momentum", "[1.25,0.6,0.0,0.45]", "--json")
    status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["momentum_constraints"] == "pass"


def test_kernel_superspin0_dims_follow_superkit_tol(capsys, monkeypatch):
    """|p|^2 - m^2 = -0.0091 at p = (1.25, 0.6, 0, 0.46): off shell at the
    default tolerance, on shell at SUPERKIT_TOL=0.01."""
    argv = ["kernel", "--symbol", "superspin0", "--momentum", "[1.25,0.6,0.0,0.46]", "--json"]
    dims = {}
    for tol in ("1e-9", "0.01"):
        monkeypatch.setenv("SUPERKIT_TOL", tol)
        code, out = run(capsys, *argv)
        assert code == 0
        dims[tol] = json.loads(out)["constraints"]["solution_dims_paired"]
    assert dims == {"1e-9": [0, 0], "0.01": [2, 2]}


def test_superkit_tol_is_read_when_main_runs(capsys, monkeypatch):
    import math
    q = f"[{math.cosh(1)},{math.sinh(1)},0.0,0.0]"
    monkeypatch.setenv("SUPERKIT_TOL", "0")
    code, _ = run(capsys, "pipeline", "--mass", "1", "--momentum", q)
    assert code == 1    # float residuals are never exactly 0


def test_parser_is_built_once_and_superkit_tol_read_per_call(monkeypatch):
    from superkit.cli import build_parser
    assert build_parser() is build_parser()
    argv = ["pipeline", "--mass", "1", "--momentum", "[1.000001,0.0,0.0,0.0]"]
    for tol, code in (("1e-3", 0), ("1e-9", 2), ("1e-3", 0)):
        monkeypatch.setenv("SUPERKIT_TOL", tol)
        assert main(argv) == code, tol


def test_python_m_superkit_runs_from_a_checkout():
    proc = run_python("-m", "superkit", "identities", "--suite", "symbols", "--seed", "0", "--json")
    assert proc.returncode == 0, proc.stderr
    assert {c["status"] for c in json.loads(proc.stdout)["checks"]} == {"pass"}
