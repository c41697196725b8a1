import json
import subprocess
import sys
import time

import numpy as np
import pytest

from subdesigns import design as de
from subdesigns import formats as fmt
from subdesigns import strongbridge as sb
from subdesigns import sumrank as sr
from subdesigns.cli import main as cli_main
from subdesigns.errors import FormatError
from subdesigns.gf import make_tower
from subdesigns.repro import glued_design, pseudoregulus_design, twisted_design


def test_tower_round_trip(tmp_path):
    t = make_tower(3, 2, 2)
    blob = fmt.dumps(fmt.tower_to_json(t))
    again = fmt.tower_from_json(json.loads(blob))
    assert again is t  # cache hit on identical parameters
    assert fmt.dumps(fmt.tower_to_json(again)) == blob  # byte-stable


def test_design_round_trip():
    D = pseudoregulus_design(3, 2, 1, 2)
    blob = fmt.dumps(fmt.design_to_json(D))
    D2 = fmt.design_from_json(json.loads(blob))
    assert D2.members == D.members
    assert fmt.dumps(fmt.design_to_json(D2)) == blob


def test_subspace_rows_must_be_canonical():
    D = pseudoregulus_design(3, 2, 1, 2)
    obj = fmt.design_to_json(D)
    obj["members"][0][0], obj["members"][0][1] = obj["members"][0][1], obj["members"][0][0]
    with pytest.raises(FormatError):
        fmt.design_from_json(obj)


@pytest.mark.parametrize("fault", ["tower p", "tower p text", "fq_modulus", "fqm_modulus digit", "ambient k",
                                   "ambient k text", "ambient k bool", "member digit", "member digit bool",
                                   "code lengths", "generator digit"])
def test_readers_refuse_non_integral_numbers(fault):
    # int() would truncate 2.5 to 2, read true as 1 and "3" as 3, and so read another object;
    # each reader refuses them instead
    C = sr.code_from_system(pseudoregulus_design(3, 2, 1, 2))
    design, code = fmt.design_to_json(C.design), fmt.code_to_json(C)
    obj, read = (code, fmt.code_from_json) if fault in ("code lengths", "generator digit") else (design, fmt.design_from_json)
    tower = design["ambient"]["tower"]
    {"tower p": lambda: tower.update(p=3.5), "tower p text": lambda: tower.update(p=" 3 "), "fq_modulus": lambda: tower["fq_modulus"].__setitem__(0, 1.5),
     "fqm_modulus digit": lambda: tower["fqm_modulus"][0].__setitem__(0, 2.5),
     "ambient k": lambda: design["ambient"].update(k=2.5), "ambient k text": lambda: design["ambient"].update(k="x"),
     "ambient k bool": lambda: design["ambient"].update(k=True),
     "member digit": lambda: design["members"][0][0][0].__setitem__(0, 1.5),
     "member digit bool": lambda: design["members"][0][0][0].__setitem__(0, True),
     "code lengths": lambda: code["lengths"].__setitem__(0, 2.5),
     "generator digit": lambda: code["generator"][0][0][0].__setitem__(0, 1.5)}[fault]()
    with pytest.raises(FormatError, match="is not an integer"):
        read(json.loads(json.dumps(obj)))


def test_code_round_trip():
    C = sr.code_from_system(pseudoregulus_design(3, 2, 1, 2))
    blob = fmt.dumps(fmt.code_to_json(C))
    C2 = fmt.code_from_json(json.loads(blob))
    assert np.array_equal(C2.generator, C.generator) and C2.lengths == C.lengths
    assert fmt.dumps(fmt.code_to_json(C2)) == blob


def test_strong_design_round_trip():
    S, _ = sb.cameron_liebler("point_pencil", 1, 3, 2)
    blob = fmt.dumps(fmt.strong_design_to_json(S))
    S2 = fmt.strong_design_from_json(json.loads(blob))
    assert [V.basis.tolist() for V in S2.members] == [V.basis.tolist() for V in S.members]
    assert fmt.dumps(fmt.strong_design_to_json(S2)) == blob


@pytest.mark.parametrize("key", [(3, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("fault", ["coefficient count", "digit count", "digit p", "digit -1", "digit 10**30"])
def test_malformed_element_digits_are_value_errors(key, fault):
    p, h, m = key
    t = make_tower(p, h, m)
    rest = [[0] * h for _ in range(m - 1)]
    bad = {"coefficient count": rest, "digit count": [[0] * (h + 1)] + rest, "digit p": [[p] * h] + rest,
           "digit -1": [[-1] * h] + rest, "digit 10**30": [[10**30] * h] + rest}[fault]
    with pytest.raises(ValueError):
        t.element(bad)
    with pytest.raises(FormatError):
        fmt.element_from_json(t, bad)


def test_histogram_csv():
    assert fmt.histogram_csv({2: 9, 0: 1}) == "weight,count\n0,1\n2,9\n"


# --- CLI ------------------------------------------------------------------------


def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_construct_profile_classify(tmp_path, capsys):
    out = tmp_path / "design.json"
    assert run_cli("construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1",
                   "--mus", "1,i+1", "-o", str(out)) == 0
    assert out.exists()
    capsys.readouterr()
    assert run_cli("profile", str(out), "--s", "1") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["A_min"] == 1 and rep["non_degenerate"]
    assert run_cli("classify", str(out)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["per_s"]["1"]["is_maximum"]


def test_cli_weights_msrd_cutting_srg_minimal(tmp_path, capsys):
    design = tmp_path / "d.json"
    code = tmp_path / "c.json"
    hist = tmp_path / "hist.csv"
    enum = tmp_path / "enum.csv"
    run_cli("construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1",
            "--mus", "1,i+1", "-o", str(design))
    capsys.readouterr()
    assert run_cli("weights", str(design), "--hist-csv", str(hist), "--enumerator-csv", str(enum)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["histogram"] == {"0": 2, "1": 8}
    assert hist.read_text().startswith("intersection,count")
    assert enum.read_text().splitlines()[0] == "weight,count"
    spectrum = tmp_path / "spec.csv"
    assert run_cli("msrd", str(design), "--emit-code", str(code),
                   "--spectrum-csv", str(spectrum)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_msrd"] and rep["d"] == 3
    assert spectrum.read_text().splitlines()[0] == "weight,count"
    assert run_cli("cutting", str(design)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cutting"] is False and rep["witness_rows"]
    assert run_cli("minimal", str(code), "--method", "pairs") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["minimal"] is False
    dot = tmp_path / "graph.dot"
    assert run_cli("srg", str(design), "--dot", str(dot)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["v"], rep["K"]) == (81, 64)  # v = 9^2, K = N(q^m - 1) = 8 * 8
    assert dot.read_text().startswith("graph srg {")


def test_cli_dual_and_expander(tmp_path, capsys):
    design = tmp_path / "d.json"
    run_cli("construct", "twisted", "--q", "3", "--m", "3", "--k", "2",
            "--alphas", "1,2", "--eta", "0", "-o", str(design))
    capsys.readouterr()
    dual = tmp_path / "dual.json"
    assert run_cli("dual", "ordinary", str(design), "--s", "1", "--A", "1", "-o", str(dual)) == 0
    capsys.readouterr()
    assert dual.exists()
    assert run_cli("dual", "delsarte", str(design)) == 0
    capsys.readouterr()
    assert run_cli("expander", str(design), "--beta", "default", "--max-dim", "1",
                   "--target", "1/6", "2") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is True and rep["per_dim"]["1"]["count"] == 364


def test_cli_dual_with_A_below_A_min_is_a_parameter_mismatch(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(glued_design(2, 2, 4, 1))))  # A_min = 2 at s = 2
    assert run_cli("dual", "ordinary", str(design), "--s", "2") == 1  # --A defaults to 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ParameterMismatch"


def test_cli_strong_verbs(tmp_path, capsys):
    strong = tmp_path / "strong.json"
    assert run_cli("strong", "cameron-liebler", "--kind", "point_pencil",
                   "--n", "1", "--k", "3", "--q", "2", "-o", str(strong)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["predicted"]["A"] == 8
    assert run_cli("strong", "verify", str(strong), "--s", "2") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["A_min"] == 8


def test_cli_field_partition_and_direct_sum(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "sum.json"
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "2", "--k", "3", "-o", str(a)) == 0
    capsys.readouterr()
    assert run_cli("construct", "direct-sum", str(a), str(a), "-o", str(b)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dims"] == [6, 6, 6]


def test_cli_errors_and_exit_codes(tmp_path, capsys):
    # module error -> exit 1 with machine-readable JSON
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "2", "--k", "2") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "GcdViolation"
    # usage error -> argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-verb")
    assert exc.value.code == 2
    # malformed file -> FormatError JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli("classify", str(bad)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "FormatError"


def test_cli_enlarge_with_too_few_increments_is_bad_parameters(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))  # 2 members
    assert run_cli("construct", "enlarge", str(design), "--s", "1", "--increments", "1") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": "BadParameters", "message": "one increment per member"}


def test_cli_code_with_an_empty_block_is_bad_parameters(tmp_path, capsys):
    obj = fmt.code_to_json(sr.code_from_system(pseudoregulus_design(3, 2, 1, 2)))
    obj["lengths"] = obj["lengths"] + [0]  # the generator still has sum(lengths) columns
    code = tmp_path / "c.json"
    code.write_text(fmt.dumps(obj))
    assert run_cli("minimal", str(code)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "BadParameters", "message": "block lengths must be positive"}


def test_cli_malformed_element_is_a_format_error(tmp_path, capsys):
    # a subspace design's rows hold F_q scalars, one digit list each, not the m lists of an F_8 element
    design = tmp_path / "d.json"
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "3", "--k", "2", "-o", str(design)) == 0
    capsys.readouterr()
    assert run_cli("strong", "verify", str(design), "--s", "1") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FormatError"


def test_cli_strong_verify_of_a_code_file_is_a_format_error(tmp_path, capsys):
    design, code = tmp_path / "d.json", tmp_path / "c.json"
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "3", "--k", "2", "-o", str(design)) == 0
    assert run_cli("msrd", str(design), "--emit-code", str(code)) == 0
    capsys.readouterr()
    assert run_cli("strong", "verify", str(code), "--s", "1") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FormatError"


def test_cli_cameron_liebler_complement_of_one_kind(capsys):
    assert run_cli("strong", "cameron-liebler", "--kind", "complement", "--of", "point_pencil",
                   "--n", "1", "--k", "3", "--q", "2") == 0
    rep = json.loads(capsys.readouterr().out)
    S, predicted = sb.cameron_liebler("complement", 1, 3, 2, params={"of": "point_pencil"})
    assert (rep["t"], rep["predicted"]["x"]) == (S.t, predicted["x"]) == (28, 4)


def test_cli_cap(tmp_path, capsys):
    design = tmp_path / "d.json"
    run_cli("construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1",
            "--mus", "1,i+1", "-o", str(design))
    capsys.readouterr()
    # a tiny cap trips EnumerationCapExceeded through the error path
    assert run_cli("--cap", "3", "profile", str(design), "--s", "1") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "EnumerationCapExceeded"


def test_cli_sampled_expander_checks_the_cap_before_drawing(tmp_path, capsys):
    # 3 * 10^7 draws of a 1 x 6 matrix would fill gigabytes; the cap refuses them before any is
    # drawn, in a child process limited to 2 GiB of address space
    design = tmp_path / "d2.json"
    run_cli("construct", "twisted", "--q", "3", "--m", "3", "--k", "2", "--alphas", "1,2", "--eta", "0",
            "-o", str(design))
    capsys.readouterr()
    argv = ["--cap", "100", "expander", str(design), "--beta", "default", "--max-dim", "1",
            "--mode", "sample", "--samples", "30000000"]
    check = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from subdesigns.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error": "EnumerationCapExceeded",
                                    "message": "30000000 sampled subspaces of dim 1 exceed cap 100"}


def test_cli_verbs_check_their_caps_before_allocating(tmp_path, capsys):
    # one child process limited to 2 GiB of address space runs each verb on the headline design (and
    # strong verify on the PG(3, 2) point pencil) with a cap below its first checked count: each
    # refuses with one line of typed-error JSON before it builds anything.
    headline, strong = tmp_path / "headline.json", tmp_path / "strong.json"
    headline.write_text(fmt.dumps(fmt.design_to_json(glued_design(3, 3, 4, 2))))
    run_cli("strong", "cameron-liebler", "--kind", "point_pencil", "--n", "1", "--k", "3", "--q", "2",
            "-o", str(strong))
    capsys.readouterr()
    h = str(headline)
    hyperplanes, classes = "20440 hyperplanes exceed cap 10", "20440 subspaces of dim 1 exceed cap 10"
    runs = [
        (["profile", h, "--s", "2"], "552610 subspaces of dim 2 exceed cap 10"),
        (["classify", h], classes),
        (["weights", h], hyperplanes),
        (["cutting", h], hyperplanes),
        (["srg", h, "--verify-graph"], hyperplanes),
        (["msrd", h], "20440 classes exceed cap 10"),
        (["minimal", h, "--method", "geometric"], hyperplanes),
        (["minimal", h, "--method", "pairs"], "417793600 codeword pairs exceed cap 10"),
        (["dual", "delsarte", h], "20440 classes exceed cap 10"),
        (["strong", "verify", str(strong), "--s", "2"], "35 subspaces of dim 2 exceed cap 10"),
    ]
    argvs = [["--cap", "10", *argv] for argv, _ in runs]
    check = (
        "import contextlib, io, json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from subdesigns.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    print(json.dumps([code, out.getvalue()]))\n"
    )
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and len(results) == len(runs), proc.stderr
    for (_, message), (code, out) in zip(runs, results):
        assert code == 1 and out.count("\n") == 1
        assert json.loads(out) == {"error": "EnumerationCapExceeded", "message": message}


def test_headline_verbs_leave_numpy_ma_unimported(tmp_path):
    # np.unique without counts imports numpy.ma; no headline verb sorts its way to an answer, so none
    # of weights, srg, msrd, cutting and classify pulls it into a fresh process
    headline = tmp_path / "headline.json"
    headline.write_text(fmt.dumps(fmt.design_to_json(glued_design(3, 3, 4, 2))))
    argvs = [[verb, str(headline)] for verb in ("weights", "srg", "msrd", "cutting", "classify")]
    check = (
        "import contextlib, io, sys\n"
        "from subdesigns.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_missing_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "pseudoregulus", "--m", "2", "--r", "1", "--mus", "1")
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needed", [
    (["construct", "basis-partition", "--q", "3", "--m", "2", "--k", "2"], "--partition"),
    (["construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1"], "--mus"),
    (["construct", "enlarge", "DESIGN", "--s", "1"], "--increments"),
    (["construct", "enlarge", "--s", "1", "--increments", "1,1"], "an input file"),
])
def test_cli_missing_construct_argument_is_a_usage_error(tmp_path, capsys, argv, needed):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))
    with pytest.raises(SystemExit) as exc:
        run_cli(*[str(design) if a == "DESIGN" else a for a in argv])
    assert exc.value.code == 2
    assert needed in capsys.readouterr().err


def test_cli_profile_s_out_of_range(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))
    assert run_cli("profile", str(design), "--s", "3") == 1  # k = 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "DimensionMismatch"


def test_cli_empty_designs_are_errors(tmp_path, capsys):
    obj = fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))
    obj["members"] = []
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(obj))
    S, _ = sb.cameron_liebler("point_pencil", 1, 3, 2)
    obj = fmt.strong_design_to_json(S)
    obj["members"] = []
    strong = tmp_path / "s.json"
    strong.write_text(fmt.dumps(obj))
    for argv in (["weights", str(design)], ["strong", "verify", str(strong), "--s", "1"],
                 ["construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1", "--mus", ""]):
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "BadParameters"


@pytest.mark.parametrize("m", [5, 6])
def test_cli_tower_above_field_size_cap(capsys, m):
    # F_25^5 and F_25^6 exceed fieldcore.LAZY_CAP; refused before any modulus search
    assert run_cli("construct", "pseudoregulus", "--q", "25", "--m", str(m), "--r", "1", "--mus", "1") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "BadParameters"


def test_cli_missing_file_is_a_format_error(tmp_path, capsys):
    assert run_cli("classify", str(tmp_path / "absent.json")) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "FormatError"


def test_cli_q_not_a_prime_power(capsys):
    assert run_cli("construct", "pseudoregulus", "--q", "6", "--m", "2", "--r", "1", "--mus", "1") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "BadParameters"


def test_cli_minimal_accepts_design_json(tmp_path, capsys):
    design = tmp_path / "d.json"
    run_cli("construct", "field-partition", "--q", "2", "--m", "2", "--k", "3", "-o", str(design))
    capsys.readouterr()
    assert run_cli("minimal", str(design)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["minimal"] is True


def test_cli_repro_single_criterion(capsys):
    assert run_cli("repro", "paper-examples", "--only", "7,8") == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion 7" in out and "[PASS] criterion 8" in out


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "subdesigns.cli", "repro", "paper-examples", "--only", "9"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "[PASS] criterion 9" in proc.stdout


def test_cli_field_partition_above_field_size_cap(capsys):
    # F_{3^15} exceeds fieldcore.LAZY_CAP; refused before the field is built
    assert run_cli("construct", "field-partition", "--q", "3", "--m", "5", "--k", "3") == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "BadParameters"


@pytest.mark.parametrize("argv,option", [
    (["construct", "basis-partition", "--q", "3", "--m", "2", "--k", "2", "--partition", "1;x"], "--partition"),
    (["construct", "enlarge", "DESIGN", "--s", "1", "--increments", "1,x"], "--increments"),
])
def test_cli_non_integer_lists_are_usage_errors(tmp_path, capsys, argv, option):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))
    with pytest.raises(SystemExit) as exc:
        run_cli(*[str(design) if a == "DESIGN" else a for a in argv])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv,option", [
    (["--mode", "sample", "--samples", "0"], "--samples"),
    (["--mode", "sample", "--samples", "-3"], "--samples"),
    (["--target", "1/6", "x"], "--target"),
    (["--target", "1/0", "2"], "--target"),
])
def test_cli_expander_bad_values_are_usage_errors(tmp_path, capsys, argv, option):
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(twisted_design(3, 3, 2, 2))))
    with pytest.raises(SystemExit) as exc:
        run_cli("expander", str(design), "--max-dim", "1", *argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def _design_text_with_k(k) -> str:
    obj = fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))
    obj["ambient"]["k"] = k
    return json.dumps(obj)


@pytest.mark.parametrize("argv,outcome", [
    (["construct", "twisted", "--q", "3", "--m", "2", "--k", "0"], "--k"),
    (["construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "0", "--mus", "1"], "--r"),
    (["construct", "pseudoregulus", "--q", "3", "--m", "0", "--r", "1", "--mus", "1"], "--m"),
    (["--cap", "0", "classify", "DESIGN"], "--cap"),
    (["construct", "twisted", "--q", "3", "--m", "2", "--k", "2", "--alphas", "1", "--eta", "zz"], "BadParameters"),
    (["construct", "twisted", "--q", "3", "--m", "2", "--k", "2", "--alphas", "1", "--eta", "1,2"], "BadParameters"),
    (["construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1", "--mus", "1,g"], "BadParameters"),
    (["strong", "verify", "STRONG", "--s", "0"], "DimensionMismatch"),
    (["strong", "places", 'FILE:{"m": 3, "members": [[[1]]], "p": [1, 1, 0, 1], "zeta": 2, "k": 2}'], "FormatError"),
    (["strong", "places", "FILE:[4, 3]"], "FormatError"),
    (["strong", "places", 'FILE:{"q": "x", "m": 3, "members": [[[1]]], "p": [1, 1, 0, 1], "zeta": 2, "k": 2}'],
     "FormatError"),
    (["strong", "places", 'FILE:{"q": 4, "m": 3, "members": [[["a"]]], "p": [1, 1, 0, 1], "zeta": 2, "k": 2}'],
     "FormatError"),
    (["minimal", "FILE:5"], "FormatError"),
    (["classify", "FILE:" + _design_text_with_k(2.5)], "FormatError"),
    (["strong", "places", 'FILE:{"q": 4, "m": 3, "members": [[[1]]], "p": [1, 1, 0, 1], "zeta": 2.7, "k": 2}'],
     "FormatError"),
])
def test_cli_bad_values_never_raise_a_traceback(tmp_path, capsys, argv, outcome):
    # out-of-range integers are usage errors (exit 2); unparsable elements, s = 0 and malformed
    # input files (FILE:<the file's text>) are error JSON
    design, strong = tmp_path / "d.json", tmp_path / "s.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))
    strong.write_text(fmt.dumps(fmt.strong_design_to_json(sb.cameron_liebler("point_pencil", 1, 3, 2)[0])))
    files = {"DESIGN": design, "STRONG": strong}
    for a in argv:
        if a.startswith("FILE:"):
            files[a] = tmp_path / "input.json"
            files[a].write_text(a[len("FILE:"):])
    argv = [str(files.get(a, a)) for a in argv]
    if outcome.startswith("--"):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert outcome in capsys.readouterr().err
    else:
        assert run_cli(*argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == outcome


def test_cli_main_calls_in_one_process_match_separate_processes(tmp_path, capsys):
    # main parses every argv with one cached parser: options and defaults must not carry from one call
    # to the next, so each call prints what a fresh process prints
    design = tmp_path / "d.json"
    design.write_text(fmt.dumps(fmt.design_to_json(pseudoregulus_design(3, 2, 1, 2))))
    calls = [
        ["--cap", "3", "profile", str(design), "--s", "1"],
        ["profile", str(design), "--s", "1"],
        ["minimal", str(design), "--method", "pairs"],
        ["minimal", str(design)],
    ]
    in_process = []
    for argv in calls:
        rc = cli_main(argv)
        in_process.append((rc, capsys.readouterr().out))
    separate = [subprocess.run([sys.executable, "-m", "subdesigns.cli", *argv], capture_output=True, text=True,
                               timeout=120) for argv in calls]
    assert in_process == [(proc.returncode, proc.stdout) for proc in separate]
    assert [rc for rc, _ in in_process] == [1, 0, 0, 0]


def _one_error_line(capsys, *argv) -> dict:
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("change,error", [
    ({"zeta": 1e308}, "NotInBaseField"),
    ({"zeta": -2}, "NotInBaseField"),
    ({"p": [1, 1e308, 0, 1]}, "NotInBaseField"),
    ({"p": [1, 4, 0, 1]}, "NotInBaseField"),
    ({"members": [[[1], [0, 10**30]]]}, "NotInBaseField"),
    ({"m": 0}, "BadParameters"),
    ({"m": 2**31}, "BadParameters"),
    ({"q": 2**61 - 1}, "BadParameters"),
    ({"k": 2**31}, "PlacesCollide"),  # tau has order q - 1 = 3: the fourth place repeats the first
])
def test_cli_places_spec_out_of_range_is_one_error_line(tmp_path, capsys, change, error):
    # a places spec over F_4 with one value out of range: refused at once, with no traceback
    spec = tmp_path / "places.json"
    spec.write_text(json.dumps({"q": 4, "m": 3, "members": [[[1], [0, 1]]], "p": [1, 1, 0, 1], "zeta": 2, "k": 2,
                                **change}))
    start = time.perf_counter()
    assert _one_error_line(capsys, "strong", "places", str(spec))["error"] == error
    assert time.perf_counter() - start < 1


def test_cli_design_with_k_zero_is_one_error_line(tmp_path, capsys):
    design = tmp_path / "d.json"
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "2", "--k", "3", "-o", str(design)) == 0
    capsys.readouterr()
    obj = json.loads(design.read_text())
    obj["ambient"]["k"] = 0
    design.write_text(json.dumps(obj))
    assert _one_error_line(capsys, "cutting", str(design))["error"] == "DimensionMismatch"


@pytest.mark.parametrize("fault", ["ragged", "short"])
def test_cli_strong_design_with_a_bad_member_row_is_one_error_line(tmp_path, capsys, fault):
    strong = tmp_path / "s.json"
    obj = fmt.strong_design_to_json(sb.cameron_liebler("point_pencil", 1, 3, 2)[0])
    rows = obj["members"][0]
    if fault == "ragged":
        rows[1] = rows[1][:-1]
    else:
        obj["members"][0] = [row[:-1] for row in rows]
    strong.write_text(json.dumps(obj))
    assert _one_error_line(capsys, "strong", "verify", str(strong), "--s", "2")["error"] == "FormatError"


def test_cli_code_with_a_ragged_generator_row_is_one_error_line(tmp_path, capsys):
    design, code = tmp_path / "d.json", tmp_path / "c.json"
    assert run_cli("construct", "field-partition", "--q", "2", "--m", "3", "--k", "2", "-o", str(design)) == 0
    assert run_cli("msrd", str(design), "--emit-code", str(code)) == 0
    capsys.readouterr()
    obj = json.loads(code.read_text())
    obj["generator"][1] = obj["generator"][1][:-1]
    code.write_text(json.dumps(obj))
    assert _one_error_line(capsys, "minimal", str(code))["error"] == "FormatError"
