import json
from importlib import resources

from chainmat.cli import main
from chainmat.gallery import data_path
from chainmat.indepsys import build_from_matrix, system_from_json, system_to_json
from chainmat.linalg import parse_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_matroid_violation_exit_code(capsys):
    code, out, _ = run(capsys, "check-matroid", "data:non_matroid")
    assert code == 1
    assert "I1=['1']" in out and "I2=['2', '3']" in out


def test_oracle_check_matroid_agrees(capsys):
    # --oracle builds every packaged matrix by submodule enumeration, also
    # over chain rings, and must print what the SNF build prints.
    data = resources.files("chainmat").joinpath("data")
    names = sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".mat"))
    assert len(names) >= 19
    for name in names:
        want = run(capsys, "--json", "check-matroid", f"data:{name}")
        assert run(capsys, "--oracle", "--json", "check-matroid", f"data:{name}") == want, name


def test_check_matroid_pass(capsys):
    code, out, _ = run(capsys, "check-matroid", "data:vamos_z8")
    assert code == 0
    assert "matroid: True" in out


def test_verify_gallery(capsys):
    code, out, _ = run(capsys, "verify-gallery", "vamos-z8")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify-gallery", "--all")
    assert code == 0
    assert out.count("pass") >= 10


def test_uniform_unrepresentable(capsys):
    code, out, _ = run(capsys, "uniform", "--ring", "z:4", "-n", "7")
    assert code == 1
    assert "unrepresentable: n > 6" in out
    code, out, _ = run(capsys, "uniform", "--ring", "z:4", "-n", "6")
    assert code == 0
    assert "ring zpn:2,2" in out


def test_rank_and_indep(capsys):
    code, out, _ = run(capsys, "rank", "data:non_matroid", "-X", "1,2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "indep", "data:non_matroid", "-X", "2,3")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "indep", "data:non_matroid", "-X", "1,2")
    assert "False" in out


def test_circuits_oracle_flag(capsys):
    code, plain, _ = run(capsys, "circuits", "data:non_matroid")
    code2, oracle, _ = run(capsys, "--oracle", "circuits", "data:non_matroid")
    assert code == code2 == 0
    assert plain == oracle


def test_json_mode_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "indep", "data:duality_may_fail_G")
    assert code == 0
    system = system_from_json(out)
    want = build_from_matrix(parse_matrix(data_path("duality_may_fail_G.mat").read_text()))
    assert system == want
    assert json.loads(system_to_json(want))["ground"] == list(want.labels)


def test_snf_and_systematic(capsys):
    code, out, _ = run(capsys, "snf", "data:duality_may_fail_G")
    assert code == 0
    assert "exponents: [0, 1]" in out
    code, out, _ = run(capsys, "systematic", "data:duality_may_fail_G")
    assert code == 1
    assert "not free" in out
    code, out, _ = run(capsys, "systematic", "data:vamos_z8")
    assert code == 0
    assert "# column order: a b c e" in out


def test_dual_code_roundtrip(capsys):
    code, out, _ = run(capsys, "dual-code", "data:duality_may_fail_G")
    assert code == 0
    dual = parse_matrix(out)
    want = parse_matrix(data_path("non_matroid.mat").read_text())
    assert build_from_matrix(dual).family == build_from_matrix(want).family
    code, oracle_out, _ = run(capsys, "--oracle", "dual-code", "data:duality_may_fail_G")
    assert oracle_out == out


def test_shorten_and_contract(capsys):
    code, out, _ = run(capsys, "shorten", "data:shortening_of_matroid_is_not_matroid", "-X", "4")
    assert code == 0
    shortened = parse_matrix(out)
    want = parse_matrix(data_path("non_matroid.mat").read_text())
    from chainmat.codes import Code

    assert Code.from_matrix(shortened) == Code.from_matrix(want)
    code, out, _ = run(capsys, "contract", "data:shortening_not_representing_contraction", "-X", "1")
    assert code == 1
    assert "not contractible" in out
    code, once, _ = run(capsys, "contract", "data:p6_z4", "-X", "a")
    assert code == 0
    code, twice, err = run(capsys, "contract", "data:p6_z4", "-X", "a,a")
    assert (code, twice, err) == (0, once, "")
    code, out, _ = run(capsys, "contractible", "data:vamos_z8", "-e", "a")
    assert code == 0
    assert out.startswith("yes")


def test_minor_command(capsys):
    code, out, _ = run(capsys, "minor", "data:non_matroid", "--delete", "1")
    assert code == 0
    assert "circuits: []" in out
    code, out, _ = run(capsys, "minor", "data:non_matroid", "--contract", "2")
    assert code == 0
    assert "['1']" in out


def test_counting_and_bound(capsys):
    code, out, _ = run(capsys, "counting", "--ring", "z:8", "--shape", "2,0,0", "-s", "3")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(capsys, "bound", "--ring", "z:4", "-k", "2", "--antichain")
    assert code == 0
    assert "simple-size bound: 6" in out
    assert "cyclic antichain width: 6" in out


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "data:p8eq_f5", "data:p8eq_z4")
    assert code == 0 and "isomorphic" in out
    code, out, _ = run(capsys, "iso", "data:u26_z4", "data:p6_z4")
    assert code == 1 and "not isomorphic" in out


def test_usage_errors(capsys, monkeypatch, tmp_path):
    duplicate_labels = tmp_path / "dup.mat"
    duplicate_labels.write_text("ring z:4\ncols a a\n1 2\n")
    negative_exponent = tmp_path / "neg.mat"
    negative_exponent.write_text("ring fpu:2,2\ncols a\nu^-1\n")
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    bad_tables = []
    for i, table in enumerate((
        {"add": []},
        {"size": "4", "add": z4, "mul": z4},
        {"size": 4, "add": z4},
        {"size": 4, "add": z4, "mul": [["0", "1", "2", "3"]] * 4},
        [4, z4, z4],
        "not json",
    )):
        (tmp_path / f"t{i}.json").write_text(table if isinstance(table, str) else json.dumps(table))
        bad_tables.append(tmp_path / f"t{i}.mat")
        bad_tables[-1].write_text(f"ring table:{tmp_path / f't{i}.json'}\ncols a\n1\n")
    code, _, err = run(capsys, "check-matroid", "/nonexistent/file.mat")
    assert code == 2
    code, _, err = run(capsys, "snf", "data:not_monotonic")
    assert code == 2
    assert "NotChainRing" in err
    for argv in (
        ["verify-gallery", "nosuch"],
        ["counting", "--ring", "z:8", "--shape", "2,x", "-s", "3"],
        ["uniform", "--ring", "z:4", "-n", "0"],
        ["bound", "--ring", "z:4", "-k", "20000"],
        ["bound", "--ring", "z:4", "-k", "1000000000"],
        ["counting", "--ring", "z:4", "--shape", "20000,0", "-s", "1"],
        ["counting", "--ring", "z:4", "--shape", "-1,0", "-s", "1"],
        ["minor", "data:p6_z4", "--delete", "zz"],
        ["minor", "data:p6_z4", "--contract", "zz"],
        ["rank", str(duplicate_labels)],
        ["rank", str(negative_exponent)],
        *(["rank", str(path)] for path in bad_tables),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "abc")
    code, _, err = run(capsys, "--oracle", "rank", "data:non_matroid", "-X", "1,2")
    assert code == 2
    assert "CHAINMAT_MAX_CLOSURE='abc'" in err


def test_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("ring z:4\ncols a b\n1 oops\n")
    code, _, err = run(capsys, "check-matroid", str(bad))
    assert code == 2
    assert "line 3" in err
