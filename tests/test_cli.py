import json
import pathlib
from importlib import resources

import pytest

from chainmat import cli
from chainmat.cli import main
from chainmat.gallery import data_path, load_matrix
from chainmat.indepsys import IndependenceSystem, build_from_matrix, check_matroid, system_from_json, system_to_json
from chainmat.linalg import Mat, parse_matrix
from chainmat.rings import make_ring

from helpers import rng_for


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
    # over chain rings, and must print what the Howell build prints.
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
    code, out, err = run(capsys, "dual-code", "data:duality_may_fail_G")
    # the printed form is the greedy over the dual's sorted codewords
    assert (code, out, err) == (0, "ring zpn:2,2\ncols 1 2 3\n0 0 2\n2 1 1\n", "")
    dual = parse_matrix(out)
    want = parse_matrix(data_path("non_matroid.mat").read_text())
    assert build_from_matrix(dual).family == build_from_matrix(want).family


def _small_chain_ring_matrices():
    """Packaged chain-ring matrices whose oracle kernel scan has at most
    2^20 candidates (vamos_z8 has 8^8 and u212_z8 exceeds the guard)."""
    data = resources.files("chainmat").joinpath("data")
    names = sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".mat"))
    return [n for n in names
            if (m := load_matrix(f"{n}.mat")).ring.is_chain and m.ring.size**m.ncols <= 1 << 20]


@pytest.mark.parametrize("name", _small_chain_ring_matrices())
def test_dual_code_matches_oracle(capsys, name):
    # dual_code keeps the Howell kernel's generators; the command prints one form for both
    fast = run(capsys, "dual-code", f"data:{name}")
    assert fast[0] == 0
    assert run(capsys, "--oracle", "dual-code", f"data:{name}") == fast


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


def test_usage_errors(capsys, monkeypatch):
    # The bad-input corpus is in test_error_contract; these check the message.
    code, _, err = run(capsys, "snf", "data:not_monotonic")
    assert code == 2
    assert "NotChainRing" in err
    monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", "abc")
    code, _, err = run(capsys, "--oracle", "rank", "data:non_matroid", "-X", "1,2")
    assert code == 2
    assert "CHAINMAT_MAX_CLOSURE='abc'" in err
    # the guard takes ASCII decimal digits only, like every integer input
    for value in ("1_0", "٣٠٠"):
        monkeypatch.setenv("CHAINMAT_MAX_CLOSURE", value)
        code, out, err = run(capsys, "dual-code", "data:vamos_z8")
        assert (code, out) == (2, "")
        assert f"CHAINMAT_MAX_CLOSURE={value!r}" in err and err.count("\n") == 1


def test_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("ring z:4\ncols a b\n1 oops\n")
    code, _, err = run(capsys, "check-matroid", str(bad))
    assert code == 2
    assert "line 3" in err


def test_error_contract(capsys, tmp_path):
    # Every subcommand on a corpus of bad inputs: exit 2, nothing on stdout
    # and exactly one stderr line, "error: ...", never a traceback.
    def matrix(name, content):
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return str(path)

    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    bad_tables = [
        {"add": []},
        {"size": "4", "add": z4, "mul": z4},
        {"size": 4, "add": z4},
        {"size": 4, "add": z4, "mul": [["0", "1", "2", "3"]] * 4},
        {"size": 1, "add": [[0]], "mul": [[0]]},  # 1 = 0: not a local ring
        [4, z4, z4],
        "not json",
        '{"size": 2, "add": [[0, 1], [1, 0]], "mul": ',
    ]
    for i, table in enumerate(bad_tables):
        (tmp_path / f"t{i}.json").write_text(table if isinstance(table, str) else json.dumps(table))
    bad_files = [
        *(matrix(f"t{i}.mat", f"ring table:t{i}.json\ncols a b\n1 0\n") for i in range(len(bad_tables))),
        matrix("negative_exponent.mat", "ring fpu:2,2\ncols a b\nu^-1 1\n"),
        matrix("underscore.mat", "ring z:4\ncols a b\n1_0 1\n"),
        matrix("arabic_digit.mat", "ring z:4\ncols a b\n٣ 1\n"),
        matrix("word.mat", "ring z:4\ncols a b\n1 oops\n"),
        matrix("fpu_underscore.mat", "ring fpu:2,2\ncols a b\n1_1u 1\n"),
        matrix("table_underscore.mat", "ring table:f2xy_xx_yy\ncols a b\n1_0 1\n"),
        matrix("spec_underscore.mat", "ring z:1_6\ncols a b\n1 1\n"),
        matrix("ragged.mat", "ring z:4\ncols a b\n1 0\n1\n"),
        matrix("empty.mat", ""),
        matrix("duplicate.mat", "ring z:4\ncols a a\n1 2\n"),
        matrix("latin1.mat", b"ring z:4\ncols a b\n1 \xb2\n"),
        str(tmp_path),
        str(tmp_path / "missing.mat"),
    ]
    matrix_commands = [
        ["indep"], ["circuits"], ["rank"], ["check-matroid"], ["dual-code"], ["dual-system"],
        ["puncture", "-X", "a"], ["shorten", "-X", "a"], ["contractible", "-e", "a"],
        ["contract", "-X", "a"], ["minor"], ["snf"], ["systematic"],
    ]
    table = []
    for path in bad_files:
        for command in matrix_commands:
            table.append([command[0], path, *command[1:]])
        table += [["iso", path, "data:p6_z4"], ["iso", "data:p6_z4", path]]
    table += [
        # unknown labels
        ["indep", "data:p6_z4", "-X", "zz"],
        ["rank", "data:p6_z4", "-X", "a,zz"],
        ["puncture", "data:p6_z4", "-X", "zz"],
        ["shorten", "data:p6_z4", "-X", "zz"],
        ["contractible", "data:p6_z4", "-e", "zz"],
        ["contract", "data:p6_z4", "-X", "zz"],
        ["minor", "data:p6_z4", "--delete", "zz"],
        ["minor", "data:p6_z4", "--contract", "zz"],
        ["verify-gallery", "nosuch"],
        # packaged matrices that do not exist
        ["check-matroid", "data:nope"],
        ["check-matroid", "data:"],
        # a dual over the closure guard fails before it is spanned (8^10 words)
        ["dual-code", "data:u212_z8"],
        # more coordinates than the contraction search takes
        ["contract", "data:vamos_z8", "-X", "a,b,c,d,e,f,g"],
        # bad ring specs and numbers
        *(["uniform", "--ring", spec, "-n", "3"] for spec in ("z:1_6", "z:6", "fpu:2", "nosuch:4")),
        *(["bound", "--ring", spec, "-k", "2"] for spec in ("z:1_6", "zpn:2,1_0")),
        ["counting", "--ring", "z:1_6", "--shape", "1,0", "-s", "1"],
        ["counting", "--ring", "z:8", "--shape", "2,x", "-s", "3"],
        ["uniform", "--ring", "z:4", "-n", "0"],
        ["bound", "--ring", "z:4", "-k", "20000"],
        ["uniform", "--ring", "z:4", "-n", "-1"],
        ["bound", "--ring", "z:4", "-k", "-1"],
        ["bound", "--ring", "z:4", "-k", "1000000000"],
        ["counting", "--ring", "z:4", "--shape", "-1,0", "-s", "1"],
        ["counting", "--ring", "z:4", "--shape", "1,0", "-s", "-1"],
        ["counting", "--ring", "z:4", "--shape", "20000,0", "-s", "1"],
        # integer options take ASCII decimal digits only
        ["bound", "--ring", "z:4", "-k", "٢"],
        ["bound", "--ring", "z:4", "-k", "1_0"],
        ["uniform", "--ring", "z:4", "-n", "３"],
        ["counting", "--ring", "z:4", "--shape", "1,0", "-s", "٣"],
        ["counting", "--ring", "z:4", "--shape", "1_0,1", "-s", "1"],
        # usage
        [],
        ["nosuch"],
        ["rank"],
    ]
    for argv in table:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv, code, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, (argv, err)


_FUZZ_CHARS = "0123456789 ,:+-^_#\nxyuabz٣３"


def _mutate(rng, text: str) -> str:
    """``text`` after one to three random edits: a character replaced,
    deleted or inserted, or a line dropped or repeated."""
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(text) + 1), rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i + 1:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
        else:
            lines = text.split("\n")
            j = rng.randrange(len(lines))
            lines[j:j + 1] = rng.choice([[], [lines[j]] * 2])
            text = "\n".join(lines)
    return text


def _mutate_table(rng, table: dict) -> str:
    """The JSON text of a table ring after one structural or textual edit."""
    table = json.loads(json.dumps(table))
    size, op = table["size"], rng.randrange(6)
    if op == 0:  # the first s elements only, down to s = 0 and 1 (where 1 = 0)
        s = rng.randint(0, size)
        table.pop("names", None)
        table.update(size=s, **{key: [row[:s] for row in table[key][:s]] for key in ("add", "mul")})
    elif op == 1:
        row = rng.choice(table[rng.choice(("add", "mul"))])
        row[rng.randrange(len(row))] = rng.choice([-1, size, rng.randrange(size), "1", 1.5, None, True])
    elif op == 2:
        table["size"] = rng.choice([size - 1, size + 1, 0, -1, "4", None, 1 << 40])
    elif op == 3:
        del table[rng.choice(sorted(table))]
    elif op == 4:
        key = rng.choice(("add", "mul"))
        rows = table[key]
        i, j = rng.randrange(size), rng.randrange(size)
        rows[i], rows[j] = rows[j], rows[i]
    else:
        return _mutate(rng, json.dumps(table))
    return json.dumps(table)


def test_error_contract_fuzz(capsys, tmp_path):
    # Seeded random edits of packaged matrices, ring specs, integer options
    # and table files, through main in process: every case exits 0, 1 or 2,
    # on exit 2 with exactly one stderr line "error: ...", and no exception
    # escapes.  The ring caches are cleared between cases.
    rng = rng_for("cli-fuzz")
    data = resources.files("chainmat").joinpath("data")
    matrices = sorted(p.name for p in data.iterdir() if p.name.endswith(".mat"))
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    tables = [
        {"size": 4, "add": z4, "mul": [[a * b % 4 for b in range(4)] for a in range(4)]},
        json.loads(pathlib.Path(__file__).with_name("z4x_2x_xx.json").read_text()),
    ]
    specs = ["z:4", "z:8", "z:9", "zpn:2,3", "fpu:2,2", "z:5", "z:25", "table:f2xy_xx_yy", "table:f2xy_xx_xy_yy"]
    labels = ["a", "b", "1", "a,b", "1,2", "", ",", "zz"]
    matrix_commands = [
        ["indep"], ["circuits"], ["rank"], ["check-matroid"], ["dual-system"], ["dual-code"],
        ["snf"], ["systematic"], ["puncture", "-X"], ["shorten", "-X"], ["contractible", "-e"],
        ["contract", "-X"], ["minor", "--delete"], ["minor", "--contract"], ["indep", "-X"], ["rank", "-X"],
    ]

    def integer():
        small = rng.randint(-2, 8)
        return rng.choice([str(small), _mutate(rng, str(abs(small))), str(10 ** rng.randint(3, 12))])

    cases = []
    for i in range(200):
        path = tmp_path / f"m{i}.mat"
        path.write_text(_mutate(rng, data.joinpath(rng.choice(matrices)).read_text()))
        command = rng.choice(matrix_commands)
        cases.append([command[0], str(path), *(command[1:] and [command[1], rng.choice(labels)])])
    for _ in range(100):
        spec = _mutate(rng, rng.choice(specs))
        cases.append(rng.choice([
            ["uniform", "--ring", spec, "-n", str(rng.randint(2, 5))],
            ["bound", "--ring", spec, "-k", str(rng.randint(1, 3))],
            ["counting", "--ring", spec, "--shape", "1,1", "-s", "1"],
        ]))
    for _ in range(100):
        spec = rng.choice(specs[:5])
        cases.append(rng.choice([
            ["uniform", "--ring", spec, "-n", integer()],
            ["bound", "--ring", spec, "-k", integer()],
            ["counting", "--ring", spec, "--shape", f"{integer()},{integer()}", "-s", integer()],
        ]))
    for i in range(100):
        (tmp_path / f"t{i}.json").write_text(_mutate_table(rng, rng.choice(tables)))
        path = tmp_path / f"t{i}.mat"
        path.write_text(f"ring table:t{i}.json\ncols a b\n1 0\n0 1\n")
        command = rng.choice(matrix_commands[:8])
        cases.append([command[0], str(path)])
    for argv in cases:
        make_ring.cache_clear()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
        out = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out.err.startswith("error:") and out.err.count("\n") == 1, (argv, out.err)


def _json_blob(m, report) -> dict:
    """What ``system_to_json`` writes, as the blob ``json.dumps`` encodes."""
    return {
        "ground": list(m.labels),
        "independent": [sorted(s) for s in m.independent_sets()],
        "circuits": sorted(sorted(c) for c in m.circuits().members),
        "rank": report.rank,
        "is_matroid": report.is_matroid,
        "violations": [[sorted(a), sorted(b)] for a, b in report.violations],
    }


def test_system_json_is_the_indented_dump():
    # system_to_json writes the bytes of json.dumps(blob, indent=2) on
    # every packaged matrix, on a zero matrix (only loops, no violations),
    # on the empty ground set (no circuits) and on seeded random systems
    # whose labels need escaping
    data = resources.files("chainmat").joinpath("data")
    systems = [build_from_matrix(parse_matrix(p.read_text())) for p in sorted(data.iterdir()) if p.name.endswith(".mat")]
    assert len(systems) >= 19
    systems.append(build_from_matrix(Mat(make_ring("z:4"), ["a", "b"], [[0, 0]])))
    systems.append(IndependenceSystem([], {0}))
    rng = rng_for("system-json-bytes")
    names = ["é", "ß", "α1", "日本", '"q"', "back\\slash", "tab\tx", "x", "10", "\u2028", "🂡"]
    for _ in range(40):
        n = rng.randint(1, 8)
        fam = {0}
        for _ in range(rng.randint(0, 5)):
            top = sub = rng.randrange(1 << n)
            while sub:
                fam.add(sub)
                sub = (sub - 1) & top
        systems.append(IndependenceSystem(rng.sample(names, n), fam))
    assert any(not check_matroid(m).is_matroid for m in systems)
    assert any(not m.circuits().members for m in systems)
    for m in systems:
        report = check_matroid(m)
        assert system_to_json(m, report) == json.dumps(_json_blob(m, report), indent=2), m.labels
        assert system_to_json(m) == system_to_json(m, report)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_command_parser_reads_as_the_full_parser(capsys, monkeypatch):
    # main builds only the subparser argv names; help, usage errors and
    # their exit codes must be those of the parser with every subcommand
    monkeypatch.setenv("COLUMNS", "80")
    cases = [["--help"], [], ["nosuch"], ["--json", "nosuch", "x"], ["-h", "rank"], ["--oracle", "--help", "rank"],
             ["--js", "rank", "x"], ["--", "rank"], ["--json", "--oracle"]]
    for name in cli._COMMAND:
        assert cli._parser_for(["--json", name, "x"]).format_usage().count("{" + name + "}") == 1, name
        cases += [[name, "--help"], ["--oracle", name, "-h"], [name, "--bogus"], ["--json", name, "-X"]]
    got = [_outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "_parser_for", lambda argv: cli.build_parser())
    for argv, outcome in zip(cases, got):
        assert outcome == _outcome(capsys, argv), argv
        code, out, err = outcome
        assert code == ("exit", 0) or (code == 2 and out == "" and err.count("\n") == 1), argv
