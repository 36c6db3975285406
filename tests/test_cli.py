"""CLI surface: subcommands, CSV golden files, exit codes, round trips."""
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commdeg import cli
from commdeg.specs import build_group, load_group_spec
from conftest import SUBPROCESS_ENV

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "commdeg.cli", *args],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )


def test_degree_quaternion_prints_five_eighths():
    out = run_cli("degree", "--preset", "quaternion8")
    assert out.returncode == 0
    assert out.stdout.count("5/8") == 3
    for method in ("bruteforce", "centralizer_sum", "structural"):
        assert method in out.stdout


def test_degree_heisenberg_mod3():
    out = run_cli("degree", "--preset", "heisenberg-mod", "--p", "3")
    assert out.returncode == 0
    assert "11/27" in out.stdout


def test_degree_cyclic_is_one():
    out = run_cli("degree", "--preset", "cyclic", "--n", "7")
    assert out.returncode == 0
    assert "1" in out.stdout


def test_degree_mn_s3():
    out = run_cli("degree-mn", "--preset", "s3", "-m", "2", "-n", "1")
    assert out.returncode == 0
    assert "5/6" in out.stdout


def test_tower_heisenberg():
    out = run_cli("tower", "--preset", "heisenberg", "--p", "2", "--depth", "2")
    assert out.returncode == 0
    assert out.stdout.count("5/8") == 3  # two levels + stabilized line
    assert "antitone: OK" in out.stdout


def test_straight_dihedral_not_straight():
    out = run_cli("straight", "--preset", "continuous-dihedral", "--n", "2")
    assert out.returncode == 0
    assert "NOT n-straight" in out.stdout
    assert "flip" in out.stdout


@pytest.mark.parametrize("tol", ["0", "nan", "5"])
def test_straight_refuses_a_tol_that_cannot_decide(capsys, tol):
    assert cli.main(["straight", "--preset", "continuous-dihedral", "--n", "2", "--tol", tol]) == 1
    assert capsys.readouterr().err.startswith("error: tol ")


def test_straight_torus_straight():
    out = run_cli("straight", "--preset", "torus", "--dim", "2", "--n", "4")
    assert out.returncode == 0
    assert "straight for n=4" in out.stdout


def test_estimate_dihedral():
    out = run_cli(
        "estimate", "--preset", "dihedral", "-m", "1", "-n", "1",
        "--trials", "2000", "--seed", "3",
    )
    assert out.returncode == 0
    assert "exact = 1/4" in out.stdout


def test_info_s4():
    out = run_cli("info", "--preset", "s4")
    assert out.returncode == 0
    assert "order: 24" in out.stdout
    assert "5/24" in out.stdout


@pytest.mark.parametrize(
    "golden,args",
    [
        ("degree_quaternion8.csv", ["degree", "--preset", "quaternion8"]),
        ("degree_mn_s3.csv", ["degree-mn", "--preset", "s3", "-m", "2", "-n", "1"]),
        ("tower_heisenberg_p2.csv", ["tower", "--preset", "heisenberg", "--p", "2", "--depth", "2"]),
        ("estimate_dihedral_seed1.csv",
         ["estimate", "--preset", "dihedral", "-m", "1", "-n", "1", "--trials", "1000", "--seed", "1"]),
        ("straight_dihedral_n2.csv", ["straight", "--preset", "continuous-dihedral", "--n", "2"]),
        ("estimate_finite_q8_seed2.csv",
         ["estimate", "--preset", "quaternion8", "--trials", "500", "--seed", "2"]),
        ("info_quaternion8.csv", ["info", "--preset", "quaternion8"]),
    ],
)
def test_csv_golden_files(tmp_path, golden, args):
    target = tmp_path / "out.csv"
    out = run_cli(*args, "--csv", str(target))
    assert out.returncode == 0, out.stderr
    assert target.read_text() == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, command", [
    ("degree_quaternion8.txt", "degree --preset quaternion8"),
    ("degree_heisenberg_mod_p3.txt", "degree --preset heisenberg-mod --p 3"),
    ("degree_mn_s3.txt", "degree-mn --preset s3 -m 2 -n 1"),
    ("tower_heisenberg_p2.txt", "tower --preset heisenberg --p 2 --depth 2"),
    ("straight_dihedral_n2.txt", "straight --preset continuous-dihedral --n 2"),
    ("straight_so3_n3.txt", "straight --preset so3 --n 3"),
    ("estimate_dihedral_seed7.txt",
     "estimate --preset dihedral -m 1 -n 1 --trials 100000 --seed 7"),
    ("info_s4.txt", "info --preset s4"),
])
def test_readme_commands_print_their_golden_text(capsys, golden, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.encode() == (GOLDEN / golden).read_bytes()


def test_info_csv_golden_on_a_product_spec(tmp_path):
    spec = {"kind": "preset", "name": "dihedral", "params": {"n": 4}}
    for _ in range(3):
        spec = {"kind": "product", "a": spec,
                "b": {"kind": "preset", "name": "cyclic", "params": {"n": 4}}}
    path = tmp_path / "d4c4_3.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    target = tmp_path / "out.csv"
    out = run_cli("info", "--group", str(path), "--csv", str(target))
    assert out.returncode == 0, out.stderr
    assert target.read_text() == (GOLDEN / "info_d4c4_3.csv").read_text()


def test_group_file_roundtrip(tmp_path):
    spec = {
        "kind": "semidirect",
        "normal": {"kind": "preset", "name": "cyclic", "params": {"n": 5}},
        "acting": {"kind": "preset", "name": "cyclic", "params": {"n": 4}},
        "action": [[(x * pow(2, h, 5)) % 5 for x in range(5)] for h in range(4)],
    }
    path = tmp_path / "f20.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    reloaded = load_group_spec(path)
    a = build_group(spec)
    b = build_group(reloaded)
    assert np.array_equal(a.mult, b.mult)
    out = run_cli("degree", "--group", str(path))
    assert out.returncode == 0
    assert "1/4" in out.stdout  # d(F20) = 25/400


def test_tower_file_input(tmp_path):
    doc = {
        "name": "two-level-klein",
        "levels": [
            {"kind": "preset", "name": "cyclic", "params": {"n": 2}},
            {"kind": "preset", "name": "klein4"},
        ],
        "bonds": [[0, 1, 0, 1]],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    out = run_cli("tower", "--group", str(path))
    assert out.returncode == 0
    assert "antitone: OK" in out.stdout


_C4 = {"kind": "preset", "name": "cyclic", "params": {"n": 4}}


@pytest.mark.parametrize("command, doc", [
    ("degree", {"kind": "quotient", "group": _C4, "normal": [0, 2, 9]}),
    ("tower", {
        "levels": [{"kind": "preset", "name": "cyclic", "params": {"n": 2}}, _C4],
        "bonds": [[0, 1, 0, 5]],
    }),
])
def test_exit_code_one_on_out_of_range_index(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli(command, "--group", str(path))
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, doc", [
    ("tower", {"levels": [_C4, _C4], "bonds": [[0, 1, 2, 3], [0, 1, 2, 3]]}),
    ("tower", {"levels": _C4, "bonds": []}),
    ("degree", {"kind": "cayley", "table": 5}),
    ("degree", {"kind": "permgen", "degree": 3, "generators": 5}),
    ("degree", {"kind": "permgen", "degree": 3, "generators": [5]}),
    ("degree", {"kind": "matmodgen", "mod": 3, "dim": 2, "generators": 5}),
    ("degree", {"kind": "quotient", "group": _C4, "normal": 5}),
    ("straight", {"dim": 1, "certificates": 5}),
    ("straight", {"dim": 1, "certificates": [{"label": "r", "adjoint": 5}]}),
    # integers are read exactly: no truncation, parsing, wrapping or bools
    ("degree", {"kind": "cayley", "table": [[0, 1.9], [1.2, 0]]}),
    ("degree", {"kind": "cayley", "table": [[0, "1"], ["1", 0]]}),
    ("degree", {"kind": "cayley", "table": [[0, 4294967297], [1, 0]]}),
    ("degree", {"kind": "permgen", "degree": 3.7, "generators": [[1, 0, 2]]}),
    ("degree", {"kind": "permgen", "degree": 3, "generators": [[1.5, 0, 2]]}),
    ("degree", {"kind": "matmodgen", "mod": 5.5, "dim": 2, "generators": [[1, 1, 0, 1]]}),
    ("degree", {"kind": "matmodgen", "mod": 5, "dim": 2, "generators": [[1, 1.5, 0, 1]]}),
    ("degree", {"kind": "preset", "name": "cyclic", "params": {"n": 4.9}}),
    ("degree", {"kind": "preset", "name": "cyclic", "params": {"n": "5"}}),
    ("degree", {"kind": "preset", "name": "cyclic", "params": {"n": None}}),
    ("degree", {"kind": "preset", "name": "cyclic", "params": {"n": True}}),
    ("degree", {"kind": "preset", "name": "cyclic", "params": [1]}),
    ("degree", {"kind": "preset", "name": ["x"]}),
    ("degree", {"kind": "semidirect", "normal": {"kind": "preset", "name": "cyclic",
                                                 "params": {"n": 3}},
                "acting": {"kind": "preset", "name": "cyclic", "params": {"n": 2}},
                "action": [[0, 1, 2], [0, 2.5, 1]]}),
    ("degree", {"kind": "quotient", "group": _C4, "normal": [0, True]}),
    ("tower", {"levels": [{"kind": "preset", "name": "cyclic", "params": {"n": 2}}, _C4],
               "bonds": [[0, 1.0, 0, 1.9]]}),
    ("straight", {"dim": 1, "certificates": [
        {"label": "r", "order": 2.5, "adjoint": [["-1.0"]]}]}),
    ("straight", {"dim": 1.5, "certificates": [{"label": "r", "adjoint": [["1.0"]]}]}),
])
def test_exit_code_one_on_malformed_document(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = run_cli(command, "--group", str(path))
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_exit_code_one_on_missing_file():
    out = run_cli("degree", "--group", "/nonexistent/g.json")
    assert out.returncode == 1
    assert "error" in out.stderr


def test_exit_code_one_on_unknown_preset(capsys):
    out = run_cli("degree", "--preset", "monster")
    assert out.returncode == 1
    assert out.stderr.startswith("error: unknown group preset 'monster'; known: a4, ")
    # a name that is no sampler preset is a finite group to estimate
    for argv, message in [
        (["estimate", "--preset", "monster"], "unknown group preset 'monster'; known: a4, "),
        (["tower", "--preset", "monster", "--p", "2"],
         "unknown tower preset 'monster'; known: cyclic, elementary, heisenberg\n"),
        (["straight", "--preset", "monster"],
         "unknown Lie preset 'monster'; known: continuous-dihedral, so3, su2, torus\n"),
    ]:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_exit_code_one_on_both_sources(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{}")
    out = run_cli("degree", "--group", str(path), "--preset", "s3")
    assert out.returncode == 1


def test_exit_code_one_on_bad_cayley(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "cayley", "table": [[0, 1], [1, 1]]}))
    out = run_cli("degree", "--group", str(path))
    assert out.returncode == 1


@pytest.mark.parametrize("argv, route, method, named", [
    (["degree", "--preset", "quaternion8"], "degree_structural", "structural",
     "Q8 (order 8): bruteforce=5/8, centralizer_sum=5/8, structural=1/2"),
    (["degree-mn", "--preset", "s3", "-m", "2", "-n", "1"], "degree_mn_pushforward",
     "pushforward", "S3 (order 6): bruteforce=5/6, pushforward=1/2"),
], ids=["degree", "degree-mn"])
def test_exit_code_two_on_crosscheck_mismatch(monkeypatch, capsys, argv, route, method, named):
    from commdeg.degrees import DegreeReport
    from fractions import Fraction

    def broken(G, *powers):
        return DegreeReport(Fraction(1, 2), method, G.name, G.order, *powers)

    monkeypatch.setattr(f"commdeg.degrees.{route}", broken)
    rc = cli.main(argv)
    assert rc == 2
    # the group and every route with its value
    assert capsys.readouterr() == ("", f"cross-check error: exact routes disagree on {named}\n")


def test_exit_code_three_on_nonconvergence(monkeypatch, capsys):
    from commdeg.errors import NonConvergence

    def exploding(preset, n, tol):
        raise NonConvergence("eigensolver wedged")

    monkeypatch.setattr("commdeg.lie.straightness_verdict", exploding)
    rc = cli.main(["straight", "--preset", "so3", "--n", "2"])
    assert rc == 3
    assert "numeric" in capsys.readouterr().err


def test_order_cap_flag(tmp_path):
    out = run_cli("degree", "--preset", "s4", "--order-cap", "10")
    assert out.returncode == 1
    assert "cap" in out.stderr


def test_estimate_rejects_tiny_trials():
    out = run_cli("estimate", "--preset", "dihedral", "--trials", "50")
    assert out.returncode == 1


@pytest.mark.parametrize("preset", ["su2", "quaternion8"])
def test_estimate_refuses_more_trials_than_substreams(capsys, preset):
    assert cli.main(["estimate", "--preset", preset, "--trials", str((1 << 64) + 1)]) == 1
    assert capsys.readouterr().err == "error: trials must be at most 2^64, one RNG substream each\n"


@pytest.mark.parametrize("args", [
    ("degree", "--preset", "s3", "--n", "abc"),
    ("degree", "--preset", "s3", "--bogus"),
    ("degree", "--preset", "s3", "--d", "3"),  # no abbreviations
    ("degree", "--preset", "s3", "--n"),
    ("bogus",),
    (),
])
def test_usage_errors_exit_one(args):
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_usage_errors_return_one_in_process(capsys):
    assert cli.main(["degree", "--bogus"]) == 1
    assert cli.main([]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: commdeg degree: unrecognized arguments: --bogus",
                   "error: commdeg: the following arguments are required: subcommand"]


def test_help_exits_zero():
    out = run_cli("degree", "-h")
    assert out.returncode == 0
    assert "--order-cap" in out.stdout


# Each subcommand's flags besides --group, --preset and --csv.
_FLAG_TABLE = {
    "degree": {"--p", "--n", "--order-cap"},
    "info": {"--p", "--n", "--order-cap"},
    "degree-mn": {"--p", "--n", "-m", "-n", "--order-cap"},
    "tower": {"--p", "--depth", "-m", "-n", "--order-cap"},
    "straight": {"--dim", "--tol", "-n", "--n"},
    "estimate": {"--p", "--n", "--dim", "-m", "-n", "--trials", "--seed", "--order-cap"},
}
_SOURCE_FLAGS = {"--group", "--preset", "--csv"}
_EVERY_FLAG = set().union(*_FLAG_TABLE.values(), _SOURCE_FLAGS)


@pytest.mark.parametrize("command, flag", sorted(
    (command, flag) for command, table in _FLAG_TABLE.items()
    for flag in _EVERY_FLAG - table - _SOURCE_FLAGS
))
def test_a_flag_outside_the_table_exits_one(capsys, command, flag):
    assert cli.main([command, "--preset", "s3", flag, "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: commdeg {command}: unrecognized arguments: {flag} 2\n"


@pytest.mark.parametrize("command", sorted(_FLAG_TABLE))
def test_help_lists_exactly_the_table(capsys, command):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == _FLAG_TABLE[command] | _SOURCE_FLAGS | {"-h", "--help"}


def test_straight_power_has_two_spellings_defaulting_to_two():
    parse = cli.build_parser().parse_args
    assert parse(["straight", "--preset", "so3"]).n == 2
    assert parse(["straight", "--preset", "so3", "-n", "3"]).n == 3
    assert parse(["straight", "--preset", "so3", "--n", "4"]).n == 4


@pytest.mark.parametrize("command, flags", [
    ("degree", ["--p", "3"]),
    ("tower", ["--depth", "2"]),
    ("straight", ["--dim", "2"]),
    ("estimate", ["--n", "4"]),
])
def test_preset_parameters_with_a_group_file_exit_one(tmp_path, capsys, command, flags):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "preset", "name": "s3"}))
    assert cli.main([command, "--group", str(path), *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: a --group file reads no preset parameters: {flags[0]}\n")


@pytest.mark.parametrize("flags", [["--n", "4"], ["--p", "3"]])
def test_estimate_refuses_finite_parameters_on_a_sampler_preset(capsys, flags):
    argv = ["estimate", "--preset", "dihedral", "--trials", "1000", *flags]
    assert cli.main(argv) == 1
    assert f"preset 'dihedral' does not read {flags[0][2:]}" in capsys.readouterr().err


def test_a_preset_parameter_the_preset_does_not_read_exits_one(tmp_path, capsys):
    out = run_cli("degree", "--preset", "quaternion8", "--p", "3")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (
        "error: preset 'quaternion8' does not read p; it reads no parameters\n")
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"kind": "preset", "name": "s4", "params": {"n": 5}}))
    out = run_cli("degree", "--group", str(path))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: preset 's4' does not read n; it reads no parameters\n"
    assert cli.main(["tower", "--preset", "cyclic", "--depth", "2"]) == 1
    assert capsys.readouterr().err == "error: preset 'cyclic' is missing parameter 'p'\n"


@pytest.mark.parametrize("argv, unread", [
    (["info", "--preset", "cyclic", "--n", "4", "--p", "2"], "p"),
    (["degree-mn", "--preset", "heisenberg-mod", "--p", "3", "--n", "2"], "n"),
    (["estimate", "--preset", "s4", "--dim", "3", "--trials", "1000"], "dim"),
    (["estimate", "--preset", "dihedral", "--dim", "3"], "dim"),
    (["estimate", "--preset", "torus-x-quaternion8", "--dim", "2"], "dim"),
    (["straight", "--preset", "so3", "--dim", "4"], "dim"),
    (["straight", "--preset", "continuous-dihedral", "--dim", "2"], "dim"),
], ids=["info", "degree-mn", "estimate", "estimate-dihedral", "estimate-torus-x-quaternion8",
        "straight-so3", "straight-continuous-dihedral"])
def test_unread_preset_parameters_are_named(capsys, argv, unread):
    assert cli.main(argv) == 1
    assert f"does not read {unread};" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, key", [
    ("degree", {"kind": "preset"}, "name"),
    ("degree", {"kind": "product", "a": {"kind": "preset", "name": "s3"}}, "b"),
    ("tower", {"levels": [{"kind": "preset", "name": "s3"}]}, "bonds"),
])
def test_a_missing_key_is_named(tmp_path, capsys, command, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--group", str(path)]) == 1
    assert capsys.readouterr().err == f"error: input is missing key '{key}'\n"


_C2 = [[0, 1], [1, 0]]
_S3_PERM = {"kind": "permgen", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
_LEVEL = {"kind": "preset", "name": "cyclic", "params": {"n": 2}}


@pytest.mark.parametrize("command, doc, err", [
    ("degree", {"kind": "cayley", "table": _C2, "labels": "ab"},
     "cayley spec: 'labels' must be a list of strs"),
    ("degree", {"kind": "cayley", "table": _C2, "labels": {"x": 1, "y": 2}},
     "cayley spec: 'labels' must be a list of strs"),
    ("degree", {"kind": "cayley", "table": _C2, "labels": [1, None]},
     "cayley spec: 'labels' must be a list of strs"),
    ("degree", {"kind": "cayley", "table": _C2, "name": 5},
     "cayley spec: 'name' must be a string, not 5"),
    ("degree", {"kind": "cayley", "table": _C2, "name": ["x"]},
     "cayley spec: 'name' must be a string, not ['x']"),
    ("degree", {**_S3_PERM, "name": 5}, "permgen spec: 'name' must be a string, not 5"),
    ("degree", {"kind": "matmodgen", "mod": 2, "dim": 1, "generators": [[1]], "name": 5},
     "matmodgen spec: 'name' must be a string, not 5"),
    ("tower", {"name": ["t"], "levels": [_LEVEL], "bonds": []},
     "tower: 'name' must be a string, not ['t']"),
    ("straight", {"name": 5, "dim": 1, "certificates": []},
     "certificate document: 'name' must be a string, not 5"),
    ("straight", {"dim": 1, "certificates": [{"label": 7, "adjoint": [["1"]]}]},
     "certificate: 'label' must be a string, not 7"),
], ids=["labels-string", "labels-object", "labels-null", "cayley-name-number",
        "cayley-name-list", "permgen-name", "matmodgen-name", "tower-name",
        "certificate-document-name", "certificate-label"])
def test_text_fields_are_read_exactly(tmp_path, capsys, command, doc, err):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([command, "--group", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


# ---------------------------------------------------------------------------
# a subcommand imports only its own modules

_LOADED = (
    "import sys\n"
    "from commdeg.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(*sys.modules, file=sys.stderr)\n"
)


def loaded_modules(*args):
    """Every module a CLI process has loaded at exit (``import commdeg.cli``
    alone when no arguments are given)."""
    code = _LOADED if args else "import sys, commdeg.cli; print(*sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert out.returncode == 0, out.stderr
    return set(out.stderr.split())


@pytest.mark.parametrize("args, absent", [
    ((), {"numpy"}),
    (("straight", "--preset", "so3", "--n", "3"), {"commdeg.groups", "commdeg.sampler"}),
    (("estimate", "--preset", "dihedral", "-m", "1", "-n", "1", "--trials", "1000"),
     {"commdeg.groups", "commdeg.lie"}),
    (("degree", "--preset", "quaternion8"),
     {"commdeg.lie", "commdeg.sampler", "commdeg.towers", "numpy.ma"}),
    # the estimators' thread pool is imported only when it runs
    ((), {"concurrent.futures"}),
    (("degree", "--preset", "quaternion8"), {"concurrent.futures"}),
    # 1000 trials are one sub-chunk
    (("estimate", "--preset", "dihedral", "-m", "1", "-n", "1", "--trials", "1000"),
     {"concurrent.futures"}),
    (("tower", "--preset", "heisenberg", "--p", "2", "--depth", "2"),
     {"commdeg.lie", "commdeg.sampler"}),
])
def test_subcommand_loads_only_its_own_modules(args, absent):
    loaded = loaded_modules(*args)
    assert "commdeg.cli" in loaded
    assert not loaded & absent


def test_package_names_resolve_to_their_defining_modules():
    import importlib

    import commdeg

    for name in commdeg.__all__:
        home = importlib.import_module(f"commdeg.{commdeg._HOME[name]}")
        want = home if name == "errors" else getattr(home, name)
        assert getattr(commdeg, name) is want, name
    with pytest.raises(AttributeError, match="no_such_name"):
        commdeg.no_such_name  # noqa: B018


def test_package_exports_are_pinned():
    import commdeg

    assert sorted(commdeg.__all__) == [
        "DegreeReport", "Distribution", "Estimate", "FiniteAction", "GroupTable",
        "Homomorphism", "LieElement", "LiePreset", "SampledElement", "StraightnessVerdict",
        "Subgroup", "Tower", "TowerReport", "adjoint_eigenvalues", "alpha_matrix",
        "build_group", "build_lie_preset", "build_tower_preset", "center", "centralizer",
        "characteristic_abelian_subgroup", "commutator_subgroup", "commutes",
        "conjugacy_classes", "conjugation_action", "cyclic_tower", "degree_bruteforce",
        "degree_centralizer_sum", "degree_mn", "degree_mn_pushforward", "degree_of_product",
        "degree_structural", "direct_product", "elementary_tower", "equalizer_prob_via_group",
        "equalizer_prob_via_points", "errors", "estimate_degree_mn", "estimate_finite",
        "fc_class_growth", "fixed_set", "get_sampler_preset", "haar", "heisenberg_tower",
        "is_singular", "is_totally_singular", "isotropy", "orbits", "power_map",
        "product_degree_partials", "pushforward_power", "quotient", "sample",
        "semidirect_product", "singular_via_alpha", "straightness_fraction",
        "straightness_verdict", "tower_degrees",
    ]


def test_package_names_are_not_cached(monkeypatch):
    import commdeg
    import commdeg.degrees

    original = commdeg.degrees.degree_bruteforce
    with monkeypatch.context() as m:
        m.setattr(commdeg.degrees, "degree_bruteforce", lambda G: None)
        assert commdeg.degree_bruteforce is not original
    assert commdeg.degree_bruteforce is original
    assert "degree_bruteforce" not in vars(commdeg)
