"""Command-line contract: exit codes, report determinism, dumps."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import orbitcert
from conftest import exp_nilpotent
from orbitcert.cli import main
from orbitcert.forms import StandardModel
from orbitcert.linalg import Matrix
from orbitcert.orbits import _quadric_nilpotents
from orbitcert.scalars import Tower
from orbitcert.witnesses import (Witness, build_group,
                                 transport_positive_line_sp)


def _fresh_witness_file(tmp_path, name="w.json"):
    model = StandardModel.projective_split(Tower(), 1)
    w = transport_positive_line_sp(model, [1, 0], [3, 1])
    path = tmp_path / name
    path.write_text(json.dumps(w.to_json()))
    return path


def test_verify_smoke_case(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "projective-split", "--n", "1", "--samples", "5",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "orbitcert-report/1"
    assert report["status"] == "pass"
    assert report["summary"]["fail"] == 0
    assert report["config"]["case"] == "projective-split"
    assert {c["status"] for c in report["checks"]} == {"pass"}


def test_verify_writes_to_stdout_by_default(capsys):
    rc = main(["verify", "projective-split", "--n", "1", "--samples", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "projective-split", "--n", "1", "--samples", "2"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == printed


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "isotropic", "--p", "2", "--q", "1",
            "--samples", "4", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["verify", "projective-split", "--n", "1", "--samples", "3"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["config"]["seed"] != rb["config"]["seed"]
    assert ra["status"] == rb["status"] == "pass"


def test_usage_errors(capsys):
    assert main(["verify", "isotropic", "--p", "2", "--q", "2"]) == 2
    assert main(["verify", "projective-pq", "--p", "0", "--q", "2"]) == 2
    assert main(["verify", "projective-pq", "--p", "3"]) == 2
    assert main(["verify", "isotropic", "--q", "5"]) == 2
    assert main(["verify", "projective-split", "--p", "3", "--q", "4"]) == 2
    assert main(["verify", "quadric7", "--n", "9", "--p", "1",
                 "--q", "2"]) == 2
    assert main(["verify", "quadric7", "--n", "9"]) == 2
    assert main(["verify", "no-such-case"]) == 2
    assert main(["witness"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_witness_verify_round_trip(tmp_path, capsys):
    path = _fresh_witness_file(tmp_path)
    assert main(["witness", "verify", str(path)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_witness_verify_detects_tampering(tmp_path, capsys):
    path = _fresh_witness_file(tmp_path)
    obj = json.loads(path.read_text())
    cell = obj["element"]["entries"][0][0]
    if isinstance(cell, str):
        obj["element"]["entries"][0][0] = "9/1+9/1*i"
    else:
        cell[0] = "9/1+9/1*i"
    path.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_witness_verify_parse_errors(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["witness", "verify", str(empty)]) == 2
    assert main(["witness", "verify", str(tmp_path / "missing.json")]) == 2
    not_witness = tmp_path / "n.json"
    not_witness.write_text("{\"schema\": \"something-else\"}")
    assert main(["witness", "verify", str(not_witness)]) == 2
    # a top-level value that is not an object, a file that is not UTF-8,
    # and arrays nested past the parser's recursion limit
    for name, raw in (("list.json", b"[1, 2]"),
                      ("string.json", b'"witness/1"'), ("null.json", b"null"),
                      ("latin1.json", b'{"schema": "caf\xe9"}'),
                      ("deep.json", b"[" * 200000)):
        hostile = tmp_path / name
        hostile.write_bytes(raw)
        assert main(["witness", "verify", str(hostile)]) == 2
    zero_den = _fresh_witness_file(tmp_path, "z.json")
    obj = json.loads(zero_den.read_text())
    obj["claim"]["source"]["entries"][0][0] = "1/0+0/1*i"
    zero_den.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(zero_den)]) == 2
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        text = fh.read()
    vacuous = json.loads(text)
    for side in ("source", "target"):
        claim = vacuous["claim"][side]
        claim["entries"] = [["0/1+0/1*i"] for _ in claim["entries"]]
    short = json.loads(text)
    short["claim"]["source"]["entries"].pop()
    short["claim"]["source"]["rows"] -= 1
    # the claim's radicands must agree with the element's tower
    conflict = json.loads(text)
    conflict["claim"]["source"]["radicands"] = [5]
    bad = [("vacuous.json", vacuous, "claim"), ("short.json", short, ""),
           ("conflict.json", conflict, "radicand 0 conflicts")]
    # the model is named exactly: its case's parameters, each an int
    for k, loose in enumerate(({"n": 2.9}, {"n": "2"}, {"n": 2.0},
                               {"n": True}, {"p": 7})):
        obj = json.loads(text)
        obj["model"].update(loose)
        bad.append(("loose-%d.json" % k, obj, "malformed witness: model"))
    for name, obj, why in bad:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        assert main(["witness", "verify", str(path)]) == 2
        assert why in capsys.readouterr().err
    assert main(["witness", "verify", golden]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name, side, edit, code, says", [
    # a radicand list whose length is not a power of two
    ("n3", "element", lambda r: r[:2] + [[r[2]] + ["0/1+0/1*i"] * 2], 2,
     "power of two"),
    # the same radicand in forms orbitcert does not write it in
    ("n3", "element", lambda r: r[:2] + [[r[2], "0/1+0/1*i"]], 2,
     "radicand 2 conflicts"),
    ("n2", "element", lambda r: ["2/1+0/1*i"] + r[1:], 2,
     "radicand 0 conflicts"),
    # the claim may sit in a deeper tower that starts the element's
    ("n2", "source", lambda r: r + [7], 0, "VERIFIED"),
    ("n2", "source", lambda r: [5], 2, "radicand 0 conflicts"),
    ("n2", "source", lambda r: [2.0], 2, "radicand 0 conflicts"),
    # more radicands than the depth cap, refused before any is adjoined
    ("n2", "element", lambda r: [2, 3, 5, 7, 11, 13, 17, 19, 23], 2,
     "9 radicands exceed the tower depth cap 8")],
    ids=["three-entries", "two-entries", "text-for-int", "deeper-claim",
         "conflict", "float-for-int", "nine-radicands"])
def test_witness_verify_reads_one_tower(tmp_path, capsys, name, side, edit,
                                        code, says):
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-%s.json" % name)
    with open(golden) as fh:
        obj = json.load(fh)
    doc = obj["element"] if side == "element" else obj["claim"][side]
    doc["radicands"] = edit(obj["element"]["radicands"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(path)]) == code
    out, err = capsys.readouterr()
    assert says in out + err


def test_witness_verify_refuses_a_cell_to_json_never_writes(tmp_path, capsys):
    # the first source cell, a value of level 0, as a level-1 list
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        obj = json.load(fh)
    obj["claim"]["source"]["entries"][0][0] = ["4/1+4/1*i", "0/1+0/1*i"]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(path)]) == 2
    assert "cell (0, 0) is not in canonical form" in capsys.readouterr().err


def test_witness_verify_refuses_vacuous_subspace_claims(tmp_path, capsys):
    # every element maps the zero subspace and the whole space onto
    # themselves, so such a claim says nothing
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-normal-form-complex-p2-q1.json")
    with open(golden) as fh:
        text = fh.read()
    for cols in (0, 4):
        obj = json.loads(text)
        for side in ("source", "target"):
            obj["claim"][side] = {
                "rows": 4, "cols": cols, "radicands": [],
                "entries": [["1/1+0/1*i" if i == j else "0/1+0/1*i"
                             for j in range(cols)] for i in range(4)]}
        path = tmp_path / ("vacuous-%d.json" % cols)
        path.write_text(json.dumps(obj))
        assert main(["witness", "verify", str(path)]) == 2
        assert "has %d columns, outside 1..3" % cols in (
            capsys.readouterr().err)
    assert main(["witness", "verify", golden]) == 0
    capsys.readouterr()


def test_witness_verify_refuses_vector_claims(tmp_path, capsys):
    # claims are lines or subspaces; any other kind is malformed input
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        obj = json.load(fh)
    obj["claim"]["kind"] = "maps_vector"
    path = tmp_path / "vector.json"
    path.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(path)]) == 2
    assert "unknown claim kind 'maps_vector'" in capsys.readouterr().err


def test_witness_verify_sizes_the_model_before_building_it(
        tmp_path, capsys, monkeypatch):
    # the golden n=2 witness has a 4x4 element; a model of another size
    # must be refused from the stated info alone
    def refuse(*args):
        raise AssertionError("model built for an element it cannot fit")
    monkeypatch.setattr(StandardModel, "projective_split",
                        staticmethod(refuse))
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        text = fh.read()
    models = [{"case": "projective-split", "n": n} for n in (3, 80, 10 ** 6)]
    models += [{"case": "quadric7"}, {"case": "projective-pq", "p": 1,
                                      "q": 2}, ["projective-split", 2]]
    path = tmp_path / "sized.json"
    for model in models:
        obj = json.loads(text)
        obj["model"] = model
        path.write_text(json.dumps(obj))
        assert main(["witness", "verify", str(path)]) == 2
    capsys.readouterr()


def test_witness_verify_g2split(tmp_path, capsys):
    # off the quadric the group name is malformed input
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        obj = json.load(fh)
    obj["group"] = "G2split"
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(obj))
    assert main(["witness", "verify", str(path)]) == 2
    # on the quadric it admits a split-G2 element and refuses an SO(3,4) one
    model = StandardModel.quadric7(Tower())
    group = build_group(model, "G2split")
    nil = _quadric_nilpotents(model)
    src = Matrix.from_cols(model.tower,
                           [model.stratum_representatives["positive"]])
    for g, code in ((exp_nilpotent(nil[4], 2), 0),
                    (exp_nilpotent(nil[0], 2), 1)):
        w = Witness(group, g, "maps_line", src, g * src, {"case": "quadric7"})
        path.write_text(json.dumps(w.to_json()))
        assert main(["witness", "verify", str(path)]) == code
    # SO(3,4) refuses a reflection (determinant -1) and admits the identity;
    # G2C admits the split-G2 element
    t = model.tower
    flip = Matrix.diag(t, [-1, 1, 1, 1, 1, 1, 1])
    for name, g, code in (("SO(3,4)", flip, 1),
                          ("SO(3,4)", Matrix.identity(t, 7), 0),
                          ("G2C", exp_nilpotent(nil[4], 2), 0)):
        w = Witness(build_group(model, name), g, "maps_line", src, g * src,
                    {"case": "quadric7"})
        path.write_text(json.dumps(w.to_json()))
        assert main(["witness", "verify", str(path)]) == code, name
    capsys.readouterr()


def test_witness_verify_refuses_groups_the_model_lacks(tmp_path, capsys):
    # an identity element maps e1 to e1 in every group, so a name the
    # case carries verifies and any other name is malformed input
    names = sorted({name for case in StandardModel.CASES.values()
                    for name in case.groups})
    path = tmp_path / "w.json"
    for case, rule in StandardModel.CASES.items():
        info = dict(case=case, **rule.defaults)
        model = StandardModel.from_info(Tower(), info)
        ident = Matrix.identity(model.tower, model.ambient_dim)
        line = Matrix.from_cols(model.tower, [ident.col(0)]).to_json()
        for name in names:
            path.write_text(json.dumps({
                "schema": "witness/1", "model": info, "group": name,
                "claim": {"kind": "maps_line", "source": line,
                          "target": line},
                "element": ident.to_json()}))
            want = 0 if name in rule.groups else 2
            assert main(["witness", "verify", str(path)]) == want, \
                (case, name)
    capsys.readouterr()


def test_readme_commands_run(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("orbitcert ")
                and "path/to/witness.json" not in line]
    assert commands
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_dump_octonion_table(capsys):
    assert main(["dump", "octonion-table"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == "octonion-structure-constants/1"
    assert obj["dim"] == 8


def test_dump_models(capsys):
    for argv, case in (
            (["dump", "model", "projective-split", "--n", "1"],
             "projective-split"),
            (["dump", "model", "projective-pq", "--p", "2", "--q", "1"],
             "projective-pq"),
            (["dump", "model", "quadric7"], "quadric7"),
            (["dump", "model", "isotropic", "--p", "2", "--q", "3"],
             "isotropic")):
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == "orbitcert-model/1"
        assert obj["case"] == case
        assert "grams" in obj
    assert main(["dump", "model", "isotropic", "--p", "2", "--q", "2"]) == 2
    assert main(["dump", "model", "projective-split", "--n", "0"]) == 2
    assert main(["dump", "model", "projective-pq", "--p", "0", "--q", "1"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("orbitcert ")


def test_console_script_entry_point():
    # the subprocess does not see pytest's ``pythonpath`` setting
    parent = os.path.dirname(os.path.dirname(orbitcert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcert.cli", "verify", "projective-split",
         "--n", "1", "--samples", "2", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
