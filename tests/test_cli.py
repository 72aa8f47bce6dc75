"""Command-line behavior: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from conelines import cli
from conelines.homology_action import class_of_section
from conelines.lattices import SexticType, build_lattice
from conelines.mapping_class import translation_class
from conftest import src_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_tables_markdown_default(capsys):
    code, out = run(capsys, "tables", "tritangents")
    assert code == 0
    assert out.startswith("## ")
    assert "| total | 120 | 63 | 30 | 13 | 4 | 12 | 12 | 3 | 2 | 1 | 0 |" in out


def test_markdown_escapes_pipes_in_cells(capsys):
    _, out = run(capsys, "tables", "tritangents")
    assert "4\\|0" in out


def test_tables_json_schema(capsys):
    code, out = run(capsys, "tables", "lattices", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["columns", "meta", "rows", "title"]
    assert doc["meta"] == {"seed": 0, "version": cli.__version__}
    assert json.loads(json.dumps(doc, indent=2, sort_keys=True)) == doc


def test_tables_all_renders_every_table(capsys):
    code, out = run(capsys, "tables", "all", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 4
    for doc in docs:
        assert sorted(doc) == ["columns", "meta", "rows", "title"]


def test_line_class_row(capsys):
    _, out = run(capsys, "tables", "line-classes", "--format", "csv")
    assert "infinity,infinity,4,2,1" in out


def test_csv_has_title_comment_and_header(capsys):
    _, out = run(capsys, "tables", "mw", "--format", "csv")
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].split(",")[0] == "surface"


def test_classify_row_counts(capsys):
    _, out = run(capsys, "classify", "4|0", "--format", "json")
    assert len(json.loads(out)["rows"]) == 120
    _, out = run(capsys, "classify", "0|4", "--format", "json")
    assert json.loads(out)["rows"] == []


def test_classify_band_groups(capsys):
    _, out = run(capsys, "classify", "|||", "--format", "json")
    codes = [row[4] for row in json.loads(out)["rows"]]
    assert len(codes) == 12
    assert [codes.count(label) for label in ("J1", "BAND_A", "BAND_B")] == [4, 4, 4]


def test_classify_rejects_unknown_types(capsys):
    code, _ = run(capsys, "classify", "9|9")
    assert code == 2


def test_unknown_selector_is_a_usage_error(capsys):
    for argv in (
        ["tables", "nope"],
        # --fault is an option of verify only
        ["tables", "all", "--fault", "gram"],
        ["classify", "4|0", "--fault", "gram"],
        ["act", "K#T2", "0,1,0,0,0", "0,0,0,1", "--fault", "gram"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv


def test_gram_fault_restores_a_clean_e8_when_its_body_raises():
    before = build_lattice(SexticType(4, 0))
    with pytest.raises(RuntimeError):
        with cli.gram_fault():
            assert len(build_lattice(SexticType(4, 0)).edges) == 6
            raise RuntimeError("the body failed")
    after = build_lattice(SexticType(4, 0))
    assert len(after.edges) == 7
    assert after == before


def test_act_identity_fixes_classes(capsys):
    code, out = run(
        capsys, "act", "K#2T2", "0,0,0,0,0,0", "1,2,3,4,5,1", "--format", "json"
    )
    assert code == 0
    rows = dict(json.loads(out)["rows"])
    assert rows["class in"] == rows["class out"]
    assert rows["matrix[0]"] == "(1, 0, 0, 0, 0, 0)"


def test_act_matches_the_section_pipeline(capsys):
    # acting on the reference class must reproduce class_of_section
    lattice = build_lattice(SexticType.from_key("1|0"))
    v = (0, 1, 0, 0, 0)
    expected = class_of_section(translation_class(lattice, v))
    _, out = run(capsys, "act", "K#T2", "0,1,0,0,0", "0,0,0,1", "--format", "json")
    rows = dict(json.loads(out)["rows"])
    flat = (expected.fiber_bit, *expected.pairs[0], expected.line_coeff)
    assert rows["class out"] == str(flat)


def test_act_mod2(capsys):
    code, out = run(
        capsys,
        "act",
        "K#T2",
        "0,1,0,0,0",
        "0,0,1,0,0,0,1",
        "--mod2",
        "--format",
        "json",
    )
    assert code == 0
    rows = dict(json.loads(out)["rows"])
    assert rows["class out"] == "(1, 0, 0, 0, 0, 0, 1)"


def test_act_negative_vector_with_or_without_double_dash(capsys):
    for argv in (
        ("act", "K#T2", "--format", "json", "--", "-3,-1,1,0,0", "1,0,1,1"),
        ("act", "K#T2", "-3,-1,1,0,0", "1,0,1,1", "--format", "json"),
        ("act", "--format", "json", "K#T2", "-3,-1,1,0,0", "1,0,1,1"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        rows = dict(json.loads(out)["rows"])
        assert rows["vector"] == "(-3, -1, 1, 0, 0)"
        assert rows["class out"] == "(0, 0, 0, 1)"
    code, out = run(capsys, "act", "K#T2", "-3,-1,1,0,0", "1,0,1,0,0,0,1", "--mod2", "--format", "json")
    assert code == 0
    assert dict(json.loads(out)["rows"])["class out"] == "(0, 0, 0, 0, 0, 0, 1)"


def test_act_dimension_mismatches(capsys):
    assert run(capsys, "act", "K#T2", "0,1", "0,0,0,1")[0] == 2
    assert run(capsys, "act", "K#T2", "0,1,0,0,0", "0,0,1")[0] == 2
    assert run(capsys, "act", "K#T2", "0,1,0,0,0", "2,0,0,1")[0] == 2
    assert run(capsys, "act", "K+K", "1,0,0,0", "0,0,0,1")[0] == 2
    for key in ("K#9T2", "K#1T2", "K#0T2", "K+1S2", "K+0S2"):
        assert run(capsys, "act", key, "0", "0,0")[0] == 2


def test_verify_report_shape_and_success(capsys):
    code, out = run(capsys, "verify", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["check", "status", "observed", "expected"]
    statuses = {row[1] for row in doc["rows"]}
    assert statuses == {"PASS"}
    assert doc["rows"][-1][0] == "summary"


def test_verify_is_deterministic_for_a_fixed_seed(capsys):
    _, first = run(capsys, "verify", "--seed", "42", "--format", "json")
    _, second = run(capsys, "verify", "--seed", "42", "--format", "json")
    assert first == second


def test_out_writes_the_rendering_to_a_file(tmp_path, capsys):
    target = tmp_path / "tables.md"
    code, out = run(capsys, "tables", "line-classes", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("## ")


def test_out_takes_a_name_that_looks_like_a_negative_list(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for option, name in (("--out", "-3,1"), ("--ou", "-5,2")):
        code, out = run(capsys, "tables", "line-classes", option, name)
        assert code == 0
        assert out == ""
        assert (tmp_path / name).read_text(encoding="utf-8").startswith("## ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["-3,1", "-5,2"]


def test_bad_output_path_is_a_usage_error(capsys):
    code, _ = run(capsys, "tables", "line-classes", "--out", "/nonexistent/dir/x.md")
    assert code == 2


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "conelines", "tables", "line-classes"],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("## ")
