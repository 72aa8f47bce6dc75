"""Command-line behavior: formats, exit codes, determinism."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines import cli
from conelines.homology_action import class_of_section
from conelines.lattices import SexticType, build_lattice
from conelines.mapping_class import translation_class
from conftest import src_env

#: sha256 of ``verify --seed 42 --format json``.
SEED_42_JSON_SHA256 = "2dc1c235f5b281edca207c63a43e933fc46d7c319e30cdde23172ed77498d24f"


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
    # the report is a function of the seed alone, so its bytes are pinned
    _, out = run(capsys, "verify", "--seed", "42", "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == SEED_42_JSON_SHA256


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


#: Command lines that succeed, the seeds of the fuzzed ones.
GOOD_ARGVS = (
    ("tables", "all"),
    ("tables", "mw", "--format", "csv"),
    ("classify", "4|0"),
    ("classify", "|||", "--format", "json"),
    ("act", "K#T2", "0,1,0,0,0", "0,0,0,1"),
    ("act", "K#T2", "-3,-1,1,0,0", "1,0,1,0,0,0,1", "--mod2"),
    ("act", "K+K", "1,0,0,0", "0,1,0,0,0,1", "--mod2", "--seed", "42"),
)

#: Words inserted into them: subcommands, table selectors, curve and
#: surface keys (valid and not), comma lists (well formed and not) and
#: options with their values.  ``verify`` is slow and ``--out`` writes
#: files; both stay out.
ARGV_WORDS = (
    *("tables", "classify", "act", "all", "mw", "tritangents", "nope"),
    *("4|0", "|||", "0|4", "9|9", "1|", "K#T2", "K#4T2", "K+K", "K+4S2", "K#1T2", "K#9T2"),
    *("0,1,0,0,0", "0,0,0,1", "-3,-1,1,0,0", "1,0,1,0,0,0,1", "1,,2", ",", "1,a", "--1,2", "", "7"),
    *("--format", "json", "csv", "md", "xml", "--seed", "42", "-1", str(2**64)),
    *("--mod2", "--fault", "gram", "--"),
)


@st.composite
def command_lines(draw):
    """A good command line with up to two words dropped and up to four inserted."""
    argv = list(draw(st.sampled_from(GOOD_ARGVS)))
    for _ in range(draw(st.integers(0, 2))):
        del argv[draw(st.integers(0, len(argv) - 1))]
    for word in draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=4)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@given(command_lines())
@settings(max_examples=200, deadline=None)
def test_any_command_line_exits_with_0_1_or_2(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
