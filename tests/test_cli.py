"""Command-line behavior: formats, exit codes, determinism."""

import hashlib
import io
import json
import re
import runpy
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines import cli
from conelines.homology_action import class_of_section
from conelines.lattices import SexticType, build_lattice
from conelines.mapping_class import translation_class
from conftest import TYPE_KEYS, src_env

#: sha256 of ``verify --seed 0 --format json`` and of ``verify --seed 42 --format json``.
SEED_0_JSON_SHA256 = "db17ef3ec7ac735fd142823acd2461f357d57d7f71bfcb5b4809634e278cfe46"
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


def test_gram_fault_is_invisible_to_other_threads():
    # The fault lives in the faulting context only: a second thread that
    # looks up E8 inside the fault window still gets the clean lattice.
    seen = []
    worker = threading.Thread(target=lambda: seen.append(build_lattice(SexticType(4, 0))))
    with cli.gram_fault():
        worker.start()
        worker.join(timeout=60)
        assert len(build_lattice(SexticType(4, 0)).edges) == 6
    assert not worker.is_alive()
    assert [len(e8.edges) for e8 in seen] == [7]


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


def test_a_second_double_dash_is_a_usage_error(capsys):
    # argparse before Python 3.13 would hand the class's slot an empty list.
    for argv in (("act", "--", "K#T2", "--", "0,0,0,1"), ("act", "--", "K#T2", "0,1,0,0,0", "--")):
        with pytest.raises(SystemExit) as exited:
            cli.main(list(argv))
        assert exited.value.code == 2
        assert '"--" may stand only once' in capsys.readouterr().err


def test_act_dimension_mismatches(capsys):
    assert run(capsys, "act", "K#T2", "0,1", "0,0,0,1")[0] == 2
    assert run(capsys, "act", "K#T2", "0,1,0,0,0", "0,0,1")[0] == 2
    assert run(capsys, "act", "K#T2", "0,1,0,0,0", "2,0,0,1")[0] == 2
    assert run(capsys, "act", "K+K", "1,0,0,0", "0,0,0,1")[0] == 2
    for key in ("K#9T2", "K#1T2", "K#0T2", "K+1S2", "K+0S2"):
        assert run(capsys, "act", key, "0", "0,0")[0] == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (("act", "K#T2", "0,1,0,0,0", "1,a"), "error: the class must be comma-separated integers: '1,a'"),
        (
            ("act", "K#T2", "0,1,0,0,0", "-"),
            "error: a homology class on K#T2 takes 4 coordinates "
            "(fiber bit, one bridge/oval pair per handle, section coefficient)",
        ),
        (
            ("act", "K#T2", "0,1,0,0,0", "0,0,1", "--mod2"),
            "error: a mod-2 class on K#T2 takes 7 coordinates "
            "(fiber bit, one bit per lattice direction, section bit)",
        ),
        (
            ("tables", "all", "--seed", str(2**64)),
            "conelines: error: --seed must fit in an unsigned 64-bit integer",
        ),
        (("classify", "1|"), "error: cannot parse sextic type '1|'"),
    ],
    ids=["class-not-integers", "empty-class", "mod2-class-length", "seed-too-large", "unparsed-type"],
)
def test_a_bad_argument_exits_2_with_one_error_line(capsys, argv, line):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == line


@pytest.mark.parametrize(
    "seed,sha256", [("0", SEED_0_JSON_SHA256), ("42", SEED_42_JSON_SHA256)], ids=["seed-0", "seed-42"]
)
def test_verify_json_report_passes_and_is_pinned(capsys, seed, sha256):
    code, out = run(capsys, "verify", "--seed", seed, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["check", "status", "observed", "expected"]
    assert {row[1] for row in doc["rows"]} == {"PASS"}
    assert doc["rows"][-1][0] == "summary"
    # the report is a function of the seed alone, so its bytes are pinned
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


#: sha256 of the stdout of command lines whose output must not change.
PINNED_OUTPUTS = {
    ("tables", "all", "--format", "json"): "47b5e1916c44375d3a0bc586c5ec8860956bc84b1bf84018630d58c518f512e7",
    # the csv rendering joins the reports with a blank line
    ("tables", "all", "--format", "csv"): "5f0a7ed6d4d6edd79110a5a5f061ec2024f39105655581d5c94d2e4c374f1e5a",
    ("classify", "4|0", "--format", "json"): "8275cf8a0708de02f37150e9f54c3dabcf1cc415b0206539967fb8c1f82f6a5e",
    ("classify", "3|0", "--format", "json"): "ead7a1ae5fb5059ccf66a2293d3d698e8273cd5023ec402275b1b194724ba1d0",
    ("classify", "2|0", "--format", "json"): "3347407ae87d1993f8ddb0cc4552e028a765ee268c1660da5a6cf1da3f0cbc56",
    ("classify", "1|0", "--format", "json"): "43a5906ca8d2ea33dbe407699c54578777bf0a1eb5cb5ba38d2ee3f81238b0d9",
    ("classify", "0|0", "--format", "json"): "4242b7eefe542ddd0404faf9c91227dee57d29901113837be47ee0c1e2ffa996",
    ("classify", "1|1", "--format", "json"): "c29638ea8f2dce66e590b09a7ab0648e4b4bf21108a2e6262cc4dd652b47a4af",
    ("classify", "|||", "--format", "json"): "72b3ca10351573065d2907ed5228b378cb44439974672f10d43656681ee7bc7e",
    ("classify", "0|1", "--format", "json"): "2562a8c2df3e7bfeb61489b6654642e5fbcc7ed3ebb7c865952431d01fa7f24e",
    ("classify", "0|2", "--format", "json"): "866f83fb35ded5cf16b3a9394fe32d0850751cf6135826ce6eb7f3a65b1f5c39",
    ("classify", "0|3", "--format", "json"): "b68a82dcad3e6661454282b939ba2e55645abc304ec128e1c12c855bb3c238f9",
    ("classify", "0|4", "--format", "json"): "ce1c9a9c59ca36672ad907ea01a577f2d46756bc5daa6317d1213e683cfa7750",
    # the README examples
    ("act", "K#T2", "0,1,0,0,0", "0,0,0,1"): "235548e59382fed9e379216ae6fd4b93152b25fd1c9826c24144d277d962356e",
    ("act", "K#T2", "0,1,0,0,0", "0,0,1,0,0,0,1", "--mod2"): "369dfb5b364e2e9f8c9310f42af330bb65a9fe7f36de8acf5d1284a658a636fe",
    ("act", "K#T2", "-3,-1,1,0,0", "1,0,1,1"): "901f33356fc71b44f1503f11df7125bcc2bfc9f66048b514727feed96736034f",
    # the last half twist carries into the first handle's fiber twist
    ("act", "K#4T2", "0,0,0,0,0,0,1,0", "0,0,0,0,0,0,0,0,0,1"): "2fe069e20f116b01bce74fcc2f80af44986921caa8bbf0e14b4edc3d44b90a12",
    ("act", "K+K", "1,1,0,1", "1,0,1,1,0,1", "--mod2"): "b89108cf981bf836f5a0349a4b24eb321f7632cb42638a37c206590f094c2bf6",
    ("act", "K+2S2", "3,-1", "1,1"): "583bcc240972a5146e1fecbe6601190dae93c5e16459a40ee9f736cd555e62b4",
}


def test_pinned_outputs_are_byte_identical(capsys):
    for argv, digest in PINNED_OUTPUTS.items():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_the_pins_script_covers_every_pinned_output():
    # The script's list only; the commands themselves run above.
    script = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "pins.py"))
    commands = {argv for pin in script["PINS"] for argv in pin}
    assert {(*script["CLI"], *argv) for argv in PINNED_OUTPUTS} <= commands
    assert script["TYPE_KEYS"] == TYPE_KEYS


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
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert err.getvalue() == "", argv
    if code == 2:
        # a failure prints no report: argparse's usage message or one error line
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("usage:") or re.fullmatch(r"error: [^\n]+\n", err.getvalue()), argv
