"""Command-line behavior: formats, exit codes, determinism."""

import io
import json
import re
import runpy
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelines import cli, homology_action, mapping_class, translations, tritangents
from conelines.homology_action import class_of_section
from conelines.lattices import SexticType, build_lattice
from conelines.mapping_class import translation_class
from conftest import TYPE_KEYS, src_env

ROOT = Path(__file__).resolve().parent.parent


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
        # the keys are spelled as the tables print them: ASCII digits only
        (("classify", "\uff14|0"), "error: cannot parse sextic type '\uff14|0'"),
        (("classify", "\u0664|0"), "error: cannot parse sextic type '\u0664|0'"),
        # only ASCII blanks around a key are ignored, not an ideographic space
        (("classify", "\u30004|0"), "error: cannot parse sextic type '\\u30004|0'"),
        (("act", "\u3000K#T2", "0,1,0,0,0", "0,0,0,1"), "error: cannot parse surface type '\\u3000K#T2'"),
        # an integer is an optional "-" and ASCII digits, with only ASCII blanks around it
        *(
            (("act", "K#T2", vector, "0,0,0,1"), f"error: the translation vector must be comma-separated integers: {vector!r}")
            for vector in ("\u0660,1,0,0,0", "1_0,1,0,0,0", "+1,1,0,0,0", "\u30000,1,0,0,0")
        ),
    ],
    ids=["class-not-integers", "empty-class", "mod2-class-length", "seed-too-large", "unparsed-type"]
    + ["fullwidth-digit-type", "arabic-indic-digit-type", "ideographic-space-type", "ideographic-space-surface"]
    + ["arabic-indic-digit-vector", "underscore-vector", "plus-sign-vector", "ideographic-space-vector"],
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


def test_ascii_blanks_around_a_key_are_ignored(capsys):
    for key in ("4|0 ", " 4|0\t\n"):
        assert run(capsys, "classify", key) == run(capsys, "classify", "4|0")
    assert run(capsys, "act", "K#T2 ", "0,1,0,0,0", "0,0,0,1") == run(capsys, "act", "K#T2", "0,1,0,0,0", "0,0,0,1")


def test_ascii_blanks_around_an_integer_are_ignored(capsys):
    plain = run(capsys, "act", "K#T2", "0,1,0,0,0", "0,0,0,1")
    assert run(capsys, "act", "K#T2", "0, 1,0,0,0", "0,0,0,1") == plain
    assert run(capsys, "act", "K#T2", " 0,1,0,0,0\t", "0,0,0,1 ") == plain


#: ``scripts/pins.py``: the one table of pinned outputs and the rule that hashes them.
PINS = runpy.run_path(str(ROOT / "scripts" / "pins.py"))


@pytest.mark.parametrize(
    "commands, code, sha256", PINS["PINS"], ids=[PINS["command_text"](pin[0]) for pin in PINS["PINS"]]
)
def test_pinned_output(monkeypatch, capsys, commands, code, sha256):
    """Each pin, run in this process: ``-m conelines`` lines go to
    ``cli.main``, script lines to the script's ``main``."""
    # the script keeps its own literal, to stay standard-library-only
    assert PINS["TYPE_KEYS"] == TYPE_KEYS

    def run(argv):
        if argv[:2] == PINS["CLI"]:
            status = cli.main(list(argv[2:]))
        else:
            monkeypatch.setattr(sys, "argv", list(argv))
            status = runpy.run_path(str(ROOT / argv[0]))["main"]()
        return capsys.readouterr().out.encode(), status

    assert PINS["run_pin"](commands, run) == (sha256, code)


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


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The ``conelines`` modules a fresh process holds after running ``code`` with ``argv``."""
    listing = "import sys; print(*(m for m in sys.modules if m.split('.')[0] == 'conelines'))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}", *argv],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_library_layer():
    assert loaded_modules("import conelines.cli") == {
        "conelines",
        "conelines.cli",
        "conelines.lattices",
        "conelines.tables",
    }


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (("classify", "4|0"), ("mapping_class", "intlinalg", "homology_action", "verify")),
        (("act", "K#T2", "-3,-1,1,0,0", "1,0,1,0,0,0,1", "--mod2"), ("homology_action", "tritangents")),
        (("tables", "lattices"), ("mapping_class", "homology_action", "tritangents")),
    ],
    ids=("classify", "act-mod2", "tables-lattices"),
)
def test_a_request_loads_only_its_own_layers(argv, unloaded):
    loaded = loaded_modules("import sys; from conelines import cli; assert cli.main(sys.argv[1:]) == 0", *argv)
    assert "conelines.cli" in loaded
    assert loaded.isdisjoint(f"conelines.{name}" for name in unloaded)


@pytest.mark.parametrize(
    "argv,targets",
    [
        (
            ("act", "K#T2", "0,1,0,0,0", "0,0,0,1"),
            ((mapping_class, "translation_class"), (homology_action, "action_matrix")),
        ),
        (
            ("act", "K#T2", "0,1,0,0,0", "0,0,1,0,0,0,1", "--mod2"),
            ((mapping_class, "translation_class"), (translations, "mw_act_h1_mod2")),
        ),
        (("classify", "4|0"), ((tritangents, "enumerate_tritangents"),)),
    ],
    ids=("act", "act-mod2", "classify"),
)
def test_handlers_read_the_library_when_they_run(monkeypatch, capsys, argv, targets):
    # A tracer rebinds module attributes, so a handler must look them up at call time.
    calls = Counter()
    for module, name in targets:

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert set(calls) == {name for _, name in targets}


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
