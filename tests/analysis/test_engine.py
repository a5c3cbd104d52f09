"""Engine plumbing: discovery, baseline ratchet, output formats, CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    BaselineError,
    SourceFile,
    discover_files,
    format_json,
    lint_sources,
    run_lint,
    rules_by_id,
    write_baseline,
)
from repro.analysis.source import LintSyntaxError, package_relative_path
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

VIOLATION = "def f(n, t):\n    return n - t\n"


def _report(text: str = VIOLATION, relpath: str = "core/example.py", baseline=None):
    source = SourceFile.from_source(text, relpath=relpath)
    return lint_sources([source], rules=rules_by_id(["RL001"]), baseline=baseline)


# -- discovery / parsing --------------------------------------------------------


def test_discover_files_expands_directories_sorted(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "a.py").write_text("y = 2\n")
    (sub / "notes.txt").write_text("not python\n")
    files = discover_files([tmp_path])
    assert files == [tmp_path / "b.py", sub / "a.py"]


def test_discover_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_files([tmp_path / "nope"])


def test_package_relative_path():
    assert package_relative_path(Path("/x/src/repro/core/a.py")) == "core/a.py"
    assert package_relative_path(Path("/x/elsewhere/a.py")) == "a.py"


def test_syntax_error_is_reported_not_raised(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    report = run_lint([tmp_path])
    assert not report.ok
    assert report.errors and "broken.py" in report.errors[0]
    with pytest.raises(LintSyntaxError):
        SourceFile.from_source("def f(:\n")


# -- baseline ratchet -----------------------------------------------------------


def test_baseline_absorbs_known_finding():
    baseline = Baseline(
        entries=[BaselineEntry(rule="RL001", path="core/example.py", code="return n - t")]
    )
    report = _report(baseline=baseline)
    assert report.ok
    assert len(report.baselined) == 1
    assert report.stale_baseline == []


def test_baseline_matching_ignores_line_numbers():
    baseline = Baseline(
        entries=[BaselineEntry(rule="RL001", path="core/example.py", code="return n - t", line=999)]
    )
    shifted = "# a new leading comment\n\n\n" + VIOLATION
    assert _report(text=shifted, baseline=baseline).ok


def test_baseline_count_limits_occurrences():
    baseline = Baseline(
        entries=[BaselineEntry(rule="RL001", path="core/example.py", code="return n - t")]
    )
    doubled = "def f(n, t):\n    return n - t\n\ndef g(n, t):\n    return n - t\n"
    report = _report(text=doubled, baseline=baseline)
    assert len(report.baselined) == 1
    assert len(report.diagnostics) == 1  # the second identical line is new


def test_stale_baseline_entry_reported():
    baseline = Baseline(
        entries=[BaselineEntry(rule="RL001", path="core/example.py", code="return n - t")]
    )
    report = _report(text="def f():\n    return 0\n", baseline=baseline)
    assert report.ok  # stale entries do not fail the lint itself ...
    assert len(report.stale_baseline) == 1  # ... but the guard test checks them


def test_baseline_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "baseline.json"
    write_baseline(report, path)
    loaded = Baseline.load(path)
    assert [e.fingerprint() for e in loaded.entries] == [
        ("RL001", "core/example.py", "return n - t")
    ]
    assert _report(baseline=loaded).ok


def test_malformed_baseline_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"version\": 99}")
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text("not json")
    with pytest.raises(BaselineError):
        Baseline.load(path)


# -- output formats -------------------------------------------------------------


def test_text_format_mentions_rule_and_location():
    report = _report()
    text = report.format_text()
    assert "core/example.py:2:" in text
    assert "RL001" in text
    assert "1 finding(s)" in text


def test_json_format_is_machine_readable():
    report = _report()
    data = json.loads(format_json(report))
    assert data["ok"] is False
    assert data["files_scanned"] == 1
    [diag] = data["diagnostics"]
    assert diag["rule"] == "RL001"
    assert diag["line"] == 2
    assert diag["code"] == "return n - t"


def test_unknown_rule_id_rejected():
    with pytest.raises(KeyError):
        rules_by_id(["RL999"])


def test_retired_rule_ids_are_unknown():
    # RL006, RL007 and RL009 are retired, not parked: no rule answers
    # to the id any more.
    for retired in ("RL006", "RL007", "RL009"):
        with pytest.raises(KeyError):
            rules_by_id([retired])


# -- severity, timings ----------------------------------------------------------


def _warning_report():
    # A noqa naming a nonexistent rule yields an RL000 *warning* only.
    source = SourceFile.from_source(
        "x = 1  # repro: noqa-RL998\n", relpath="core/warned.py"
    )
    return lint_sources([source], rules=rules_by_id(["RL001"]))


def test_warnings_do_not_fail_the_lint():
    report = _warning_report()
    assert report.ok
    assert report.error_count == 0
    assert report.warning_count == 1
    [diag] = report.diagnostics
    assert diag.rule == "RL000"
    assert diag.severity == "warning"
    assert "RL998" in diag.message


def test_error_counts_split_by_severity():
    report = _report()
    assert report.error_count == 1
    assert report.warning_count == 0
    assert "1 error(s), 0 warning(s)" in report.format_text()


def test_per_rule_timings_recorded_and_shown_verbose():
    report = _report()
    assert "RL001" in report.timings
    assert report.timings["RL001"] >= 0.0
    assert "timing: RL001" in report.format_text(verbose=True)
    assert "timing:" not in report.format_text(verbose=False)


# -- noqa suppression edge cases -------------------------------------------------


def test_noqa_on_decorator_line_suppresses_the_decorated_def():
    # RL004 anchors on the `class` line; the suppression sits on the
    # decorator line above it and must still apply.
    text = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass  # repro: noqa-RL004\n"
        "class Ghost:\n"
        "    round: int\n"
        "\n"
        "\n"
        "class Proto:\n"
        "    def on_start(self, ctx):\n"
        "        ctx.send(0, Ghost(round=1))\n"
        "\n"
        "    def on_message(self, ctx, sender, message):\n"
        "        return isinstance(message, Ghost)\n"
    )
    source = SourceFile.from_source(text, relpath="core/example.py")
    report = lint_sources([source], rules=rules_by_id(["RL004"]))
    assert report.diagnostics == []
    assert report.suppressed == 1


def test_noqa_on_multiline_statement_continuation_suppresses():
    text = (
        "def f(n, t):\n"
        "    return (\n"
        "        n - t  # repro: noqa-RL001\n"
        "    )\n"
    )
    source = SourceFile.from_source(text, relpath="core/example.py")
    report = lint_sources([source], rules=rules_by_id(["RL001"]))
    assert report.diagnostics == []
    assert report.suppressed == 1


def test_noqa_naming_unknown_rule_warns_not_silently_passes():
    report = _warning_report()
    assert report.warning_count == 1
    assert "unknown rule RL998" in report.diagnostics[0].message


def test_noqa_naming_a_retired_rule_is_reported_as_stale():
    # A suppression left behind for a retired rule protects nothing.
    source = SourceFile.from_source(
        "x = 1  # repro: noqa-RL009\n", relpath="core/stale.py"
    )
    [diag] = lint_sources([source]).diagnostics
    assert diag.rule == "RL000"
    assert "unknown rule RL009" in diag.message


def test_noqa_known_rule_produces_no_unknown_warning():
    source = SourceFile.from_source(
        "def f(n, t):\n    return n - t  # repro: noqa-RL001\n",
        relpath="core/example.py",
    )
    report = lint_sources([source], rules=rules_by_id(["RL001"]))
    assert report.diagnostics == []
    assert report.suppressed == 1


# -- baseline reason preservation ------------------------------------------------


def test_write_baseline_preserves_existing_reasons(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(_report(), path)
    loaded = Baseline.load(path)
    loaded.entries[0].reason = "hand-written protocol justification"
    loaded.write(path)

    report = _report(baseline=Baseline.load(path))
    assert report.ok
    write_baseline(report, path)
    assert (
        Baseline.load(path).entries[0].reason
        == "hand-written protocol justification"
    )


def test_write_baseline_new_entries_get_placeholder(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(_report(), path)
    [entry] = Baseline.load(path).entries
    assert "add a specific justification" in entry.reason


# -- SARIF -----------------------------------------------------------------------


def test_sarif_output_shape_and_content():
    from repro.analysis import format_sarif

    report = _report()
    data = json.loads(format_sarif(report))
    assert data["version"] == "2.1.0"
    [run] = data["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert "RL001" in rule_ids and "RL008" in rule_ids
    [result] = run["results"]
    assert result["ruleId"] == "RL001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/core/example.py"
    assert location["region"]["startLine"] == 2


def test_sarif_emits_no_results_for_clean_or_baselined_report():
    from repro.analysis import format_sarif

    baseline = Baseline(
        entries=[BaselineEntry(rule="RL001", path="core/example.py", code="return n - t")]
    )
    report = _report(baseline=baseline)
    data = json.loads(format_sarif(report))
    assert data["runs"][0]["results"] == []
    assert data["runs"][0]["invocations"][0]["executionSuccessful"] is True


def test_cli_sarif_format(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION)
    rc = main(["lint", str(target), "--no-baseline", "--format", "sarif"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["runs"][0]["results"][0]["ruleId"] == "RL001"


# -- CLI ------------------------------------------------------------------------


def test_cli_lint_exits_nonzero_on_findings(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION)
    rc = main(["lint", str(target), "--no-baseline"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "RL001" in out


def test_cli_lint_exits_zero_on_clean_tree(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("def f(ctx, received):\n    return ctx.quorum.is_quorum(received)\n")
    rc = main(["lint", str(target), "--no-baseline"])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_lint_json_format(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION)
    rc = main(["lint", str(target), "--no-baseline", "--format", "json"])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["diagnostics"][0]["rule"] == "RL001"


def test_cli_lint_write_and_use_baseline(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION)
    baseline = tmp_path / "baseline.json"
    rc = main(["lint", str(target), "--baseline", str(baseline), "--write-baseline"])
    assert rc == 0
    assert baseline.exists()
    capsys.readouterr()
    rc = main(["lint", str(target), "--baseline", str(baseline)])
    assert rc == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_lint_rule_selection(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(VIOLATION)
    assert main(["lint", str(target), "--no-baseline", "--rules", "RL002"]) == 0
    assert main(["lint", str(target), "--no-baseline", "--rules", "RL001"]) == 1


def test_cli_lint_rejects_unknown_rule(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--rules", "RL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_lint_rejects_the_retired_options(tmp_path, capsys):
    # One cold run is the only mode: no process pool, no result cache.
    for retired in (["--jobs", "2"], ["--no-cache"]):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(tmp_path), "--no-baseline", *retired])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_lint_missing_path(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope"), "--no-baseline"]) == 2
    assert "repro lint:" in capsys.readouterr().err


def test_cli_help_lists_lint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "lint" in capsys.readouterr().out


# -- --write-baseline keeps what the run did not check ----------------------------

NONDETERMINISM = "import random\n\ndef pick(items):\n    return random.choice(items)\n"


def _justified_baseline(path, *reports):
    baseline = Baseline.from_diagnostics(
        [diag for report in reports for diag in report.diagnostics], reason="by hand"
    )
    baseline.write(path)
    return baseline


def test_write_baseline_keeps_entries_of_rules_not_run(tmp_path):
    sources = [
        SourceFile.from_source(VIOLATION, relpath="core/quorum.py"),
        SourceFile.from_source(NONDETERMINISM, relpath="core/pick.py"),
    ]
    path = tmp_path / "baseline.json"
    full = lint_sources(sources, rules=rules_by_id(["RL001", "RL003"]))
    _justified_baseline(path, full)
    assert {entry.rule for entry in Baseline.load(path).entries} == {"RL001", "RL003"}

    subset = lint_sources(
        sources, rules=rules_by_id(["RL001"]), baseline=Baseline.load(path)
    )
    write_baseline(subset, path)
    entries = Baseline.load(path).entries
    assert [(e.rule, e.path, e.reason) for e in entries] == [
        ("RL003", "core/pick.py", "by hand"),
        ("RL001", "core/quorum.py", "by hand"),
    ]


def test_write_baseline_keeps_entries_of_paths_not_checked(tmp_path):
    path = tmp_path / "baseline.json"
    _justified_baseline(
        path, _report(relpath="core/a.py"), _report(relpath="smr/b.py")
    )
    # A run over core/ only: smr/b.py's entry is outside it and stays,
    # while core/a.py's entry, now fixed, goes.
    fixed = _report(text="def f(ctx):\n    return ctx.quorum\n", relpath="core/a.py")
    write_baseline(fixed, path)
    entries = Baseline.load(path).entries
    assert [(e.rule, e.path, e.reason) for e in entries] == [
        ("RL001", "smr/b.py", "by hand")
    ]
