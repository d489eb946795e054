"""The REP rule catalogue against the known-bad fixture programs.

Every ``tests/checkdata/bad_repNNN.py`` fixture tags its violations
with ``<- REPNNN`` markers; the checker must report exactly the marked
(line, rule) pairs.  Both directions are enforced: a missed marker is a
false negative, an unmarked report is a false positive.

The suite also pins the pragma contract (suppression on the line or the
line above, REP007 for stale/unknown pragmas, docstring pragmas inert)
and — the actual gate — that the shipped ``src/repro`` tree is clean.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.check import RULES, check_paths, check_source
from repro.check.rules import DEEP_RULES, VISITOR_RULES
from repro.check.runner import check_file, iter_python_files, main

DATA = Path(__file__).parent / "checkdata"
MARKER = re.compile(r"<-\s*(REP\d{3})")

BAD_FIXTURES = sorted(DATA.glob("bad_rep*.py"))
DEEP_FIXTURES = [p for p in BAD_FIXTURES if p.stem[len("bad_"):].upper() in DEEP_RULES]


def expected_markers(path):
    out = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = MARKER.search(line)
        if match:
            out.add((lineno, match.group(1)))
    return out


class TestFixtures:
    @pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
    def test_deep_mode_fires_exactly_at_markers(self, path):
        # Deep mode is a superset of shallow mode, so every fixture —
        # visitor-rule and dataflow-rule alike — must be marker-exact
        # under --deep.  Extra reports are false positives, missing
        # reports are false negatives.
        expected = expected_markers(path)
        assert expected, f"fixture {path.name} has no <- REPNNN markers"
        got = {(v.line, v.rule_id) for v in check_file(path, deep=True)}
        assert got == expected

    @pytest.mark.parametrize(
        "path",
        [p for p in BAD_FIXTURES if p not in DEEP_FIXTURES],
        ids=lambda p: p.stem,
    )
    def test_shallow_mode_fires_exactly_at_markers(self, path):
        expected = expected_markers(path)
        got = {(v.line, v.rule_id) for v in check_file(path)}
        assert got == expected

    @pytest.mark.parametrize("path", DEEP_FIXTURES, ids=lambda p: p.stem)
    def test_deep_fixtures_are_silent_without_deep(self, path):
        # The dataflow rules only run under --deep; the default pass
        # must neither report them nor flag their pragmas as stale.
        assert check_file(path) == []

    def test_every_rule_has_a_fixture(self):
        covered = set()
        for path in BAD_FIXTURES:
            covered.update(rule for _, rule in expected_markers(path))
        assert covered == set(VISITOR_RULES) | set(DEEP_RULES)

    def test_clean_fixture_is_clean(self):
        assert check_file(DATA / "clean.py", deep=True) == []

    def test_violations_carry_rule_metadata(self):
        for violation in check_file(DATA / "bad_rep001.py"):
            assert violation.rule_id in RULES
            assert str(DATA / "bad_rep001.py") == violation.path
            rendered = violation.render()
            assert violation.rule_id in rendered
            assert f":{violation.line}:" in rendered


class TestPragmas:
    def test_pragma_suppresses_on_line_and_line_above(self):
        assert check_file(DATA / "pragma_used.py") == []

    def test_stale_pragma_is_rep007(self):
        violations = check_file(DATA / "pragma_unused.py")
        assert [v.rule_id for v in violations] == ["REP007"]
        assert violations[0].line == 5

    def test_unknown_rule_in_pragma_is_rep007(self):
        violations = check_source("x = 1  # repro: allow[REP999]\n", "inline")
        assert [v.rule_id for v in violations] == ["REP007"]
        assert "REP999" in violations[0].message

    def test_empty_pragma_is_rep007(self):
        violations = check_source("x = 1  # repro: allow[]\n", "inline")
        assert [v.rule_id for v in violations] == ["REP007"]

    def test_docstring_pragma_is_inert(self):
        source = (
            '"""Examples use # repro: allow[REP001] in docs."""\n'
            "import time\n"
            "\n"
            "\n"
            "def wall():\n"
            "    return time.time()\n"
        )
        violations = check_source(source, "inline")
        assert [v.rule_id for v in violations] == ["REP001"]

    def test_pragma_does_not_leak_to_other_lines(self):
        source = (
            "import time\n"
            "a = time.time()  # repro: allow[REP001]\n"
            "b = time.time()\n"
        )
        violations = check_source(source, "inline")
        assert [(v.rule_id, v.line) for v in violations] == [("REP001", 3)]

    DEEP_LEAK = (
        "def leak(cond):\n"
        "    arena = SharedArena()  # repro: allow[REP008]\n"
        "    if cond:\n"
        "        return None\n"
        "    return arena\n"
    )

    def test_pragma_suppresses_deep_rule(self):
        assert check_source(self.DEEP_LEAK, "inline", deep=True) == []

    def test_deep_pragma_is_not_stale_in_shallow_mode(self):
        # Without --deep the analysis that would use the pragma never
        # runs, so the shallow pass must not call it stale.
        assert check_source(self.DEEP_LEAK, "inline") == []

    def test_unused_deep_pragma_is_stale_in_deep_mode(self):
        source = "x = 1  # repro: allow[REP010]\n"
        violations = check_source(source, "inline", deep=True)
        assert [v.rule_id for v in violations] == ["REP007"]


class TestRunner:
    def test_unparseable_file_is_rep000(self):
        violations = check_source("def broken(:\n", "inline")
        assert [v.rule_id for v in violations] == ["REP000"]

    def test_iter_python_files_rejects_missing_paths(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files(["no/such/path"])

    def test_main_exit_codes(self, capsys):
        assert main([str(DATA / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out
        assert main([str(DATA / "bad_rep006.py")]) == 1
        assert "REP006" in capsys.readouterr().out
        assert main(["no/such/path"]) == 2
        assert main(["--list-rules"]) == 0
        assert "REP004" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main([str(DATA / "bad_rep006.py"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload, "json output should carry the findings"
        for entry in payload:
            assert set(entry) == {"file", "line", "col", "rule", "message"}
        assert {e["rule"] for e in payload} == {"REP006"}

    def test_deep_flag_reaches_the_runner(self, capsys):
        assert main([str(DATA / "bad_rep009.py")]) == 0
        capsys.readouterr()
        assert main([str(DATA / "bad_rep009.py"), "--deep"]) == 1
        assert "REP009" in capsys.readouterr().out


class TestCounterFamilies:
    """REP003's documented-family handling (satellite of the serve-trace
    work: per-tenant counters are linted, not accidentally exempt)."""

    def test_family_regexes_cover_tenant_counters(self):
        from repro.mapreduce.counters import (
            counter_family_regexes,
            matches_counter_family,
            tenant_counter,
        )

        regexes = counter_family_regexes()
        assert "serve.tenant.<tenant>.queries" in regexes
        assert matches_counter_family(tenant_counter("t7", "queries"))
        assert not matches_counter_family("serve.tenant.t7.bogus")
        # A placeholder matches exactly one segment, never dots.
        assert not matches_counter_family("serve.tenant.a.b.queries")

    def test_literal_family_instance_is_accepted(self):
        source = (
            "def f(ctx):\n"
            "    ctx.counters.inc('serve.tenant.t3.shed')\n"
        )
        assert check_source(source, "inline") == []

    def test_fstring_outside_family_is_flagged(self):
        source = (
            "def f(ctx, t):\n"
            "    ctx.counters.inc(f'serve.{t}.queries')\n"
        )
        assert [v.rule_id for v in check_source(source, "inline")] == [
            "REP003"
        ]

    def test_builder_call_is_accepted_and_others_flagged(self):
        good = (
            "from repro.mapreduce.counters import tenant_counter\n"
            "def f(ctx, t):\n"
            "    ctx.counters.inc(tenant_counter(t, 'queries'))\n"
        )
        assert check_source(good, "inline") == []
        bad = (
            "def f(ctx, t):\n"
            "    ctx.counters.inc(make_name(t))\n"
        )
        assert [v.rule_id for v in check_source(bad, "inline")] == [
            "REP003"
        ]

    def test_builder_call_with_variable_field_is_accepted(self):
        source = (
            "from repro.mapreduce.counters import tenant_counter\n"
            "def f(ctx, tenant, field):\n"
            "    ctx.counters.inc(tenant_counter(tenant, field))\n"
        )
        assert check_source(source, "inline") == []

    def test_undocumented_family_field_is_flagged(self):
        source = (
            "def f(ctx):\n"
            "    ctx.counters.inc('serve.tenant.t3.rogue')\n"
        )
        assert [v.rule_id for v in check_source(source, "inline")] == [
            "REP003"
        ]

    def test_bare_name_argument_stays_exempt(self):
        # A plain variable carries no syntactic evidence either way;
        # the lint only judges what it can see.
        source = (
            "def f(ctx, name):\n"
            "    ctx.counters.inc(name)\n"
        )
        assert check_source(source, "inline") == []


class TestRepoIsClean:
    def test_shipped_tree_has_no_violations_and_no_stale_pragmas(self):
        src_tree = Path(repro.__file__).parent
        violations = check_paths([str(src_tree)])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_shipped_tree_is_clean_under_deep_analysis(self):
        # The whole point of shipping the dataflow layer: the analyzer
        # holds the shm/fleet substrate itself to its own rules.
        src_tree = Path(repro.__file__).parent
        violations = check_paths([str(src_tree)], deep=True)
        assert violations == [], "\n".join(v.render() for v in violations)
