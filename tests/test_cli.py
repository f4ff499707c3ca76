"""CLI commands (invoked in-process via main(argv))."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.db import Database
from repro.frame import Frame


@pytest.fixture()
def cli_ensemble(tmp_path):
    code = main([
        "generate", "--out", str(tmp_path / "ens"), "--runs", "2",
        "--particles", "800", "--steps", "498,624", "--no-particles",
    ])
    assert code == 0
    return tmp_path / "ens"


class TestGenerateInfo:
    def test_generate_output(self, cli_ensemble, capsys):
        assert (cli_ensemble / "manifest.json").exists()

    def test_info(self, cli_ensemble, capsys):
        assert main(["info", "--ensemble", str(cli_ensemble)]) == 0
        out = capsys.readouterr().out
        assert "runs: 2" in out

    def test_bad_steps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            main(["generate", "--out", str(tmp_path / "x"), "--steps", "700"])


class TestQuery:
    def test_query_success(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "w"),
            "--no-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "provenance:" in out

    def test_query_writes_figures(self, cli_ensemble, tmp_path, capsys):
        main([
            "query",
            "Show a histogram of fof_halo_mass for halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "w2"),
            "--no-errors",
        ])
        assert (tmp_path / "w2" / "figure_0.svg").exists()


class TestEval:
    def test_eval_prints_table2(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "e"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "Total" in captured.out
        # status lines go through the repro logger on stderr, not stdout
        assert "[perf] workers=1" in captured.err
        assert "retrieval cache" in captured.err
        assert "merged trace:" in captured.err

    def test_eval_workers_flag(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "e2"),
            "--runs-per-question", "1",
            "--workers", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "[perf] workers=2" in captured.err


class TestSQL:
    def test_sql_command(self, tmp_path, capsys):
        db = Database(tmp_path / "d.db")
        db.create_table("t", Frame({"a": [3, 1, 2]}))
        code = main(["sql", "SELECT a FROM t ORDER BY a DESC LIMIT 1", "--db", str(tmp_path / "d.db")])
        assert code == 0
        out = capsys.readouterr().out
        assert "3" in out
        assert "row groups" in out


class TestCache:
    def test_eval_reports_query_cache_perf(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "qc"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "query cache:" in err and "hit ratio" in err


class TestChat:
    def test_chat_session(self, cli_ensemble, tmp_path, capsys, monkeypatch):
        answers = iter([
            "top 3 halos at timestep 624 in simulation 0",  # question
            "",                                              # approve plan
            "",                                              # quit
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        code = main([
            "chat", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "c"), "--no-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proposed plan" in out
        assert "[completed]" in out

    def test_chat_feedback_round(self, cli_ensemble, tmp_path, capsys, monkeypatch):
        answers = iter([
            "plot the change in mass of the largest halos over all timesteps in simulation 0",
            "drop viz",   # refinement directive
            "",           # approve revised plan
            "",           # quit
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        main([
            "chat", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "c2"), "--no-errors",
        ])
        out = capsys.readouterr().out
        # the second proposed plan (after 'drop viz') has no viz step
        final_plan = out.rsplit("proposed plan:", 1)[1]
        assert "[viz]" not in final_plan.split("approve?")[0]


@pytest.fixture()
def traced_session(cli_ensemble, tmp_path):
    """A completed query session directory (contains a *trace.jsonl)."""
    code = main([
        "query", "top 5 halos at timestep 624 in simulation 0",
        "--ensemble", str(cli_ensemble),
        "--workdir", str(tmp_path / "traced"),
        "--no-errors",
    ])
    assert code == 0
    return next((tmp_path / "traced").glob("query_*"))


class TestTrace:
    def test_summary(self, traced_session, capsys):
        capsys.readouterr()
        assert main(["trace", "summary", str(traced_session)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "llm tokens:" in out

    def test_tree(self, traced_session, capsys):
        capsys.readouterr()
        assert main(["trace", "tree", str(traced_session)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("session")
        assert "  supervisor.execute" in out

    def test_export_chrome(self, traced_session, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        code = main(["trace", "export", str(traced_session),
                     "--chrome", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert str(out_path) in capsys.readouterr().out

    def test_summary_of_query_workdir_reads_newest_session(
        self, traced_session, capsys
    ):
        """A one-shot query keeps its trace in its session directory, one
        level below the workdir; the summary finds it and says which."""
        workdir = traced_session.parent
        capsys.readouterr()
        assert main(["trace", "summary", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "no trace yet" not in out
        (trace,) = traced_session.glob("*trace.jsonl")
        assert f"reading {trace}" in out
        assert "llm tokens:" in out

    def test_missing_trace_is_friendly(self, tmp_path, capsys):
        # a fresh workdir has no trace yet: report that, exit 0
        for action in ("summary", "tree"):
            capsys.readouterr()
            assert main(["trace", action, str(tmp_path / "nowhere")]) == 0
            assert "no trace yet" in capsys.readouterr().out

    def test_empty_trace_is_friendly(self, tmp_path, capsys):
        empty = tmp_path / "empty_trace.jsonl"
        empty.write_text("")
        capsys.readouterr()
        assert main(["trace", "summary", str(empty)]) == 0
        assert "empty" in capsys.readouterr().out


class TestOneShotSessions:
    # q06 and q17 of the suite: their session-name slugs are identical
    COLLIDING = (
        "First find the two largest halos by their halo count in timestep 624 "
        "of simulation 0. Then find the top 10 galaxies associated to those two "
        "halos (related by fof_halo_tag).",
        "First find the two largest halos by their halo count in timestep 498 "
        "of simulation 1. Then find the top 10 galaxies associated to those two "
        "halos (related by fof_halo_tag).",
    )

    @staticmethod
    def _answer(ensemble, workdir, question, capsys):
        """(answer lines, tokens, figure bytes) of one ``repro query``."""
        capsys.readouterr()
        main(["query", question, "--ensemble", str(ensemble.root),
              "--workdir", str(workdir)])
        lines = capsys.readouterr().out.splitlines()
        tokens = next(line for line in lines if line.startswith("tokens: "))
        figures = [Path(line[len("figure: "):]).read_bytes()
                   for line in lines if line.startswith("figure: ")]
        answer = [line for line in lines
                  if not line.startswith(("tokens: ", "figure: ", "provenance: "))]
        return answer, tokens.split()[1], figures

    def test_colliding_questions_keep_separate_sessions(
        self, ensemble, tmp_path, capsys
    ):
        shared = tmp_path / "shared"
        in_shared = [self._answer(ensemble, shared, q, capsys) for q in self.COLLIDING]
        fresh = [self._answer(ensemble, tmp_path / f"fresh{i}", q, capsys)
                 for i, q in enumerate(self.COLLIDING)]
        sessions = sorted(p.name for p in shared.iterdir() if p.is_dir())
        assert sessions == [
            "query_001_first_find_the_two_large",
            "query_001_first_find_the_two_large_2",
        ]
        for session in sessions:
            assert list((shared / session).glob("*trace.jsonl"))
        assert in_shared == fresh


class TestCostCommand:
    def test_missing_ledger_is_friendly(self, tmp_path, capsys):
        assert main(["cost", str(tmp_path)]) == 0
        assert "no cost ledger" in capsys.readouterr().out

    def test_reports_spend_breakdown(self, tmp_path, capsys):
        from repro.obs.cost import CostLedger

        ledger = CostLedger(token_budget=50_000)
        ledger.record(100, 50, agent="planner", level="1", attempt="0")
        ledger.record(200, 80, agent="sql", level="1", attempt="1")
        (tmp_path / "cost_ledger.json").write_text(json.dumps(ledger.as_dict()))
        capsys.readouterr()
        assert main(["cost", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "planner" in out and "sql" in out
        assert "token growth per redo attempt" in out
        assert "attempt 0" in out and "attempt 1" in out


class TestSloCommand:
    def test_missing_trace_is_friendly(self, tmp_path, capsys):
        assert main(["slo", "check", str(tmp_path / "nowhere")]) == 0
        assert "no trace yet" in capsys.readouterr().out

    def test_pass_and_fail_exit_codes(self, traced_session, tmp_path, capsys):
        assert main(["slo", "check", str(traced_session)]) == 0
        assert "SLO: PASS" in capsys.readouterr().out
        # a policy nothing can satisfy must fail with exit 1
        policy = tmp_path / "strict.json"
        policy.write_text(json.dumps({"trace": {"max_total_tokens": 1}}))
        assert main(["slo", "check", str(traced_session), "--policy", str(policy)]) == 1
        assert "SLO: FAIL" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_writes_artifacts(self, cli_ensemble, tmp_path, capsys):
        workdir = tmp_path / "prof"
        code = main([
            "profile", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(workdir), "--no-errors", "--hz", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flamegraph:" in out
        assert (workdir / "profile.collapsed").exists()
        svg = (workdir / "profile.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")


class TestLiveFlag:
    def test_query_live_streams_spans(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "lv"), "--no-errors", "--live",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[live] session" in err
        assert "[live] llm.chat" in err


class TestVerbosity:
    def test_quiet_suppresses_status(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "-q", "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "eq"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out      # results still on stdout
        assert "[perf]" not in captured.err   # status muted below WARNING

    def test_verbose_adds_debug_lines(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "-v", "query", "top 3 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "vq"),
            "--no-errors",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err                # the cmd_query debug line


class TestArtifactCompat:
    """Stats commands must tolerate artifacts written by older repro
    versions: missing schema fields degrade to defaults with an explicit
    provenance note, never a KeyError."""

    def test_sandbox_stats_notes_pre_schema_snapshot(self, tmp_path, capsys):
        (tmp_path / "sandbox_fleet.json").write_text(json.dumps(
            {"workers": 1, "mode": "thread", "members": [{"index": 0}]}
        ))
        assert main(["sandbox", "stats", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "written by an older repro version" in out
        assert "missing counters shown as defaults" in out
        assert "1 worker(s)" in out  # still renders with defaults

    def test_sandbox_stats_notes_newer_schema(self, tmp_path, capsys):
        (tmp_path / "sandbox_fleet.json").write_text(json.dumps(
            {"schema": 9, "workers": 0, "mode": "thread", "members": []}
        ))
        assert main(["sandbox", "stats", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "schema 9 is newer than this repro version" in out

    def test_sandbox_stats_current_schema_has_no_note(self, tmp_path, capsys):
        (tmp_path / "sandbox_fleet.json").write_text(json.dumps(
            {"schema": 2, "workers": 0, "mode": "thread", "members": [],
             "lifetime": {}}
        ))
        assert main(["sandbox", "stats", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "older repro version" not in out and "newer" not in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["destroy"])
