"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.engine.csv_io import save_csv
from repro.engine.table import Table


@pytest.fixture
def csv_path(tmp_path):
    rng = np.random.default_rng(0)
    n = 2_000
    table = Table(
        "orders",
        {
            "region": rng.integers(0, 5, n),
            "state": rng.integers(0, 40, n),
            "status": rng.choice(np.array(["open", "done"]), n),
            "order_id": np.arange(n),
        },
    )
    path = tmp_path / "orders.csv"
    save_csv(table, path)
    return str(path)


class TestProfile:
    def test_runs_and_reports(self, csv_path, capsys):
        assert main(["profile", csv_path, "--statistics", "exact"]) == 0
        out = capsys.readouterr().out
        assert "profile of orders" in out
        assert "region" in out
        assert "almost a key" in out  # order_id detected

    def test_column_selection(self, csv_path, capsys):
        main(["profile", csv_path, "--columns", "region,status"])
        out = capsys.readouterr().out
        assert "region" in out
        assert "order_id" not in out

    def test_key_candidates(self, csv_path, capsys):
        main(
            [
                "profile", csv_path,
                "--key", "region,state;order_id",
                "--statistics", "exact",
            ]
        )
        out = capsys.readouterr().out
        assert "(region, state) is NOT a key" in out
        assert "(order_id) is a key" in out

    def test_combi(self, csv_path, capsys):
        main(
            [
                "profile", csv_path,
                "--columns", "region,status",
                "--combi", "2",
            ]
        )
        out = capsys.readouterr().out
        assert "(region,status):" in out


class TestPlan:
    def test_explicit_queries_and_sql(self, csv_path, capsys):
        main(
            [
                "plan", csv_path,
                "--queries", "region;state;region,state",
                "--statistics", "exact",
            ]
        )
        out = capsys.readouterr().out
        assert "SQL script" in out
        assert "GROUP BY" in out
        assert "optimizer calls" in out

    def test_dot_output(self, csv_path, capsys):
        main(["plan", csv_path, "--dot", "--columns", "region,state"])
        out = capsys.readouterr().out
        assert "digraph gbmqo {" in out


class TestCompare:
    def test_compare_prints_timings(self, csv_path, capsys):
        assert main(["compare", csv_path, "--statistics", "exact"]) == 0
        out = capsys.readouterr().out
        assert "naive:" in out
        assert "GB-MQO:" in out
        assert "speedup vs naive" in out

    def test_max_rows(self, csv_path, capsys):
        main(["profile", csv_path, "--max-rows", "100"])
        out = capsys.readouterr().out
        assert "100 rows" in out.replace(",", "")


class TestSql:
    def test_grouping_sets_statement(self, csv_path, capsys):
        code = main(
            [
                "sql", csv_path,
                "SELECT region, COUNT(*) FROM orders "
                "GROUP BY GROUPING SETS ((region), (status))",
                "--statistics", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy: direct" in out
        assert "result rows" in out

    def test_where_clause_uses_selection_pushdown(self, csv_path, capsys):
        main(
            [
                "sql", csv_path,
                "SELECT region FROM orders WHERE state > 20 "
                "GROUP BY GROUPING SETS ((region), (status))",
            ]
        )
        out = capsys.readouterr().out
        assert "strategy: selection_pushdown" in out

    def test_statistics_option_drives_planning(
        self, csv_path, capsys, monkeypatch
    ):
        import repro.core.gs_planner as gs_planner
        from repro.stats.cardinality import ExactCardinalityEstimator

        argv = [
            "sql", csv_path,
            "SELECT region, status, COUNT(*) FROM orders "
            "GROUP BY GROUPING SETS ((region), (status), (region, status))",
            "--limit", "100",
        ]
        assert main(argv + ["--statistics", "sampled"]) == 0
        sampled_out = capsys.readouterr().out

        executor_estimators = []
        real_executor = gs_planner.PlanExecutor

        def recording_executor(*args, **kwargs):
            executor_estimators.append(kwargs.get("estimator"))
            return real_executor(*args, **kwargs)

        def no_resampling(*args, **kwargs):
            raise AssertionError("the planner sampled the table again")

        monkeypatch.setattr(gs_planner, "PlanExecutor", recording_executor)
        monkeypatch.setattr(
            gs_planner, "SampledCardinalityEstimator", no_resampling
        )
        assert main(argv + ["--statistics", "exact"]) == 0
        exact_out = capsys.readouterr().out

        assert [type(e) for e in executor_estimators] == [
            ExactCardinalityEstimator
        ]

        def result_rows(out):
            return out[out.index("result rows"):]

        assert "17 result rows" in exact_out
        assert result_rows(exact_out) == result_rows(sampled_out)

    def test_cube_statement(self, csv_path, capsys):
        main(
            [
                "sql", csv_path,
                "SELECT COUNT(*) FROM orders GROUP BY CUBE (region, status)",
                "--limit", "5",
            ]
        )
        out = capsys.readouterr().out
        assert "strategy: direct" in out


class TestExplain:
    def test_static_explain_on_csv(self, csv_path, capsys):
        code = main(
            [
                "explain", csv_path,
                "--queries", "region;state;region,state",
                "--statistics", "exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- EXPLAIN --" in out
        assert "estimated cost" in out
        assert "search:" in out
        assert "merges accepted" in out

    def test_analyze_reports_actuals_and_q_error(self, csv_path, capsys):
        code = main(
            ["explain", csv_path, "--analyze", "--statistics", "exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out
        assert "q-error" in out
        assert "totals:" in out

    def test_builtin_workload_source(self, capsys):
        code = main(
            ["explain", "--workload", "sales", "--rows", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sales" in out

    def test_requires_a_source(self, capsys):
        assert main(["explain"]) == 2
        assert "--workload" in capsys.readouterr().err


class TestTrace:
    def test_trace_renders_span_tree(self, csv_path, capsys):
        code = main(["trace", csv_path, "--statistics", "exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out
        assert "optimize" in out
        assert "execute.plan" in out
        assert "search:" in out

    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--out", str(out_path),
                "--metrics",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "metrics snapshot" in stdout
        assert f"spans to {out_path}" in stdout
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert records
        # Exactly one root span, covering both optimize and execute.
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["trace"]
        children = {
            r["name"]
            for r in records
            if r["parent_id"] == roots[0]["span_id"]
        }
        assert children == {"optimize", "execute.plan"}

    def test_requires_a_source(self, capsys):
        assert main(["trace"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_trace_parallel_wavefront(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "40000",
                "--parallelism", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute.plan" in out
        assert "execute.wave" in out

    def test_explain_analyze_parallel(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--parallelism", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["profile", "/nonexistent/x.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_sql(self, csv_path, capsys):
        code = main(["sql", csv_path, "DROP TABLE orders"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        assert main(["profile", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestParallelismValidation:
    def test_zero_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--parallelism", "0",
                ]
            )
        assert excinfo.value.code == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_negative_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    "--workload", "sales",
                    "--parallelism", "-3",
                ]
            )
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_non_integer_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--parallelism", "two",
                ]
            )
        assert "'two' is not an integer" in capsys.readouterr().err


class TestPhysicalExplain:
    def test_explain_renders_physical_tree(self, capsys):
        code = main(["explain", "--workload", "sales", "--rows", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- PHYSICAL --" in out
        assert "physical plan: sales" in out
        assert "Scan sales" in out
        assert "GroupBy" in out  # Hash or Sort flavor, chosen by cost

    def test_explain_physical_honors_budget(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--memory-budget-bytes", "4096",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget=4096B" in out

    def test_explain_analyze_includes_physical(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- PHYSICAL --" in out


class TestTraceMetricsExport:
    def test_metrics_flag_prints_registry_snapshot(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "registry snapshot" in out
        assert "repro_executor_runs_total" in out

    def test_output_alias_for_out(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()

    def test_prom_out_writes_exposition(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--prom-out", str(prom_path),
            ]
        )
        assert code == 0
        text = prom_path.read_text()
        assert "# TYPE repro_executor_runs_total counter" in text
        assert 'le="+Inf"' in text


class TestFlamegraph:
    def test_live_run_prints_table_and_writes_collapsed(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "profile.collapsed"
        code = main(
            [
                "flamegraph",
                "--workload", "sales",
                "--rows", "2000",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "self ms" in stdout
        assert "collapsed stacks" in stdout
        for line in out_path.read_text().splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path.startswith("trace")
            assert int(weight) > 0

    def test_from_jsonl_replays_a_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--workload", "sales",
                    "--rows", "2000",
                    "--out", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["flamegraph", "--from-jsonl", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "self ms" in out
        assert "optimize" in out

    def test_requires_a_source(self, capsys):
        assert main(["flamegraph"]) == 2
        assert "--workload" in capsys.readouterr().err


class TestHistoryAndCalibration:
    def test_explain_analyze_appends_history(self, tmp_path, capsys):
        import json

        history = tmp_path / "history.jsonl"
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--history", str(history),
            ]
        )
        assert code == 0
        assert "appended run record" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in history.read_text().splitlines()
            if line
        ]
        assert len(records) == 1
        assert records[0]["relation"] == "sales"
        assert records[0]["nodes"]

    def test_calibration_reads_history(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        for parallelism in ("1", "2"):
            assert (
                main(
                    [
                        "explain",
                        "--workload", "sales",
                        "--rows", "2000",
                        "--analyze",
                        "--parallelism", parallelism,
                        "--history", str(history),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert main(["calibration", str(history)]) == 0
        out = capsys.readouterr().out
        assert "calibration over 2 runs" in out
        assert "q-err gmean" in out

    def test_calibration_json_format(self, tmp_path, capsys):
        import json

        history = tmp_path / "history.jsonl"
        main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--history", str(history),
            ]
        )
        capsys.readouterr()
        assert main(["calibration", str(history), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 1
        assert payload["groups"]

    def test_calibration_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["calibration", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def _recorded_history(self, tmp_path):
        history = tmp_path / "history.jsonl"
        assert (
            main(
                [
                    "explain",
                    "--workload", "sales",
                    "--rows", "2000",
                    "--analyze",
                    "--history", str(history),
                ]
            )
            == 0
        )
        return history

    def test_calibration_prints_corrections_section(self, tmp_path, capsys):
        history = self._recorded_history(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "calibration", str(history),
                    "--min-runs", "1",
                    "--clamp", "0.5", "2.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "corrections (min-runs 1, clamp [0.5, 2])" in out

    def test_calibration_knobs_in_json(self, tmp_path, capsys):
        import json

        history = self._recorded_history(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "calibration", str(history),
                    "--min-runs", "1",
                    "--format", "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["min_runs"] == 1
        assert payload["clamp"] == [0.2, 5.0]
        assert isinstance(payload["corrections"], dict)

    def test_calibration_bad_clamp_exits_2(self, tmp_path, capsys):
        history = self._recorded_history(tmp_path)
        capsys.readouterr()
        assert (
            main(["calibration", str(history), "--clamp", "5.0", "0.2"]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestAdaptive:
    def test_feedback_loop_runs(self, capsys):
        code = main(
            [
                "adaptive",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feedback: enabled" in out
        assert "recorded 2 executions" in out
        assert "est-cost drift" in out

    def test_no_feedback_escape_hatch(self, capsys):
        code = main(
            [
                "adaptive",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
                "--no-feedback",
            ]
        )
        assert code == 0
        assert "feedback: disabled" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        code = main(
            [
                "adaptive",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert payload["adaptive_state"]["feedback"] is True
        assert payload["adaptive_state"]["model"]["refreshes"] == 2

    def test_history_flag_persists_runs(self, tmp_path, capsys):
        history = tmp_path / "adaptive.jsonl"
        code = main(
            [
                "adaptive",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
                "--history", str(history),
            ]
        )
        assert code == 0
        assert history.exists()
        assert len(history.read_text().splitlines()) == 2

    def test_requires_source(self, capsys):
        assert main(["adaptive", "--runs", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_nonpositive_runs(self, capsys):
        assert (
            main(["adaptive", "--workload", "sales", "--runs", "0"]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestCacheCommand:
    def test_text_output_reports_warm_hits(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--rows", "2000", "--runs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wall ms" in out
        assert "cache:" in out
        assert "hits" in out
        assert "resident entries" in out

    def test_json_output_shape(self, capsys):
        import json

        code = main(
            [
                "cache",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 2
        assert payload["stats"]["enabled"] is True
        assert payload["stats"]["hits"] > 0
        assert payload["entries"]
        # The warm run re-reads nothing from the base table.
        assert (
            payload["runs"][1]["rows_scanned"]
            < payload["runs"][0]["rows_scanned"]
        )

    def test_config_knobs_respected(self, capsys):
        import json

        code = main(
            [
                "cache",
                "--workload", "sales",
                "--rows", "2000",
                "--min-rows", "1000000",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["entries"] == 0
        assert payload["stats"]["rejected"] > 0

    def test_bad_max_bytes_exits_2(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--max-bytes", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_runs_exits_2(self, capsys):
        code = main(
            ["cache", "--workload", "sales", "--runs", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_source(self, capsys):
        assert main(["cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_flag_on_trace(self, capsys):
        code = main(
            [
                "trace",
                "--workload", "sales",
                "--rows", "2000",
                "--cache",
            ]
        )
        assert code == 0
        assert "execute" in capsys.readouterr().out

    def test_cache_flag_on_explain_analyze(self, capsys):
        code = main(
            [
                "explain",
                "--workload", "sales",
                "--rows", "2000",
                "--analyze",
                "--cache",
            ]
        )
        assert code == 0


class TestFormatContract:
    """Every --format-bearing obs command honors text|json and the
    0/1/2 exit contract."""

    def _history(self, tmp_path):
        history = tmp_path / "history.jsonl"
        assert (
            main(
                [
                    "explain",
                    "--workload", "sales",
                    "--rows", "2000",
                    "--analyze",
                    "--history", str(history),
                ]
            )
            == 0
        )
        return history

    def _argv(self, command, tmp_path):
        if command == "calibration":
            return ["calibration", str(self._history(tmp_path))]
        if command == "adaptive":
            return [
                "adaptive",
                "--workload", "sales",
                "--rows", "2000",
                "--runs", "1",
            ]
        if command == "analyze-plan":
            return ["analyze-plan", "--workload", "sales", "--rows", "800"]
        assert command == "cache"
        return ["cache", "--workload", "sales", "--rows", "2000"]

    @pytest.mark.parametrize(
        "command", ["calibration", "adaptive", "analyze-plan", "cache"]
    )
    def test_json_parses_and_text_does_not(self, command, tmp_path, capsys):
        import json

        argv = self._argv(command, tmp_path)
        capsys.readouterr()
        assert main(argv + ["--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        with pytest.raises(ValueError):
            json.loads(text)

    @pytest.mark.parametrize(
        "command", ["calibration", "adaptive", "analyze-plan", "cache"]
    )
    def test_bad_format_value_exits_2(self, command, tmp_path, capsys):
        argv = self._argv(command, tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "yaml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibration", "/nonexistent/history.jsonl"],
            ["adaptive", "--runs", "1"],
            ["analyze-plan"],
            ["cache"],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
