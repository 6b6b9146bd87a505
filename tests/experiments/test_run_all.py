"""Smoke test for the run-everything entry point."""

import io

from repro.experiments.__main__ import ALL_EXPERIMENTS, main, run_all


def test_registry_covers_all_artifacts():
    ids = [module.__name__.rsplit(".", 1)[-1] for module, _ in ALL_EXPERIMENTS]
    assert ids == [
        "exp_table1",
        "exp_table2",
        "exp_table3",
        "exp_fig9",
        "exp_fig10",
        "exp_binary_tree",
        "exp_fig11",
        "exp_fig12",
        "exp_fig13",
        "exp_fig14",
        "exp_storage",
        "exp_aggregates",
    ]


def test_run_all_tiny(monkeypatch):
    """Run the registry with row counts shrunk to smoke-test size.

    Only row counts shrink (``rows*`` keys and the ``rows`` dict); other
    knobs such as ``n_workloads`` keep their registry values.
    """

    def shrink(rows: int) -> int:
        return max(rows // 10, 2_000)

    tiny = []
    for module, kwargs in ALL_EXPERIMENTS:
        shrunk = dict(kwargs)
        for key, value in kwargs.items():
            if key.startswith("rows") and isinstance(value, int):
                shrunk[key] = shrink(value)
            elif key == "rows" and isinstance(value, dict):
                shrunk[key] = {k: shrink(v) for k, v in value.items()}
        tiny.append((module, shrunk))
    monkeypatch.setattr(
        "repro.experiments.__main__.ALL_EXPERIMENTS", tuple(tiny)
    )
    stream = io.StringIO()
    results = run_all(fast=True, stream=stream)
    assert len(results) == 12
    report = stream.getvalue()
    for result in results:
        assert result.experiment_id in report
        assert result.rows


def test_main_writes_report(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        "repro.experiments.__main__.ALL_EXPERIMENTS",
        tuple(ALL_EXPERIMENTS[:1]),
    )
    out = tmp_path / "report.txt"
    assert main(["--fast", "--out", str(out)]) == 0
    assert "Table 1" in out.read_text()
