"""The benchmark's workloads against the package: each runs one small
dataset, traced as the benchmark traces it, and every check it makes
passes. This pins every name `perfbench` reaches into."""

from pathlib import Path

PERFBENCH = str(Path(__file__).parents[1] / "perfbench")


def test_every_workload_runs_traced_with_no_failed_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import workloads

    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(tiny=True)
        workload.setup(7)
        checks = workloads.Checks()
        trace = tracer.Tracer()
        trace.install()
        try:
            workload.run(7, 0, tmp_path, checks, trace)
        finally:
            trace.uninstall()
        assert checks.attempted > 0 and checks.failed == 0, (name, checks.problems)
