"""The performance ledger's ``--compare`` on two hand-written ledgers,
and the entry ``--out`` records from repeated runs
(``benchmarks/ledger.py``; nothing here runs perfbench)."""

import importlib.util
import json
import os

import pytest

LEDGER_PY = os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "ledger.py")


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ledger(wall, rss, items, testing_s, correct=True):
    def run(metrics):
        return {"host": {"nproc": 2}, "correct": correct, "attempted": 10,
                "failed": 0 if correct else 1, "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}
    return {"seed": 0, "workloads": {"census_atlas": {
        "end_to_end": run({"wall_s": (wall, "s"),
                           "peak_rss_mib": (rss, "MiB"),
                           "items_per_s": (items, "1/s")}),
        "per_layer": run({"gap.testing.self_s": (testing_s, "s")}),
    }}}


def _compare(ledger, tmp_path, old, new, capsys):
    paths = []
    for name, data in (("old", old), ("new", new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    status = ledger.main(["--ledger", paths[1], "--compare", paths[0]])
    return status, capsys.readouterr()


class TestCompare:
    def test_ratios_within_bounds(self, ledger, tmp_path, capsys):
        old = _ledger(wall=6.0, rss=38.6, items=900.0, testing_s=4.4)
        new = _ledger(wall=3.0, rss=40.0, items=1800.0, testing_s=2.2)
        status, out = _compare(ledger, tmp_path, old, new, capsys)
        assert status == 0
        lines = {tuple(line.split()[:2]): line.split()
                 for line in out.out.splitlines()}
        assert lines[("census_atlas", "wall_s")][4] == "0.500"
        assert lines[("census_atlas", "items_per_s")][4] == "2.000"
        assert lines[("census_atlas", "gap.testing.self_s")][4] == "0.500"
        assert "REGRESSION" not in out.out

    def test_flags_end_to_end_beyond_bound(self, ledger, tmp_path, capsys):
        # wall 0.24 and items 0.24 bounds: +30% wall and -30% throughput
        # are flagged; a doubled per-layer time is reported, not flagged
        old = _ledger(wall=3.0, rss=38.6, items=1800.0, testing_s=2.0)
        new = _ledger(wall=3.9, rss=38.6, items=1260.0, testing_s=4.0)
        status, out = _compare(ledger, tmp_path, old, new, capsys)
        assert status == 1
        flagged = [line.split()[1] for line in out.out.splitlines()
                   if "REGRESSION" in line]
        assert flagged == ["items_per_s", "wall_s"]
        assert "census_atlas wall_s" in out.err

    def test_flags_incorrect_run(self, ledger, tmp_path, capsys):
        old = _ledger(wall=3.0, rss=38.6, items=1800.0, testing_s=2.0)
        new = _ledger(wall=3.0, rss=38.6, items=1800.0, testing_s=2.0,
                      correct=False)
        status, out = _compare(ledger, tmp_path, old, new, capsys)
        assert status == 1
        assert "not correct" in out.err


def _run(wall, items, correct=True, failed=0):
    return {"host": {"nproc": 2}, "correct": correct, "attempted": 10,
            "failed": failed, "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "items_per_s": {"value": items, "unit": "1/s"}}}


class TestOut:
    def _build(self, ledger, monkeypatch, end_to_end, per_layer):
        calls = []
        runs = {0: iter(end_to_end), 1: iter([per_layer])}

        def run_perfbench(workload, trace):
            calls.append((workload, trace))
            return next(runs[trace])

        monkeypatch.setattr(ledger, "run_perfbench", run_perfbench)
        built = ledger.build_ledger({"workloads": [{"name": "sweep_path"}]})
        return calls, built["workloads"]["sweep_path"]

    def test_end_to_end_metrics_are_medians_of_three_runs(
            self, ledger, monkeypatch):
        # each metric takes its own median: wall from the third run,
        # throughput from the first
        per_layer = _run(wall=9.0, items=1.0)
        calls, entry = self._build(ledger, monkeypatch, [
            _run(wall=3.0, items=200.0), _run(wall=1.0, items=300.0),
            _run(wall=2.0, items=100.0)], per_layer)
        assert calls == [("sweep_path", 0)] * 3 + [("sweep_path", 1)]
        assert entry["end_to_end"]["metrics"] == {
            "wall_s": {"value": 2.0, "unit": "s"},
            "items_per_s": {"value": 200.0, "unit": "1/s"}}
        assert entry["end_to_end"]["correct"]
        assert entry["per_layer"] == per_layer

    def test_correct_only_if_every_run_is(self, ledger, monkeypatch):
        _calls, entry = self._build(ledger, monkeypatch, [
            _run(wall=1.0, items=1.0),
            _run(wall=1.0, items=1.0, correct=False, failed=3),
            _run(wall=1.0, items=1.0, correct=False, failed=1)],
            _run(wall=1.0, items=1.0))
        assert not entry["end_to_end"]["correct"]
        assert entry["end_to_end"]["failed"] == 3
