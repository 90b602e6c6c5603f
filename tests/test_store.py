"""The content-addressed result store and its pipeline wiring.

The store's contract has three legs, each pinned here:

* **Durability** — every persisted artifact goes through
  atomic-write-to-temp + ``os.replace``: a writer killed at any moment
  leaves the target absent or complete, never truncated.
* **Correctness** — sweep and census JSON is **byte-identical** whether
  the store is cold, warm or disabled, at any worker count; a corrupted
  or truncated entry is treated as a miss (recomputed and rewritten),
  never served; a killed census resumes from its checkpoints to a
  byte-identical final atlas.
* **Queryability** — ``python -m repro.serve`` answers classification
  and curve queries from the store, byte-identical to fresh computes,
  and exits 3 (not garbage) on a miss without ``--build``.

Also here: ``fork_map``'s labeled worker-error wrapping (the census's
chunk workers rely on it to name a failing chunk).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.gap.census import census_json, run_atlas, run_census, verdict_key
from repro.parallel import ForkTaskError, fork_map
from repro.store import (
    CODE_SALT,
    ResultStore,
    as_store,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
)
from repro.sweep import SweepRunner, unit_key

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(args, cwd, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_roundtrip_and_overwrite(self, tmp_path):
        target = tmp_path / "out.json"
        text = atomic_write_json(target, {"b": 2, "a": 1})
        assert text == canonical_json({"a": 1, "b": 2})
        assert target.read_text() == text
        atomic_write_text(target, "v2\n")
        assert target.read_text() == "v2\n"
        # no temp litter
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_replace_leaves_previous_and_cleans_temp(
            self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        atomic_write_text(target, "v1\n")

        def boom(src, dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "v2\n")
        monkeypatch.undo()
        # previous version intact, temp removed
        assert target.read_text() == "v1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_kill_mid_write_leaves_absent_or_complete(self, tmp_path):
        """SIGKILL a process that rewrites one JSON file in a tight
        loop; whatever survives must parse as complete JSON."""
        target = tmp_path / "victim.json"
        script = (
            "import sys\n"
            "from repro.store import atomic_write_json\n"
            "i = 0\n"
            "while True:\n"
            "    atomic_write_json(sys.argv[1],\n"
            "                      {'i': i, 'pad': 'x' * 65536})\n"
            "    i += 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(target)], env=env,
        )
        try:
            deadline = time.perf_counter() + 10.0  # lint: allow(DET003) subprocess poll deadline, not a result
            while not target.exists():
                assert proc.poll() is None, "writer died prematurely"
                assert time.perf_counter() < deadline, "writer never wrote"  # lint: allow(DET003) subprocess poll deadline, not a result
                time.sleep(0.01)
            time.sleep(0.05)  # let it mid-flight a few rewrites
        finally:
            proc.kill()
            proc.wait()
        if target.exists():
            payload = json.loads(target.read_text())
            assert payload["pad"] == "x" * 65536


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip_layout_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        key = store.key("sweep-unit", "random_tree", 64, 0)
        assert store.get(key) is None and store.misses == 1
        store.put(key, {"n": 64, "runs": [[1.0, 2]]})
        path = store.path_for(key)
        assert os.path.exists(path)
        # two-level hex fanout under the kind
        rel = os.path.relpath(path, store.objects_root)
        parts = rel.split(os.sep)
        assert parts[0] == "sweep-unit"
        assert parts[1] == key.digest[:2] and parts[2] == key.digest[2:4]
        assert parts[3] == f"{key.digest}.json"
        assert store.get(key) == {"n": 64, "runs": [[1.0, 2]]}
        assert key in store
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert len(store) == 1

    def test_keys_differ_by_any_part_and_by_salt(self, tmp_path):
        store = ResultStore(tmp_path / "a")
        other = ResultStore(tmp_path / "b", salt="other-salt")
        k1 = store.key("k", "x", 1)
        assert store.key("k", "x", 2).digest != k1.digest
        assert store.key("k2", "x", 1).digest != k1.digest
        assert other.key("k", "x", 1).digest != k1.digest

    def test_invalid_kind_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        for kind in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.key(kind, 1)

    def test_corrupt_entry_is_miss_then_rewritten(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        key = store.key("census-verdict", "enc")
        store.put(key, {"klass": "O(1)", "detail": "d"})
        with open(store.path_for(key), "w") as fh:
            fh.write('{"trunc')  # lint: allow(STORE001) deliberately corrupting a fixture entry
        fresh = ResultStore(tmp_path / "cas")  # no LRU carry-over
        assert fresh.get(key) is None
        assert fresh.corrupt == 1 and fresh.misses == 1
        fresh.put(key, {"klass": "O(1)", "detail": "d"})
        assert fresh.get(key) == {"klass": "O(1)", "detail": "d"}

    def test_miskeyed_entry_is_never_served(self, tmp_path):
        """An entry copied to the wrong address (kind/digest mismatch
        inside the wrapper) counts as corrupt."""
        store = ResultStore(tmp_path / "cas")
        k1, k2 = store.key("k", 1), store.key("k", 2)
        store.put(k1, {"v": 1})
        os.makedirs(os.path.dirname(store.path_for(k2)), exist_ok=True)
        with open(store.path_for(k1)) as src:
            text = src.read()
        with open(store.path_for(k2), "w") as dst:
            dst.write(text)
        fresh = ResultStore(tmp_path / "cas")
        assert fresh.get(k2) is None and fresh.corrupt == 1

    def test_lru_serves_after_disk_entry_removed(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        key = store.key("k", "hot")
        store.put(key, [1, 2, 3])
        os.unlink(store.path_for(key))
        assert store.get(key) == [1, 2, 3]  # in-process LRU hit
        assert ResultStore(tmp_path / "cas").get(key) is None

    def test_lru_payloads_do_not_alias(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        key = store.key("k", "mut")
        store.put(key, {"runs": [1]})
        first = store.get(key)
        first["runs"].append(2)  # caller mutates its copy
        assert store.get(key) == {"runs": [1]}

    def test_salt_change_wipes_stale_objects(self, tmp_path):
        root = tmp_path / "cas"
        old = ResultStore(root, salt="v1")
        old.put(old.key("k", 1), {"v": 1})
        assert len(old) == 1
        new = ResultStore(root, salt="v2")
        assert len(new) == 0  # stale entries dropped, manifest rewritten
        with open(new.manifest_path) as fh:
            assert json.load(fh)["salt"] == "v2"
        # same salt re-open keeps entries
        keep = ResultStore(root, salt="v2")
        keep.put(keep.key("k", 1), {"v": 1})
        assert len(ResultStore(root, salt="v2")) == 1

    def test_stats_shape(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        store.put(store.key("a", 1), {})
        store.put(store.key("b", 1), {})
        stats = store.stats()
        assert stats["salt"] == CODE_SALT
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert sorted(stats["kinds"]) == ["a", "b"]
        assert stats["counters"]["puts"] == 2

    def test_as_store_coercions(self, tmp_path):
        assert as_store(None) is None
        store = ResultStore(tmp_path / "cas")
        assert as_store(store) is store
        opened = as_store(str(tmp_path / "cas2"))
        assert isinstance(opened, ResultStore)


# ----------------------------------------------------------------------
# sweep wiring
# ----------------------------------------------------------------------
SWEEP_ARGS = (["random_tree"], [16, 24], ["two_coloring", "rake_layering"])
SWEEP_KW = dict(samples=2, instances=2, check=True)


class TestSweepStore:
    def test_cold_warm_disabled_byte_identical_any_workers(self, tmp_path):
        plain = SweepRunner(workers=1, **SWEEP_KW).run_json(
            *SWEEP_ARGS, seed=3)
        store = ResultStore(tmp_path / "cas")
        cold = SweepRunner(workers=4, store=store, **SWEEP_KW)
        assert cold.run_json(*SWEEP_ARGS, seed=3) == plain
        assert cold.last_cache == {"hits": 0, "misses": 8}
        # warm, different worker count: all hits, same bytes
        warm = SweepRunner(workers=1, store=store, **SWEEP_KW)
        assert warm.run_json(*SWEEP_ARGS, seed=3) == plain
        assert warm.last_cache == {"hits": 8, "misses": 0}
        warm4 = SweepRunner(workers=4, store=store, **SWEEP_KW)
        assert warm4.run_json(*SWEEP_ARGS, seed=3) == plain
        assert warm4.last_cache == {"hits": 8, "misses": 0}
        # no-store runner reports no cache channel
        none = SweepRunner(workers=1, **SWEEP_KW)
        none.run_json(*SWEEP_ARGS, seed=3)
        assert none.last_cache is None

    def test_payload_carries_no_cache_fields(self, tmp_path):
        runner = SweepRunner(workers=1, store=str(tmp_path / "cas"),
                             **SWEEP_KW)
        payload = runner.run(*SWEEP_ARGS, seed=3)
        assert "cache" not in payload and "cache" not in payload["spec"]

    def test_key_covers_every_semantic_axis(self, tmp_path):
        """Changing seed / samples / id_mode / check misses the cache
        instead of serving a wrong result."""
        store = ResultStore(tmp_path / "cas")
        base = dict(samples=2, instances=1, check=True)
        first = SweepRunner(workers=1, store=store, **base)
        first.run(["random_tree"], [16], ["two_coloring"], seed=0)
        for kw, args in (
            (base, dict(seed=1)),
            (dict(base, samples=3), dict(seed=0)),
            (dict(base, id_mode="descending"), dict(seed=0)),
            (dict(base, check=False), dict(seed=0)),
        ):
            runner = SweepRunner(workers=1, store=store, **kw)
            runner.run(["random_tree"], [16], ["two_coloring"], **args)
            assert runner.last_cache["hits"] == 0, (kw, args)

    def test_corrupted_unit_recomputed_and_rewritten(self, tmp_path):
        store_root = tmp_path / "cas"
        plain = SweepRunner(workers=1, **SWEEP_KW).run_json(
            *SWEEP_ARGS, seed=3)
        SweepRunner(workers=1, store=str(store_root),
                    **SWEEP_KW).run_json(*SWEEP_ARGS, seed=3)
        store = ResultStore(store_root)
        key = unit_key(store, "random_tree", 16, 3, 0, "two_coloring",
                       "auto", "random", True, 2)
        path = store.path_for(key)
        with open(path, "w") as fh:
            fh.write("not json")  # lint: allow(STORE001) deliberately corrupting a fixture entry
        again = SweepRunner(workers=1, store=str(store_root), **SWEEP_KW)
        assert again.run_json(*SWEEP_ARGS, seed=3) == plain
        assert again.last_cache == {"hits": 7, "misses": 1}
        json.loads(open(path).read())  # rewritten complete

    def test_wrong_schema_entry_is_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cas")
        key = unit_key(store, "random_tree", 16, 3, 0, "two_coloring",
                       "auto", "random", True, 2)
        store.put(key, {"n": "sixteen", "runs": "nope"})
        runner = SweepRunner(workers=1, store=store, samples=2,
                             instances=1, check=True)
        runner.run(["random_tree"], [16], ["two_coloring"], seed=3)
        assert runner.last_cache["misses"] == 1


# ----------------------------------------------------------------------
# census checkpoint / resume
# ----------------------------------------------------------------------
CENSUS_KW = dict(max_labels=2, delta=2, cross_validate=False)


class TestCensusStore:
    def test_store_cold_matches_no_store(self, tmp_path):
        plain = census_json(workers=1, max_problems=40, **CENSUS_KW)
        stats = {}
        cold = census_json(workers=4, max_problems=40,
                           store=str(tmp_path / "cas"), stats_out=stats,
                           **CENSUS_KW)
        assert cold == plain
        assert stats == {"reused": 0, "computed": 40}

    def test_resume_reuses_prefix_checkpoints(self, tmp_path):
        store = str(tmp_path / "cas")
        s1 = {}
        census_json(workers=2, max_problems=10, store=store,
                    stats_out=s1, **CENSUS_KW)
        assert s1 == {"reused": 0, "computed": 10}
        plain = census_json(workers=1, max_problems=40, **CENSUS_KW)
        s2 = {}
        resumed = census_json(workers=4, max_problems=40, store=store,
                              stats_out=s2, **CENSUS_KW)
        assert resumed == plain
        assert s2 == {"reused": 10, "computed": 30}
        # a fully-warm resume recomputes nothing
        s3 = {}
        warm = census_json(workers=1, max_problems=40, store=store,
                           stats_out=s3, **CENSUS_KW)
        assert warm == plain
        assert s3 == {"reused": 40, "computed": 0}

    def test_store_always_reuses(self, tmp_path):
        # a store is both cache and checkpoint: a second run with
        # nothing but the store recomputes nothing
        store = str(tmp_path / "cas")
        first = census_json(workers=1, store=store, **CENSUS_KW)
        stats = {}
        again = census_json(workers=1, store=store, stats_out=stats,
                            **CENSUS_KW)
        assert again == first
        assert stats == {"reused": 298, "computed": 0}

    def test_atlas_reuses_census_verdicts(self, tmp_path):
        # the ml3/d2 canonical stream starts with the 298 ml2/d2 forms,
        # whose verdicts the census left in the store
        store = str(tmp_path / "cas")
        run_census(max_labels=2, delta=2, cross_validate=False,
                   store=store)
        stats = {}
        atlas = run_atlas(max_labels=3, delta=2, max_problems=500,
                          store=store, stats_out=stats)
        assert stats == {"reused": 298, "computed": 202}
        assert atlas == run_atlas(max_labels=3, delta=2, max_problems=500)

    def test_chunking_invisible_in_payload(self, tmp_path):
        # 41 problems put chunk boundaries mid-list at every worker
        # count: chunks of 11 at workers 1, 4 at workers 3, 3 at 4
        plain = census_json(workers=1, max_problems=41, **CENSUS_KW)
        for workers in (1, 3, 4):
            store = str(tmp_path / f"cas{workers}")
            for expected in ({"reused": 0, "computed": 41},
                             {"reused": 41, "computed": 0}):
                stats = {}
                assert census_json(workers=workers, max_problems=41,
                                   store=store, stats_out=stats,
                                   **CENSUS_KW) == plain
                assert stats == expected
            assert census_json(workers=workers, max_problems=41,
                               **CENSUS_KW) == plain

    def test_corrupt_checkpoint_recomputed(self, tmp_path):
        store_root = tmp_path / "cas"
        census_json(workers=1, max_problems=5, store=str(store_root),
                    **CENSUS_KW)
        store = ResultStore(store_root)
        files = []
        for dirpath, dirnames, filenames in os.walk(store.objects_root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f)
                         for f in sorted(filenames))
        assert len(files) == 5
        with open(files[0], "w") as fh:
            fh.write("{}")  # lint: allow(STORE001) deliberately corrupting a fixture entry
        plain = census_json(workers=1, max_problems=5, **CENSUS_KW)
        stats = {}
        resumed = census_json(workers=1, max_problems=5,
                              store=str(store_root), stats_out=stats,
                              **CENSUS_KW)
        assert resumed == plain
        assert stats == {"reused": 4, "computed": 1}

    def test_sigkilled_census_resumes_byte_identical(self, tmp_path):
        """Kill a census mid-decide; a rerun on the same store finishes
        from the checkpoints to the exact bytes of an uninterrupted
        run."""
        store_root = tmp_path / "cas"
        out = tmp_path / "atlas.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        args = [
            sys.executable, "-m", "repro.gap.census",
            "--max-labels", "2", "--delta", "2", "--no-cross-validate",
            "--workers", "1", "--store", str(store_root),
            "--out", str(out),
        ]
        proc = subprocess.Popen(args, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        verdict_dir = os.path.join(str(store_root), "objects",
                                   "census-verdict")
        try:
            deadline = time.perf_counter() + 60.0  # lint: allow(DET003) subprocess poll deadline, not a result
            while True:
                # finished objects only: an in-flight write is a
                # ``.tmp-*.part`` file in the same shard directory, and
                # the kill may land before it is renamed into place
                count = 0
                for _dirpath, _dirnames, filenames in os.walk(verdict_dir):
                    count += sum(1 for f in filenames if f.endswith(".json"))
                if count >= 5:
                    break
                if proc.poll() is not None:
                    pytest.skip("census finished before the kill landed")
                assert time.perf_counter() < deadline  # lint: allow(DET003) subprocess poll deadline, not a result
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert not out.exists(), "killed run must not have written --out"
        resume = _run_cli([
            "repro.gap.census", "--max-labels", "2", "--delta", "2",
            "--no-cross-validate", "--workers", "4",
            "--store", str(store_root), "--out", str(out),
        ], cwd=REPO)
        assert "store: reused=" in resume.stderr
        reused = int(resume.stderr.split("reused=")[1].split()[0])
        assert reused >= 5, resume.stderr
        expected = census_json(workers=1, **CENSUS_KW)
        assert out.read_text() == expected


# ----------------------------------------------------------------------
# fork_map worker-error labeling
# ----------------------------------------------------------------------
def _explode_on_three(task):
    if task == 3:
        raise ValueError(f"boom on {task}")
    return task * 2


def _cell_label(task):
    return f"cell#{task}"


def _double(task):
    return task * 2


class TestForkMapErrors:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_raising_worker_is_labeled(self, workers):
        with pytest.raises(ForkTaskError) as info:
            fork_map(_explode_on_three, [1, 2, 3, 4], workers,
                     label=_cell_label)
        message = str(info.value)
        assert "[cell#3]" in message
        assert "ValueError: boom on 3" in message
        assert "worker traceback" in message

    @pytest.mark.parametrize("workers", [1, 4])
    def test_default_label_is_task_repr(self, workers):
        with pytest.raises(ForkTaskError) as info:
            fork_map(_explode_on_three, [3], workers)
        assert "[3]" in str(info.value)

    def test_clean_tasks_unaffected(self):
        assert fork_map(_explode_on_three, [1, 2], 2,
                        label=_cell_label) == [2, 4]


class TestForkMapOnResult:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_counts_arrive_in_task_order(self, workers):
        # on_result runs in the parent and reports the task-order prefix
        # length, monotonically, regardless of completion order
        seen = []
        out = fork_map(_double, list(range(9)), workers,
                       on_result=seen.append)
        assert out == [t * 2 for t in range(9)]
        assert seen == list(range(1, 10))

    def test_results_unchanged_by_hook(self):
        with_hook = fork_map(_double, [3, 1, 4], 2,
                             on_result=lambda _n: None)
        assert with_hook == fork_map(_double, [3, 1, 4], 2) == [6, 2, 8]


# ----------------------------------------------------------------------
# the serve CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_classify_miss_exits_3_then_build_then_serve(self, tmp_path):
        store = str(tmp_path / "cas")
        miss = _run_cli(["repro.serve", "--store", store, "classify",
                         "--problem", "free_labeling"],
                        cwd=REPO, check=False)
        assert miss.returncode == 3
        assert "miss" in miss.stderr
        built = _run_cli(["repro.serve", "--store", store, "classify",
                          "--problem", "free_labeling", "--build"],
                         cwd=REPO)
        assert "computed and stored" in built.stderr
        served = _run_cli(["repro.serve", "--store", store, "classify",
                           "--problem", "free_labeling"], cwd=REPO)
        assert "served from store" in served.stderr
        assert served.stdout == built.stdout
        payload = json.loads(served.stdout)
        assert payload["verdict"] == "O(1)"
        assert payload["problem"] == "free_labeling"
        assert payload["regions"]

    def test_classify_census_populated_store_serves(self, tmp_path):
        store_root = tmp_path / "cas"
        run_census(workers=1, store=str(store_root), **CENSUS_KW)
        served = _run_cli(["repro.serve", "--store", str(store_root),
                           "classify", "--problem", "edge_2coloring"],
                          cwd=REPO)
        assert "served from store" in served.stderr
        assert json.loads(served.stdout)["verdict"] == "no-good-function"

    def test_classify_inline_spec(self, tmp_path):
        spec = json.dumps({
            "n_in": 1, "n_out": 2, "delta": 2,
            "white": [[[0, 0]], [[0, 1]], [[0, 0], [0, 1]]],
            "black": [[[0, 0]], [[0, 1]], [[0, 0], [0, 1]]],
        })
        built = _run_cli(["repro.serve", "--store", str(tmp_path / "cas"),
                          "classify", "--spec", spec, "--build"], cwd=REPO)
        assert json.loads(built.stdout)["problem"] == "inline-spec"

    def test_curve_miss_build_then_serve_identical(self, tmp_path):
        store = str(tmp_path / "cas")
        common = ["curve", "--family", "random_tree", "--algorithm",
                  "two_coloring", "--sizes", "16,24", "--samples", "2",
                  "--instances", "1"]
        miss = _run_cli(["repro.serve", "--store", store, *common],
                        cwd=REPO, check=False)
        assert miss.returncode == 3
        built = _run_cli(["repro.serve", "--store", store, *common,
                          "--build"], cwd=REPO)
        served = _run_cli(["repro.serve", "--store", store, *common],
                          cwd=REPO)
        assert "served from store" in served.stderr
        assert served.stdout == built.stdout
        payload = json.loads(served.stdout)
        assert [p["n"] for p in payload["points"]] == [16, 24]
        assert payload["growth"] in ("flat", "intermediate", "linear")

    def test_curve_serves_sweep_cli_populated_store(self, tmp_path):
        """The sweep CLI and serve curve build identical unit keys
        (including the check default)."""
        store = str(tmp_path / "cas")
        _run_cli(["repro.sweep", "--family", "random_tree", "--sizes",
                  "16,24", "--algorithms", "two_coloring", "--samples",
                  "2", "--instances", "1", "--store", store, "--out",
                  str(tmp_path / "sweep.json")], cwd=REPO)
        served = _run_cli(["repro.serve", "--store", store, "curve",
                           "--family", "random_tree", "--algorithm",
                           "two_coloring", "--sizes", "16,24",
                           "--samples", "2", "--instances", "1"],
                          cwd=REPO)
        assert "served from store" in served.stderr

    def test_atlas_miss_build_then_serve_identical(self, tmp_path):
        store = str(tmp_path / "cas")
        common = ["atlas", "--max-labels", "1"]
        miss = _run_cli(["repro.serve", "--store", store, *common],
                        cwd=REPO, check=False)
        assert miss.returncode == 3
        assert "miss" in miss.stderr
        built = _run_cli(["repro.serve", "--store", store, *common,
                          "--build"], cwd=REPO)
        assert "computed and stored" in built.stderr
        served = _run_cli(["repro.serve", "--store", store, *common],
                          cwd=REPO)
        assert "served from store" in served.stderr
        assert served.stdout == built.stdout
        payload = json.loads(served.stdout)
        assert payload["atlas"]["max_labels"] == 1
        assert payload["atlas"]["truncated"] is False
        # every registry problem needs two output labels: none land here
        assert payload["landmarks"] == {}

    def test_atlas_census_cli_populated_store_serves(self, tmp_path):
        """The census --atlas publisher and serve atlas build identical
        keys; the served bytes equal the census-written artifact."""
        store = str(tmp_path / "cas")
        out = tmp_path / "atlas.json"
        _run_cli(["repro.gap.census", "--max-labels", "1", "--atlas",
                  "--store", store, "--out", str(out)], cwd=REPO)
        served = _run_cli(["repro.serve", "--store", store, "atlas",
                           "--max-labels", "1"], cwd=REPO)
        assert "served from store" in served.stderr
        assert served.stdout == out.read_text()

    def test_stats(self, tmp_path):
        store_root = tmp_path / "cas"
        ResultStore(store_root).put(
            ResultStore(store_root).key("k", 1), {"v": 1})
        proc = _run_cli(["repro.serve", "--store", str(store_root),
                         "stats"], cwd=REPO)
        stats = json.loads(proc.stdout)
        assert stats["entries"] == 1 and "k" in stats["kinds"]


# ----------------------------------------------------------------------
# experiments index dump
# ----------------------------------------------------------------------
class TestExperimentsDumpIndex:
    def test_dump_index_writes_canonical_json(self, tmp_path):
        from repro.experiments import EXPERIMENTS, dump_index

        path = tmp_path / "index.json"
        payload = dump_index(str(path))
        assert path.read_text() == canonical_json(payload)
        ids = [e["id"] for e in payload["experiments"]]
        assert ids == list(EXPERIMENTS)

    def test_cli_dump_index(self, tmp_path):
        path = tmp_path / "index.json"
        proc = _run_cli(["repro.experiments", "--dump-index", str(path)],
                        cwd=REPO)
        assert "wrote" in proc.stdout
        assert json.loads(path.read_text())["experiments"]
