"""The repro.lint static analyzer: rules, framework, runner and CLI.

Every rule gets at least one positive (fires) and one negative (stays
silent) fixture; the framework tests pin the suppression contract
(reasons are mandatory), the per-directory severity config and the
baseline workflow; the CLI tests pin the two repo-level guarantees —
``python -m repro.lint src tests benchmarks`` exits 0, and ``--format
json`` output is byte-identical at ``--jobs 1`` and ``--jobs 4``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import all_rules, analyze_source
from repro.lint.baseline import (
    BaselineError,
    load_baseline,
    render_baseline,
    split_findings,
)
from repro.lint.config import severity_for
from repro.lint.core import BAD_SUPPRESSION_RULE, PARSE_ERROR_RULE, Finding
from repro.lint.runner import collect_files, run_lint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: default display path: library code, where every DET rule is an error
SRC = "src/repro/fixture.py"


def rule_ids(source: str, path: str = SRC):
    return [f.rule for f in analyze_source(source, path)]


class TestRegistry:
    def test_at_least_eight_rules(self):
        rules = all_rules()
        assert len(rules) >= 8
        ids = [r.id for r in rules]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        assert all(r.summary for r in rules)

    def test_interprocedural_family_registered(self):
        ids = {r.id for r in all_rules()}
        assert {"IPD001", "IPD002", "IPD003", "STORE002"} <= ids


class TestDET001UnseededRandom:
    def test_unseeded_random_and_global_draws_fire(self):
        src = ("import random\n"
               "r = random.Random()\n"
               "x = random.randint(1, 5)\n")
        assert rule_ids(src) == ["DET001", "DET001"]

    def test_numpy_global_rng_fires(self):
        assert rule_ids("import numpy as np\nx = np.random.rand(3)\n") \
            == ["DET001"]

    def test_seeded_rng_is_clean(self):
        src = ("import random\n"
               "r = random.Random(7)\n"
               "y = r.randint(1, 5)\n")
        assert rule_ids(src) == []

    def test_seeded_numpy_generators_are_clean(self):
        src = ("import random\n"
               "import numpy as np\n"
               "from numpy.random import default_rng\n"
               "rng = random.Random(7)\n"
               "a = np.random.default_rng(rng.getrandbits(128))\n"
               "b = np.random.Generator(np.random.PCG64(3))\n"
               "c = np.random.SeedSequence(entropy=5)\n"
               "d = default_rng(seed=1)\n"
               "x = a.integers(0, 10, size=4)\n")
        assert rule_ids(src) == []

    def test_unseeded_numpy_generators_fire(self):
        src = ("import numpy as np\n"
               "a = np.random.default_rng()\n"
               "b = np.random.default_rng(None)\n"
               "c = np.random.SeedSequence(entropy=None)\n"
               "d = np.random.Generator(np.random.PCG64())\n")
        findings = analyze_source(src, SRC)
        assert [(f.rule, f.line) for f in findings] == [
            ("DET001", 2), ("DET001", 3), ("DET001", 4), ("DET001", 5)]
        assert "OS entropy" in findings[-1].message

    def test_numpy_global_draws_fire_even_with_arguments(self):
        src = ("import numpy as np\n"
               "np.random.seed(7)\n"
               "np.random.shuffle([1, 2])\n"
               "x = np.random.randint(0, 5, size=3)\n")
        assert rule_ids(src) == ["DET001"] * 3

    def test_random_random_with_literal_none_fires(self):
        src = ("import random\n"
               "r = random.Random(None)\n")
        assert rule_ids(src) == ["DET001"]

    def test_interprocedural_evidence_shares_the_predicate(self):
        from repro.lint.summaries import extract_module_facts

        facts = extract_module_facts(
            "src/repro/g.py",
            "import numpy as np\n"
            "\n"
            "def seeded(rng):\n"
            "    return np.random.default_rng(rng.getrandbits(128))\n"
            "\n"
            "def unseeded():\n"
            "    return np.random.default_rng()\n"
            "\n"
            "def global_draw():\n"
            "    return np.random.rand(3)\n",
        )
        entropy = {f.qualname: f.entropy for f in facts.functions}
        assert entropy["repro.g.seeded"] is None
        assert entropy["repro.g.unseeded"] is not None
        assert entropy["repro.g.global_draw"] is not None


class TestDET002BuiltinHash:
    def test_hash_call_fires(self):
        assert rule_ids("k = hash(('a', 1))\n") == ["DET002"]

    def test_dunder_hash_is_exempt(self):
        src = ("class A:\n"
               "    def __hash__(self):\n"
               "        return hash(('A', self.x))\n")
        assert rule_ids(src) == []

    def test_shadowed_hash_is_clean(self):
        src = ("def hash(x):\n"
               "    return 0\n"
               "k = hash('a')\n")
        assert rule_ids(src) == []


class TestDET003WallClock:
    def test_attribute_read_fires(self):
        assert rule_ids("import time\nt = time.time()\n") == ["DET003"]

    def test_from_import_fires(self):
        assert rule_ids(
            "from time import perf_counter\nt = perf_counter()\n"
        ) == ["DET003"]

    def test_sleep_is_not_a_clock(self):
        assert rule_ids("import time\ntime.sleep(1)\n") == []


class TestDET004SetIteration:
    def test_for_loop_with_append_fires(self):
        src = "s = {1, 2}\nout = []\nfor v in s:\n    out.append(v)\n"
        assert rule_ids(src) == ["DET004"]

    def test_listcomp_and_list_conversion_fire(self):
        assert rule_ids("s = {1, 2}\ny = [v for v in s]\n") == ["DET004"]
        assert rule_ids("s = {1, 2}\ny = list(s)\n") == ["DET004"]

    def test_annotated_set_param_is_tracked(self):
        src = ("from typing import Set\n"
               "def f(s: Set[int]):\n"
               "    out = []\n"
               "    for v in s:\n"
               "        out.append(v)\n"
               "    return out\n")
        assert rule_ids(src) == ["DET004"]

    def test_order_free_consumers_are_clean(self):
        src = ("s = {1, 2}\n"
               "y = sorted(s)\n"
               "z = sum(v for v in s)\n"
               "for v in sorted(s):\n"
               "    print(v)\n"
               "m = min([v for v in s])\n")
        assert rule_ids(src) == []

    def test_starred_display_wrappers_fire(self):
        # [*s] / (*s,) freeze set order exactly like list(s)/tuple(s)
        assert rule_ids("s = {1, 2}\ny = [*s]\n") == ["DET004"]
        assert rule_ids("s = {1, 2}\ny = (*s,)\n") == ["DET004"]

    def test_star_argument_splat_fires(self):
        assert rule_ids("s = {1, 2}\nprint(*s)\n") == ["DET004"]

    def test_sorted_starred_display_is_clean(self):
        assert rule_ids("s = {1, 2}\ny = sorted([*s])\n") == []
        assert rule_ids("s = {1, 2}\ny = set([*s])\n") == []

    def test_conversion_into_order_free_sink_is_clean(self):
        # the wrapper's arbitrary order never escapes sorted()/min()
        assert rule_ids("s = {1, 2}\ny = sorted(list(s))\n") == []
        assert rule_ids("s = {1, 2}\ny = min(tuple(s))\n") == []


class TestDET005UnorderedPool:
    def test_imap_unordered_fires(self):
        src = "def f(pool, xs):\n    return list(pool.imap_unordered(str, xs))\n"
        assert rule_ids(src) == ["DET005"]

    def test_as_completed_fires(self):
        src = ("from concurrent.futures import as_completed\n"
               "def f(futs):\n"
               "    return [x.result() for x in as_completed(futs)]\n")
        assert rule_ids(src) == ["DET005"]

    def test_fork_map_is_the_sanctioned_fanout(self):
        src = ("from repro.parallel import fork_map\n"
               "def g(x):\n"
               "    return x\n"
               "r = fork_map(g, [1], workers=2)\n")
        assert rule_ids(src) == []


class TestENG001ViewPrivateAccess:
    def test_private_view_attribute_fires(self):
        src = "def decide(self, view, n):\n    return view._ball\n"
        assert rule_ids(src) == ["ENG001"]

    def test_public_view_api_is_clean(self):
        src = "def decide(self, view, n):\n    return view.ball(1)\n"
        assert rule_ids(src) == []

    def test_other_params_are_not_views(self):
        src = "def helper(state):\n    return state._cache\n"
        assert rule_ids(src) == []

    def test_nested_view_taking_def_reports_once(self):
        src = ("def f(view):\n"
               "    def g(view):\n"
               "        return view._x\n"
               "    return g\n")
        findings = analyze_source(src, SRC)
        assert [(f.rule, f.line) for f in findings] == [("ENG001", 3)]

    def test_closure_over_outer_view_fires(self):
        src = ("def f(view):\n"
               "    def g():\n"
               "        return view._x\n"
               "    return g\n")
        assert rule_ids(src) == ["ENG001"]


class TestENG002BatchCacheReset:
    def test_cache_not_reset_in_setup_fires(self):
        src = ("class A:\n"
               "    def setup(self, graph, n):\n"
               "        self._cache = None\n"
               "    def decide_batch(self, views, live, t):\n"
               "        self._other = 1\n")
        assert rule_ids(src) == ["ENG002"]

    def test_cache_reset_in_setup_is_clean(self):
        src = ("class A:\n"
               "    def setup(self, graph, n):\n"
               "        self._cache = None\n"
               "    def decide_batch(self, views, live, t):\n"
               "        self._cache = 2\n")
        assert rule_ids(src) == []

    def test_non_batched_classes_are_exempt(self):
        src = ("class B:\n"
               "    def work(self):\n"
               "        self._memo = {}\n")
        assert rule_ids(src) == []


class TestPAR001ForkMapClosure:
    def test_lambda_worker_fires(self):
        src = ("from repro.parallel import fork_map\n"
               "r = fork_map(lambda x: x, [1], workers=2)\n")
        assert rule_ids(src) == ["PAR001"]

    def test_nested_def_worker_fires(self):
        src = ("from repro.parallel import fork_map\n"
               "def run():\n"
               "    def w(x):\n"
               "        return x\n"
               "    return fork_map(w, [1], workers=2)\n")
        assert rule_ids(src) == ["PAR001"]

    def test_module_level_worker_is_clean(self):
        src = ("from repro.parallel import fork_map\n"
               "def w(x):\n"
               "    return x\n"
               "def run():\n"
               "    return fork_map(w, [1], workers=2)\n")
        assert rule_ids(src) == []


class TestSHM001SharedGraphWrite:
    def test_setflags_write_true_fires(self):
        assert rule_ids("def f(arr):\n    arr.setflags(write=True)\n") \
            == ["SHM001"]

    def test_store_into_attached_adjacency_fires(self):
        src = ("from repro.shm import shared_graph\n"
               "g = shared_graph('k')\n"
               "indptr, indices = g.adjacency()\n"
               "indptr[0] = 1\n")
        assert rule_ids(src) == ["SHM001"]

    def test_sealing_readonly_is_the_sanctioned_direction(self):
        src = ("def seal(view):\n"
               "    view.flags.writeable = False\n"
               "    view.setflags(write=False)\n"
               "    return view\n")
        assert rule_ids(src) == []

    def test_local_array_shadows_an_attached_name(self):
        # the same name attached in one function and allocated fresh in
        # a later one: the later store is into the local array
        src = ("import numpy as np\n"
               "from repro.shm import shared_graph\n"
               "def total(key):\n"
               "    g = shared_graph(key)\n"
               "    indptr, indices = g.adjacency()\n"
               "    return indptr[-1]\n"
               "def build(n):\n"
               "    indptr = np.zeros(n + 1)\n"
               "    indptr[0] = 0\n"
               "    return indptr\n")
        assert rule_ids(src) == []

    def test_local_array_before_the_attaching_function_is_clean(self):
        src = ("import numpy as np\n"
               "from repro.shm import shared_graph\n"
               "def build(n):\n"
               "    indptr = np.zeros(n + 1)\n"
               "    indptr[0] = 0\n"
               "    return indptr\n"
               "def total(key):\n"
               "    g = shared_graph(key)\n"
               "    indptr, indices = g.adjacency()\n"
               "    return indptr[-1]\n")
        assert rule_ids(src) == []

    def test_store_into_module_global_attached_array_fires(self):
        src = ("from repro.shm import shared_graph\n"
               "G = shared_graph('k')\n"
               "IP, IX = G.adjacency()\n"
               "def poke():\n"
               "    IP[0] = 1\n")
        findings = analyze_source(src, SRC)
        assert [(f.rule, f.line) for f in findings] == [("SHM001", 5)]

    def test_local_graph_stores_are_untracked(self):
        src = ("def f(graph):\n"
               "    indptr, indices = graph.adjacency()\n"
               "    return indptr[0]\n")
        assert rule_ids(src) == []


class TestSTORE001StorePayloadPurity:
    def test_timestamp_in_writer_scope_fires(self):
        src = ("import time\n"
               "from repro.store import atomic_write_json\n"
               "def save(path, payload):\n"
               "    payload['written_at'] = time.time()\n"
               "    atomic_write_json(path, payload)\n")
        # DET003 flags the clock read itself; STORE001 flags it reaching
        # a persisted payload
        assert rule_ids(src) == ["DET003", "STORE001"]

    def test_hostname_near_store_put_fires(self):
        src = ("import socket\n"
               "def checkpoint(store, key, payload):\n"
               "    payload['host'] = socket.gethostname()\n"
               "    store.put(key, payload)\n")
        assert rule_ids(src) == ["STORE001"]

    def test_pid_near_attribute_store_fires(self):
        src = ("import os\n"
               "def save(self, key, payload):\n"
               "    payload['pid'] = os.getpid()\n"
               "    self.store.put(key, payload)\n")
        assert rule_ids(src) == ["STORE001"]

    def test_from_import_source_fires(self):
        src = ("from time import time\n"
               "from repro.store import atomic_write_text\n"
               "def save(path):\n"
               "    atomic_write_text(path, str(time()))\n")
        assert rule_ids(src) == ["DET003", "STORE001"]

    def test_pure_writer_is_clean(self):
        src = ("from repro.store import atomic_write_json\n"
               "def save(path, payload):\n"
               "    atomic_write_json(path, payload)\n")
        assert rule_ids(src) == []

    def test_clock_outside_writer_scope_is_clean(self):
        # timing in one function, persistence in another: the DET003
        # exemption story (harness.timed) stays expressible
        src = ("import time\n"
               "from repro.store import atomic_write_json\n"
               "def measure():\n"
               "    return time.perf_counter()\n"
               "def save(path, payload):\n"
               "    atomic_write_json(path, payload)\n")
        # DET003 still fires on the clock read; STORE001 must not
        assert rule_ids(src) == ["DET003"]

    def test_put_through_a_store_named_inner_component_fires(self):
        # STORE002 treats this receiver as a store; STORE001 must agree
        src = ("import time\n"
               "from repro.parallel import stable_digest\n"
               "def cache(self, family):\n"
               "    stamp = time.time()\n"
               "    self.store_dir.cache.put(stable_digest(family),\n"
               "                             {'family': family})\n"
               "    return stamp\n")
        assert rule_ids(src) == ["DET003", "STORE001"]

    def test_put_on_non_store_receiver_is_clean(self):
        src = ("import time\n"
               "def f(queue):\n"
               "    queue.put(time.monotonic())\n")
        assert rule_ids(src) == ["DET003"]

    def test_benchmarks_severity_is_warning(self):
        assert severity_for("benchmarks/bench_x.py", "STORE001",
                            "error") == "warning"


class TestFramework:
    def test_suppression_with_reason_silences(self):
        src = "import random\nx = random.randint(1, 2)  # lint: allow(DET001) fuzz helper\n"
        assert rule_ids(src) == []

    def test_standalone_suppression_covers_next_line(self):
        src = ("import random\n"
               "# lint: allow(DET001) fuzz helper\n"
               "x = random.randint(1, 2)\n")
        assert rule_ids(src) == []

    def test_reasonless_suppression_is_reported_and_ignored(self):
        src = "import random\nx = random.randint(1, 2)  # lint: allow(DET001)\n"
        assert sorted(rule_ids(src)) == ["DET001", BAD_SUPPRESSION_RULE]

    def test_syntax_error_becomes_lint001(self):
        findings = analyze_source("def f(:\n", SRC)
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_benchmark_severity_is_relaxed(self):
        findings = analyze_source("import random\nx = random.randint(1, 2)\n",
                                  "benchmarks/bench_x.py")
        assert [(f.rule, f.severity) for f in findings] \
            == [("DET001", "warning")]

    def test_harness_may_read_the_clock(self):
        assert rule_ids("import time\nt = time.time()\n",
                        "benchmarks/harness.py") == []
        # the exemption is exactly that file, not the directory
        assert rule_ids("import time\nt = time.time()\n",
                        "benchmarks/bench_x.py") == ["DET003"]

    def test_severity_resolution_prefers_longest_prefix(self):
        assert severity_for("benchmarks/harness.py", "DET003", "error") == "off"
        assert severity_for("benchmarks/bench_x.py", "DET001", "error") \
            == "warning"
        assert severity_for("src/repro/x.py", "DET001", "error") == "error"

    def test_examples_wildcard_demotes_every_rule(self):
        assert severity_for("examples/demo.py", "DET001", "error") \
            == "warning"
        assert severity_for("examples/demo.py", "IPD003", "error") \
            == "warning"
        # a wildcard elsewhere does not leak out of its prefix
        assert severity_for("src/repro/x.py", "IPD003", "error") == "error"


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path):
        finding = Finding("src/repro/x.py", 12, 0, "DET004", "error", "msg")
        other = Finding("src/repro/y.py", 3, 0, "DET001", "error", "msg")
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline([finding], reason="order-free sink"))
        baseline = load_baseline(str(path))
        active, matched, stale = split_findings([finding, other], baseline)
        assert active == [other]
        assert matched == [(finding, "order-free sink")]
        assert stale == []

    def test_stale_entries_are_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": [
            {"file": "src/gone.py", "rule": "DET001", "line": 1,
             "reason": "was intentional"},
        ]}))
        _, _, stale = split_findings([], load_baseline(str(path)))
        assert stale == [("src/gone.py", "DET001", 1)]

    def test_reasonless_entries_are_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": [
            {"file": "a.py", "rule": "DET001", "line": 1, "reason": "  "},
        ]}))
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(str(path))


def _write_fixture_tree(root):
    pkg = root / "src"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(
        "import random\nx = random.randint(1, 2)\n")
    (pkg / "clean.py").write_text("VALUE = 3\n")
    return pkg


class TestRunner:
    def test_collect_files_is_sorted_and_recursive(self, tmp_path):
        _write_fixture_tree(tmp_path)
        pairs = collect_files(["src"], root=str(tmp_path))
        assert [display for _, display in pairs] \
            == ["src/clean.py", "src/dirty.py"]

    def test_run_lint_with_baseline(self, tmp_path):
        _write_fixture_tree(tmp_path)
        report = run_lint(["src"], root=str(tmp_path))
        assert report.summary()["errors"] == 1 and report.exit_code == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(render_baseline(
            report.findings, reason="fixture: known dirty file"))
        rebaselined = run_lint(["src"], root=str(tmp_path),
                               baseline_path=str(baseline))
        assert rebaselined.findings == [] and rebaselined.exit_code == 0
        assert [r for _, r in rebaselined.baselined] \
            == ["fixture: known dirty file"]

    def test_jobs_do_not_change_the_report(self, tmp_path):
        _write_fixture_tree(tmp_path)
        one = run_lint(["src"], jobs=1, root=str(tmp_path))
        four = run_lint(["src"], jobs=4, root=str(tmp_path))
        assert one.to_json() == four.to_json()

    def test_each_file_is_parsed_and_tokenized_once(self, tmp_path,
                                                    monkeypatch):
        import ast
        import tokenize

        _write_fixture_tree(tmp_path)
        (tmp_path / "src" / "third.py").write_text(
            "def f(view):\n    return view._x  # lint: allow(ENG001) x\n")
        calls = {"parse": 0, "tokens": 0}
        parse, tokens = ast.parse, tokenize.generate_tokens

        def counted_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        def counted_tokens(*args, **kwargs):
            calls["tokens"] += 1
            return tokens(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counted_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counted_tokens)
        report = run_lint(["src"], jobs=1, root=str(tmp_path))
        assert report.files == 3
        assert calls == {"parse": 3, "tokens": 3}


def _run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.fixture(scope="session")
def lint_cli():
    """:func:`_run_cli` memoized per argument tuple: each whole-tree
    invocation runs once per session, however many tests read it."""
    runs = {}

    def run(*args):
        if args not in runs:
            runs[args] = _run_cli(*args)
        return runs[args]
    return run


class TestCLI:
    def test_repo_is_clean(self, lint_cli):
        proc = lint_cli("src", "tests", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 errors" in proc.stdout

    def test_json_identical_across_jobs(self, lint_cli):
        one = lint_cli("src", "tests", "benchmarks", "--format", "json",
                       "--jobs", "1")
        four = lint_cli("src", "tests", "benchmarks", "--format", "json",
                        "--jobs", "4")
        assert one.returncode == 0 and four.returncode == 0
        assert one.stdout == four.stdout
        payload = json.loads(one.stdout)
        assert payload["summary"]["errors"] == 0

    def test_findings_set_exit_code(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        proc = _run_cli(str(bad))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_list_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("DET001", "DET004", "ENG002", "PAR001", "SHM001",
                        "IPD001", "IPD002", "IPD003", "STORE002"):
            assert rule_id in proc.stdout

    def test_examples_linted_by_default(self, lint_cli):
        proc = lint_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # file count covers examples/ on top of src+tests+benchmarks
        explicit = lint_cli("src", "tests", "benchmarks")
        count = int(proc.stdout.rsplit(" files", 1)[0].rsplit()[-1])
        explicit_count = int(
            explicit.stdout.rsplit(" files", 1)[0].rsplit()[-1])
        assert count > explicit_count


# ----------------------------------------------------------------------
# the golden report: every rule id over one multi-file project
# ----------------------------------------------------------------------
#: a small project touching every rule id, the suppression contract, the
#: per-directory severities and the corner cases of each rule; the
#: sources stay strings so the repo's own lint run never sees them
GOLDEN_SOURCES = {
    "src/repro/algorithms/alpha.py": (
        "from .mid import step\n"
        "\n"
        "\n"
        "def decide(view):\n"
        "    return step()\n"
    ),
    "src/repro/algorithms/mid.py": (
        "from .helpers import flip\n"
        "\n"
        "\n"
        "def step():\n"
        "    return flip()\n"
    ),
    "src/repro/algorithms/helpers.py": (
        "import random\n"
        "\n"
        "\n"
        "def flip():\n"
        "    return random.random() < 0.5\n"
        "\n"
        "\n"
        "def quiet():\n"
        "    return random.random()  # lint: allow(DET001) fixture draw\n"
        "\n"
        "\n"
        "def loud():\n"
        "    return random.random()  # lint: allow(DET001)\n"
    ),
    "src/repro/algorithms/corners.py": (
        "import functools\n"
        "import random\n"
        "\n"
        "\n"
        "def pick(x=random.random()):\n"
        "    return x\n"
        "\n"
        "\n"
        "class Table:\n"
        "    seed = random.randint(1, 6)\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=random.randint(1, 8))\n"
        "def memo(x):\n"
        "    return x\n"
    ),
    "src/repro/algorithms/views.py": (
        "def decide(self, view, n):\n"
        "    return view._ball\n"
        "\n"
        "\n"
        "def outer(view):\n"
        "    def inner(view):\n"
        "        return view._x\n"
        "    return inner\n"
        "\n"
        "\n"
        "def closure(view):\n"
        "    def g():\n"
        "        return view._y\n"
        "    return g\n"
        "\n"
        "\n"
        "def peek(v):\n"
        "    return v._ball\n"
        "\n"
        "\n"
        "def run(view):\n"
        "    return peek(view)\n"
    ),
    "src/repro/algorithms/batch.py": (
        "class Algo:\n"
        "    def setup(self, graph, n):\n"
        "        self._cache = None\n"
        "\n"
        "    def decide_batch(self, views, live, t):\n"
        "        self._other = 1\n"
        "        return []\n"
    ),
    "src/repro/misc.py": (
        "from repro.parallel import fork_map\n"
        "\n"
        "KEY = hash(('a', 1))\n"
        "\n"
        "\n"
        "def order(items):\n"
        "    s = set(items)\n"
        "    return [v for v in s]\n"
        "\n"
        "\n"
        "def fan(pool, xs):\n"
        "    return list(pool.imap_unordered(str, xs))\n"
        "\n"
        "\n"
        "def spread(xs):\n"
        "    return fork_map(lambda x: x, xs, workers=2)\n"
    ),
    "src/repro/shm_use.py": (
        "import numpy as np\n"
        "from repro.shm import shared_graph\n"
        "\n"
        "G = shared_graph('k')\n"
        "IP, IX = G.adjacency()\n"
        "\n"
        "\n"
        "def scrub(g):\n"
        "    g[0] = 0\n"
        "\n"
        "\n"
        "def worker(task):\n"
        "    g = shared_graph(task)\n"
        "    scrub(g)\n"
        "\n"
        "\n"
        "def total(key):\n"
        "    g = shared_graph(key)\n"
        "    indptr, indices = g.adjacency()\n"
        "    return indptr[-1]\n"
        "\n"
        "\n"
        "def build(n):\n"
        "    indptr = np.zeros(n + 1)\n"
        "    indptr[0] = 0\n"
        "    return indptr\n"
        "\n"
        "\n"
        "def poke():\n"
        "    IP[0] = 1\n"
        "\n"
        "\n"
        "def unseal(arr):\n"
        "    arr.setflags(write=True)\n"
    ),
    "src/repro/shm_swapped.py": (
        "import numpy as np\n"
        "from repro.shm import shared_graph\n"
        "\n"
        "\n"
        "def build(n):\n"
        "    indptr = np.zeros(n + 1)\n"
        "    indptr[0] = 0\n"
        "    return indptr\n"
        "\n"
        "\n"
        "def total(key):\n"
        "    g = shared_graph(key)\n"
        "    indptr, indices = g.adjacency()\n"
        "    return indptr[-1]\n"
    ),
    "src/repro/store_use.py": (
        "import time\n"
        "from repro.parallel import stable_digest\n"
        "from repro.store import atomic_write_json\n"
        "\n"
        "\n"
        "def save(path, payload):\n"
        "    payload['at'] = time.time()\n"
        "    atomic_write_json(path, payload)\n"
        "\n"
        "\n"
        "def cache(self, family, extra):\n"
        "    stamp = time.time()\n"
        "    self.store_dir.cache.put(stable_digest(family),\n"
        "                             {'family': family, 'extra': extra})\n"
        "    return stamp\n"
    ),
    "src/repro/broken.py": "def f(:\n",
    "benchmarks/harness.py": (
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def timed(fn):\n"
        "    start = time.perf_counter()\n"
        "    fn()\n"
        "    return time.perf_counter() - start, random.random()\n"
    ),
    "benchmarks/bench_x.py": (
        "import random\n"
        "import time\n"
        "from repro.store import atomic_write_json\n"
        "\n"
        "\n"
        "def run(path):\n"
        "    atomic_write_json(path, {'t': time.time(),\n"
        "                             'x': random.random()})\n"
    ),
    "examples/demo.py": (
        "import random\n"
        "import time\n"
        "\n"
        "print(random.random(), time.time())\n"
    ),
}

#: the pinned ``run_lint(...).to_json()`` of GOLDEN_SOURCES; a change
#: that means to alter the report rewrites it and shows the diff
GOLDEN_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "lint_golden.json")


class TestGoldenReport:
    def test_report_matches_the_pinned_golden(self, tmp_path):
        for path, source in GOLDEN_SOURCES.items():
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        report = run_lint(["src", "benchmarks", "examples"],
                          root=str(tmp_path))
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            assert report.to_json() == fh.read()

    def test_golden_covers_every_rule_id(self):
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            rules = {f["rule"] for f in json.load(fh)["findings"]}
        ids = {r.id for r in all_rules()}
        assert ids | {BAD_SUPPRESSION_RULE, PARSE_ERROR_RULE} <= rules
