"""Whole-program analysis: summaries, call-graph fixpoints, IPD/STORE002.

Every interprocedural rule is tested on a *twin pair*: a fixture whose
violation hides one call level deep, and a clean twin differing only in
the contract-relevant detail (seeded rng, public View API, read-only
kernel, complete key).  The rule must fire on the first and stay silent
on the second — that asymmetry is the whole point of summary
propagation, and the acceptance bar of the analyzer.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint.callgraph import CallGraph, module_name_for_path
from repro.lint.core import analyze_file, analyze_source
from repro.lint.runner import lint_sources
from repro.lint.summaries import extract_module_facts, record_set_escapes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def findings_on(sources, path):
    """Findings reported for ``path`` after a whole-project analysis."""
    return [f for f in lint_sources(sources) if f.file == path]


def rules_on(sources, path):
    """Rule ids reported for ``path`` after a whole-project analysis."""
    return [f.rule for f in findings_on(sources, path)]


# ----------------------------------------------------------------------
# IPD001: transitive unseeded randomness from entry points
# ----------------------------------------------------------------------
class TestTransitiveEntropy:
    HELPER_BAD = (
        "import random\n"
        "\n"
        "def flip():\n"
        "    return random.random() < 0.5\n"
    )
    HELPER_GOOD = (
        "def flip(rng):\n"
        "    return rng.random() < 0.5\n"
    )

    def test_decide_reaching_hidden_draw_fires(self):
        sources = {
            "src/repro/algorithms/alpha.py":
                "from .helpers import flip\n"
                "\n"
                "def decide(view):\n"
                "    return flip()\n",
            "src/repro/algorithms/helpers.py": self.HELPER_BAD,
        }
        assert "IPD001" in rules_on(
            sources, "src/repro/algorithms/alpha.py")

    def test_seeded_twin_is_silent(self):
        sources = {
            "src/repro/algorithms/alpha.py":
                "from .helpers import flip\n"
                "\n"
                "def decide(view, rng):\n"
                "    return flip(rng)\n",
            "src/repro/algorithms/helpers.py": self.HELPER_GOOD,
        }
        assert rules_on(sources, "src/repro/algorithms/alpha.py") == []

    def test_two_levels_deep(self):
        sources = {
            "src/repro/algorithms/alpha.py":
                "from .mid import step\n"
                "\n"
                "def decide_batch(views):\n"
                "    return [step() for _ in views]\n",
            "src/repro/algorithms/mid.py":
                "from .helpers import flip\n"
                "\n"
                "def step():\n"
                "    return flip()\n",
            "src/repro/algorithms/helpers.py": self.HELPER_BAD,
        }
        assert "IPD001" in rules_on(
            sources, "src/repro/algorithms/alpha.py")

    def test_local_draw_is_det001_not_ipd001(self):
        # the entry drawing entropy itself is DET001's finding; IPD001
        # only reports draws hidden behind a call
        sources = {
            "src/repro/algorithms/alpha.py":
                "import random\n"
                "\n"
                "def decide(view):\n"
                "    return random.random() < 0.5\n",
        }
        rules = rules_on(sources, "src/repro/algorithms/alpha.py")
        assert "DET001" in rules
        assert "IPD001" not in rules

    def test_fork_map_worker_is_an_entry(self):
        sources = {
            "src/repro/runner2.py":
                "from repro.parallel import fork_map\n"
                "from .work import crunch\n"
                "\n"
                "def drive(tasks):\n"
                "    return fork_map(crunch, tasks, workers=2)\n",
            "src/repro/work.py":
                "from .deep import jitter\n"
                "\n"
                "def crunch(task):\n"
                "    return jitter(task)\n",
            "src/repro/deep.py":
                "import random\n"
                "\n"
                "def jitter(task):\n"
                "    return task + random.random()\n",
        }
        assert "IPD001" in rules_on(sources, "src/repro/work.py")

    def test_chain_named_in_message(self):
        sources = {
            "src/repro/algorithms/alpha.py":
                "from .helpers import flip\n"
                "\n"
                "def decide(view):\n"
                "    return flip()\n",
            "src/repro/algorithms/helpers.py": self.HELPER_BAD,
        }
        path = "src/repro/algorithms/alpha.py"
        (finding,) = findings_on(sources, path)
        assert "flip" in finding.message
        assert "helpers.py" in finding.message


# ----------------------------------------------------------------------
# IPD002: view escaping into internals-touching callees
# ----------------------------------------------------------------------
class TestTransitiveViewInternals:
    def test_view_escape_into_private_reader_fires(self):
        sources = {
            "src/repro/algorithms/beta.py":
                "from .util import peek\n"
                "\n"
                "def run(view):\n"
                "    return peek(view)\n",
            "src/repro/algorithms/util.py":
                "def peek(v):\n"
                "    return v._ball\n",
        }
        assert "IPD002" in rules_on(
            sources, "src/repro/algorithms/beta.py")

    def test_public_api_twin_is_silent(self):
        sources = {
            "src/repro/algorithms/beta.py":
                "from .util import peek\n"
                "\n"
                "def run(view):\n"
                "    return peek(view)\n",
            "src/repro/algorithms/util.py":
                "def peek(v):\n"
                "    return v.ball(1)\n",
        }
        assert rules_on(sources, "src/repro/algorithms/beta.py") == []

    def test_transitive_through_a_middleman(self):
        sources = {
            "src/repro/algorithms/beta.py":
                "from .mid import relay\n"
                "\n"
                "def run(view):\n"
                "    return relay(view)\n",
            "src/repro/algorithms/mid.py":
                "from .util import peek\n"
                "\n"
                "def relay(v):\n"
                "    return peek(v)\n",
            "src/repro/algorithms/util.py":
                "def peek(v):\n"
                "    return v._ball\n",
        }
        assert "IPD002" in rules_on(
            sources, "src/repro/algorithms/beta.py")


# ----------------------------------------------------------------------
# IPD003: attached shm objects escaping into writing callees
# ----------------------------------------------------------------------
class TestTransitiveSharedWrite:
    def test_attached_graph_into_writer_fires(self):
        sources = {
            "src/repro/w.py":
                "from repro.shm import attach_graph\n"
                "from .kern import scrub\n"
                "\n"
                "def worker(task):\n"
                "    g = attach_graph(task)\n"
                "    scrub(g)\n",
            "src/repro/kern.py":
                "def scrub(g):\n"
                "    g[0] = 0\n",
        }
        assert "IPD003" in rules_on(sources, "src/repro/w.py")

    def test_readonly_kernel_twin_is_silent(self):
        sources = {
            "src/repro/w.py":
                "from repro.shm import attach_graph\n"
                "from .kern import scan\n"
                "\n"
                "def worker(task):\n"
                "    g = attach_graph(task)\n"
                "    return scan(g)\n",
            "src/repro/kern.py":
                "def scan(g):\n"
                "    return g[0]\n",
        }
        assert rules_on(sources, "src/repro/w.py") == []

    def test_adjacency_array_and_setflags_unseal(self):
        sources = {
            "src/repro/w.py":
                "from repro.shm import shared_graph\n"
                "from .kern import unseal\n"
                "\n"
                "def worker(task):\n"
                "    g = shared_graph(task)\n"
                "    indptr, indices = g.adjacency()\n"
                "    unseal(indptr)\n",
            "src/repro/kern.py":
                "def unseal(arr):\n"
                "    arr.setflags(write=True)\n",
        }
        assert "IPD003" in rules_on(sources, "src/repro/w.py")


# ----------------------------------------------------------------------
# STORE002: payload values missing from the digest key
# ----------------------------------------------------------------------
class TestStoreKeyCompleteness:
    KEYS_DROPPING = (
        "def make_key(store, family, n):\n"
        "    return store.key(\"unit\", family, n)\n"
    )
    KEYS_COMPLETE = (
        "def make_key(store, family, n, extra):\n"
        "    return store.key(\"unit\", family, n, extra)\n"
    )

    def test_value_missing_from_helper_built_key_fires(self):
        sources = {
            "src/repro/writer.py":
                "from .keys import make_key\n"
                "\n"
                "def save(store, family, n, extra):\n"
                "    payload = {\"n\": n, \"extra\": extra}\n"
                "    store.put(make_key(store, family, n), payload)\n",
            "src/repro/keys.py": self.KEYS_DROPPING,
        }
        path = "src/repro/writer.py"
        (finding,) = findings_on(sources, path)
        assert finding.rule == "STORE002"
        assert "'extra'" in finding.message

    def test_complete_key_twin_is_silent(self):
        sources = {
            "src/repro/writer.py":
                "from .keys import make_key\n"
                "\n"
                "def save(store, family, n, extra):\n"
                "    payload = {\"n\": n, \"extra\": extra}\n"
                "    store.put(make_key(store, family, n, extra), "
                "payload)\n",
            "src/repro/keys.py": self.KEYS_COMPLETE,
        }
        assert rules_on(sources, "src/repro/writer.py") == []

    def test_direct_digest_key_checked_too(self):
        sources = {
            "src/repro/writer.py":
                "from repro.parallel import stable_digest\n"
                "\n"
                "def save(store, family, n, extra):\n"
                "    payload = {\"n\": n, \"extra\": extra}\n"
                "    key = stable_digest(\"unit\", family, n)\n"
                "    store.put(key, payload)\n",
        }
        assert "STORE002" in rules_on(sources, "src/repro/writer.py")

    def test_non_digest_key_is_out_of_scope(self):
        # a put keyed by something that never touches stable_digest /
        # store.key is not content-addressed — nothing to check
        sources = {
            "src/repro/writer.py":
                "def save(store, name, extra):\n"
                "    store.put(name, {\"extra\": extra})\n",
        }
        assert rules_on(sources, "src/repro/writer.py") == []


# ----------------------------------------------------------------------
# summary extraction corners: decorators, nesting, lambdas, self
# ----------------------------------------------------------------------
class TestSummaryUnits:
    def test_decorated_function_still_summarized(self):
        sources = {
            "src/repro/algorithms/g.py":
                "import functools\n"
                "from .h import flip\n"
                "\n"
                "@functools.lru_cache(maxsize=None)\n"
                "def decide(view):\n"
                "    return flip()\n",
            "src/repro/algorithms/h.py":
                "import random\n"
                "\n"
                "def flip():\n"
                "    return random.random()\n",
        }
        assert "IPD001" in rules_on(sources, "src/repro/algorithms/g.py")

    def test_nested_def_is_its_own_unit(self):
        facts = extract_module_facts(
            "src/repro/n.py",
            "import random\n"
            "\n"
            "def outer():\n"
            "    def inner():\n"
            "        return random.random()\n"
            "    return inner\n",
        )
        by_name = {f.qualname: f for f in facts.functions}
        assert by_name["repro.n.outer.inner"].entropy is not None
        assert by_name["repro.n.outer"].entropy is None

    def test_module_level_lambda_is_a_unit(self):
        facts = extract_module_facts(
            "src/repro/l.py",
            "import random\n"
            "\n"
            "draw = lambda: random.random()\n",
        )
        by_name = {f.qualname: f for f in facts.functions}
        assert by_name["repro.l.draw"].entropy is not None

    def test_method_resolved_through_self(self):
        sources = {
            "src/repro/algorithms/m.py":
                "import random\n"
                "\n"
                "class Algo:\n"
                "    def _draw(self):\n"
                "        return random.random()\n"
                "\n"
                "    def decide(self, view):\n"
                "        return self._draw()\n",
        }
        assert "IPD001" in rules_on(sources, "src/repro/algorithms/m.py")

    def test_method_inherited_from_project_base(self):
        sources = {
            "src/repro/base.py":
                "import random\n"
                "\n"
                "class Base:\n"
                "    def _draw(self):\n"
                "        return random.random()\n",
            "src/repro/algorithms/sub.py":
                "from repro.base import Base\n"
                "\n"
                "class Algo(Base):\n"
                "    def decide(self, view):\n"
                "        return self._draw()\n",
        }
        assert "IPD001" in rules_on(sources, "src/repro/algorithms/sub.py")

    def test_suppressed_source_does_not_taint(self):
        sources = {
            "src/repro/algorithms/alpha.py":
                "from .helpers import flip\n"
                "\n"
                "def decide(view):\n"
                "    return flip()\n",
            "src/repro/algorithms/helpers.py":
                "import random\n"
                "\n"
                "def flip():\n"
                "    # lint: allow(DET001) documented fixture exception\n"
                "    return random.random() < 0.5\n",
        }
        assert "IPD001" not in rules_on(
            sources, "src/repro/algorithms/alpha.py")

    def test_sites_outside_bodies_belong_to_the_executing_unit(self):
        # a decorator, a default and a nested class body run when the
        # enclosing def runs; the nested def's own body does not
        facts = extract_module_facts(
            "src/repro/d.py",
            "import random\n"
            "\n"
            "def outer():\n"
            "    @register(random.random())\n"
            "    def inner(x=random.random()):\n"
            "        return x\n"
            "    return inner\n"
            "\n"
            "def host():\n"
            "    class Table:\n"
            "        seed = random.randint(1, 6)\n"
            "    return Table\n"
            "\n"
            "def plain():\n"
            "    def inner(x=1):\n"
            "        return random.random()\n"
            "    return inner\n",
        )
        entropy = {f.qualname: f.entropy for f in facts.functions}
        assert entropy["repro.d.outer"].line == 4
        assert entropy["repro.d.outer.inner"] is None
        assert entropy["repro.d.host"].line == 11
        assert entropy["repro.d.plain"] is None
        assert entropy["repro.d.plain.inner"].line == 16
        # each site is still reported once, by DET001
        findings = analyze_source(
            "import random\n"
            "\n"
            "def outer():\n"
            "    @register(random.random())\n"
            "    def inner(x=random.random()):\n"
            "        return x\n"
            "    return inner\n",
            "src/repro/d.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("DET001", 4), ("DET001", 5)]

    def test_warning_base_rule_still_taints(self):
        # DET001 is a warning in benchmarks/, and the draw still reaches
        # the decide that calls it
        sources = {
            "benchmarks/alg.py":
                "from helpers import flip\n"
                "\n"
                "def decide(view):\n"
                "    return flip()\n",
            "benchmarks/helpers.py":
                "import random\n"
                "\n"
                "def flip():\n"
                "    return random.random()\n",
        }
        assert rules_on(sources, "benchmarks/alg.py") == ["IPD001"]
        assert rules_on(sources, "benchmarks/helpers.py") == ["DET001"]

    def test_det004_findings_seed_the_set_escape_bit(self):
        facts = extract_module_facts(
            "src/repro/s.py",
            "def order(items):\n"
            "    s = set(items)\n"
            "    return [v for v in s]\n"
            "\n"
            "def quiet(items):\n"
            "    s = set(items)\n"
            "    return [v for v in s]  # lint: allow(DET004) ok\n",
        )
        findings = analyze_file(facts)
        record_set_escapes(facts, findings)
        assert [f.rule for f in findings] == ["DET004"]
        escapes = {f.qualname: f.set_escape for f in facts.functions}
        assert escapes["repro.s.order"].line == 3
        assert escapes["repro.s.quiet"] is None

    def test_cycle_terminates_clean(self):
        sources = {
            "src/repro/a.py":
                "from .b import g\n"
                "\n"
                "def decide(view):\n"
                "    return g()\n"
                "\n"
                "def f():\n"
                "    return g()\n",
            "src/repro/b.py":
                "from .a import f\n"
                "\n"
                "def g():\n"
                "    return f()\n",
        }
        assert rules_on(sources, "src/repro/a.py") == []


# ----------------------------------------------------------------------
# call-graph plumbing
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_names(self):
        assert module_name_for_path("src/repro/sweep.py") == "repro.sweep"
        assert module_name_for_path(
            "src/repro/gap/__init__.py") == "repro.gap"
        assert module_name_for_path(
            "benchmarks/harness.py") == "benchmarks.harness"

    def test_reexport_chasing(self):
        sources = {
            "src/repro/store/__init__.py":
                "from .cas import ResultStore\n",
            "src/repro/store/cas.py":
                "class ResultStore:\n"
                "    def __init__(self, root):\n"
                "        self.root = root\n",
            "src/repro/user.py":
                "from repro.store import ResultStore\n"
                "\n"
                "def open_store(root):\n"
                "    return ResultStore(root)\n",
        }
        facts = [extract_module_facts(p, s) for p, s in sorted(
            sources.items())]
        graph = CallGraph(facts)
        caller = graph.functions["repro.user.open_store"]
        (site,) = caller.calls
        assert graph.resolve_call(caller, site) == (
            "repro.store.cas.ResultStore.__init__", 1)

    def test_bare_script_alias(self):
        sources = {
            "benchmarks/harness.py":
                "def timed(fn):\n"
                "    return fn\n",
            "benchmarks/bench_x.py":
                "from harness import timed\n"
                "\n"
                "def run():\n"
                "    return timed(run)\n",
        }
        facts = [extract_module_facts(p, s) for p, s in sorted(
            sources.items())]
        graph = CallGraph(facts)
        caller = graph.functions["benchmarks.bench_x.run"]
        (site,) = caller.calls
        assert graph.resolve_call(caller, site) == (
            "benchmarks.harness.timed", 0)


# ----------------------------------------------------------------------
# the runner end to end
# ----------------------------------------------------------------------
class TestTwoPhaseRunner:
    def _lint(self, args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint"] + args,
            capture_output=True, text=True, cwd=cwd, env=env)

    @pytest.fixture()
    def project(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "algorithms"
        pkg.mkdir(parents=True)
        (pkg / "alpha.py").write_text(
            "from .helpers import flip\n"
            "\n"
            "def decide(view):\n"
            "    return flip()\n")
        (pkg / "helpers.py").write_text(
            "import random\n"
            "\n"
            "def flip():\n"
            "    return random.random() < 0.5\n")
        return tmp_path

    def test_cli_reports_cross_module_finding(self, project):
        result = self._lint(["src", "--format", "json"], str(project))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        rules = {f["rule"] for f in payload["findings"]}
        assert "IPD001" in rules          # in alpha.py, one call away
        assert "DET001" in rules          # at the draw in helpers.py

    def test_jobs_1_vs_4_byte_identical(self, project):
        j1 = self._lint(["src", "--format", "json", "--jobs", "1"],
                        str(project))
        j4 = self._lint(["src", "--format", "json", "--jobs", "4"],
                        str(project))
        assert j1.stdout == j4.stdout
        assert j1.returncode == j4.returncode

    def test_whole_repo_jobs_identity(self):
        # the acceptance gate on the real tree, not a fixture
        j1 = self._lint(["src/repro/lint", "--format", "json",
                         "--jobs", "1"], REPO)
        j4 = self._lint(["src/repro/lint", "--format", "json",
                         "--jobs", "4"], REPO)
        assert j1.stdout == j4.stdout

    def test_prune_baseline_round_trip(self, project, tmp_path):
        baseline = tmp_path / "baseline.json"
        # 1. write a skeleton covering current findings, stamp reasons
        result = self._lint(["src", "--write-baseline", str(baseline)],
                            str(project))
        assert result.returncode == 0
        doc = json.loads(baseline.read_text())
        for entry in doc["findings"]:
            entry["reason"] = "fixture: known and intentional"
        # 2. add a stale entry for a finding that does not exist
        doc["findings"].append({
            "file": "src/repro/algorithms/gone.py", "rule": "DET001",
            "line": 3, "reason": "stale: file was deleted"})
        baseline.write_text(json.dumps(doc))
        # 3. a plain run reports the stale entry but keeps the file
        before = baseline.read_text()
        result = self._lint(["src", "--baseline", str(baseline)],
                            str(project))
        assert "stale baseline entry" in result.stdout
        assert baseline.read_text() == before
        # 4. --prune-baseline rewrites in place, dropping only the
        #    stale entry and preserving hand-written reasons
        result = self._lint(
            ["src", "--baseline", str(baseline), "--prune-baseline"],
            str(project))
        assert result.returncode == 0
        assert "pruned 1 stale entry" in result.stdout
        pruned = json.loads(baseline.read_text())
        files = {e["file"] for e in pruned["findings"]}
        assert "src/repro/algorithms/gone.py" not in files
        assert all(e["reason"] == "fixture: known and intentional"
                   for e in pruned["findings"])
        # 5. a second prune is a byte-level no-op
        before = baseline.read_text()
        result = self._lint(
            ["src", "--baseline", str(baseline), "--prune-baseline"],
            str(project))
        assert "pruned 0 stale entries" in result.stdout
        assert baseline.read_text() == before

    def test_prune_requires_baseline(self, project):
        result = self._lint(["src", "--prune-baseline"], str(project))
        assert result.returncode == 2
        assert "--prune-baseline requires --baseline" in result.stderr
