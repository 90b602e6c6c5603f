"""Analyzer cost: whole-tree wall time, summary amortization.

One pass per file — parse, tokenize (if the file contains ``lint:``),
extract facts and rule sites in one walk, gate the sites — then one link
of the call graph and one run of the summary fixpoints serve every
interprocedural rule family.  The strawman alternative (each of the
four IPD/STORE002 checks running that pass for itself) pays the whole
cost per rule.  Gates:

* **amortization >= 2x**: one shared pass feeding all rule families
  beats rerunning the pass per interprocedural family;
* **whole-tree budget**: a full run over ``src tests benchmarks
  examples`` (the CI lint gate) stays inside a generous absolute wall
  bound, so the analyzer never becomes the slow step of the build;
* **correctness pin**: the shared run and the per-family runs report
  byte-identical findings — amortization is a pure scheduling change;
* **rule pass <= 0.15x extraction**: timed per file in one loop over the
  tree, the intramodule rule pass (``analyze_file``) costs at most 0.15x
  the fact extraction (``extract_module_facts``), because the
  extractor's one walk records every rule's sites, DET004's included,
  and no rule walks the parse again (about 0.01x on the tree; one rule
  making two passes of its own over each scope costs over a third of
  the extraction).

Results land in ``benchmarks/results/lint.{txt,json}``.
"""

import os

from harness import record_table, timed

from repro.lint.core import analyze_file
from repro.lint.runner import collect_files, lint_files, run_lint
from repro.lint.summaries import extract_module_facts

#: one shared pass for N rule families must beat N passes
MIN_AMORTIZATION = 2.0
#: generous absolute budget for the CI lint gate (usually a few seconds)
MAX_TREE_SECONDS = 120.0
#: the rule pass over a parse may cost at most this share of extraction
MAX_RULE_SHARE = 0.15
#: the interprocedural rule families the shared pass serves
FAMILIES = ("IPD001", "IPD002", "IPD003", "STORE002")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHS = [p for p in ("src", "tests", "benchmarks", "examples")
         if os.path.isdir(os.path.join(REPO, p))]


def shared_pass_run(tasks):
    """The real discipline: one pass, every family checked."""
    return [f for f in lint_files(tasks, jobs=1) if f.rule in FAMILIES]


def per_family_run(tasks):
    """The strawman: each rule family reruns the pass for itself."""
    findings = []
    for family in FAMILIES:
        findings.extend(f for f in lint_files(tasks, jobs=1)
                        if f.rule == family)
    return sorted(findings)


def extract_and_rule_seconds(tasks):
    """Wall seconds of ``extract_module_facts`` and of ``analyze_file``
    over every file, timed per file in one loop."""
    extract = rules = 0.0
    for abs_path, display in tasks:
        with open(abs_path, encoding="utf-8") as fh:
            source = fh.read()
        facts, wall, _ = timed(extract_module_facts, display, source)
        extract += wall
        _, wall, _ = timed(analyze_file, facts)
        rules += wall
    return extract, rules


def test_lint_shared_pass_amortization():
    tasks = collect_files(PATHS, root=REPO)
    assert len(tasks) >= 100, "tree unexpectedly small — wrong root?"

    shared_findings, wall_shared, _ = timed(shared_pass_run, tasks)
    family_findings, wall_family, _ = timed(per_family_run, tasks)
    assert shared_findings == family_findings, (
        "amortization changed the findings — the pass must be a pure "
        "function of the tree")

    report, wall_tree, rss = timed(
        run_lint, PATHS, jobs=1, root=REPO)
    assert report.exit_code == 0, (
        "dogfooded tree has lint errors:\n" + report.to_text())

    wall_extract, wall_rules = extract_and_rule_seconds(tasks)
    rule_share = wall_rules / max(wall_extract, 1e-9)

    amortization = wall_family / max(wall_shared, 1e-9)
    record_table(
        "lint",
        "Lint: one shared pass vs a pass per interprocedural family",
        ["configuration", "wall s", "findings"],
        [
            ["shared pass (1 pass, 4 families)",
             f"{wall_shared:.3f}", len(shared_findings)],
            [f"per-family rerun ({len(FAMILIES)} passes)",
             f"{wall_family:.3f}", len(family_findings)],
            [f"full run ({report.files} files, all rules)",
             f"{wall_tree:.3f}", len(report.findings)],
            ["fact extraction (extract_module_facts)",
             f"{wall_extract:.3f}", ""],
            ["rule pass (analyze_file)", f"{wall_rules:.3f}", ""],
        ],
        notes=[
            f"amortization {amortization:.1f}x "
            f"(gate >= {MIN_AMORTIZATION}x)",
            f"whole-tree budget {wall_tree:.1f}s <= {MAX_TREE_SECONDS}s",
            f"rule pass {rule_share:.2f}x extraction "
            f"(gate <= {MAX_RULE_SHARE}x)",
            f"peak RSS {rss:.0f} MiB",
        ],
    )

    assert amortization >= MIN_AMORTIZATION, (
        f"shared pass only {amortization:.2f}x faster than a pass per "
        f"family (gate {MIN_AMORTIZATION}x)")
    assert wall_tree <= MAX_TREE_SECONDS, (
        f"whole-tree lint took {wall_tree:.1f}s "
        f"(budget {MAX_TREE_SECONDS}s)")
    assert rule_share <= MAX_RULE_SHARE, (
        f"the rule pass costs {rule_share:.2f}x the fact extraction "
        f"(gate {MAX_RULE_SHARE}x): a rule walks the parse again")


if __name__ == "__main__":  # pragma: no cover
    test_lint_shared_pass_amortization()
