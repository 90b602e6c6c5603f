"""SweepRunner: determinism across worker counts, registry, CLI.

The headline acceptance criterion: a sweep with ``--workers 4`` must
produce **byte-identical** JSON aggregates to ``--workers 1`` under a
fixed seed (parallelism only changes wall-clock, never results).
"""

import json

import pytest

from repro.families import Family, get_family
from repro.local import path_graph
from repro.sweep import (
    ALGORITHMS,
    AlgorithmSpec,
    SweepRunner,
    get_algorithm,
    main,
    register_algorithm,
)


class TestDeterminism:
    def test_parallel_json_byte_identical_to_serial(self):
        kwargs = dict(samples=2, instances=2)
        args = (["random_tree", "fragmented_forest"], [16, 24], ["two_coloring"])
        serial = SweepRunner(workers=1, **kwargs).run_json(*args, seed=3)
        parallel = SweepRunner(workers=4, **kwargs).run_json(*args, seed=3)
        assert serial == parallel
        payload = json.loads(serial)
        assert "workers" not in payload["spec"]
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert cell["runs"] == 2 * 2
            assert cell["node_averaged"]["max"] >= cell["node_averaged"]["mean"]
            # actual built sizes are recorded (families may round target n)
            assert 1 <= cell["instance_n"]["min"] <= cell["instance_n"]["max"]
            assert cell["instance_n"]["max"] <= cell["n"]
            # two_coloring declares its LCL, so every run is verified
            assert cell["validity"] == {"valid": 4, "violations": 0}

    def test_seed_changes_results(self):
        runner = SweepRunner(samples=2, instances=2)
        a = runner.run(["random_tree"], [20], ["two_coloring"], seed=0)
        b = runner.run(["random_tree"], [20], ["two_coloring"], seed=1)
        assert a["cells"] != b["cells"]

    def test_fast_forward_agrees_with_simulator(self):
        # the fast-forward registry entry replays the same algorithm the
        # simulator executes; cell aggregates must coincide exactly
        runner = SweepRunner(samples=2)
        payload = runner.run(["path"], [17], ["two_coloring", "two_coloring_ff"])
        sim, ff = payload["cells"]
        assert sim["node_averaged"] == ff["node_averaged"]
        assert sim["worst_case"] == ff["worst_case"]

    def test_engines_agree(self):
        args = (["spider"], [12], ["two_coloring"])
        bat = SweepRunner(samples=2, engine="batched").run(*args, seed=5)
        ref = SweepRunner(samples=2, engine="reference").run(*args, seed=5)
        assert bat["cells"][0]["node_averaged"] == ref["cells"][0]["node_averaged"]


class TestRegistry:
    def test_default_algorithms_present(self):
        assert {"two_coloring", "cole_vishkin", "wait_whole_graph",
                "two_coloring_ff", "cv3_path_ff"} <= set(ALGORITHMS)

    def test_unknown_names_fail_fast(self):
        runner = SweepRunner()
        with pytest.raises(KeyError):
            runner.run(["no_such_family"], [8], ["two_coloring"])
        with pytest.raises(KeyError):
            runner.run(["path"], [8], ["no_such_algorithm"])
        with pytest.raises(KeyError):
            get_algorithm("nope")

    def test_algorithm_spec_needs_exactly_one_runner(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("broken")
        with pytest.raises(ValueError):
            AlgorithmSpec("broken", factory=lambda n: None,
                          fast_forward=lambda g, ids: None)
        with pytest.raises(ValueError):
            register_algorithm(ALGORITHMS["two_coloring"])

    def test_ad_hoc_family_object_accepted(self):
        fam = Family("adhoc_sweep_path",
                     lambda n, rng: path_graph(n), degree_bound=2)
        payload = SweepRunner(samples=1).run([fam], [9], ["two_coloring"])
        assert payload["cells"][0]["family"] == "adhoc_sweep_path"
        assert get_family("adhoc_sweep_path") is fam

    def test_cv3_ff_rejects_non_paths(self):
        spec = get_algorithm("cv3_path_ff")
        from repro.local import star_graph

        with pytest.raises(ValueError):
            spec.fast_forward(star_graph(4), [1, 2, 3, 4, 5])

    def test_runner_parameter_validation(self):
        for bad in (dict(workers=0), dict(samples=0), dict(instances=0),
                    dict(engine="warp")):
            with pytest.raises(ValueError):
                SweepRunner(**bad)
        with pytest.raises(ValueError):
            SweepRunner().run([], [8], ["two_coloring"])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner().run(["path"], [8, 8], ["two_coloring"])
        with pytest.raises(ValueError):
            SweepRunner().run(["path", "path"], [8], ["two_coloring"])


def _register_bad_coloring(name):
    """A deliberately invalid 'solver': constant color 0 everywhere."""
    from repro.local.metrics import ExecutionTrace
    from repro.sweep import _proper_coloring_problem

    def bad_ff(graph, ids):
        return ExecutionTrace(rounds=[1] * graph.n, outputs=[0] * graph.n,
                              algorithm=name)

    if name not in ALGORITHMS:
        register_algorithm(AlgorithmSpec(
            name, fast_forward=bad_ff,
            problem=_proper_coloring_problem(2),
        ))
    return name


class TestValidity:
    def test_unchecked_algorithm_reports_null(self):
        payload = SweepRunner(samples=1).run(
            ["path"], [9], ["wait_whole_graph"])
        assert payload["cells"][0]["validity"] is None

    def test_check_false_disables_verification(self):
        payload = SweepRunner(samples=1, check=False).run(
            ["path"], [9], ["two_coloring"])
        assert payload["cells"][0]["validity"] is None
        assert payload["spec"]["check"] is False

    def test_invalid_labelings_are_counted(self):
        name = _register_bad_coloring("bad_constant_coloring")
        payload = SweepRunner(samples=2, instances=2).run(
            ["random_tree"], [12], [name, "two_coloring"])
        by_algo = {c["algorithm"]: c for c in payload["cells"]}
        assert by_algo[name]["validity"] == {"valid": 0, "violations": 4}
        assert by_algo["two_coloring"]["validity"] == \
            {"valid": 4, "violations": 0}

    def test_validity_deterministic_across_workers(self):
        name = _register_bad_coloring("bad_constant_coloring")
        args = (["random_tree"], [12], [name])
        kwargs = dict(samples=2, instances=2)
        serial = SweepRunner(workers=1, **kwargs).run_json(*args, seed=1)
        parallel = SweepRunner(workers=3, **kwargs).run_json(*args, seed=1)
        assert serial == parallel

    def test_default_specs_declare_their_lcl(self):
        for name in ("two_coloring", "two_coloring_ff", "cole_vishkin",
                     "cv3_path_ff"):
            assert ALGORITHMS[name].problem is not None
        assert ALGORITHMS["wait_whole_graph"].problem is None

    def test_cli_check_passes_on_valid_sweep(self, capsys):
        rc = main(["--family", "path", "--sizes", "9", "--samples", "1",
                   "--instances", "1", "--check"])
        assert rc == 0
        assert "0 violating" in capsys.readouterr().err

    def test_cli_check_fails_on_violations(self, capsys):
        name = _register_bad_coloring("bad_constant_coloring")
        rc = main(["--family", "random_tree", "--sizes", "12",
                   "--samples", "1", "--instances", "1",
                   "--algorithms", name, "--check"])
        assert rc == 1
        assert "1 violating" in capsys.readouterr().err

    def test_cli_check_reports_unchecked_cells(self, capsys):
        rc = main(["--family", "path", "--sizes", "9", "--samples", "1",
                   "--instances", "1", "--algorithms", "wait_whole_graph",
                   "--check"])
        assert rc == 0
        assert "declare no LCL" in capsys.readouterr().err

    def test_cli_forwards_check_flag_on(self, capsys):
        # regression: main() used to drop args.check, so the runner always
        # verified; with the flag the payload must record check: true and
        # carry validity counts
        rc = main(["--family", "path", "--sizes", "9", "--samples", "1",
                   "--instances", "1", "--check"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["check"] is True
        assert payload["cells"][0]["validity"] == \
            {"valid": 1, "violations": 0}

    def test_cli_without_check_skips_verification(self, capsys):
        # regression: without --check the sweep must not pay verification
        # cost — spec.check records false and every cell reports null
        rc = main(["--family", "path", "--sizes", "9", "--samples", "1",
                   "--instances", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["check"] is False
        assert all(c["validity"] is None for c in payload["cells"])

    def test_cli_without_check_ignores_violations(self, capsys):
        # a violating algorithm must not fail the run when --check is off
        name = _register_bad_coloring("bad_constant_coloring")
        rc = main(["--family", "random_tree", "--sizes", "12",
                   "--samples", "1", "--instances", "1",
                   "--algorithms", name])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"][0]["validity"] is None


class TestSharedSubstrate:
    def test_shm_and_rebuild_payloads_byte_identical(self):
        # the zero-copy substrate is an optimisation, never a semantic
        # switch: serial, rebuild-in-worker and shared-memory runs must
        # emit the same bytes
        kwargs = dict(samples=2, instances=2)
        args = (["random_tree", "caterpillar"], [24], ["two_coloring"])
        serial = SweepRunner(workers=1, shared=False, **kwargs)
        rebuild = SweepRunner(workers=4, shared=False, **kwargs)
        shm = SweepRunner(workers=4, shared=True, **kwargs)
        j_serial = serial.run_json(*args, seed=2)
        j_rebuild = rebuild.run_json(*args, seed=2)
        j_shm = shm.run_json(*args, seed=2)
        assert j_serial == j_rebuild == j_shm
        assert "shared" not in json.loads(j_shm)["spec"]

    def test_shared_defaults_track_workers(self):
        assert SweepRunner(workers=1).shared is False
        assert SweepRunner(workers=2).shared is True
        assert SweepRunner(workers=2, shared=False).shared is False

    def test_sample_chunking_path_byte_identical(self):
        # fewer (instance, algorithm) units than workers triggers the
        # per-sample task split under shared=True — same bytes either way
        kwargs = dict(samples=6, instances=1)
        args = (["random_tree"], [30], ["two_coloring"])
        j_serial = SweepRunner(workers=1, **kwargs).run_json(*args, seed=4)
        j_split = SweepRunner(workers=4, shared=True, **kwargs).run_json(
            *args, seed=4)
        assert j_serial == j_split


class TestWeightedSpecs:
    def test_weighted_entries_registered(self):
        assert {"weighted25_ff", "weighted25_replay",
                "weighted35_ff", "weighted35_replay"} <= set(ALGORITHMS)
        for name in ("weighted25_ff", "weighted25_replay",
                     "weighted35_ff", "weighted35_replay"):
            assert ALGORITHMS[name].problem is not None

    def test_weighted_families_registered(self):
        get_family("weighted25_d5k2")
        get_family("weighted35_d6k2")

    def test_replay_matches_fast_forward(self):
        # the batched ScheduleReplay wrapper must reproduce the
        # fast-forward trace aggregates exactly, and every labeling must
        # verify against the declared LCL
        for family, ff, replay in (
            ("weighted25_d5k2", "weighted25_ff", "weighted25_replay"),
            ("weighted35_d6k2", "weighted35_ff", "weighted35_replay"),
        ):
            payload = SweepRunner(samples=2).run(
                [family], [60], [ff, replay])
            by_algo = {c["algorithm"]: c for c in payload["cells"]}
            a, b = by_algo[ff], by_algo[replay]
            assert a["node_averaged"] == b["node_averaged"], family
            assert a["worst_case"] == b["worst_case"], family
            for cell in (a, b):
                assert cell["validity"]["violations"] == 0
                assert cell["validity"]["valid"] == cell["runs"]

    def test_weighted_sweep_deterministic_across_workers(self):
        args = (["weighted25_d5k2"], [40], ["weighted25_replay"])
        kwargs = dict(samples=2, instances=1)
        j1 = SweepRunner(workers=1, **kwargs).run_json(*args, seed=0)
        j4 = SweepRunner(workers=4, **kwargs).run_json(*args, seed=0)
        assert j1 == j4


class TestCLI:
    def test_writes_json_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["--family", "random_tree", "--sizes", "12",
                   "--samples", "1", "--instances", "2",
                   "--workers", "2", "--seed", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["families"] == ["random_tree"]
        assert payload["cells"][0]["runs"] == 2
        assert "family-sup" in capsys.readouterr().out

    def test_stdout_and_comma_separated_lists(self, capsys):
        rc = main(["--family", "path,spider", "--sizes", "8,12",
                   "--samples", "1", "--instances", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["families"] == ["path", "spider"]
        assert len(payload["cells"]) == 4
