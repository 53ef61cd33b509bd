"""Command-line interface: subcommands, determinism, exit codes."""

import json
import re

import pytest

from nervemp import cli, errors, surrogate
from nervemp.bench import fixture_eg32
from nervemp.cli import main
from nervemp.instancefile import dumps, load_instance, save_instance


def run_cli(*argv):
    return main([str(a) for a in argv])


# One subgraph whose quadratic x0^2 + x1 has its linear term in the kernel of A.
UNBOUNDED = {
    "nodes": 2, "edges": [[0, 1]],
    "subgraphs": [[0, 1]], "observables": [[]],
    "quads": [{"vars": [0, 1], "A": [[0, 0, 1.0]], "b": [0.0, 1.0], "c": 0.0}],
    "observations": [],
}


# The exit code of each error type, written out: 2 invalid input, 3 numerical
# failure, 4 for the bare base class.
EXIT_CODES = {
    "NerveMPError": 4,
    "InvalidInput": 2,
    "InvalidInstance": 2,
    "DisconnectedNerve": 2,
    "DimensionMismatch": 2,
    "MissingVariable": 2,
    "UnknownVariable": 2,
    "InfeasibleStats": 2,
    "NumericalFailure": 3,
    "UnboundedBelow": 3,
    "NonUniqueArgmin": 3,
    "IllDefinedTask": 3,
    "InnerOptimizationFailed": 3,
    "SingularFit": 3,
}
ERROR_TYPES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_type_exits_with_its_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("planted failure")

    monkeypatch.setattr(cli, "_cmd_gen", fail)
    assert run_cli("gen", "--out", "unused.json") == EXIT_CODES[error.__name__]
    assert "planted failure" in capsys.readouterr().err


class TestGen:
    def test_fixture_writes_pinned_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--fixture", "eg32", "--out", out) == 0
        assert out.read_text().strip() == dumps(fixture_eg32())

    def test_distributed_sampling_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rows = tmp_path / "rows.csv"
        rows.write_text("x,y,s,v\n2,2,2,6\n2,2,2,6\n")
        for out in (a, b):
            code = run_cli("gen", "--kind", "distributed-sampling", "--k", "3",
                           "--seed", "7", "--rows", rows, "--out", out)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cover_stats_matches_rows(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("2,2,2,6\n2,2,2,6\n")
        out = tmp_path / "c.json"
        assert run_cli("gen", "--kind", "cover-stats", "--rows", rows,
                       "--seed", "1", "--out", out) == 0
        inst = load_instance(out)
        from nervemp.bench import measure_stats

        assert measure_stats(inst.cover) == ((2, 2, 2, 6), (2, 2, 2, 6))

    def test_random_generation_requires_seed(self, tmp_path):
        code = run_cli("gen", "--kind", "random-quadratic", "--out", tmp_path / "x.json")
        assert code == 2

    def test_missing_rows_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run_cli("gen", "--kind", "cover-stats", "--rows", tmp_path / "missing.csv",
                       "--seed", "1", "--out", out)
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_needs_fixture_or_kind(self, tmp_path):
        assert run_cli("gen", "--out", tmp_path / "x.json") == 2

    def test_zero_basis_count_exits_two_and_writes_nothing(self, tmp_path):
        out = tmp_path / "i.json"
        code = run_cli("gen", "--kind", "distributed-sampling", "--k", "0",
                       "--seed", "1", "--out", out)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_noise_exits_two_and_writes_nothing(self, tmp_path, capsys, noise):
        out = tmp_path / "g.json"
        code = run_cli("gen", "--kind", "distributed-sampling", "--k", "3",
                       "--noise", noise, "--seed", "1", "--out", out)
        assert code == 2
        assert "must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestRunExact:
    def test_fixture_run_reports_kernel(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli("run-exact", inst_path, "--root", "1", "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        assert "kernel report" in text
        payload = json.loads(out.read_text())
        assert abs(payload["value"]) < 1e-8
        assert payload["kernel_dim"] == 1
        assert payload["minimizer"] is None
        assert len(payload["edge_digests"]) == 1

    def test_regularized_run_recovers_minimizer(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli("run-exact", inst_path, "--root", "1",
                       "--regularize", "1e-3", "--seed", "0", "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kernel_dim"] == 0
        assert payload["minimizer"] is not None

    def test_byte_identical_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("run-exact", inst_path, "--root", "0",
                    "--regularize", "1e-3", "--seed", "5", "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_regularize_requires_seed(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        assert run_cli("run-exact", inst_path, "--regularize", "1e-3") == 2

    @pytest.mark.parametrize("command", ["run-exact", "run-approx"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_regularize_exits_two(self, tmp_path, capsys, command, eps):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli(command, inst_path, "--regularize", eps, "--seed", "1", "--out", out)
        assert code == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_instance_file(self, tmp_path):
        assert run_cli("run-exact", tmp_path / "nope.json") == 2

    def test_directory_as_instance_exits_two(self, tmp_path, capsys):
        assert run_cli("run-exact", tmp_path) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_unwritable_out_path_exits_two(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "missing_dir" / "r.json"
        assert run_cli("run-exact", inst_path, "--out", out) == 2
        assert "missing_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("observations, message", [
        ([[0.7, 4.0], [1, 2.0], [4, 4.0], [5, 2.0]],
         "observation 0 names 0.7, not an integer node id"),
        ([[0, 4.0], [1, 2.0], [4, 4.0], [5, 2.0], [0, 99.0]],
         "observation 4 observes node 0 a second time"),
        ([[0, 4.0], [1, 2.0], [4, 4.0], [5, 2.0], [2, 100.0]],
         "observation 4 names node 2, which no subgraph observes"),
    ])
    def test_malformed_observation_exits_two(self, tmp_path, capsys, observations, message):
        payload = json.loads(dumps(fixture_eg32()))
        payload["observations"] = observations
        inst_path = tmp_path / "bad.json"
        inst_path.write_text(json.dumps(payload))
        out = tmp_path / "res.json"
        assert run_cli("run-exact", inst_path, "--root", "1", "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_root(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        assert run_cli("run-exact", inst_path, "--root", "7") == 2

    def test_unbounded_instance_exits_three(self, tmp_path):
        inst_path = tmp_path / "ub.json"
        inst_path.write_text(json.dumps(UNBOUNDED))
        assert run_cli("run-exact", inst_path, "--root", "0") == 3

    def test_deeply_nested_file_exits_two(self, tmp_path, capsys):
        inst_path = tmp_path / "deep.json"
        inst_path.write_text("[" * 5000 + "]" * 5000)
        assert run_cli("run-exact", inst_path) == 2
        assert "JSON nested too deeply to decode" in capsys.readouterr().err

    def test_nan_observation_exits_two(self, tmp_path, capsys):
        payload = json.loads(dumps(fixture_eg32()))
        payload["observations"][0][1] = float("nan")
        inst_path = tmp_path / "nan.json"
        inst_path.write_text(json.dumps(payload))
        out = tmp_path / "res.json"
        assert run_cli("run-exact", inst_path, "--root", "1", "--out", out) == 2
        assert "observation 0 at node 0 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_linear_term_exits_two(self, tmp_path, capsys):
        payload = json.loads(dumps(fixture_eg32()))
        payload["quads"][1]["b"][0] = float("inf")
        inst_path = tmp_path / "inf.json"
        inst_path.write_text(json.dumps(payload))
        out = tmp_path / "res.json"
        assert run_cli("run-exact", inst_path, "--root", "1", "--out", out) == 2
        assert "quadratic 1: A, b and c must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestRunApprox:
    def test_quadratic_ls_matches_exact(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli("run-approx", inst_path, "--root", "1", "--m", "40",
                       "--seed", "3", "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["error_ratio_percent"] <= 1e-3
        assert payload["diagnostics"]["exchanges"] == 1
        assert payload["diagnostics"]["edges"][0]["m"] == 40

    @pytest.mark.parametrize("root", [0, 1])
    def test_quadratic_omitting_a_shared_node(self, tmp_path, root):
        """The message domain is the sender's own variables minus the
        eliminated ones: shared node 3, absent from quadratic 0, is not
        sampled on edge 0 -> 1."""
        payload = json.loads(dumps(fixture_eg32()))
        q = payload["quads"][0]
        k = q["vars"].index(3)
        q["vars"].pop(k)
        q["b"].pop(k)
        q["A"] = [[i - (i > k), j - (j > k), v] for i, j, v in q["A"] if k not in (i, j)]
        inst_path = tmp_path / "drop3.json"
        inst_path.write_text(json.dumps(payload))
        common = (inst_path, "--root", root, "--regularize", "1e-2", "--seed", "3")
        exact, approx = tmp_path / "exact.json", tmp_path / "approx.json"
        assert run_cli("run-exact", *common, "--out", exact) == 0
        assert run_cli("run-approx", *common, "--out", approx) == 0
        assert run_cli("run-approx", *common, "--surrogate", "mlp",
                       "--out", tmp_path / "mlp.json") == 0
        want = json.loads(exact.read_text())["value"]
        got = json.loads(approx.read_text())["value"]
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("surrogate", ["quadratic-ls", "mlp"])
    def test_unbounded_root_exits_three(self, tmp_path, capsys, surrogate):
        inst_path = tmp_path / "ub.json"
        inst_path.write_text(json.dumps(UNBOUNDED))
        out = tmp_path / "res.json"
        code = run_cli("run-approx", inst_path, "--surrogate", surrogate, "--seed", "1",
                       "--out", out)
        assert code == 3
        assert "minimum is -inf" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_fit_names_the_edge(self, tmp_path, capsys):
        inst_path = tmp_path / "rq.json"
        assert run_cli("gen", "--kind", "random-quadratic", "--t", "6", "--seed", "3",
                       "--out", inst_path) == 0
        code = run_cli("run-approx", inst_path, "--m", "3", "--seed", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"message along edge \(\d+ -> \d+\): 3 samples cannot", err), err

    def test_diverging_fit_exits_three(self, tmp_path, capsys, monkeypatch):
        """A training run whose loss blows up is a failed fit (exit 3), not
        invalid input, and it writes nothing."""
        monkeypatch.setattr(surrogate, "LEARNING_RATE", 1.0)
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli("run-approx", inst_path, "--surrogate", "mlp", "--root", "1",
                       "--regularize", "1e-2", "--seed", "3", "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"message along edge \(\d+ -> \d+\): training loss turned "
                         r"non-finite", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-exact", "run-approx"])
    def test_missing_observation_exits_two(self, tmp_path, capsys, command):
        payload = json.loads(dumps(fixture_eg32()))
        assert payload["observations"][0][0] == 0
        del payload["observations"][0]
        inst_path = tmp_path / "no0.json"
        inst_path.write_text(json.dumps(payload))
        out = tmp_path / "res.json"
        assert run_cli(command, inst_path, "--root", "1", "--seed", "1", "--out", out) == 2
        assert "observation missing for node 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_required(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("run-approx", inst_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--restarts", "0", "restarts must be at least 1"),
        ("--restarts", "-3", "restarts must be at least 1"),
        ("--box-radius", "nan", "box radius must be finite and positive"),
        ("--box-radius", "inf", "box radius must be finite and positive"),
        ("--box-radius", "0", "box radius must be finite and positive"),
        ("--box-radius", "-1", "box radius must be finite and positive"),
    ])
    def test_bad_config_exits_two(self, tmp_path, capsys, option, value, message):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "res.json"
        code = run_cli("run-approx", inst_path, "--surrogate", "mlp", option, value,
                       "--seed", "1", "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        outs = []
        for name in ("a1.json", "a2.json"):
            out = tmp_path / name
            run_cli("run-approx", inst_path, "--root", "1", "--m", "40",
                    "--surrogate", "mlp", "--regularize", "1e-2",
                    "--seed", "9", "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestAnalyze:
    def test_fixture_flag_and_inequality(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "rep.json"
        code = run_cli("analyze", inst_path, "--leaf", "0", "--seed", "2", "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        assert "4 > 3" in text
        record = json.loads(out.read_text())
        assert record["flag"] is True
        assert record["b_alpha"] == -2
        assert record["direct_test"] is False

    def test_objective_task_never_insoluble(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        save_instance(fixture_eg32(), inst_path)
        out = tmp_path / "rep.json"
        code = run_cli("analyze", inst_path, "--leaf", "0", "--task", "objective",
                       "--seed", "2", "--out", out)
        assert code == 0
        record = json.loads(out.read_text())
        assert record["flag"] is False
        assert record["direct_test"] is True


class TestSweep:
    def test_single_point_sweep(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        out = tmp_path / "records.csv"
        agg = tmp_path / "agg.csv"
        code = run_cli("sweep", "--k-list", "3", "--surrogate", "quadratic-ls",
                       "--repeats", "1", "--seed", "4", "--out", out,
                       "--aggregate-out", agg)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,m,seed,exact_value,approx_value,R_percent,wall_ms"
        assert len(lines) == 2
        assert agg.read_text().splitlines()[0] == "sweep_point,mean_R,std_R,n"
        assert "mean R" in capsys.readouterr().out

    def test_oracle_sweep_zero_error(self, tmp_path):
        out = tmp_path / "records.csv"
        code = run_cli("sweep", "--k-list", "3,4", "--surrogate", "quadratic-ls",
                       "--repeats", "1", "--seed", "8", "--out", out)
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[5]) <= 1e-3

    def test_zero_repeats_exits_two_and_writes_nothing(self, tmp_path):
        out = tmp_path / "r.csv"
        agg = tmp_path / "agg.csv"
        code = run_cli("sweep", "--k-list", "25", "--repeats", "0", "--seed", "1",
                       "--out", out, "--aggregate-out", agg)
        assert code == 2
        assert not out.exists() and not agg.exists()
