import hashlib
import json
from dataclasses import asdict

import pytest

import kmatch as km
from kmatch import experiments
from kmatch.analytic import default_pair_count
from kmatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_reference_point_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1e6", "--d", "100", "--k", "2")
        assert code == 0
        upper_line = next(l for l in out.splitlines() if l.startswith("upper"))
        assert abs(float(upper_line.split(":")[1]) - 46051.7) < 0.1

    def test_json_keys(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "1e5", "--d", "20", "--k", "2", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["upper", "lower_maximal", "generator_target", "m_star", "s", "A", "p_d"]
        assert int(obj["s"]) == 775

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run(capsys, "bounds", "--n", "1e6", "--d", "100", "--k", "2", "--json")
        obj = json.loads(out)
        assert obj["upper"] == 10**4 * __import__("math").log(100.0)

    def test_d_p_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--n", "100", "--d", "5", "--p", "0.05", "--k", "2"
        )
        assert code == 1

    def test_out_of_regime_is_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "10", "--d", "5", "--k", "3")
        assert code == 1
        assert "error" in err


class TestOracle:
    def test_dist_example(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--n", "3", "--p", "0.5", "--k", "3",
            "--event", "dist", "--u", "0", "--v", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {"event": "dist", "n": 3, "p": 0.5, "k": 3, "value": 0.375}

    def test_kmatch_event(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--n", "4", "--p", "0.5", "--k", "2",
            "--event", "kmatch", "--edge", "0,1", "--edge", "2,3",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.015625)

    def test_xm_event(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--n", "3", "--p", "0.5", "--k", "2", "--event", "xm", "--m", "1",
        )
        assert json.loads(out)["value"] == pytest.approx(1.5)

    def test_umk_event(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--n", "2", "--p", "0.5", "--k", "2", "--event", "umk"
        )
        assert json.loads(out)["value"] == {"0": 0.5, "1": 0.5}

    def test_missing_event_args(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--n", "3", "--p", "0.5", "--k", "2", "--event", "dist"
        )
        assert code == 1

    def test_n_cap_respected(self, capsys):
        code, _, err = run(
            capsys,
            "oracle", "--n", "9", "--p", "0.5", "--k", "2",
            "--event", "dist", "--u", "0", "--v", "1",
        )
        assert code == 1

    def test_xm_negative_m_is_error(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--n", "3", "--p", "0.5", "--k", "2", "--event", "xm", "--m", "-1",
        )
        assert code == 1
        assert out == ""
        assert "m must be >= 0, got -1" in err

    @pytest.mark.parametrize(
        "p, event",
        [
            ("1.5", ["dist", "--u", "0", "--v", "1"]),
            ("-0.5", ["umk"]),
            ("1.0001", ["kmatch", "--edge", "0,1"]),
            ("nan", ["xm", "--m", "1"]),
        ],
    )
    def test_p_outside_unit_interval_is_error(self, capsys, p, event):
        code, out, err = run(
            capsys, "oracle", "--n", "3", "--p", p, "--k", "2", "--event", *event
        )
        assert code == 1
        assert out == ""
        assert "p must be in [0, 1]" in err


class TestMatchingCommands:
    def test_greedy_empty_graph(self, capsys):
        code, out, _ = run(
            capsys, "greedy", "--n", "0", "--p", "0.5", "--k", "2", "--seed", "7"
        )
        assert code == 0
        assert out.startswith("size 0")

    def test_greedy_requires_seed(self, capsys):
        code, _, _ = run(capsys, "greedy", "--n", "10", "--p", "0.5", "--k", "2")
        assert code == 1

    def test_generator_stall_is_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "generator", "--n", "8", "--p", "0", "--k", "2", "--seed", "1", "--s", "1",
        )
        assert code == 2
        assert err == (
            "kmatch: generator stalled: "
            "no edge induced by the distance->=k vertex set\n"
        )

    def test_generator_no_vertices_is_error(self, capsys):
        for flag, value in (("--d", "5"), ("--p", "0.5")):
            code, _, err = run(
                capsys, "generator", "--n", "0", flag, value, "--k", "2", "--seed", "1"
            )
            assert code == 1
            assert "n must be >= 1" in err
        code, _, err = run(capsys, "bounds", "--n", "0", "--d", "5", "--k", "2")
        assert code == 1
        assert "n must be >= 1" in err

    def test_generator_has_no_repair_budget(self, capsys):
        code, out, err = run(
            capsys,
            "generator", "--n", "200", "--d", "6", "--k", "2", "--seed", "1",
            "--max-repairs", "3",
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --max-repairs 3" in err

    def test_generator_success(self, capsys):
        code, out, _ = run(
            capsys,
            "generator", "--n", "200", "--d", "6", "--k", "2", "--seed", "1", "--s", "5",
        )
        assert code == 0
        assert out.startswith("size 5")

    def test_generator_and_experiment_share_pair_count(self, capsys):
        # the sampled graph's mean degree (19.97) would give s = 774; a
        # graph sampled from --n and --d takes s from the configured d in
        # both commands
        cfg = km.experiments.TrialConfig(
            n=10**5, k=2, trials=1, base_seed=4, algorithm="generator", d=20.0
        )
        s = default_pair_count(cfg.asymptotic_params())
        assert s == 775
        code, out, _ = run(
            capsys, "generator", "--n", "1e5", "--d", "20", "--k", "2", "--seed", "4"
        )
        assert code == 0
        assert out.startswith(f"size {s}\n")
        code, out, _ = run(
            capsys,
            "experiment", "--n", "1e5", "--d", "20", "--k", "2",
            "--trials", "1", "--seed", "4", "--algorithm", "generator",
        )
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert row["matching_size"] == str(s)

    def test_generator_on_file_takes_mean_degree(self, capsys, tmp_path):
        g = km.sample_gnp(km.GnpParams(4000, 8.0 / 4000, 2))
        path = tmp_path / "g.edges"
        km.write_edge_list(g, str(path))
        code, out, _ = run(
            capsys, "generator", "--input", str(path), "--k", "2", "--seed", "3"
        )
        params = km.analytic.AsymptoticParams.from_nd(g.n, g.mean_degree(), 2)
        s = default_pair_count(params)
        assert code == 0
        assert out.startswith(f"size {s}\n")

    def test_generator_on_file_rejects_k1(self, capsys, tmp_path):
        # s is taken at the file's mean degree before the generator runs,
        # so the parameter check speaks first, as for a sampled graph
        path = tmp_path / "g.edges"
        km.write_edge_list(km.path_graph(8), str(path))
        code, out, err = run(
            capsys, "generator", "--input", str(path), "--k", "1", "--seed", "3"
        )
        assert code == 1
        assert out == ""
        assert err == "kmatch: error: k must be >= 2\n"

    def test_exact_on_file(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        km.write_edge_list(km.path_graph(7), str(path))
        code, out, _ = run(capsys, "exact", "--input", str(path), "--k", "2")
        assert code == 0
        assert out.startswith("size 2")

    def test_gen_to_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        code, _, _ = run(
            capsys,
            "gen", "--n", "50", "--p", "0.1", "--seed", "3", "--out", str(path),
        )
        assert code == 0
        g = km.read_edge_list(str(path))
        assert g == km.sample_gnp(km.GnpParams(50, 0.1, 3))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--d", "5", "--seed", "1"], "the following arguments are required: --n"),
            (["--n", "50", "--seed", "1"], "one of the arguments --d --p is required"),
            (["--n", "50", "--d", "5"], "the following arguments are required: --seed"),
            (
                ["--input", "g.edges", "--n", "50", "--d", "5", "--seed", "1"],
                "unrecognized arguments: --input g.edges",
            ),
        ],
    )
    def test_gen_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 1
        assert out == ""
        assert message in err

    def test_matching_file_output(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, out, _ = run(
            capsys,
            "greedy", "--n", "30", "--p", "0.2", "--k", "2", "--seed", "5",
            "--out", str(path),
        )
        assert code == 0
        from kmatch.matching import KMatching

        m = KMatching.from_text(path.read_text())
        assert m.k == 2


class TestExperimentCommands:
    def test_experiment_csv_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment", "--n", "200", "--d", "5", "--k", "2",
            "--trials", "3", "--seed", "9", "--algorithm", "greedy",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("trial_index,")
        assert len(lines) == 4

    def test_experiment_reproducible_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "experiment", "--n", "300", "--d", "6", "--k", "2",
                "--trials", "4", "--seed", "11", "--algorithm", "greedy",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_theorem51_json(self, capsys):
        code, out, err = run(
            capsys,
            "theorem51", "--n", "2000", "--d", "10", "--k", "2",
            "--samples", "3", "--seed", "4", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["records"]) == 3
        assert "mean_far_ratio" in obj["summary"]

    def test_layers_run(self, capsys):
        code, out, _ = run(
            capsys,
            "layers", "--n", "3000", "--d", "5", "--k", "3",
            "--samples", "2", "--seed", "4",
        )
        assert code == 0
        header = out.split("\n")[0]
        assert "layer_ratio_0,layer_ratio_1" in header

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem51", "--n", "3000", "--d", "10", "--k", "2"],
            ["layers", "--n", "3000", "--d", "5", "--k", "3"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sampled_sets_independent_of_threads(self, capsys, argv, fmt):
        outputs = [
            run(
                capsys, "--threads", threads, *argv,
                "--samples", "5", "--seed", "8", "--format", fmt,
            )
            for threads in ("1", "2")
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["theorem51", "layers"])
    def test_sampled_sets_below_pair_target(self, capsys, command):
        # at (100, 3, 3) the pair target is -0.78; both commands name the
        # scale in the message
        code, out, err = run(
            capsys, command, "--n", "100", "--d", "3", "--k", "3",
            "--samples", "2", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "kmatch: error: pair target s = -0.7837318968058258 < 1 "
            "at n=100, d=3.0, k=3\n"
        )

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("algorithm", ["greedy", "generator"])
    def test_small_degree_experiment_runs(self, capsys, tmp_path, k, algorithm):
        # a generator pair target below 1 clamps to s = 1 in `experiment`
        # (at k = 2 the formula gives -14.6), so these small-degree runs
        # exit 0 where theorem51 and layers raise
        code, _, _ = run(
            capsys,
            "--threads", "1", "experiment", "--n", "4000", "--d", "8", "--k", k,
            "--trials", "1", "--seed", "1", "--algorithm", algorithm,
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 0


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "bounds", "--n", "10", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_scientific_notation_count(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "1e3", "--d", "10", "--k", "2", "--json"
        )
        assert code == 0
        assert json.loads(out)["p_d"] == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["gen", "--n", "1e400", "--d", "2", "--seed", "1"], "--n", "1e400"),
            (["gen", "--n", "inf", "--d", "2", "--seed", "1"], "--n", "inf"),
            (
                [
                    "experiment", "--n", "100", "--d", "2", "--k", "2",
                    "--trials", "1e400", "--seed", "1", "--algorithm", "greedy",
                ],
                "--trials",
                "1e400",
            ),
        ],
    )
    def test_infinite_count_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: '{value}' is not an integer" in err

    @pytest.mark.parametrize("value", ["nan", "NaN", "abc", ""])
    def test_non_numeric_count_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "gen", "--n", value, "--d", "2", "--seed", "1")
        assert code == 1
        assert out == ""
        assert f"argument --n: '{value}' is not an integer" in err
        assert "_count" not in err

    @pytest.mark.parametrize("command", ["gen", "greedy", "generator", "exact"])
    def test_negative_seed_names_the_flag(self, capsys, command):
        argv = [command, "--n", "1e3", "--d", "2", "--seed", "-1"]
        if command != "gen":
            argv += ["--k", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "kmatch: error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["generator", "--n", "3000", "--d", "8", "--k", "2"],
            ["experiment", "--n", "3000", "--d", "8", "--k", "2", "--trials", "2",
             "--algorithm", "generator"],
            ["theorem51", "--n", "3000", "--d", "8", "--k", "2", "--samples", "1"],
            ["layers", "--n", "3000", "--d", "5", "--k", "3", "--samples", "1"],
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_pair_count_below_one_names_the_flag(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, "--seed", "3", "--s", value)
        assert code == 1
        assert out == ""
        message = f"kmatch {argv[0]}: error: argument --s: must be >= 1, got {value}\n"
        assert err.endswith(message)

    def test_pair_count_must_be_an_integer(self, capsys):
        code, _, err = run(
            capsys, "generator", "--n", "300", "--d", "8", "--k", "2", "--seed", "3",
            "--s", "2.5",
        )
        assert code == 1
        assert err.endswith("error: argument --s: invalid int value: '2.5'\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--n", "100", "--d", "2", "--k", "2", "--trials", "1",
             "--algorithm", "greedy"],
            ["theorem51", "--n", "2000", "--d", "10", "--k", "2", "--samples", "1"],
            ["layers", "--n", "3000", "--d", "5", "--k", "3", "--samples", "1"],
        ],
    )
    def test_masked_trial_seeds_accept_negative_seed(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--seed", "-1")
        assert code == 0
        assert out

    def test_help_mentions_flag_semantics(self, capsys):
        code, out, _ = run(capsys, "greedy", "--help")
        assert code == 0
        assert "--k" in out and "endpoint distance" in out
        assert "--seed" in out and "reproducible" in out


@pytest.mark.parametrize(
    "argv, digest",
    # sha256 prefixes of the --out files as written when a matching was a
    # frozenset of tuples; the matching text, CSV and JSON bytes must not
    # move with the matching's storage
    [
        (["greedy", "--n", "2000", "--d", "8", "--k", "1", "--seed", "3"],
         "1378e81f8df890bc"),
        (["greedy", "--n", "2000", "--d", "8", "--k", "2", "--seed", "3"],
         "018973a0f7fbf8a0"),
        (["greedy", "--n", "2000", "--d", "8", "--k", "3", "--seed", "3"],
         "5779c853c689e563"),
        (["generator", "--n", "3000", "--d", "16", "--k", "2", "--seed", "3"],
         "3b00a9eb98def4c7"),
        (["generator", "--n", "4000", "--d", "5", "--k", "3", "--seed", "3",
          "--s", "40"],
         "9cde182a33d2df1f"),
        (["exact", "--n", "12", "--p", "0.25", "--k", "1", "--seed", "2"],
         "3493a7b02a1a6162"),
        (["experiment", "--n", "2000", "--d", "8", "--k", "2", "--trials", "2",
          "--seed", "5", "--algorithm", "greedy"],
         "269686338fb72803"),
        (["experiment", "--n", "2000", "--d", "8", "--k", "1", "--trials", "2",
          "--seed", "5", "--algorithm", "greedy", "--format", "json"],
         "5aef4fdbe0c8588c"),
        (["experiment", "--n", "3000", "--d", "16", "--k", "2", "--trials", "2",
          "--seed", "5", "--algorithm", "generator"],
         "3e41e41e5badc288"),
        (["theorem51", "--n", "3000", "--d", "16", "--k", "2", "--samples", "2",
          "--seed", "5"],
         "b4905905d06e1220"),
        (["theorem51", "--n", "3000", "--d", "16", "--k", "2", "--samples", "2",
          "--seed", "5", "--format", "json"],
         "eac006c567a148c9"),
        (["layers", "--n", "3000", "--d", "5", "--k", "3", "--samples", "2",
          "--seed", "5"],
         "824c033061d1d40e"),
        (["layers", "--n", "3000", "--d", "5", "--k", "3", "--samples", "2",
          "--seed", "5", "--format", "json"],
         "bc136e15dc508d89"),
    ],
    ids=[
        "greedy-k1", "greedy-k2", "greedy-k3", "generator-k2", "generator-k3",
        "exact", "experiment-greedy-csv", "experiment-greedy-json",
        "experiment-generator-csv", "theorem51-csv", "theorem51-json",
        "layers-csv", "layers-json",
    ],
)
def test_output_bytes_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "out"
    code, _, _ = run(capsys, "--threads", "1", *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv, cfg, verify",
    [
        (["experiment", "--trials", "2", "--algorithm", "greedy", "--n", "2000",
          "--d", "8", "--k", "2"],
         experiments.TrialConfig(2000, 2, 2, 5, "greedy", d=8.0),
         experiments.run_trials),
        (["theorem51", "--samples", "2", "--n", "3000", "--d", "16", "--k", "2"],
         experiments.TrialConfig(3000, 2, 2, 5, "generator", d=16.0),
         experiments.verify_theorem_5_1),
        (["layers", "--samples", "2", "--n", "3000", "--d", "5", "--k", "3"],
         experiments.TrialConfig(3000, 3, 2, 5, "generator", d=5.0),
         experiments.verify_layer_growth),
    ],
    ids=["experiment", "theorem51", "layers"],
)
def test_trial_commands_print_the_summary_json(capsys, tmp_path, argv, cfg, verify):
    code, out, err = run(
        capsys, "--threads", "1", *argv, "--seed", "5", "--out", str(tmp_path / "o")
    )
    assert code == 0
    assert out == ""
    _, summary = verify(cfg, workers=1)
    assert err == json.dumps(asdict(summary)) + "\n"
