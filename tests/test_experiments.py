import io
import json

import numpy as np
import pytest

import kmatch as km
import kmatch.experiments as ex
from kmatch.experiments import TrialConfig, derive_seed
from kmatch.matching import KMatching


def greedy_cfg(**kw):
    base = dict(n=300, k=2, trials=4, base_seed=11, algorithm="greedy", d=6.0)
    base.update(kw)
    return TrialConfig(**base)


class TestConfig:
    def test_requires_exactly_one_of_d_p(self):
        with pytest.raises(ValueError):
            TrialConfig(n=10, k=2, trials=1, base_seed=0, algorithm="greedy")
        with pytest.raises(ValueError):
            TrialConfig(
                n=10, k=2, trials=1, base_seed=0, algorithm="greedy", d=2.0, p=0.2
            )

    def test_derives_the_other(self):
        cfg = greedy_cfg()
        assert cfg.edge_probability() == pytest.approx(0.02)
        cfg2 = greedy_cfg(d=None, p=0.02)
        assert cfg2.expected_degree() == pytest.approx(6.0)

    def test_exact_guard(self):
        with pytest.raises(ValueError):
            TrialConfig(n=100, k=2, trials=1, base_seed=0, algorithm="exact", p=0.1)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            TrialConfig(n=10, k=2, trials=1, base_seed=0, algorithm="anneal", p=0.1)


class TestDerivedSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(100)]
        assert seeds == [derive_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_reference_values(self):
        # splitmix64 output permutation at offsets of 0x9E3779B97F4A7C15;
        # frozen so other implementations can check against these
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(42, 1) == 2949826092126892291


class TestRunTrials:
    def test_p_zero_all_empty(self):
        records, summary = ex.run_trials(
            TrialConfig(n=100, k=2, trials=10, base_seed=1, algorithm="greedy", p=0.0)
        )
        assert [r.matching_size for r in records] == [0] * 10
        assert summary.success_rate == 1.0
        assert summary.mean_size == 0.0

    def test_greedy_records_verified(self):
        records, summary = ex.run_trials(greedy_cfg())
        assert summary.success_rate == 1.0
        assert summary.min_size <= summary.mean_size <= summary.max_size
        for r in records:
            assert r.auxiliary["induced_edge"] is False  # maximal

    def test_generator_exact_size(self):
        cfg = TrialConfig(
            n=500,
            k=2,
            trials=6,
            base_seed=9,
            algorithm="generator",
            d=6.0,
            s_override=10,
        )
        records, summary = ex.run_trials(cfg)
        assert summary.success_rate == 1.0
        assert all(r.matching_size == 10 for r in records)

    def test_generator_stall_counted_not_fatal(self):
        cfg = TrialConfig(
            n=40,
            k=2,
            trials=5,
            base_seed=3,
            algorithm="generator",
            p=0.0,
            s_override=2,
        )
        records, summary = ex.run_trials(cfg)
        assert summary.success_rate == 0.0
        assert all(not r.succeeded for r in records)

    def test_exact_algorithm(self):
        cfg = TrialConfig(
            n=10, k=2, trials=4, base_seed=5, algorithm="exact", p=0.15
        )
        records, summary = ex.run_trials(cfg)
        assert summary.success_rate == 1.0
        assert all(r.matching_size >= 0 for r in records)

    @pytest.mark.parametrize("algorithm", ["greedy", "exact"])
    def test_pair_count_override_needs_the_generator(self, algorithm):
        cfg = TrialConfig(
            n=10, k=2, trials=2, base_seed=5, algorithm=algorithm, p=0.15,
            s_override=3,
        )
        with pytest.raises(ValueError, match=f"needs the generator, got {algorithm}"):
            ex.run_trials(cfg)

    def test_worker_count_does_not_change_records(self):
        cfg = greedy_cfg(trials=8)
        a, _ = ex.run_trials(cfg, workers=1)
        b, _ = ex.run_trials(cfg, workers=3)
        assert a == b

    def test_invalid_matching_recorded_as_failure(self, monkeypatch):
        """A matching the validator rejects still gets its far-set columns,
        from the same pass that rejects it: the values are those a separate
        distance_to_set from the matched vertices gave."""

        def adjacent_pair(g, k, seed):  # two edges sharing a vertex
            degree = np.diff(g.low_ptr) + np.diff(g.mid_ptr) + np.diff(g.upper_ptr)
            v = int(np.flatnonzero(degree >= 2)[0])
            a, b = g.neighbors(v)[:2].tolist()
            return KMatching.of(k, [(v, a), (v, b)])

        monkeypatch.setattr(ex, "greedy_k_matching", adjacent_pair)
        expected = {1: [297, 297, 297], 2: [284, 282, 282], 3: [212, 218, 200]}
        for k, far_sizes in expected.items():
            records, summary = ex.run_trials(greedy_cfg(k=k, trials=3))
            assert summary.successes == 0
            assert [r.matching_size for r in records] == [2, 2, 2]
            assert [r.auxiliary for r in records] == [
                {"far_set_size": f, "induced_edge": True} for f in far_sizes
            ]

    def test_runtime_measured_only_on_request(self):
        records, _ = ex.run_trials(greedy_cfg())
        assert all(r.runtime_ms is None for r in records)
        records, _ = ex.run_trials(greedy_cfg(measure_runtime=True))
        assert all(r.runtime_ms is not None and r.runtime_ms >= 0 for r in records)


class TestTheorem51:
    def test_small_scale_ratio_near_one(self):
        cfg = TrialConfig(
            n=2000, k=2, trials=6, base_seed=7, algorithm="generator", d=10.0
        )
        records, summary = ex.verify_theorem_5_1(cfg)
        assert 0.3 < summary.mean_far_ratio < 3.0
        assert 0.0 <= summary.induced_edge_frequency <= 1.0
        assert len(records) == 6

    def test_all_vertices_far_set_empty(self):
        # p=1 sampling: the far set of any nonempty source set is empty
        cfg = TrialConfig(
            n=64, k=2, trials=3, base_seed=7, algorithm="generator", p=1.0, s_override=4
        )
        records, summary = ex.verify_theorem_5_1(cfg)
        assert all(r.auxiliary["far_set_size"] == 0 for r in records)
        assert summary.induced_edge_frequency == 0.0

    def test_out_of_regime_rejected(self):
        # pair target s drops below 1 here
        cfg = TrialConfig(
            n=16, k=2, trials=2, base_seed=7, algorithm="generator", d=2.0
        )
        with pytest.raises(km.RegimeError):
            ex.verify_theorem_5_1(cfg)


class TestLayerGrowth:
    def test_layer_zero_ratio_exactly_one(self):
        cfg = TrialConfig(
            n=3000, k=3, trials=5, base_seed=13, algorithm="generator", d=5.0
        )
        records, summary = ex.verify_layer_growth(cfg)
        assert all(r.auxiliary["layer_ratio_0"] == 1.0 for r in records)
        assert summary.mean_ratio[0] == 1.0

    def test_needs_k_at_least_three(self):
        cfg = TrialConfig(
            n=3000, k=2, trials=2, base_seed=13, algorithm="generator", d=5.0
        )
        with pytest.raises(ValueError):
            ex.verify_layer_growth(cfg)

    def test_edgeless_layers_empty(self):
        cfg = TrialConfig(
            n=100, k=3, trials=2, base_seed=13, algorithm="generator", p=0.0,
            s_override=3,
        )
        records, _ = ex.verify_layer_growth(cfg)
        for r in records:
            assert r.auxiliary["layer_ratio_0"] == 1.0
            assert r.auxiliary["layer_ratio_1"] == 0.0


class TestEmit:
    def test_csv_header_only_for_empty_records(self):
        cfg = greedy_cfg()
        text = ex.emit([], None, "csv", None, cfg)
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("trial_index,seed,n,d,p,k,algorithm,")
        assert lines[0].endswith("layer_ratio_0")

    def test_csv_rows_match_records(self):
        cfg = greedy_cfg(trials=3)
        records, summary = ex.run_trials(cfg)
        text = ex.emit(records, summary, "csv", None, cfg)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[6] == "greedy"
        assert first[8] == "true"
        assert first[9] == ""  # runtime not measured

    def test_csv_layer_columns_follow_k(self):
        cfg = TrialConfig(
            n=3000, k=4, trials=2, base_seed=13, algorithm="generator", d=4.0,
            s_override=5,
        )
        records, summary = ex.verify_layer_growth(cfg)
        header = ex.emit(records, summary, "csv", None, cfg).split("\n")[0]
        assert header.endswith("layer_ratio_0,layer_ratio_1,layer_ratio_2")

    def test_csv_reproducible_end_to_end(self):
        cfg = greedy_cfg(trials=5)
        a = ex.emit(*ex.run_trials(cfg), "csv", None, cfg)
        b = ex.emit(*ex.run_trials(cfg, workers=2), "csv", None, cfg)
        assert a == b

    def test_json_round_trip(self):
        cfg = greedy_cfg(trials=3)
        records, summary = ex.run_trials(cfg)
        text = ex.emit(records, summary, "json", None, cfg)
        obj = json.loads(text)
        assert obj == json.loads(ex.emit(records, summary, "json", None, cfg))
        assert [r["matching_size"] for r in obj["records"]] == [
            r.matching_size for r in records
        ]
        assert obj["config"]["n"] == cfg.n
        assert obj["summary"]["success_rate"] == summary.success_rate

    def test_summary_recomputable_from_records(self):
        cfg = greedy_cfg(trials=6)
        records, summary = ex.run_trials(cfg)
        sizes = [r.matching_size for r in records if r.succeeded]
        assert summary.mean_size == pytest.approx(sum(sizes) / len(sizes))
        assert summary.min_size == min(sizes)
        assert summary.max_size == max(sizes)

    def test_writes_to_file_object(self):
        cfg = greedy_cfg(trials=2)
        records, summary = ex.run_trials(cfg)
        buf = io.StringIO()
        returned = ex.emit(records, summary, "csv", buf, cfg)
        assert buf.getvalue() == returned

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            ex.emit([], None, "xml", None, greedy_cfg())
