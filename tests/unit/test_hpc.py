"""Unit tests for the simulated-Frontier HPC substrate and local parallelism."""

import dataclasses
import gc
import importlib.util
import inspect
import os
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.hpc.collectives import CollectiveKind, CollectiveModel
from repro.hpc.ddp import DataParallel, bucketize
from repro.hpc import ensemble_parallel
from repro.hpc.ensemble_parallel import EnsembleExecutor, ensemble_slices
from repro.hpc.fsdp import FSDPParallel
from repro.hpc.gemm import GEMMPerformanceModel, vit_achieved_tflops
from repro.hpc.memory import STRATEGY_TABLE, ShardingStrategy, TrainingMemoryModel
from repro.hpc.scaling import strong_scaling_study, weak_scaling_ensf
from repro.hpc.topology import FrontierTopology, GPUSpec
from repro.hpc.trainer_sim import DistributedTrainingSimulator, TrainingRunConfig
from repro.hpc.zero import ZeROParallel
from repro.core.ensf import EnSF, EnSFConfig
from repro.core.observations import IdentityObservation
from repro.da.cycling import OSSEConfig, run_osse
from repro.da.letkf import LETKF, LETKFConfig
from repro.models.lorenz96 import Lorenz96
from repro.surrogate.flops import vit_parameter_count
from repro.surrogate.presets import TABLE_II_PRESETS, laptop_preset
from repro.surrogate.vit import ViTConfig
from repro.utils.faults import FaultLog, FaultPlan
from repro.utils.grid import Grid2D
from repro.utils.random import SeedSequenceFactory

MB = 2.0**20


class TestTopology:
    def test_frontier_totals(self):
        topo = FrontierTopology()
        assert topo.total_gpus == 75264
        assert topo.node.gpus_per_node == 8
        assert topo.node.gpu.memory_gb == 64.0

    def test_nodes_for(self):
        topo = FrontierTopology()
        assert topo.nodes_for(8) == 1
        assert topo.nodes_for(9) == 2
        assert topo.nodes_for(1024) == 128
        with pytest.raises(ValueError):
            topo.nodes_for(0)
        with pytest.raises(ValueError):
            topo.nodes_for(10**9)

    def test_link_bandwidth_regimes(self):
        topo = FrontierTopology()
        assert topo.link_bandwidth_gbs(8) == pytest.approx(100.0)
        assert topo.link_bandwidth_gbs(64) < topo.link_bandwidth_gbs(8)

    def test_gpu_peak_flops(self):
        gpu = GPUSpec()
        assert gpu.peak_flops("bf16") > gpu.peak_flops("fp32")
        with pytest.raises(ValueError):
            gpu.peak_flops("int8")


class TestCollectives:
    def setup_method(self):
        self.model = CollectiveModel()

    def test_volume_factors(self):
        assert CollectiveModel.volume_factor(CollectiveKind.ALL_REDUCE, 4) == pytest.approx(1.5)
        assert CollectiveModel.volume_factor(CollectiveKind.ALL_GATHER, 4) == pytest.approx(0.75)
        assert CollectiveModel.volume_factor(CollectiveKind.ALL_REDUCE, 1) == 0.0

    def test_bandwidth_increases_with_message_size(self):
        small = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, 4 * MB, 64)
        large = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, 1024 * MB, 64)
        assert large > small

    def test_allreduce_dip_near_256mb(self):
        """The empirical AllReduce bandwidth drop around 256 MB (Fig. 8)."""
        at_dip = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_REDUCE, 256 * MB, 512)
        before = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_REDUCE, 64 * MB, 512)
        after = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_REDUCE, 1024 * MB, 512)
        assert at_dip < before and at_dip < after

    def test_allreduce_beats_gather_at_midsize_at_scale(self):
        ar = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_REDUCE, 64 * MB, 1024)
        ag = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, 64 * MB, 1024)
        assert ar > ag

    def test_allgather_equals_reduce_scatter(self):
        for msg in [16 * MB, 128 * MB, 512 * MB]:
            ag = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, msg, 256)
            rs = self.model.bus_bandwidth_gbs(CollectiveKind.REDUCE_SCATTER, msg, 256)
            assert ag == pytest.approx(rs)

    def test_bandwidth_decreases_with_scale(self):
        small = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, 256 * MB, 16)
        large = self.model.bus_bandwidth_gbs(CollectiveKind.ALL_GATHER, 256 * MB, 1024)
        assert large < small

    def test_time_zero_cases(self):
        assert self.model.time_seconds(CollectiveKind.ALL_REDUCE, 0.0, 16) == 0.0
        assert self.model.time_seconds(CollectiveKind.ALL_REDUCE, 1e6, 1) == 0.0
        with pytest.raises(ValueError):
            self.model.time_seconds(CollectiveKind.ALL_REDUCE, -1.0, 16)

    def test_sweep_shape(self):
        sizes = np.array([4, 16, 64]) * MB
        out = self.model.sweep(CollectiveKind.ALL_REDUCE, sizes, 64)
        assert out.shape == (3,)
        assert np.all(out > 0)


class TestGEMM:
    def test_efficiency_bounds(self):
        model = GEMMPerformanceModel()
        eff = model.efficiency(2048, 2048, 2048)
        assert 0.0 < eff <= model.max_efficiency
        with pytest.raises(ValueError):
            model.efficiency(0, 10, 10)

    def test_bigger_gemm_more_efficient(self):
        model = GEMMPerformanceModel()
        assert model.efficiency(4096, 4096, 4096) > model.efficiency(128, 128, 128)

    def test_achieved_tflops_in_paper_range(self):
        """All Table II configurations must land in the measured 20–52 TFLOPS band."""
        for size, cfg in TABLE_II_PRESETS.items():
            batch = TrainingRunConfig(vit=cfg, n_gpus=8).per_gpu_batch
            tflops = vit_achieved_tflops(cfg, batch_size=batch)
            assert 20.0 <= tflops <= 52.0, f"{size}: {tflops}"

    def test_embedding_2048_beats_1024(self):
        small = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=8, embed_dim=1024)
        large = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=8, embed_dim=2048)
        assert vit_achieved_tflops(large, 4) > vit_achieved_tflops(small, 4)

    def test_more_heads_reduce_performance(self):
        few = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=8, embed_dim=2048)
        many = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=32, embed_dim=2048)
        assert vit_achieved_tflops(few, 4) >= vit_achieved_tflops(many, 4)

    def test_higher_mlp_ratio_improves_throughput(self):
        low = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=8, embed_dim=2048, mlp_ratio=2.0)
        high = ViTConfig(image_size=128, patch_size=4, depth=4, num_heads=8, embed_dim=2048, mlp_ratio=8.0)
        assert vit_achieved_tflops(high, 4) > vit_achieved_tflops(low, 4)


class TestMemory:
    def test_table_i_mapping(self):
        assert STRATEGY_TABLE[ShardingStrategy.FSDP_GRAD_OP]["zero_equivalent"] == ShardingStrategy.ZERO_2
        assert STRATEGY_TABLE[ShardingStrategy.FSDP_FULL]["zero_equivalent"] == ShardingStrategy.ZERO_3
        assert STRATEGY_TABLE[ShardingStrategy.ZERO_1]["shards"] == frozenset({"optimizer"})
        assert STRATEGY_TABLE[ShardingStrategy.FSDP_HYBRID]["zero_equivalent"] is None

    def test_total_multiplier_near_twelve(self):
        assert TrainingMemoryModel().total_multiplier() == pytest.approx(12.0)

    def test_sharding_reduces_memory_monotonically(self):
        model = TrainingMemoryModel()
        params = 2.5e9
        ddp = model.per_gpu_bytes(params, ShardingStrategy.DDP, 64)
        z1 = model.per_gpu_bytes(params, ShardingStrategy.ZERO_1, 64)
        z2 = model.per_gpu_bytes(params, ShardingStrategy.ZERO_2, 64)
        z3 = model.per_gpu_bytes(params, ShardingStrategy.ZERO_3, 64)
        assert ddp > z1 > z2 > z3

    def test_large_model_needs_sharding(self):
        """A 2.5B-parameter ViT under plain DDP leaves no activation headroom on a 64 GB GCD."""
        model = TrainingMemoryModel()
        ddp_bytes = model.per_gpu_bytes(2.5e9, ShardingStrategy.DDP, 64)
        assert ddp_bytes > 0.8 * 64 * 2.0**30
        zero3_bytes = model.per_gpu_bytes(2.5e9, ShardingStrategy.ZERO_3, 64)
        assert zero3_bytes < 10 * 2.0**30
        assert model.fits_on_gpu(2.5e9, ShardingStrategy.ZERO_3, 64)

    def test_hybrid_shards_within_group(self):
        model = TrainingMemoryModel()
        full = model.per_gpu_bytes(1e9, ShardingStrategy.FSDP_FULL, 64)
        hybrid = model.per_gpu_bytes(1e9, ShardingStrategy.FSDP_HYBRID, 64, hybrid_group_size=8)
        assert hybrid > full

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingMemoryModel().per_gpu_bytes(1e6, ShardingStrategy.DDP, 0)


class TestStrategies:
    def test_bucketize(self):
        assert bucketize(450.0, 200.0) == [200.0, 200.0, 50.0]
        assert bucketize(0.0, 100.0) == []
        with pytest.raises(ValueError):
            bucketize(10.0, 0.0)

    @pytest.mark.parametrize("n_gpus", [2, 64, 1024])
    @pytest.mark.parametrize("param_bytes", [1000 * MB, 1234.5 * MB])
    def test_comm_event_volumes(self, param_bytes, n_gpus):
        ddp_vol = sum(e.total_bytes for e in DataParallel(bucket_bytes=200 * MB).comm_events(param_bytes, n_gpus))
        z2_vol = sum(e.total_bytes for e in ZeROParallel(2).comm_events(param_bytes, n_gpus))
        z3_vol = sum(e.total_bytes for e in ZeROParallel(3).comm_events(param_bytes, n_gpus))
        full = sum(e.total_bytes for e in FSDPParallel("full_shard").comm_events(param_bytes, n_gpus))
        grad_op = sum(e.total_bytes for e in FSDPParallel("shard_grad_op").comm_events(param_bytes, n_gpus))
        hybrid = sum(e.total_bytes for e in FSDPParallel("hybrid_shard").comm_events(param_bytes, n_gpus))
        assert ddp_vol == pytest.approx(param_bytes)
        assert z2_vol == pytest.approx(2 * param_bytes)
        assert z3_vol == pytest.approx(3 * param_bytes)
        # FSDP full_shard carries ~50 % more traffic than shard_grad_op (§III-B b).
        assert full == pytest.approx(1.5 * grad_op)
        # hybrid_shard: gather + scatter inside a node (group of 8), plus an
        # AllReduce of P/group across nodes once the job spans more than one.
        group = min(n_gpus, 8)
        cross_node = param_bytes / group if n_gpus > group else 0.0
        assert hybrid == pytest.approx(2 * param_bytes + cross_node)

    @pytest.mark.parametrize(
        "strategy",
        [
            DataParallel(),
            ZeROParallel(1),
            ZeROParallel(2),
            ZeROParallel(3),
            FSDPParallel(),
            FSDPParallel("shard_grad_op"),
            FSDPParallel("hybrid_shard"),
        ],
        ids=lambda s: s.name,
    )
    def test_single_gpu_needs_no_communication(self, strategy):
        assert strategy.comm_events(1e9, 1) == []

    def test_strategy_metadata(self):
        assert ZeROParallel(1).strategy == ShardingStrategy.ZERO_1
        assert FSDPParallel("hybrid_shard").strategy == ShardingStrategy.FSDP_HYBRID
        with pytest.raises(ValueError):
            ZeROParallel(4)
        with pytest.raises(ValueError):
            FSDPParallel("bogus")


class TestTrainerSimulator:
    def setup_method(self):
        self.sim = DistributedTrainingSimulator()

    def _efficiency(self, vit, gpu_counts, strategy):
        """Fig. 9 efficiency per GPU count, from the strong-scaling harness."""
        points = strong_scaling_study(vit, {"s": strategy}, gpu_counts, simulator=self.sim)
        return {p.n_gpus: p.efficiency for p in points}

    def test_breakdown_fractions_sum_to_one(self):
        run = TrainingRunConfig(vit=TABLE_II_PRESETS[128], n_gpus=1024)
        bd = self.sim.step_breakdown(run, ZeROParallel(1))
        assert sum(bd.fractions().values()) == pytest.approx(1.0)
        assert bd.compute > 0 and bd.io > 0 and bd.total_comm > 0

    def test_auto_micro_batch_matches_memory_rule(self):
        assert TrainingRunConfig(vit=TABLE_II_PRESETS[64], n_gpus=8).per_gpu_batch == 8
        assert TrainingRunConfig(vit=TABLE_II_PRESETS[256], n_gpus=8).per_gpu_batch == 1

    def test_efficiency_decreases_with_scale(self):
        effs = self._efficiency(TABLE_II_PRESETS[128], [8, 64, 1024], ZeROParallel(1))
        assert effs[8] == pytest.approx(1.0)
        assert effs[1024] <= effs[64] <= 1.0

    def test_fig9_128_scales_best(self):
        """The 128² / 1.2B configuration achieves the best scaling efficiency (Fig. 9)."""
        strategy = ZeROParallel(1, bucket_bytes=500 * MB)
        eff = {
            size: self._efficiency(cfg, [8, 1024], strategy)[1024]
            for size, cfg in TABLE_II_PRESETS.items()
        }
        assert eff[128] > eff[64]
        assert eff[128] > eff[256]
        assert 0.80 <= eff[128] <= 0.95

    def test_fig9_bucket_tuning_helps_256(self):
        small_bucket = self._efficiency(TABLE_II_PRESETS[256], [8, 1024], ZeROParallel(1, 200 * MB))[1024]
        tuned_bucket = self._efficiency(TABLE_II_PRESETS[256], [8, 1024], ZeROParallel(1, 500 * MB))[1024]
        assert tuned_bucket > small_bucket

    def test_fig9_fsdp_full_worst(self):
        strategies = {
            "zero1": ZeROParallel(1, 500 * MB),
            "fsdp_full": FSDPParallel("full_shard"),
            "fsdp_grad_op": FSDPParallel("shard_grad_op"),
        }
        eff = {
            name: self._efficiency(TABLE_II_PRESETS[256], [8, 1024], s)[1024]
            for name, s in strategies.items()
        }
        assert eff["fsdp_full"] < eff["fsdp_grad_op"]
        assert eff["fsdp_full"] < eff["zero1"]

    def test_fig7_comm_fraction_ordering(self):
        """64² and 256² spend a larger communication share than 128² at 1024 GPUs."""
        fracs = {
            size: self.sim.step_breakdown(
                TrainingRunConfig(vit=cfg, n_gpus=1024), ZeROParallel(1)
            ).fractions()
            for size, cfg in TABLE_II_PRESETS.items()
        }
        assert fracs[64]["communication"] > fracs[128]["communication"]
        assert fracs[256]["communication"] > fracs[128]["communication"]
        for size in fracs:
            assert fracs[size]["io"] < 0.15

    def test_memory_per_gpu_decreases_with_sharding(self):
        run = TrainingRunConfig(vit=TABLE_II_PRESETS[256], n_gpus=64)
        params = vit_parameter_count(run.vit)
        activations = {
            "n_tokens": run.per_gpu_batch * run.vit.n_patches,
            "depth": run.vit.depth,
            "embed_dim": run.vit.embed_dim,
        }
        memory = TrainingMemoryModel()
        ddp = memory.per_gpu_bytes(params, DataParallel().strategy, run.n_gpus, **activations)
        z3 = memory.per_gpu_bytes(params, ZeROParallel(3).strategy, run.n_gpus, **activations)
        assert z3 < ddp

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            TrainingRunConfig(vit=TABLE_II_PRESETS[64], n_gpus=0)
        with pytest.raises(ValueError):
            TrainingRunConfig(vit=TABLE_II_PRESETS[64], n_gpus=8, micro_batch=0)


class TestCostModelSurface:
    """``repro.hpc`` holds one model of distributed training: each strategy
    is the collectives it issues (``comm_events``), and the simulator prices
    them.  An executable strategy path or a second efficiency computation
    can only come back by editing this census."""

    STRATEGY_SURFACE = {"comm_events", "name", "strategy"}
    SIMULATOR_METHODS = {
        "compute_time",
        "comm_times",
        "io_time",
        "step_breakdown",
        "step_time",
        "throughput",
    }

    @staticmethod
    def _public(cls) -> set[str]:
        return {name for name in dir(cls) if not name.startswith("_")}

    @pytest.mark.parametrize("cls", [DataParallel, ZeROParallel, FSDPParallel], ids=lambda c: c.__name__)
    def test_strategies_expose_only_comm_events(self, cls):
        assert self._public(cls) == self.STRATEGY_SURFACE

    def test_simulator_methods(self):
        assert self._public(DistributedTrainingSimulator) == self.SIMULATOR_METHODS

    def test_no_simulated_mpi_module(self):
        assert importlib.util.find_spec("repro.hpc.comm") is None


class TestScalingHarness:
    def test_strong_scaling_study_structure(self):
        points = strong_scaling_study(
            laptop_preset(image_size=64, patch_size=4),
            {"ddp": DataParallel(), "zero1": ZeROParallel(1)},
            [8, 64],
        )
        assert len(points) == 4
        assert {p.strategy for p in points} == {"ddp", "zero1"}
        assert all(p.efficiency <= 1.0 + 1e-9 for p in points)

    def test_weak_scaling_ensf_is_flat(self):
        """EnSF weak scaling: time at 1024 ranks stays close to the single-rank time (Fig. 10)."""
        points = weak_scaling_ensf(
            dimensions=[1.0e5],
            gpu_counts=[1, 64, 1024],
            ensemble_size=10,
            n_sde_steps=10,
            measured_dimension=20_000,
        )
        times = {p.n_gpus: p.time_per_step for p in points}
        assert times[1024] <= 1.5 * times[1]

    def test_weak_scaling_dimension_scaling_linear(self):
        points = weak_scaling_ensf(
            dimensions=[1.0e5, 1.0e6],
            gpu_counts=[8],
            ensemble_size=10,
            n_sde_steps=10,
            measured_dimension=20_000,
        )
        t = {p.dimension_per_rank: p.time_per_step for p in points}
        assert t[1.0e6] > 5.0 * t[1.0e5]

    def test_ensemble_slices_cover_everything(self):
        slices = ensemble_slices(20, 6)
        covered = sorted(i for s in slices for i in range(s.start, s.stop))
        assert covered == list(range(20))
        assert max(s.stop - s.start for s in slices) - min(s.stop - s.start for s in slices) <= 1
        with pytest.raises(ValueError):
            ensemble_slices(0, 4)

    def test_executor_serial_matches_direct_forecast(self):
        model = Lorenz96(dim=12)
        ens = np.random.default_rng(0).normal(size=(6, 12)) + 8.0
        executor = EnsembleExecutor(n_workers=1)
        out = executor.map_states(model, ens, n_steps=3)
        assert np.allclose(out, model.forecast(ens, n_steps=3))

    def test_executor_parallel_matches_serial(self):
        model = Lorenz96(dim=12)
        ens = np.random.default_rng(1).normal(size=(8, 12)) + 8.0
        parallel = EnsembleExecutor(n_workers=2, min_members_per_worker=1)
        out = parallel.map_states(model, ens, n_steps=2)
        assert np.allclose(out, model.forecast(ens, n_steps=2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_workers=0),
            dict(min_members_per_worker=0),
            dict(max_retries=-1),
            dict(retry_backoff_s=-0.01),
            dict(task_deadline_s=0),
            dict(task_deadline_s=-1.0),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_executor_validation(self, kwargs):
        """Parameters that would break the first gather (a zero chunk size
        divides by zero, a zero deadline kills every pool attempt) are
        refused at construction."""
        with pytest.raises(ValueError):
            EnsembleExecutor(**{"n_workers": 2, **kwargs})

    def test_map_states_rejects_a_flat_ensemble(self):
        executor = EnsembleExecutor(n_workers=2)
        with pytest.raises(ValueError):
            executor.map_states(Lorenz96(dim=8), np.zeros(8))

    def test_executor_reuses_pool_across_calls(self):
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(3).normal(size=(4, 8)) + 8.0
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
            executor.map_states(model, ens, n_steps=1)
            pool = executor._pool
            assert pool is not None
            executor.map_states(model, ens, n_steps=1)
            assert executor._pool is pool  # same pool, no per-call respawn
        assert executor._pool is None  # context exit released the workers

    def test_wider_gather_never_waits_for_a_narrower_one(self):
        """The pool is built once at ``n_workers``: a 2-worker gather behind a
        1-worker user neither rebuilds it nor waits for the slow task on it."""
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as executor:
            ended = []
            slow = threading.Thread(
                target=lambda: ended.append(executor.run_task(_stamped_sleep, (0, 0.5)))
            )
            slow.start()
            while executor._pool is None:
                time.sleep(0.001)
            pool = executor._pool
            results = executor.map_blocks(_stamped_sleep, [(1, 0.0), (2, 0.0)])
            assert not ended  # growing the pool used to shut it down, waiting for this
            assert executor._pool is pool
            slow.join(timeout=30)
        assert [r[0] for r in results] == [1, 2] and ended[0][0] == 0

    def test_run_task_runs_on_a_worker_and_skips_the_gather_machinery(self, gathers):
        with EnsembleExecutor(n_workers=2, fault_plan=FaultPlan()) as executor:
            pid, out = executor.run_task(_pid_negative, np.arange(3.0))
            assert pid != os.getpid()
            np.testing.assert_array_equal(out, -np.arange(3.0))
            with pytest.raises(KeyError, match="genuine job bug"):
                executor.run_task(_raise_key_error, 0)
            assert gathers == [] and len(executor.fault_log) == 0
        # one worker means no pool, here as in every other entry
        assert EnsembleExecutor(n_workers=1).run_task(_pid_negative, np.ones(1))[0] == os.getpid()

    def test_run_task_reports_a_dead_worker_and_the_next_call_heals(self):
        from concurrent.futures.process import BrokenProcessPool

        with EnsembleExecutor(n_workers=2, fault_plan=FaultPlan()) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.run_task(os._exit, 3)
            assert executor._pool is None  # dropped, not retried: the caller's policy
            assert executor.fault_log.count(action="pool-rebuild") == 1
            assert executor.run_task(_pid_negative, np.ones(1))[0] != os.getpid()

    def test_map_blocks_preserves_order(self):
        jobs = [np.full(3, i, dtype=float) for i in range(7)]
        with EnsembleExecutor(n_workers=2) as executor:
            results = executor.map_blocks(np.negative, jobs)
        for i, out in enumerate(results):
            assert np.array_equal(out, -jobs[i])
        assert EnsembleExecutor(n_workers=4).map_blocks(np.negative, []) == []

    def test_map_blocks_single_job_runs_in_process(self):
        executor = EnsembleExecutor(n_workers=4)
        results = executor.map_blocks(np.negative, [np.ones(2)])
        assert executor._pool is None  # one job => serial fallback, no pool
        assert np.array_equal(results[0], -np.ones(2))

    def test_executor_drops_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.hpc.ensemble_parallel import ShardRetryError

        # With the retry budget exhausted the failure surfaces as
        # ShardRetryError (chaining the BrokenProcessPool) and the dead pool
        # must not poison the next call.
        executor = EnsembleExecutor(
            n_workers=2, min_members_per_worker=1, max_retries=0, retry_backoff_s=0.0
        )

        class _DeadPool:
            def submit(self, fn, *args):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *a, **k):
                pass

        executor._pool = _DeadPool()
        with pytest.raises(ShardRetryError) as excinfo:
            executor._gather(np.negative, [np.ones(2), np.ones(2)], workers=2)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert executor._pool is None

    def test_executor_rebuilds_broken_pool_transparently(self):
        from concurrent.futures.process import BrokenProcessPool

        # With retries left, a dead pool is replaced and the shards are
        # recomputed on the fresh pool — the caller never sees the failure.
        executor = EnsembleExecutor(n_workers=2, min_members_per_worker=1, retry_backoff_s=0.0)

        class _DeadPool:
            def submit(self, fn, *args):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *a, **k):
                pass

        executor._pool = _DeadPool()
        try:
            results = executor.map_blocks(np.negative, [np.ones(2), np.full(2, 2.0)])
            np.testing.assert_array_equal(results[0], -np.ones(2))
            np.testing.assert_array_equal(results[1], np.full(2, -2.0))
            assert executor.fault_log.count(action="retry") == 1
            assert executor.fault_log.count(action="pool-rebuild") == 1
        finally:
            executor.close()


class TestRetryBackoffJitter:
    """Retry delays are exponential with multiplicative jitter drawn from a
    dedicated rng — never from an experiment stream, so healing a fault can
    never shift scientific results."""

    def test_delay_bounds_and_exponential_growth(self):
        executor = EnsembleExecutor(n_workers=2, retry_backoff_s=0.2, backoff_seed=0)
        try:
            for attempt in (1, 2, 3):
                base = 0.2 * 2 ** (attempt - 1)
                delays = [executor._retry_delay(attempt) for _ in range(200)]
                assert all(0.5 * base <= d <= 1.5 * base for d in delays)
                # jitter actually varies (not a constant factor)
                assert max(delays) - min(delays) > 0.1 * base
        finally:
            executor.close()

    def test_backoff_seed_reproducible_and_isolated(self):
        a = EnsembleExecutor(n_workers=2, retry_backoff_s=0.1, backoff_seed=7)
        b = EnsembleExecutor(n_workers=2, retry_backoff_s=0.1, backoff_seed=7)
        try:
            assert [a._retry_delay(1) for _ in range(16)] == [
                b._retry_delay(1) for _ in range(16)
            ]
        finally:
            a.close()
            b.close()

    def test_zero_backoff_stays_zero(self):
        executor = EnsembleExecutor(n_workers=2, retry_backoff_s=0.0, backoff_seed=1)
        try:
            assert executor._retry_delay(1) == 0.0
            assert executor._retry_delay(4) == 0.0
        finally:
            executor.close()


class TestExecutorSurface:
    """The executor's public surface, counted by CI: one executor, one way to
    call each entry.  A per-call override or a pool-mode option can only come
    back by editing this census, the way ``TestKnobCensus`` guards the
    ``REPRO_*`` variables."""

    PARAMETERS = {
        "__init__": [
            "n_workers",
            "min_members_per_worker",
            "max_retries",
            "retry_backoff_s",
            "task_deadline_s",
            "fault_plan",
            "fault_log",
            "backoff_seed",
        ],
        "map_blocks": ["fn", "jobs"],
        "map_states": ["model", "ensemble", "n_steps"],
        "run_task": ["fn", "args"],
    }

    def test_module_exports(self):
        assert ensemble_parallel.__all__ == [
            "ensemble_slices",
            "EnsembleExecutor",
            "ShardRetryError",
        ]

    def test_entry_point_parameters(self):
        for name, expected in self.PARAMETERS.items():
            params = inspect.signature(getattr(EnsembleExecutor, name)).parameters
            assert list(params) == ["self", *expected], name


class TestCyclingSurface:
    """Parameter counts of the cycling entry points, a ratchet toward the
    ROADMAP's ``run_osse`` <= 11: a count may fall here, never rise."""

    COUNTS = {"run_osse": 17, "free_run": 4, "CycleEngine": 12}

    def test_parameter_counts(self):
        from repro.da import cycling
        from repro.workflow.engine import CycleEngine

        entries = {
            "run_osse": cycling.run_osse,
            "free_run": cycling.free_run,
            "CycleEngine": CycleEngine.__init__,
        }
        for name, fn in entries.items():
            params = [p for p in inspect.signature(fn).parameters if p != "self"]
            assert len(params) == self.COUNTS[name], (name, params)
            assert "recorder" not in params, name

    def test_osse_config_field_count(self):
        """A run's protocol and policies live on one frozen config; its
        field count may fall here, never rise."""
        from repro.da.cycling import OSSEConfig

        assert len(dataclasses.fields(OSSEConfig)) == 8


class TestExecutorFaultLedger:
    """One plan, one log per executor: every gather draws its injected faults
    from :attr:`fault_plan` and records its recoveries in :attr:`fault_log`."""

    def test_caller_supplied_log_receives_every_recovery(self):
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(5).normal(size=(4, 8)) + 8.0
        log = FaultLog()
        plan = FaultPlan.from_spec("worker-crash@executor:0")
        with EnsembleExecutor(
            n_workers=1, retry_backoff_s=0.0, fault_plan=plan, fault_log=log
        ) as executor:
            out = executor.map_states(model, ens, n_steps=2)
            np.testing.assert_array_equal(out, model.forecast(ens, n_steps=2))
            assert executor.fault_log is log
            # the injected crash healed, and the caller's log saw it
            assert log.count(action="retry") == 1

    def test_plan_comes_from_the_environment_unless_given(self, monkeypatch):
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(6).normal(size=(3, 8)) + 8.0
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        unset = EnsembleExecutor(n_workers=1, retry_backoff_s=0.0)
        assert unset.fault_plan is None  # nothing to visit: no faults
        unset.map_states(model, ens, n_steps=1)
        assert len(unset.fault_log) == 0

        monkeypatch.setenv("REPRO_FAULT_PLAN", "worker-crash@executor:0")
        from_env = EnsembleExecutor(n_workers=1, retry_backoff_s=0.0)
        from_env.map_states(model, ens, n_steps=1)
        assert from_env.fault_log.count(action="retry") == 1
        # an explicit (empty) plan overrides the environment
        explicit = EnsembleExecutor(n_workers=1, retry_backoff_s=0.0, fault_plan=FaultPlan())
        explicit.map_states(model, ens, n_steps=1)
        assert len(explicit.fault_log) == 0

    def test_one_site_counter_across_entry_points(self):
        """map_states and map_blocks visit the same ``executor`` site once per
        attempt; run_task visits none, so it never shifts a plan."""
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(7).normal(size=(4, 8)) + 8.0
        jobs = [np.arange(3.0) + i for i in range(3)]
        plan = FaultPlan.from_spec("worker-crash@executor:1")
        with EnsembleExecutor(n_workers=1, retry_backoff_s=0.0, fault_plan=plan) as ex:
            assert ex.run_task(np.negative, np.ones(2)).tolist() == [-1.0, -1.0]
            assert plan.visits("executor") == 0
            forecast = ex.map_states(model, ens, n_steps=1)  # visit 0: clean
            assert len(ex.fault_log) == 0
            healed = ex.map_blocks(np.negative, jobs)  # visit 1 crashes, visit 2 heals
            assert plan.visits("executor") == 3
            assert ex.fault_log.count(action="retry") == 1
        np.testing.assert_array_equal(forecast, model.forecast(ens, n_steps=1))
        for out, job in zip(healed, jobs):
            np.testing.assert_array_equal(out, -job)


def _realtime_ensf(executor=None, seed=0):
    """A 3-cycle, 8-member real-time EnSF run on a 64-variable Lorenz-96:
    its result and the filter whose stream drew the analysis noise."""
    model = Lorenz96(dim=64)
    truth0 = model.spinup(100, rng=0)
    ensf = EnSF(EnSFConfig(n_sde_steps=6), rng=SeedSequenceFactory(seed).rng("ensf"))
    ens0 = truth0[None, :] + np.random.default_rng(1).standard_normal((8, 64))
    config = OSSEConfig(
        n_cycles=3, steps_per_cycle=2, ensemble_size=8, seed=seed,
        apply_model_error_to_truth=False,
    )
    result = run_osse(
        model, model, ensf, IdentityObservation(64, 1.0), truth0, config,
        initial_ensemble=ens0, executor=executor,
    )
    return result, ensf


def _assert_same_run(got, want):
    for key in ("analysis_rmse", "forecast_rmse", "analysis_spread", "analysis_mean_final"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key))


class TestParallelAnalysis:
    """An executor shards the forecast; every analysis runs in-process."""

    def test_ensf_executor_worker_count_invariant(self, array_backend):
        """No executor and n_workers ∈ {1, 2, 4} give bit-identical EnSF
        runs under every array backend: the analysis draws from the
        filter's own stream wherever the forecast ran."""
        serial, filt = _realtime_ensf()
        assert filt.sampler.xp is array_backend
        for n_workers in (1, 2, 4):
            with EnsembleExecutor(n_workers=n_workers, min_members_per_worker=1) as ex:
                _assert_same_run(_realtime_ensf(ex)[0], serial)

    def test_ensf_executor_slice_layout_invariant(self):
        """min_members_per_worker only regroups forecast members; the EnSF
        run must not move."""
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as fine:
            a, _ = _realtime_ensf(fine)
        with EnsembleExecutor(n_workers=2, min_members_per_worker=100) as coarse:
            b, _ = _realtime_ensf(coarse)
        _assert_same_run(a, b)

    def test_ensf_executor_seed_semantics(self):
        """Under an executor the root seed alone picks the analysis noise:
        the same root reproduces, another differs, and the filter's stream
        ends where the serial run leaves it (the executor draws nothing)."""
        executor = EnsembleExecutor(n_workers=1)
        base, filt = _realtime_ensf(executor, seed=1)
        again, _ = _realtime_ensf(executor, seed=1)
        other, _ = _realtime_ensf(executor, seed=2)
        _assert_same_run(base, again)
        assert np.all(base.analysis_rmse != other.analysis_rmse)
        _, serial_filt = _realtime_ensf(seed=1)
        assert filt.rng.bit_generator.state == serial_filt.rng.bit_generator.state

    def test_run_osse_analysis_executor_matches_serial(self):
        """An executor handed to an LETKF OSSE shards its forecasts and
        leaves the in-process analysis alone: the cycling results do not
        change (worker-invariance end to end)."""
        grid = Grid2D(8, 8)
        model = Lorenz96(dim=grid.size)
        truth0 = np.random.default_rng(2).standard_normal(grid.size)
        operator = IdentityObservation(grid.size, 1.0)
        config = OSSEConfig(n_cycles=2, steps_per_cycle=1, ensemble_size=6, seed=0)
        letkf_cfg = LETKFConfig(cutoff=4.0e6, shard_columns=32)
        serial = run_osse(
            model, model, LETKF(grid, letkf_cfg), operator, truth0, config
        )
        with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
            parallel = run_osse(
                model, model, LETKF(grid, letkf_cfg), operator, truth0, config,
                executor=ex,
            )
        np.testing.assert_allclose(
            parallel.analysis_mean_final, serial.analysis_mean_final, atol=1e-11
        )
        np.testing.assert_allclose(
            parallel.analysis_rmse, serial.analysis_rmse, atol=1e-11
        )


# Module-level worker functions: pool workers resolve them by reference.
def _stamped_sleep(job):
    """Sleep, then report (index, pid, start, end, value) for occupancy proofs."""
    idx, delay = job
    start = time.monotonic()
    time.sleep(delay)
    return (idx, os.getpid(), start, time.monotonic(), float(idx) * 3.0 + 1.0)


def _payload_checksum(job):
    """Deterministic reduction over a (tag, array, array) work-unit."""
    tag, a, b = job
    return float(tag) + float(np.sum(a * 1.5)) + float(np.sum(b[::2]))


def _pid_negative(job):
    """``-job`` plus the pid that computed it (which process ran it)."""
    return os.getpid(), np.negative(job)


def _pid(job):
    """The pid of the process that ran the work-unit."""
    return os.getpid()


def _raise_key_error(job):
    raise KeyError("genuine job bug")


def _forecast_rows(job):
    """Forecast one slice of rows of a broadcast ensemble."""
    model, ensemble, rows = job
    return model.forecast(ensemble[rows], n_steps=2)


class TestGatherRouting:
    """A gather's route is its worker count: one worker runs in-process,
    anything wider ships to the pool every time — and which side ran it can
    never be read off the result."""

    def _cases(self):
        from repro.models.sqg import SQGModel, SQGParameters

        l96 = Lorenz96(dim=12)
        l96_ens = np.random.default_rng(0).normal(size=(8, 12)) + 8.0
        sqg = SQGModel(SQGParameters(nx=16, ny=16))
        sqg_ens = np.stack(
            [sqg.flatten(sqg.random_initial_condition(rng=i)) for i in range(4)]
        )
        blocks = [np.arange(5.0) + i for i in range(4)]
        # every work-unit carries the whole ensemble and forecasts its rows
        broadcast = [(l96, l96_ens, rows) for rows in ensemble_slices(8, 3)]
        return {
            "map_states-l96": lambda ex: ex.map_states(l96, l96_ens, n_steps=2),
            "map_states-sqg": lambda ex: ex.map_states(sqg, sqg_ens, n_steps=2),
            "map_blocks": lambda ex: np.stack(ex.map_blocks(np.negative, blocks)),
            "map_blocks-broadcast": lambda ex: np.concatenate(
                ex.map_blocks(_forecast_rows, broadcast)
            ),
        }

    def test_results_identical_in_process_and_on_the_pool(self, gathers):
        cases = self._cases()
        for name, call in cases.items():
            serial = call(EnsembleExecutor(n_workers=1))
            with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
                shipped = call(ex)
            np.testing.assert_array_equal(shipped, serial, err_msg=name)
        assert [workers for *_, workers in gathers] == [1, 2] * len(cases)

    def test_cheap_work_keeps_landing_on_a_worker(self):
        """Repeating a gather never moves it into the parent, however cheap."""
        with EnsembleExecutor(n_workers=2) as ex:
            for _ in range(5):
                pids = ex.map_blocks(_pid, [0, 1])
                assert os.getpid() not in pids

    @pytest.mark.parametrize("n_workers", [2, 1], ids=["shipped", "in-process"])
    def test_job_function_errors_propagate_unwrapped(self, n_workers):
        with EnsembleExecutor(n_workers=n_workers, fault_plan=FaultPlan()) as ex:
            with pytest.raises(KeyError, match="genuine job bug"):
                ex.map_blocks(_raise_key_error, [0, 1])
            assert len(ex.fault_log) == 0

    def test_concurrent_gathers_share_one_pool(self, gathers):
        """Threads sharing one executor: every gather ships and returns its
        own bits."""
        model = Lorenz96(dim=12)
        ens = np.random.default_rng(2).normal(size=(8, 12)) + 8.0
        expected = model.forecast(ens, n_steps=1)
        n_threads, n_gathers = 6, 25
        failures = []

        def work(ex, name):
            for _ in range(n_gathers):
                if not np.array_equal(ex.map_states(model, ens, n_steps=1), expected):
                    failures.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with EnsembleExecutor(n_workers=2, fault_plan=FaultPlan()) as ex:
                threads = [
                    threading.Thread(target=work, args=(ex, f"t{i}")) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert gathers == [("_forecast_chunk", 2, 2)] * (n_threads * n_gathers)


def _max_overlap(spans) -> int:
    """Most ``[start, end)`` spans open at one instant."""
    events = sorted([(s, 1) for s, _ in spans] + [(e, -1) for _, e in spans])
    open_, most = 0, 0
    for _, step in events:  # at a tie the end (-1) sorts first
        open_ += step
        most = max(most, open_)
    return most


class TestInFlightBound:
    """A gather keeps at most ``workers`` shards in flight on the shared pool;
    the bound caps concurrency, never the decomposition or the results."""

    def test_in_flight_shards_never_exceed_the_gathers_workers(self):
        """Proven from worker-side [start, end) stamps on a pool wider than
        the gather: two shards run together, never three."""
        jobs = [(i, 0.1) for i in range(6)]
        with EnsembleExecutor(n_workers=3) as ex:
            results = ex._gather(_stamped_sleep, jobs, workers=2)
        assert os.getpid() not in {r[1] for r in results}
        assert _max_overlap([(r[2], r[3]) for r in results]) == 2
        assert [r[::4] for r in results] == [(i, float(i) * 3.0 + 1.0) for i in range(6)]

    def test_concurrent_gather_is_not_queued_behind_all_of_anothers_shards(self):
        """A gather submits only while fewer than ``workers`` of its shards are
        in flight, so a later gather's shards reach a worker before the
        earlier gather's queued ones (submitting all four at once would drain
        them first)."""
        long_jobs = [(i, 0.3) for i in range(4)]
        late_jobs = [(20 + i, 0.3) for i in range(2)]
        with EnsembleExecutor(n_workers=2) as ex:
            ex.run_task(time.sleep, 0.0)  # start the workers before the clock matters
            results = {}
            barrier = threading.Barrier(2)

            def run(name, jobs, delay):
                barrier.wait()
                time.sleep(delay)
                results[name] = ex.map_blocks(_stamped_sleep, jobs)

            threads = [
                threading.Thread(target=run, args=("long", long_jobs, 0.0)),
                threading.Thread(target=run, args=("late", late_jobs, 0.1)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert set(results) == {"long", "late"}
        long_starts = sorted(r[2] for r in results["long"])
        late_first = min(r[2] for r in results["late"])
        assert late_first < long_starts[-1]
        # The pool's two processes bound both gathers together.
        spans = [(r[2], r[3]) for rs in results.values() for r in rs]
        assert _max_overlap(spans) <= 2
        assert [r[::4] for r in results["long"]] == [
            (i, float(i) * 3.0 + 1.0) for i in range(4)
        ]
        assert [r[::4] for r in results["late"]] == [
            (20 + i, float(20 + i) * 3.0 + 1.0) for i in range(2)
        ]

    def test_forecasts_bit_identical_across_worker_counts(self):
        """The bound caps concurrency, never the result: any ``n_workers``
        yields bit-identical forecasts through a real pool."""
        model = Lorenz96(dim=64)
        ens = np.random.default_rng(9).normal(size=(8, 64)) + 8.0
        results = []
        for n_workers in (1, 2, 3):
            with EnsembleExecutor(n_workers=n_workers, min_members_per_worker=1) as ex:
                results.append(ex.map_states(model, ens, n_steps=3))
        for got in results:
            np.testing.assert_array_equal(got, model.forecast(ens, n_steps=3))

    def test_results_bit_identical_ensf_across_worker_counts(self):
        """The bound caps concurrency, never the decomposition: an EnSF
        OSSE whose forecasts go through a real pool of any ``n_workers``
        is the serial one, bit for bit."""
        grid = Grid2D(8, 8)
        model = Lorenz96(dim=grid.size)
        truth0 = model.spinup(100, rng=4)
        operator = IdentityObservation(grid.size, 1.0)
        config = OSSEConfig(n_cycles=3, steps_per_cycle=2, ensemble_size=8, seed=5)

        def osse(executor=None):
            filt = EnSF(EnSFConfig(n_sde_steps=6), rng=9)
            return run_osse(model, model, filt, operator, truth0, config, executor=executor)

        serial = osse()
        for n_workers in (1, 2, 3):
            with EnsembleExecutor(n_workers=n_workers, min_members_per_worker=1) as ex:
                got = osse(ex)
            np.testing.assert_array_equal(got.analysis_rmse, serial.analysis_rmse)
            np.testing.assert_array_equal(got.analysis_mean_final, serial.analysis_mean_final)

    def test_single_worker_executor_runs_everything_in_process(self):
        """One worker buys no overlap: every entry runs here and no pool is
        built."""
        jobs = [np.full(3, float(i)) for i in range(4)]
        model = Lorenz96(dim=8)
        ens = np.random.default_rng(8).normal(size=(4, 8)) + 8.0
        with EnsembleExecutor(n_workers=1, min_members_per_worker=1) as ex:
            for _ in range(3):
                run = ex.map_blocks(_pid_negative, jobs)
                assert {pid for pid, _ in run} == {os.getpid()}
                for (_, out), job in zip(run, jobs):
                    np.testing.assert_array_equal(out, -job)
            np.testing.assert_array_equal(
                ex.map_states(model, ens, n_steps=2), model.forecast(ens, n_steps=2)
            )
            assert ex._pool is None

    def test_close_is_idempotent_and_the_executor_reopens(self):
        jobs = [(i, 0.0) for i in range(2)]
        with EnsembleExecutor(n_workers=2) as ex:
            first = ex.map_blocks(_stamped_sleep, jobs)
            pool = ex._pool
            assert pool is not None
            ex.close()
            ex.close()  # idempotent
            assert ex._pool is None
            again = ex.map_blocks(_stamped_sleep, jobs)  # a fresh pool, lazily
            assert ex._pool is not None and ex._pool is not pool
        assert ex._pool is None  # context exit released the workers
        assert [r[::4] for r in again] == [r[::4] for r in first]


class TestSharedMemoryPayloads:
    """Shm shard transport: bit-parity with pickle, tiny wire size, no leaks."""

    def _jobs(self, n=5, side=220):
        rng = np.random.default_rng(7)
        shared = rng.standard_normal((side, side))  # broadcast across work-units
        return [(i, shared, rng.standard_normal((side, side))) for i in range(n)]

    def test_shm_vs_pickle_bit_parity_through_real_pools(self, monkeypatch):
        jobs = self._jobs()
        with EnsembleExecutor(n_workers=1) as ex:
            serial = ex.map_blocks(_payload_checksum, jobs)
        for n_workers in (2, 4):
            with EnsembleExecutor(n_workers=n_workers) as ex:
                via_shm = ex.map_blocks(_payload_checksum, jobs)
            with monkeypatch.context() as patch:
                patch.setattr(ensemble_parallel, "HAVE_SHM", False)
                with EnsembleExecutor(n_workers=n_workers) as ex:
                    via_pickle = ex.map_blocks(_payload_checksum, jobs)
            assert via_shm == via_pickle == serial

    def test_broadcast_forecast_bit_identical_under_shm(self, monkeypatch):
        """Every work-unit carries one ensemble of ``_SHM_MIN_BYTES`` and
        forecasts its own rows: one segment or a pickle per shard, same bits."""
        model = Lorenz96(dim=4096)
        ens = np.random.default_rng(3).normal(size=(8, 4096)) + 8.0
        assert ens.nbytes >= ensemble_parallel._SHM_MIN_BYTES
        jobs = [(model, ens, rows) for rows in ensemble_slices(8, 4)]
        segments = []
        prepare = EnsembleExecutor._prepare_payloads

        def recorded(self, jobs):
            arena, shipped, names = prepare(self, jobs)
            segments.append(len(arena))
            return arena, shipped, names

        monkeypatch.setattr(EnsembleExecutor, "_prepare_payloads", recorded)
        outs = {}
        for shm_on in (True, False):
            monkeypatch.setattr(ensemble_parallel, "HAVE_SHM", shm_on)
            with EnsembleExecutor(n_workers=2) as ex:
                outs[shm_on] = np.concatenate(ex.map_blocks(_forecast_rows, jobs))
        assert segments == [1]  # the shm run shipped the ensemble once
        np.testing.assert_array_equal(outs[True], outs[False])
        np.testing.assert_array_equal(outs[True], model.forecast(ens, n_steps=2))

    def test_ensf_bit_identical_under_shm(self, monkeypatch, gathers):
        """A pooled real-time EnSF run whose forecast slices ship as shared
        memory is the pickled run and the serial run, bit for bit."""
        monkeypatch.setattr(ensemble_parallel, "_SHM_MIN_BYTES", 1024)
        serial, _ = _realtime_ensf()
        segments = []
        prepare = EnsembleExecutor._prepare_payloads

        def recorded(self, jobs):
            arena, shipped, names = prepare(self, jobs)
            segments.append(len(arena))
            return arena, shipped, names

        monkeypatch.setattr(EnsembleExecutor, "_prepare_payloads", recorded)
        outs = {}
        for shm_on in (True, False):
            monkeypatch.setattr(ensemble_parallel, "HAVE_SHM", shm_on)
            with EnsembleExecutor(n_workers=2, min_members_per_worker=1) as ex:
                outs[shm_on], _ = _realtime_ensf(ex)
        assert gathers == [("_forecast_chunk", 2, 2)] * 6
        assert segments == [2, 2, 2]  # the shm run shipped each 4-member slice as one
        _assert_same_run(outs[True], outs[False])
        _assert_same_run(outs[True], serial)

    def test_wire_size_is_o_name_and_broadcast_dedups(self):
        from repro.hpc.shm import SharedArrayHandle

        jobs = self._jobs(n=6)
        proto = pickle.HIGHEST_PROTOCOL
        raw_bytes = len(pickle.dumps(jobs[0], protocol=proto))
        with EnsembleExecutor(n_workers=2) as ex:
            arena, shipped, names = ex._prepare_payloads(jobs)
        try:
            # Two ~380 KB arrays per work-unit collapse to two ~100 B handles.
            assert max(len(pickle.dumps(j, protocol=proto)) for j in shipped) < 512 < raw_bytes
            handles = [v for job in shipped for v in job if isinstance(v, SharedArrayHandle)]
            assert len(handles) == 12 and sum(map(len, names)) == 12
            # The broadcast array lands in ONE segment: 6 private + 1 shared.
            assert len(arena) == 7
            assert len({h.name for h in handles}) == 7
        finally:
            arena.release_all()

    def test_segments_are_released_after_the_gather(self):
        from repro.hpc.shm import SharedArrayHandle

        jobs = self._jobs(n=3)
        with EnsembleExecutor(n_workers=2) as ex:
            arena, shipped, names = ex._prepare_payloads(jobs)
            handles = [
                v for job in shipped for v in job if isinstance(v, SharedArrayHandle)
            ]
            assert handles and len(arena) > 0
            arena.release_all()
            with pytest.raises(FileNotFoundError):
                handles[0].materialize()
            # A real gather drains its own arena on the way out.
            ex.map_blocks(_payload_checksum, jobs)
            assert len(ex._arenas) == 0

    def test_serial_and_small_payloads_never_touch_shared_memory(self, monkeypatch):
        arenas = []
        prepare = EnsembleExecutor._prepare_payloads

        def recorded(self, jobs):
            arena, shipped, names = prepare(self, jobs)
            arenas.append((len(arena), sum(map(len, names))))
            return arena, shipped, names

        monkeypatch.setattr(EnsembleExecutor, "_prepare_payloads", recorded)
        small = [(i, np.ones((8, 8)), np.ones((8, 8))) for i in range(4)]
        with EnsembleExecutor(n_workers=1) as ex:
            ex.map_blocks(_payload_checksum, small)
        assert arenas == []  # in-process: no arena at all
        with EnsembleExecutor(n_workers=2) as ex:
            ex.map_blocks(_payload_checksum, small)  # all below _SHM_MIN_BYTES
        assert arenas == [(0, 0)]  # an empty arena: no segment, no handle

    def test_worker_crash_retry_heals_bit_identically_under_shm(self):
        """A crashed worker mid-gather must not invalidate retained segments:
        the retried shard re-reads the same bytes and matches the clean run."""
        jobs = self._jobs(n=4)
        plan = FaultPlan.from_spec("worker-crash@executor:0")
        with EnsembleExecutor(n_workers=2, retry_backoff_s=0.0) as ex:
            clean = ex.map_blocks(_payload_checksum, jobs)
        with EnsembleExecutor(n_workers=2, retry_backoff_s=0.0, fault_plan=plan) as ex:
            healed = ex.map_blocks(_payload_checksum, jobs)
            assert ex.fault_log.count(action="retry") == 1
            assert len(ex._arenas) == 0
        assert healed == clean


class TestGatherFreesItsInputs:
    """A gather holds its inputs only while it runs: nothing it builds forms
    a reference cycle, so with the cyclic collector off the shipped array
    still dies with its last reference, and no garbage is left to collect."""

    # route -> (HAVE_SHM, n_workers)
    ROUTES = {"shm": (True, 2), "pickle": (False, 2), "in-process": (False, 1)}

    @staticmethod
    def _map_states(ex, array):
        return ex.map_states(Lorenz96(dim=array.shape[1]), array, n_steps=1)

    @staticmethod
    def _map_blocks_broadcast(ex, array):
        small = np.arange(8.0)
        return ex.map_blocks(_payload_checksum, [(i, array, small) for i in range(4)])

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("call", ["_map_states", "_map_blocks_broadcast"])
    def test_payload_dies_without_the_collector(self, monkeypatch, gathers, route, call):
        shm, n_workers = self.ROUTES[route]
        if shm and not ensemble_parallel.HAVE_SHM:
            pytest.skip("no shared memory on this platform")
        monkeypatch.setattr(ensemble_parallel, "HAVE_SHM", shm)
        monkeypatch.setattr(ensemble_parallel, "_SHM_MIN_BYTES", 1024)
        run = getattr(self, call)
        rng = np.random.default_rng(3)
        with EnsembleExecutor(n_workers=n_workers, min_members_per_worker=1) as ex:
            run(ex, rng.normal(size=(8, 40)) + 8.0)  # spawns the pool
            array = rng.normal(size=(8, 40)) + 8.0
            gc.collect()
            gc.disable()
            try:
                ref = weakref.ref(array)
                run(ex, array)
                del array
                # A pool thread may hold the last work item for a moment
                # after its future resolved; a cycle would hold it for good.
                deadline = time.monotonic() + 5.0
                while ref() is not None and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert ref() is None
                assert gc.collect() == 0
            finally:
                gc.enable()
        assert [workers for *_, workers in gathers] == [n_workers] * 2
