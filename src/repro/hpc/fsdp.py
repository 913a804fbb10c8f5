"""PyTorch-FSDP style fully sharded data parallelism.

FSDP wraps groups of layers into *units* whose flattened parameters are
sharded across ranks.  Before a unit's forward (and, for ``full_shard``, its
backward) the shards are all-gathered; after the backward the gradients are
reduce-scattered back to their owners.  Table I maps the FSDP strategies to
ZeRO stages; the paper observes that FSDP's extra AllGather traffic (~50 %
more volume than plain data parallelism) is only partially hidden by
computation, which is why tuned DeepSpeed-ZeRO outperforms FSDP for the
SQG-ViT on Frontier (Fig. 9).
"""

from __future__ import annotations

from repro.hpc.collectives import CollectiveKind
from repro.hpc.ddp import CommEvent, bucketize
from repro.hpc.memory import ShardingStrategy

__all__ = ["FSDPParallel"]

_NAME_TO_STRATEGY = {
    "shard_grad_op": ShardingStrategy.FSDP_GRAD_OP,
    "full_shard": ShardingStrategy.FSDP_FULL,
    "hybrid_shard": ShardingStrategy.FSDP_HYBRID,
}


class FSDPParallel:
    """The collectives each Table I FSDP strategy issues per step, for the cost model."""

    def __init__(
        self,
        sharding: str = "full_shard",
        unit_bytes: float = 256 * 2.0**20,
        hybrid_group_size: int = 8,
    ):
        if sharding not in _NAME_TO_STRATEGY:
            raise ValueError(f"unknown FSDP sharding strategy {sharding!r}")
        if unit_bytes <= 0:
            raise ValueError("unit_bytes must be positive")
        self.sharding = sharding
        self.unit_bytes = float(unit_bytes)
        self.hybrid_group_size = int(hybrid_group_size)

    @property
    def name(self) -> str:
        return f"FSDP-{self.sharding}"

    @property
    def strategy(self) -> ShardingStrategy:
        return _NAME_TO_STRATEGY[self.sharding]

    def comm_events(self, param_bytes: float, n_gpus: int) -> list[CommEvent]:
        """Collectives per optimisation step, one set per FSDP unit.

        ``full_shard``: parameter AllGather in forward and again in backward
        (parameters are freed between passes) plus gradient ReduceScatter —
        ≈1.5× the volume of an AllReduce.  ``shard_grad_op`` keeps full
        parameters resident, so only the backward AllGather is skipped.
        ``hybrid_shard`` shards within a node and replicates across nodes, so
        the gather traffic stays on fast intra-node links and only the
        gradient reduction crosses the network.
        """
        if n_gpus <= 1:
            return []
        group = n_gpus
        if self.sharding == "hybrid_shard":
            group = min(n_gpus, self.hybrid_group_size)
        units = bucketize(param_bytes, self.unit_bytes)
        events: list[CommEvent] = []
        for u in units:
            events.append(CommEvent(CollectiveKind.ALL_GATHER, u, overlappable=True))       # forward gather
            if self.sharding == "full_shard":
                events.append(CommEvent(CollectiveKind.ALL_GATHER, u, overlappable=True))   # backward re-gather
            events.append(CommEvent(CollectiveKind.REDUCE_SCATTER, u, overlappable=True))   # grad scatter
        if self.sharding == "hybrid_shard" and n_gpus > group:
            # Cross-node gradient AllReduce over the replicated dimension.
            for u in units:
                events.append(CommEvent(CollectiveKind.ALL_REDUCE, u / group, overlappable=True))
        return events
