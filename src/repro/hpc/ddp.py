"""Plain (unsharded) distributed data parallelism.

Every rank holds a full replica of the model; after the backward pass the
gradients are AllReduced in buckets.  This is the DDP baseline of Fig. 9 and
the reference against which the memory-efficient strategies (ZeRO, FSDP) are
compared.  Each strategy is described by the collectives it issues per step
(``comm_events``), which :mod:`repro.hpc.trainer_sim` prices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hpc.collectives import CollectiveKind
from repro.hpc.memory import ShardingStrategy

__all__ = ["DataParallel", "CommEvent", "bucketize"]


@dataclass(frozen=True)
class CommEvent:
    """One collective operation issued during a training step."""

    kind: CollectiveKind
    message_bytes: float
    count: int = 1
    overlappable: bool = True

    @property
    def total_bytes(self) -> float:
        return self.message_bytes * self.count


def bucketize(total_bytes: float, bucket_bytes: float) -> list[float]:
    """Split a gradient volume into communication buckets.

    DDP and ZeRO fuse many small tensors into buckets (default 200 MB in
    PyTorch Lightning's DeepSpeed plugin, the value the paper tunes to
    ~500 MB); the message size seen by the interconnect is the bucket size,
    which matters because collective bandwidth is message-size dependent.
    """
    if total_bytes < 0 or bucket_bytes <= 0:
        raise ValueError("sizes must be positive")
    if total_bytes == 0:
        return []
    n_full = int(total_bytes // bucket_bytes)
    buckets = [bucket_bytes] * n_full
    remainder = total_bytes - n_full * bucket_bytes
    if remainder > 0:
        buckets.append(remainder)
    return buckets


class DataParallel:
    """DDP strategy: full replication, bucketed gradient AllReduce."""

    name = "DDP"
    strategy = ShardingStrategy.DDP

    def __init__(self, bucket_bytes: float = 200 * 2.0**20):
        if bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")
        self.bucket_bytes = float(bucket_bytes)

    def comm_events(self, param_bytes: float, n_gpus: int) -> list[CommEvent]:
        """Collectives issued per optimisation step."""
        if n_gpus <= 1:
            return []
        return [
            CommEvent(CollectiveKind.ALL_REDUCE, b, overlappable=True)
            for b in bucketize(param_bytes, self.bucket_bytes)
        ]
