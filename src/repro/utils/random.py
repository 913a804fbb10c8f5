"""Reproducible random-number-generator helpers.

Every stochastic component in the library (SQG initial conditions, model-error
mixture, observation noise, EnSF reverse-SDE noise, ViT weight init, dropout)
accepts either a seed or a :class:`numpy.random.Generator`.  These helpers
centralise the conversion so that experiments are reproducible end to end and
parallel workers receive statistically independent streams.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "default_rng",
    "split_rng",
    "SeedSequenceFactory",
    "MemberStreams",
    "sample_from_catalogue",
]


def default_rng(
    seed: int | np.random.Generator | "MemberStreams" | None = None,
) -> np.random.Generator | "MemberStreams":
    """Return a :class:`numpy.random.Generator` (or stream bundle).

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing generator /
        :class:`MemberStreams` bundle (returned unchanged so callers can
        thread a single stream through).
    """
    if isinstance(seed, (np.random.Generator, MemberStreams)):
        return seed
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators.

    Child streams are produced by spawning the parent's bit generator seed
    sequence, which guarantees statistical independence — this is the
    recommended pattern for per-ensemble-member or per-worker streams.
    """
    if n < 0:
        raise ValueError(f"cannot split into a negative number of streams: {n}")
    seed_seq = rng.bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - numpy always exposes seed_seq
        seed_seq = np.random.SeedSequence()
    children = seed_seq.spawn(n)
    return [np.random.default_rng(child) for child in children]


class SeedSequenceFactory:
    """Deterministic factory of named, independent RNG streams.

    Experiments contain several stochastic sub-systems (truth run, observation
    noise, each filter's internal noise, surrogate initialisation).  Deriving
    each stream from a *name* rather than from call order keeps results stable
    when components are added, removed or reordered.

    Examples
    --------
    >>> factory = SeedSequenceFactory(1234)
    >>> rng_obs = factory.rng("observations")
    >>> rng_truth = factory.rng("truth")
    >>> factory.rng("observations").normal() == rng_obs.normal()
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)

    def seed_for(self, name: str, *indices: int) -> np.random.SeedSequence:
        """Return the seed sequence associated with ``name``.

        The spawn key is derived from a cryptographic digest of ``name`` so
        that distinct names are guaranteed distinct streams.  (The previous
        byte-sum hash mapped anagrams such as ``"ab"``/``"ba"`` — and any
        equal-sum pair — to the *same* stream, silently correlating
        supposedly independent noise sources.)

        Optional integer ``indices`` extend the spawn key, giving a
        deterministic family of sub-streams under one name — e.g. one stream
        per analysis cycle: ``seed_for("ensf-parallel", cycle)``.
        """
        digest = hashlib.sha256(name.encode("utf8")).digest()
        key = int.from_bytes(digest[:16], "little")
        spawn_key = (key, *(int(i) for i in indices))
        return np.random.SeedSequence(entropy=self.root_seed, spawn_key=spawn_key)

    def rng(self, name: str) -> np.random.Generator:
        """Return a fresh generator for stream ``name`` (same name → same stream)."""
        return np.random.default_rng(self.seed_for(name))

    def rngs(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """Return a dictionary of generators for several stream names."""
        return {name: self.rng(name) for name in names}

    def member_rngs(self, name: str, n_members: int) -> list[np.random.Generator]:
        """Return ``n_members`` independent streams under a common ``name``."""
        base = self.seed_for(name)
        return [np.random.default_rng(child) for child in base.spawn(n_members)]


class MemberStreams:
    """Batched Gaussian draws where row ``i`` comes from member stream ``i``.

    Parallel layouts that shard an ensemble over workers must not let the
    *slicing* change the draws: if every member owns its own bit-generator
    stream and each batched request of shape ``(m, ...)`` fills row ``i``
    from stream ``i``, any contiguous sub-batch of members consumes exactly
    the draws the full batch would have given them.  Serial and
    arbitrarily-sharded executions therefore produce identical ensembles
    (see :meth:`repro.hpc.ensemble_parallel.EnsembleExecutor.analyze_ensf`).

    The interface mimics the subset of :class:`numpy.random.Generator` used
    by the reverse-SDE sampler: ``standard_normal(size)`` and
    ``standard_normal(out=...)``, with the leading axis indexing members.
    """

    def __init__(self, seeds: Sequence) -> None:
        if len(seeds) < 1:
            raise ValueError("MemberStreams needs at least one member seed")
        self.generators = [np.random.default_rng(s) for s in seeds]

    def __len__(self) -> int:
        return len(self.generators)

    def standard_normal(self, size=None, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            if size is None or np.ndim(size) == 0:
                raise ValueError("MemberStreams draws need a (n_members, ...) shape")
            out = np.empty(tuple(size), dtype=float)
        if out.shape[0] != len(self.generators):
            raise ValueError(
                f"leading axis {out.shape[0]} does not match {len(self.generators)} member streams"
            )
        for generator, row in zip(self.generators, out):
            generator.standard_normal(out=row)
        return out


def sample_from_catalogue(
    catalogue: Sequence[np.ndarray] | np.ndarray,
    n: int,
    rng: np.random.Generator,
    replace: bool = True,
) -> np.ndarray:
    """Draw ``n`` states from a catalogue of model states.

    Used to build initial ensembles by "random selection of model states from
    a long-term integration" (paper §IV-A).  Returns an array of shape
    ``(n,) + state_shape``.
    """
    catalogue = np.asarray(catalogue)
    if catalogue.ndim < 2:
        raise ValueError("catalogue must have shape (n_states, ...)")
    if not replace and n > catalogue.shape[0]:
        raise ValueError(
            f"cannot draw {n} states without replacement from {catalogue.shape[0]}"
        )
    idx = rng.choice(catalogue.shape[0], size=n, replace=replace)
    return catalogue[idx].copy()
