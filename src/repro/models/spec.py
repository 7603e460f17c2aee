"""Model abstraction and per-iteration input description.

A :class:`Model` turns :class:`IterationInputs` (batch size plus the
padded sequence length of the batch) into a
:class:`~repro.models.schedule.KernelSchedule` for a full training
iteration (forward, backward, optimizer) or for a forward-only
evaluation pass.  Lowering depends *only* on the inputs and hardware
config — the paper's Key Observation 4 (all iterations at a given SL
behave the same) is a structural property here.

The hardware config may enter lowering only through each GEMM's
variant choice in :func:`~repro.kernels.gemm.gemm`, and a model passes
it there untouched, ``None`` included, as every builtin layer does.
The plan cache lowers each (model, pass, shape) once with
``config=None``, which makes every GEMM a config-free placeholder, and
builds each config's plan from that schedule, the first config's too
(:func:`~repro.models.plan.resolve_plans`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count

from repro.errors import LoweringError
from repro.hw.config import HardwareConfig
from repro.models.schedule import KernelSchedule

__all__ = ["IterationInputs", "Model"]

#: Monotonic per-instance tokens for plan-cache keys.  Unlike ``id()``,
#: a token is never reused after garbage collection, so a stale plan
#: can never be served to a new model that happens to land on a
#: recycled address.
_PLAN_TOKENS = count()


@dataclass(frozen=True)
class IterationInputs:
    """Inputs of one training iteration after batching and padding.

    ``seq_len`` is the padded sequence length the whole batch runs at
    (most SQNN frameworks pad every sample to the batch maximum — paper
    §IV-B1); it is the quantity SeqPoint bins.  For sequence-to-sequence
    models ``tgt_len`` is the decoder-side length; models that have no
    decoder ignore it.
    """

    batch: int
    seq_len: int
    tgt_len: int | None = None

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise LoweringError(f"batch must be positive, got {self.batch}")
        if self.seq_len <= 0:
            raise LoweringError(f"seq_len must be positive, got {self.seq_len}")
        if self.tgt_len is not None and self.tgt_len <= 0:
            raise LoweringError(f"tgt_len must be positive, got {self.tgt_len}")


class Model(ABC):
    """A trainable network that lowers iterations to kernel schedules."""

    def __init__(self, name: str):
        self.name = name
        self._plan_token = next(_PLAN_TOKENS)

    def __getstate__(self):
        # Tokens are only unique within one process: an unpickled model
        # must draw a fresh one, or its plan_key() could collide with a
        # locally constructed model in the receiving process and be
        # served that model's compiled plans.
        state = dict(self.__dict__)
        state.pop("_plan_token", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plan_token = next(_PLAN_TOKENS)

    @abstractmethod
    def lower_iteration(
        self, inputs: IterationInputs, config: HardwareConfig | None
    ) -> KernelSchedule:
        """Kernel schedule of one full training iteration (config-free
        when ``config`` is ``None``)."""

    @abstractmethod
    def lower_forward(
        self, inputs: IterationInputs, config: HardwareConfig | None
    ) -> KernelSchedule:
        """Kernel schedule of a forward-only (evaluation) pass
        (config-free when ``config`` is ``None``)."""

    @abstractmethod
    def param_count(self) -> int:
        """Total trainable parameters."""

    @property
    def sequence_dependent(self) -> bool:
        """Whether iteration work varies with sequence length.

        CNNs override this to ``False`` — the Fig 3 distinction.
        """
        return True

    def plan_key(self) -> tuple:
        """Identity for the process-wide plan cache.

        Two models with equal keys must lower identically for every
        ``(inputs, config)`` pair.  The default is a per-instance token
        — always correct, and plans still deduplicate everywhere it
        matters because the analysis engine resolves one model instance
        per scenario and shares it across configs, seeds, and sweep
        points.  A subclass may override this with a *structural* tuple
        (every hyperparameter lowering depends on) to additionally
        share plans across separately constructed but identical models;
        hashing a subset of the hyperparameters (e.g. a parameter count
        alone, which misses head counts and similar shape-only knobs)
        would silently serve one model's plans to another.
        """
        return (
            type(self).__module__,
            type(self).__qualname__,
            self.name,
            self._plan_token,
        )

    def plan_fingerprint(self) -> dict | None:
        """Structural identity for the cross-process plan store.

        Unlike :meth:`plan_key` (which may lean on a per-process token),
        a fingerprint must be stable across processes and machines: a
        JSON-serialisable mapping capturing *every* hyperparameter that
        lowering depends on, discriminated by model family.  Two models
        with equal fingerprints must lower identically for every
        ``(inputs, config)`` pair.  The default ``None`` opts the model
        out of the on-disk store (plans still cache per-process) —
        safer than a guessed subset of hyperparameters, which would
        silently serve one model's plans to another.
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
