"""Served-model registry: ``(dataset, format_name)`` -> ready network.

The serving layer never trains or compiles anything per request.  The first
request (or an explicit ``/warmup``) for a ``(dataset, format_name)`` pair:

1. resolves the trained float parent model through
   :func:`repro.analysis.sweep.trained_model` — which loads it from the
   content-addressed artifact store by spec hash, or trains once and
   persists it (see ``docs/running-experiments.md``);
2. quantizes the parameters into a :class:`~repro.core.positron.
   PositronNetwork`, whose layers compile their kernels at
   construction against the registry-memoized format backend — so decode
   tables, digit planes, and rank tables are shared with every other
   consumer in the process;
3. caches the resulting :class:`ServedModel` for the life of the server.

Loading is serialized per key with an :class:`asyncio.Lock` (concurrent
first requests train once, not N times) and runs on the executor so the
event loop keeps answering health checks while a model trains.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import formats
from ..core.positron import PositronNetwork

__all__ = ["ServedModel", "ModelRegistry"]

#: Loader contract: ``dataset_name -> TrainedModel`` (raises ``KeyError``
#: for unknown datasets).  The default is the store-backed
#: :func:`repro.analysis.sweep.trained_model`; tests inject tiny synthetic
#: models here to keep the suite training-free.
Loader = Callable[[str], object]


@dataclass
class ServedModel:
    """One deployable network plus the metadata requests need."""

    dataset: str
    format_name: str  # canonical registry name, e.g. ``posit8_1``
    backend: formats.NumericFormat
    network: PositronNetwork
    num_features: int
    class_names: tuple[str, ...]
    float32_accuracy: float

    @property
    def key(self) -> str:
        """Stable identifier used in stats and the ``/models`` listing."""
        return f"{self.dataset}/{self.format_name}"

    def quantize(self, inputs: np.ndarray) -> np.ndarray:
        """Float features -> input patterns (elementwise, request-local).

        Quantization is per-element, so quantizing each request separately
        and stacking the patterns is bit-identical to quantizing a stacked
        float batch — the first half of the served-equals-direct guarantee.
        """
        return self.network.backend.quantize_batch(
            np.asarray(inputs, dtype=np.float64)
        )

    def describe(self) -> dict:
        """JSON-ready row for the ``/models`` endpoint."""
        return {
            "dataset": self.dataset,
            "format": self.format_name,
            "label": self.backend.label,
            "num_features": self.num_features,
            "classes": list(self.class_names),
            "topology": list(self.network.topology),
            "float32_accuracy": self.float32_accuracy,
        }


def _default_loader(dataset: str):
    from ..analysis.sweep import trained_model

    return trained_model(dataset)


def build_served_model(
    dataset: str, format_name: str, loader: Loader | None = None
) -> ServedModel:
    """Synchronous load path: resolve, quantize, compile.

    ``formats.get`` canonicalizes the name (``posit<8,1>`` and ``posit8_1``
    map to the same backend and therefore the same served model).  Raises
    ``KeyError`` for unknown datasets or format names.
    """
    backend = formats.get(format_name)
    tm = (loader or _default_loader)(dataset)
    weights, biases = tm.model.export_params()
    network = PositronNetwork.from_float_params(backend.fmt, weights, biases)
    # Warm the fused whole-network plan here, off the request path: the
    # batcher's predict_patterns rides it, and compiling it involves a
    # round-table bisection that must not land on the first request's
    # latency.
    network.network_kernel()
    return ServedModel(
        dataset=dataset,
        format_name=backend.name,
        backend=backend,
        network=network,
        num_features=network.topology[0],
        class_names=tuple(tm.dataset.class_names),
        float32_accuracy=float(tm.float32_accuracy),
    )


@dataclass
class ModelRegistry:
    """Async cache of :class:`ServedModel` instances, one per key."""

    loader: Loader | None = None
    _models: dict[tuple[str, str], ServedModel] = field(default_factory=dict)
    _locks: dict[tuple[str, str], asyncio.Lock] = field(default_factory=dict)
    #: Last-known-good generation per key: the model each ``reload``
    #: displaced, kept so a misbehaving replacement can be rolled back.
    _previous: dict[tuple[str, str], ServedModel] = field(
        default_factory=dict
    )

    async def get(
        self,
        dataset: str,
        format_name: str,
        executor: Executor | None = None,
    ) -> ServedModel:
        """The served model for ``(dataset, format_name)``, loading once.

        Concurrent callers for the same key await one load; callers for
        different keys load independently.  The blocking work (store read
        or training + kernel compilation) runs on ``executor``.
        """
        backend = formats.get(format_name)  # canonicalize + fail fast
        key = (dataset, backend.name)
        model = self._models.get(key)
        if model is not None:
            return model
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            model = self._models.get(key)
            if model is None:
                loop = asyncio.get_running_loop()
                model = await loop.run_in_executor(
                    executor, build_served_model, dataset, backend.name,
                    self.loader,
                )
                self._models[key] = model
        return model

    async def reload(
        self,
        dataset: str,
        format_name: str,
        executor: Executor | None = None,
    ) -> ServedModel:
        """Rebuild a served model and atomically replace the cached entry.

        The hot-swap path (``POST /swap``): the loader/store is consulted
        again — picking up retrained or repaired artifacts written since
        the model was first loaded — and the fresh :class:`ServedModel`
        (new network, newly compiled kernels and fused plan) replaces the
        old one in a single assignment.  Requests resolving the key during
        the rebuild keep getting the old model; the per-key lock
        serializes concurrent reloads.
        """
        backend = formats.get(format_name)
        key = (dataset, backend.name)
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            loop = asyncio.get_running_loop()
            model = await loop.run_in_executor(
                executor, build_served_model, dataset, backend.name,
                self.loader,
            )
            displaced = self._models.get(key)
            if displaced is not None:
                self._previous[key] = displaced
            self._models[key] = model
        return model

    async def rollback(self, dataset: str, format_name: str) -> ServedModel | None:
        """Restore the last-known-good generation for a key, if any.

        The canary-triggered recovery path: under the same per-key lock
        as ``reload``, the displaced model saved by the last reload
        becomes current again.  The rolled-back (bad) generation is
        *not* stashed as previous — rolling back twice must not
        reinstall the model the canary just convicted.  Returns the
        restored model, or ``None`` when no previous generation exists
        (nothing was ever reloaded, or it was already consumed).
        """
        backend = formats.get(format_name)
        key = (dataset, backend.name)
        lock = self._locks.setdefault(key, asyncio.Lock())
        async with lock:
            previous = self._previous.pop(key, None)
            if previous is None:
                return None
            self._models[key] = previous
        return previous

    def previous_generation(self, dataset: str, format_name: str) -> ServedModel | None:
        """The model a rollback would restore for this key (or ``None``)."""
        backend = formats.get(format_name)
        return self._previous.get((dataset, backend.name))

    def loaded(self) -> list[ServedModel]:
        """Currently resident models, in load order."""
        return list(self._models.values())
