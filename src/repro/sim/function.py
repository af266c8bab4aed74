"""Function deployment metadata.

A :class:`FunctionSpec` describes a deployed serverless function: the memory
footprint of one of its containers, the latency of provisioning a container
from scratch (the cold-start cost), and layer metadata used by the
RainbowCake baseline's layer-wise sharing model.

Execution times are *not* part of the spec — they vary per invocation (the
paper assumes volatile execution times, §2.6) and are carried on each
:class:`repro.sim.request.Request` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf


@dataclass(frozen=True)
class LayerStack:
    """RainbowCake-style layer decomposition of a container image.

    A container is built from three stacked layers (RainbowCake §3):

    * ``bare`` — the base OS image, shareable across *all* functions;
    * ``lang`` — the language runtime, shareable across functions with the
      same ``runtime`` tag;
    * ``user`` — function code and dependencies, private to the function.

    ``*_fraction`` values split the whole-container cold-start cost and
    memory footprint across the layers; they must sum to 1.
    """

    bare_cost_fraction: float = 0.15
    lang_cost_fraction: float = 0.30
    user_cost_fraction: float = 0.55
    bare_mem_fraction: float = 0.20
    lang_mem_fraction: float = 0.35
    user_mem_fraction: float = 0.45

    def __post_init__(self) -> None:
        cost = (self.bare_cost_fraction + self.lang_cost_fraction
                + self.user_cost_fraction)
        mem = (self.bare_mem_fraction + self.lang_mem_fraction
               + self.user_mem_fraction)
        if abs(cost - 1.0) > 1e-9 or abs(mem - 1.0) > 1e-9:
            raise ValueError("layer fractions must each sum to 1.0")


DEFAULT_LAYERS = LayerStack()


@dataclass(frozen=True)
class FunctionSpec:
    """A deployed serverless function.

    Parameters
    ----------
    name:
        Unique function identifier (e.g. ``"fn-0042"``).
    memory_mb:
        Memory footprint of one warm container of this function.
    cold_start_ms:
        Latency to provision a fresh container: image pull, runtime
        initialization, code load (§2.2's definition of a cold start).
    runtime:
        Language runtime tag; RainbowCake shares ``lang`` layers between
        functions with equal tags.
    app:
        Optional application grouping (functions of one app often share
        dependencies); informational.
    layers:
        Layer decomposition for layer-aware policies.
    """

    name: str
    memory_mb: float
    cold_start_ms: float
    runtime: str = "python3.8"
    app: str = ""
    layers: LayerStack = field(default=DEFAULT_LAYERS)

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: memory_mb must be positive")
        # One chained compare rejects a negative, infinite or NaN cost
        # (NaN fails every comparison, ``< 0`` included).
        if not 0 <= self.cold_start_ms < inf:
            raise ValueError(f"{self.name}: cold_start_ms must be finite "
                             f"and >= 0, got {self.cold_start_ms}")

    # Layer-level accessors used by RainbowCake -------------------------

    def layer_cost_ms(self, layer: str) -> float:
        """Cold-start cost attributable to ``layer`` (bare|lang|user)."""
        fraction = getattr(self.layers, f"{layer}_cost_fraction")
        return self.cold_start_ms * fraction

    def layer_mem_mb(self, layer: str) -> float:
        """Memory footprint attributable to ``layer`` (bare|lang|user)."""
        fraction = getattr(self.layers, f"{layer}_mem_fraction")
        return self.memory_mb * fraction
