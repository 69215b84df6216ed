"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything one simulation run needs — the
topology factory, the CC scheme, the workload, the seed and the scale —
as plain data: no callables, no live objects.  That buys three things:

* **hashable** — :attr:`ScenarioSpec.spec_hash` is a stable digest of the
  execution-relevant fields, so results can be cached content-addressed;
* **serializable** — specs round-trip through JSON, so sweeps are
  resumable and results carry their provenance;
* **picklable** — specs cross process boundaries cleanly, so a sweep can
  fan out over a ``ProcessPoolExecutor`` (each worker rebuilds its own
  ``Network`` from the spec).

:class:`ScenarioGrid` expands cartesian products of schemes, parameters
and seeds into spec lists — the paper's figure matrices as one-liners.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


@dataclass(frozen=True)
class CcChoice:
    """A labelled CC configuration, e.g. DCQCN with specific timers."""

    name: str                        # registry name
    label: str | None = None         # display label (defaults to name)
    params: dict = field(default_factory=dict)

    @property
    def display(self) -> str:
        return self.label or self.name

    def to_json(self) -> dict:
        return {"name": self.name, "label": self.label, "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: dict) -> "CcChoice":
        return cls(
            name=data["name"],
            label=data.get("label"),
            params=dict(data.get("params") or {}),
        )


# Fields that determine what a run computes.  ``label`` and ``meta`` are
# presentation/grouping only: two specs differing only there produce the
# same results, share a cache entry and compare equal.  ``backend`` IS
# identity: a packet and a fluid run of the same scenario compute
# different things and must never share a cache entry.  ``dynamics`` is
# identity too, but an *empty* timeline is omitted from the canonical
# encoding so every pre-dynamics spec keeps its original hash (and cache
# entries survive).
_IDENTITY_FIELDS = (
    "program", "topology", "topology_params", "cc",
    "workload", "config", "measure", "seed", "scale", "backend",
    "dynamics",
)

BACKENDS = ("packet", "fluid", "hybrid")


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """One cell of an evaluation grid, as pure data.

    ``program`` names the execution recipe (see ``repro.runner.execute``):

    * ``"load"``  — Poisson background traffic from a named size CDF,
      optionally with synchronized incasts (the Figure 2/3/10/11/12 shape);
    * ``"flows"`` — an explicit flow list (the Figure 6/9/13/14,
      Appendix A.4 and failover shape);
    * ``"appendix_a1"`` / ``"appendix_a2"`` — the analytic experiments.

    ``topology`` names a factory in the topology registry and
    ``topology_params`` its kwargs; ``config`` holds ``NetworkConfig``
    overrides (``base_rtt``, ``buffer_bytes``, ``transport``, ...);
    ``measure`` declares what to record (queue sampling, pause intervals,
    final windows); ``meta`` carries consumer-side grouping keys.

    ``backend`` selects the execution engine: ``"packet"`` (the
    discrete-event simulator), ``"fluid"`` (the flow-level fast path in
    ``repro.fluid``) or ``"hybrid"`` (packet foreground flows inside a
    fluid background matrix, ``repro.hybrid``).  It is part of the
    spec's identity hash.  The hybrid backend reads the
    ``workload["foreground"]`` selector (see
    :func:`repro.hybrid.select.parse_foreground`) to split the flow
    population; the selector lives in ``workload`` so it is
    hash-distinct automatically.

    ``dynamics`` declares mid-run network events as a
    :class:`~repro.dynamics.events.Timeline` (accepted directly, stored
    in its JSON form): link failures and recoveries, degradations, flap
    trains and scheduled incast bursts.  It is hash-distinct — two specs
    differing only in their fault schedule never share a cache entry —
    and sweepable via :func:`~repro.dynamics.events.dynamics_axis`.
    It is the only place link events are declared: a
    ``workload["events"]`` key raises.
    """

    program: str
    topology: str = ""
    cc: CcChoice = CcChoice("hpcc")
    topology_params: dict = field(default_factory=dict)
    workload: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    measure: dict = field(default_factory=dict)
    seed: int = 1
    scale: str = "bench"
    backend: str = "packet"
    dynamics: dict = field(default_factory=dict)
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {known}"
            )
        if "events" in self.workload:
            raise ValueError(
                'workload["events"] is not read; declare link events in '
                "the spec's dynamics timeline (repro.dynamics.Timeline)"
            )
        from ..dynamics.events import Timeline

        dynamics = self.dynamics
        if isinstance(dynamics, Timeline):
            # An empty timeline is stored as ``{}``, the hash-neutral form.
            object.__setattr__(self, "dynamics",
                               dynamics.to_json() if dynamics else {})
        elif dynamics:
            Timeline.from_json(dynamics)        # eager validation

    # -- identity --------------------------------------------------------------

    def identity(self) -> dict:
        """The execution-relevant fields as a JSON-able dict."""
        out: dict[str, Any] = {}
        for name in _IDENTITY_FIELDS:
            value = getattr(self, name)
            out[name] = value.to_json() if isinstance(value, CcChoice) else value
        if not out["dynamics"]:
            del out["dynamics"]         # legacy hash compatibility
        return out

    def canonical(self) -> str:
        """A canonical JSON encoding of :meth:`identity` (sorted, compact)."""
        return json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """Stable content hash: the cache key and the on-disk file stem."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        data = self.identity()
        data["label"] = self.label
        data["meta"] = self.meta
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ScenarioSpec":
        kwargs = dict(data)
        kwargs["cc"] = CcChoice.from_json(kwargs.get("cc") or {"name": "hpcc"})
        return cls(**kwargs)

    # -- derivation -------------------------------------------------------------

    def replaced(self, **updates) -> "ScenarioSpec":
        """A copy with dotted-path updates applied.

        Top-level field names (``seed=3``, ``cc=...``) replace the field;
        dotted paths reach into dict fields without mutating the original
        (``**{"workload.load": 0.5, "config.buffer_bytes": 1_000_000}``).
        """
        field_updates: dict[str, Any] = {}
        for path, value in updates.items():
            if "." not in path:
                field_updates[path] = value
                continue
            top, rest = path.split(".", 1)
            base = field_updates.get(top, getattr(self, top))
            if not isinstance(base, dict):
                raise TypeError(f"cannot descend into non-dict field {top!r}")
            tree = copy.deepcopy(base)
            node = tree
            keys = rest.split(".")
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
            field_updates[top] = tree
        return dataclasses.replace(self, **field_updates)


# -- grid expansion --------------------------------------------------------------

Axis = Sequence[dict]


def axis(path: str, values: Iterable) -> list[dict]:
    """One sweep axis: vary a single (possibly dotted) field."""
    return [{path: value} for value in values]


def cc_axis(schemes: Iterable[CcChoice]) -> list[dict]:
    """Sweep the CC scheme, labelling each spec with the scheme's display name."""
    return [{"cc": cc, "label": cc.display} for cc in schemes]


def seed_axis(seeds: Iterable[int]) -> list[dict]:
    return axis("seed", seeds)


class ScenarioGrid:
    """A cartesian product of sweep axes over one base spec.

    Each axis is a sequence of update dicts (see :meth:`ScenarioSpec.replaced`);
    an update may touch several fields at once, which is how coupled axes
    like Figure 12's flow-control choices (transport + PFC + label) stay a
    single axis.

    >>> grid = ScenarioGrid(base, cc_axis(SCHEMES), axis("seed", [1, 2, 3]))
    >>> len(grid.expand()) == len(SCHEMES) * 3
    True
    """

    def __init__(self, base: ScenarioSpec, *axes: Axis) -> None:
        self.base = base
        self.axes: tuple[Axis, ...] = tuple(axes)

    def add(self, axis_: Axis) -> "ScenarioGrid":
        self.axes = self.axes + (axis_,)
        return self

    def __len__(self) -> int:
        n = 1
        for ax in self.axes:
            n *= len(ax)
        return n

    def expand(self) -> list[ScenarioSpec]:
        """Expand the product into a flat spec list (row-major order)."""
        specs: list[ScenarioSpec] = []
        for combo in itertools.product(*self.axes):
            updates: dict[str, Any] = {}
            for part in combo:
                updates.update(part)
            specs.append(self.base.replaced(**updates))
        return specs
