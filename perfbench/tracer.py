"""Span tracer installed from outside the program, around each layer's calls.

A :class:`Tracer` replaces public functions and methods of the repro
modules with timing wrappers, one layer name per wrapped callable (see
:data:`LAYERS`).  Every call that crosses into a layer from a different
layer (or from the benchmark itself) opens a span recording its name,
start, end and parent span; a call made from inside the same layer (for
example ``HmacSigner.verify`` calling ``sign``) is absorbed into the
enclosing span and not counted, so ``calls`` means layer-boundary
crossings.  Self time — a span's duration minus the time its child spans
cover — is accumulated per layer as spans close, so the per-layer self
times partition the top-level spans exactly.

Spans live in flat in-memory arrays and are written out by
:meth:`Tracer.write` when the run ends.

The tracer must be installed *before* the session is constructed: nodes
bind ``network.send`` and ``reputation.submit_rating`` at construction.
Names imported with ``from ... import`` are wrapped in the module that
looks them up (``encoded_size`` and ``signable_bytes`` in
``repro.core.node``, ``compute_sets`` in ``repro.core.subscriptions``,
``compute_all_sets`` in ``repro.baselines.watchmen_model``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Any, Callable

__all__ = ["LAYERS", "Tracer", "load_spans", "recompute_self_times"]

#: layer -> list of (module, owner, attribute names).  ``owner`` is a class
#: name inside the module, or None for module-level functions; an empty
#: name tuple means "every public function defined on that class".
LAYERS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "net.events": [("repro.net.events", "EventQueue", ("run",))],
    "net.transport": [
        ("repro.net.transport", "DatagramNetwork",
         ("send", "register", "unregister", "count_protocol_drop")),
    ],
    "core.wire": [
        ("repro.core.node", None, ("encoded_size", "signable_bytes")),
        ("repro.core.wire", None, ("encode_bytes", "decode_bytes")),
    ],
    "crypto.signatures": [
        ("repro.crypto.signatures", "HmacSigner", ("register", "sign", "verify")),
    ],
    "core.node": [
        ("repro.core.node", "WatchmenNode",
         ("on_frame", "on_message", "estimate_of", "announce_projectile",
          "claim_kill", "note_interaction")),
    ],
    "core.subscriptions": [
        ("repro.core.subscriptions", "SubscriptionPlanner", ()),
        ("repro.core.subscriptions", "SubscriberTable", ()),
    ],
    "game.interest": [
        ("repro.core.subscriptions", None, ("compute_sets",)),
        ("repro.baselines.watchmen_model", None, ("compute_all_sets",)),
        ("repro.core.verification", None, ("attention_score", "in_vision_cone")),
    ],
    "game.gamemap": [
        ("repro.game.gamemap", "GameMap",
         ("line_of_sight", "floor_height", "floor_height_xy", "in_bounds",
          "clamp_to_bounds", "nearest_respawn")),
    ],
    "game.simulator": [("repro.game.simulator", "DeathmatchSimulator", ("run",))],
    "core.verification": [
        ("repro.core.verification", cls, ())
        for cls in ("PositionVerifier", "AimVerifier", "GuidanceVerifier",
                    "ProjectileTracker", "KillVerifier", "SubscriptionVerifier",
                    "RateVerifier")
    ],
    "core.reputation": [("repro.core.reputation", "ReputationBoard", ())],
    "core.proxy": [("repro.core.proxy", "ProxySchedule", ())],
    "core.membership": [("repro.core.membership", "MembershipView", ())],
    "faults": [
        ("repro.faults.injector", "FaultInjector", ()),
        ("repro.faults.byzantine", "ByzantineBehaviour", ()),
    ],
    "analysis": [
        ("repro.analysis.exposure", None, ("exposure_experiment",)),
        ("repro.analysis.witnesses", None, ("witness_experiment",)),
    ],
}


def _public_functions(cls: type) -> tuple[str, ...]:
    return tuple(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


class Tracer:
    """Layer-boundary spans, per-layer self time and per-callable counts."""

    def __init__(self) -> None:
        self.layers: list[str] = list(LAYERS)
        self.names: list[str] = []
        self.name_layer: list[int] = []
        #: per callable name: boundary-crossing calls
        self.calls: list[int] = []
        #: per layer: accumulated self time (seconds)
        self.self_s: list[float] = [0.0] * len(self.layers)
        #: seconds covered by spans without a parent
        self.top_level_s = 0.0
        #: extra counts gathered from arguments or results (bytes, events...)
        self.extra: dict[str, float] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`LAYERS`; call before set-up."""
        observers = self._observers()
        for layer_id, layer in enumerate(self.layers):
            for module_name, owner_name, names in LAYERS[layer]:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                for attr in names or _public_functions(owner):
                    original = vars(owner)[attr]
                    label = f"{owner_name or module_name}.{attr}"
                    inner = original
                    if attr in ("compute_sets", "compute_all_sets"):
                        inner = self._counting_interest(original)
                    wrapped = self._wrap(
                        inner, layer_id, self._name_id(label, layer_id),
                        observers.get(label),
                    )
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _name_id(self, label: str, layer_id: int) -> int:
        self.names.append(label)
        self.name_layer.append(layer_id)
        self.calls.append(0)
        return len(self.names) - 1

    def _observers(self) -> dict[str, Callable[[tuple, Any], None]]:
        """Counts read from a boundary call's arguments or result."""
        extra = self.extra

        def add(key: str, amount: float) -> None:
            extra[key] = extra.get(key, 0) + amount

        def on_send(args: tuple, accepted: Any) -> None:
            if accepted:
                add("bytes_sent", args[4])

        def on_verify(args: tuple, valid: Any) -> None:
            if not valid:
                add("verify_failures", 1)

        return {
            "DatagramNetwork.send": on_send,
            "HmacSigner.verify": on_verify,
            "EventQueue.run": lambda args, count: add("events", count),
            "DeathmatchSimulator.run": lambda args, trace: add("frames", trace.num_frames),
        }

    def _counting_interest(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count classified pairs and LOS-cache hits of one interest call.

        ``compute_all_sets`` builds a private :class:`LosCache` when none is
        passed; this hook builds it the same way here (a fresh cache started
        at ``frame``) so its hits can be read afterwards.
        """
        from repro.game.interest import LosCache

        extra = self.extra
        batched = fn.__name__ == "compute_all_sets"
        signature = inspect.signature(fn)

        def counted(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            los = arguments.get("los")
            if los is None and batched:
                los = LosCache(arguments["game_map"])
                los.begin_frame(arguments["frame"])
                arguments["los"] = los
            hits, misses = (los.hits, los.misses) if los is not None else (0, 0)
            result = fn(*bound.args, **bound.kwargs)
            if los is not None:
                extra["los_hits"] = extra.get("los_hits", 0) + los.hits - hits
                extra["los_misses"] = extra.get("los_misses", 0) + los.misses - misses
            if batched:
                pairs = len(result) * max(0, len(arguments["everyone"]) - 1)
            else:
                everyone = arguments["everyone"]
                pairs = len(everyone) - (arguments["observer"].player_id in everyone)
            extra["pairs"] = extra.get("pairs", 0) + pairs
            return result

        counted.__name__ = fn.__name__
        return counted

    def _wrap(
        self,
        fn: Callable[..., Any],
        layer_id: int,
        name_id: int,
        observe: Callable[[tuple, Any], None] | None,
    ) -> Callable[..., Any]:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == layer_id:
                return fn(*args, **kwargs)
            calls[name_id] += 1
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1][2] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            entry = [layer_id, 0.0, index]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
                duration = end - start
                self_s[layer_id] += duration - entry[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_level_s += duration
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    # ---- readout -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(self.layers, self.self_s))

    def calls_by_name(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, count in zip(self.names, self.calls):
            totals[name] = totals.get(name, 0) + count
        return totals

    def layer_calls(self) -> dict[str, int]:
        totals = dict.fromkeys(self.layers, 0)
        for layer_id, count in zip(self.name_layer, self.calls):
            totals[self.layers[layer_id]] += count
        return totals

    def write(self, path: str) -> None:
        """Dump every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "name_layer": [self.layers[i] for i in self.name_layer],
            "spans": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)


def load_spans(path: str) -> tuple[dict[str, Any], dict[str, array]]:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column, typecode in header["arrays"]:
            values = array(typecode)
            values.fromfile(handle, header["spans"])
            columns[column] = values
    return header, columns


def recompute_self_times(
    name_layer: list[str], columns: dict[str, array]
) -> tuple[dict[str, float], float]:
    """Per-layer self time and top-level total, from the span records alone."""
    names = columns["name"]
    parents = columns["parent"]
    starts = columns["start"]
    ends = columns["end"]
    durations = [end - start for start, end in zip(starts, ends)]
    child_time = [0.0] * len(durations)
    top_level = 0.0
    for index, parent in enumerate(parents):
        if parent < 0:
            top_level += durations[index]
        else:
            child_time[parent] += durations[index]
    by_layer: dict[str, float] = {}
    for index, name_id in enumerate(names):
        layer = name_layer[name_id]
        by_layer[layer] = by_layer.get(layer, 0.0) + durations[index] - child_time[index]
    return by_layer, top_level
