"""The benchmark's workloads: seeded inputs, the timed phase, output checks.

Every workload is a :class:`~repro.replay.scenario.TapeScenario` plus a
seed, so the program only ever receives generated inputs.
:meth:`Workload.setup` builds the map, generates the trace, materialises
any faults and constructs the session; :meth:`Workload.measure` runs the
timed phase — the whole ``WatchmenSession.run()`` for session workloads,
the Figure 4/5 analyses for ``analysis48`` — and checks its outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.witnesses import honest_proxy_probability
from repro.baselines.watchmen_model import WatchmenModel
from repro.core.config import FRAME_SECONDS
from repro.core.disclosure import ExposureCategory
from repro.core.verification import CheckKind
from repro.replay.scenario import GOLDEN_PRESETS, CheatSpec, TapeScenario
import repro.analysis.exposure
import repro.analysis.witnesses

__all__ = ["Rep", "WORKLOADS", "Workload"]


@dataclass
class Rep:
    """What one timed phase of a workload produced."""

    timed_s: float
    simulated_s: float
    #: wall time of each frame (session) or analysed frame (analysis), ms
    frame_ms: list[float]
    digest: str
    #: failed output checks, empty when every check passed
    failures: list[str]
    #: machine-independent counts visible without tracing
    counts: dict[str, float] = field(default_factory=dict)
    #: protocol-behaviour figures (deterministic for a seed)
    behaviour: dict[str, float] = field(default_factory=dict)

    @property
    def realtime_factor(self) -> float:
        return self.timed_s / self.simulated_s


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """A named workload: a set-up from a seed, then the timed phase."""

    name: str

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def measure(self, state: Any, seed: int) -> Rep:
        raise NotImplementedError


# ---- session workloads ---------------------------------------------------


class SessionWorkload(Workload):
    """A trace replayed through ``WatchmenSession`` (every protocol layer)."""

    def __init__(
        self,
        name: str,
        scenario: Callable[[int], TapeScenario],
        check: Callable[[Any, Any], list[str]],
    ) -> None:
        self.name = name
        self._scenario = scenario
        self._check = check

    def setup(self, seed: int) -> Any:
        scenario = self._scenario(seed)
        game_map = scenario.make_map()
        trace = scenario.make_trace(game_map)
        faults = scenario.make_faults(trace.player_ids())
        return scenario.make_session(trace, faults, game_map)

    def measure(self, session: Any, seed: int) -> Rep:
        boxes_before = session.game_map.los_boxes_tested
        marks: list[float] = []
        chained = session.on_frame_begin

        def frame_begin(frame: int) -> None:
            marks.append(time.perf_counter())
            if chained is not None:
                chained(frame)

        session.on_frame_begin = frame_begin
        start = time.perf_counter()
        report = session.run()
        end = time.perf_counter()
        # The last frame ends when the event queue has drained.
        marks.append(end)
        frame_ms = [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]

        network = session.network
        refused = network.rejected_by_protocol + sum(
            node.metrics.signature_failures
            + node.metrics.replayed_messages
            + node.metrics.direct_update_violations
            for node in session.nodes.values()
        )
        ages = report.age_histogram
        received = sum(ages.values())
        return Rep(
            timed_s=end - start,
            simulated_s=report.num_frames * session.config.frame_seconds,
            frame_ms=frame_ms,
            digest=_digest({
                "messages_sent": report.messages_sent,
                "messages_lost": report.messages_lost,
                "ratings": len(report.ratings),
                "banned": sorted(report.banned),
                "age_histogram": sorted(ages.items()),
            }),
            failures=self._check(report, session),
            counts={
                "events": session.queue.processed,
                "messages_sent": report.messages_sent,
                "delivered": network.delivered,
                "refused": refused,
                "ratings": len(report.ratings),
                "suspicious": sum(1 for r in report.ratings if r.suspicious),
                "los_boxes_tested": session.game_map.los_boxes_tested - boxes_before,
                "player_frames": report.num_players * report.num_frames,
            },
            behaviour={
                "net.transport.upload_kbps.mean": report.mean_upload_kbps,
                "net.transport.upload_kbps.max": report.max_upload_kbps,
                "net.transport.lost_share": report.messages_lost / report.messages_sent,
                "core.node.update_age_frames.mean": (
                    sum(age * count for age, count in ages.items()) / received
                    if received else 0.0
                ),
            },
        )


def _honest_session(seed: int) -> TapeScenario:
    # Paper defaults: King-like latency, 1 % i.i.d. loss, robustness off.
    return TapeScenario(
        players=48, frames=200, seed=seed, failover=False, reliable=False
    )


def _check_honest(report: Any, session: Any) -> list[str]:
    if report.banned:
        return [f"honest session banned {sorted(report.banned)}"]
    return []


#: hostile16 roster roles: the chaos harness's equivocator is ordered[1];
#: the golden ``cheater`` preset's four cheats move onto 3, 5, 7 and 9 so
#: the equivocator stays a pure Byzantine attacker
EQUIVOCATOR = 1
CHEATERS = {
    player: spec.kind
    for player, spec in zip((3, 5, 7, 9), GOLDEN_PRESETS["cheater"].cheats)
}
#: cheats whose subject must out-draw every honest player on suspicion
DETECTED_CHEATS = ("speed-hack", "fake-kill", "teleport")


def _hostile_session(seed: int) -> TapeScenario:
    cheats = tuple(
        CheatSpec(player, spec.kind, {**spec.params, "seed": seed * 16 + player})
        for player, spec in zip(CHEATERS, GOLDEN_PRESETS["cheater"].cheats)
    )
    return TapeScenario(
        players=16, frames=400, seed=seed, chaos="byz_equivocation", cheats=cheats
    ).with_chaos_flags()


def _check_hostile(report: Any, session: Any) -> list[str]:
    failures = []
    attackers = {EQUIVOCATOR, *CHEATERS}
    honest = [p for p in session.trace.player_ids() if p not in attackers]
    convicted = set().union(*(n.membership.convicted for n in session.nodes.values()))
    if convicted != {EQUIVOCATOR}:
        failures.append(f"evidence convictions {sorted(convicted)}, want [1]")
    if EQUIVOCATOR not in report.banned:
        failures.append("equivocator not banned")
    honest_banned = sorted(report.banned.intersection(honest))
    if honest_banned:
        failures.append(f"honest players banned: {honest_banned}")
    quarantined = {
        src for node in session.nodes.values() for _, src in node.quarantine_events
    }.intersection(honest)
    if quarantined:
        failures.append(f"honest quarantines: {sorted(quarantined)}")
    # Counted over the state checks only: the equivocator disturbs the
    # message flow of the players it proxies, so the rate check also flags
    # honest players (up to ~47 ratings a match), and none of these cheats
    # is a rate cheat.
    suspicious = Counter(
        r.subject_id for r in report.ratings
        if r.suspicious and r.check != CheckKind.RATE
    )
    honest_max = max(suspicious[p] for p in honest)
    for player, kind in CHEATERS.items():
        if kind in DETECTED_CHEATS and suspicious[player] <= honest_max:
            failures.append(
                f"{kind} cheater {player}: {suspicious[player]} suspicious "
                f"state-check ratings, honest maximum {honest_max}"
            )
    return failures


# ---- analysis workload ---------------------------------------------------


class AnalysisWorkload(Workload):
    """Figure 4 exposure and Figure 5 witness analyses over a 48-player trace.

    No wire, crypto, transport or node code runs: the control workload for
    per-message optimisations.
    """

    name = "analysis48"
    players = 48
    frames = 400
    #: analyse every 5th frame (the figures' default is every 20th)
    stride = 5
    coalition_sizes = [1, 4, 8]

    def setup(self, seed: int) -> Any:
        scenario = TapeScenario(players=self.players, frames=self.frames, seed=seed)
        game_map = scenario.make_map()
        return scenario.make_trace(game_map), game_map

    def measure(self, state: Any, seed: int) -> Rep:
        trace, game_map = state
        boxes_before = game_map.los_boxes_tested
        # Frame clock: every analysis prepares the Watchmen model once per
        # analysed frame, so its calls delimit one frame's analysis work.
        marks: list[float] = []
        prepare = WatchmenModel.prepare_frame

        def timed_prepare(model: WatchmenModel, *args: Any) -> None:
            marks.append(time.perf_counter())
            prepare(model, *args)

        WatchmenModel.prepare_frame = timed_prepare  # type: ignore[method-assign]
        try:
            start = time.perf_counter()
            # Looked up on the modules so a tracer's wrappers are seen.
            exposure = repro.analysis.exposure.exposure_experiment(
                trace, game_map, self.coalition_sizes,
                frame_stride=self.stride, seed=seed,
            )
            witnesses = repro.analysis.witnesses.witness_experiment(
                trace, game_map, self.coalition_sizes,
                frame_stride=self.stride, seed=seed + 1,
            )
            end = time.perf_counter()
        finally:
            WatchmenModel.prepare_frame = prepare  # type: ignore[method-assign]
        marks.append(end)
        frame_ms = [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]

        return Rep(
            timed_s=end - start,
            simulated_s=trace.num_frames * FRAME_SECONDS,
            frame_ms=frame_ms,
            digest=_digest({
                "exposure": [
                    [r.model_name, r.coalition_size, sorted(r.counts().items())]
                    for r in exposure
                ],
                "witnesses": [
                    [w.coalition_size, w.avg_honest_proxies,
                     w.avg_interest_witnesses, w.avg_vision_witnesses]
                    for w in witnesses
                ],
            }),
            failures=self._check(exposure, witnesses),
            counts={
                "los_boxes_tested": game_map.los_boxes_tested - boxes_before,
                "analysed_frames": len(frame_ms),
            },
        )

    def _check(self, exposure: list[Any], witnesses: list[Any]) -> list[str]:
        failures = []
        (four,) = [w for w in witnesses if w.coalition_size == 4]
        expected = honest_proxy_probability(self.players, 4)
        if abs(four.avg_honest_proxies - expected) > 0.06:
            failures.append(
                f"honest-proxy share {four.avg_honest_proxies:.4f} for a "
                f"coalition of 4, expected {expected:.4f} +- 0.06"
            )
        (donnybrook,) = [
            r for r in exposure
            if r.model_name == "donnybrook" and r.coalition_size == 4
        ]
        shares = donnybrook.proportions()
        informed = 1.0 - shares[ExposureCategory.INFREQ] - shares[ExposureCategory.NOTHING]
        if informed <= 0.99:
            failures.append(f"Donnybrook informs only {informed:.4f} of honest players")
        return failures


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SessionWorkload("session48", _honest_session, _check_honest),
        SessionWorkload("hostile16", _hostile_session, _check_hostile),
        AnalysisWorkload(),
    )
}
