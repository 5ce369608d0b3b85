"""The round core: one phase pipeline shared by every LPPA execution path.

The paper's auction round is a fixed sequence of message exchanges —
setup, location submission, bid submission, PSD allocation, TTP charging —
and this module owns that sequence as data: :data:`PHASE_STEPS`, a tuple
of :class:`PhaseStep` objects.  Each step is an ``async def`` over a
:class:`~repro.lppa.round.state.RoundState`; what varies between the three
historical implementations is factored into two plug points the state
carries:

* the **value backend** (:mod:`repro.lppa.round.backends`) — crypto wire
  objects vs the order-isomorphic integer pipeline;
* the **driver** (:mod:`repro.lppa.round.drivers`) — in-process submission
  synthesis vs frames collected over a transport.

Two executors walk the same step objects:

* :func:`execute_round` drives each step's coroutine synchronously.  An
  in-process round never actually suspends — its driver hooks return plain
  values — so each coroutine finishes on the first ``send(None)`` and the
  fastsim hot path pays no event-loop overhead.
* :func:`execute_round_async` awaits each step, which lets the network
  driver's hooks (deadline-gated collection, the TTP service exchange,
  result broadcast) genuinely suspend.

Cross-cutting emission lives here, exactly once: the flight-recorder
events shared by all paths (round begin/end, per-message records) and the
``lppa.*`` submission counters.  Backend-specific emission (byte counters,
``lppa.rounds`` vs ``lppa.fast_rounds``) lives in the backends; the
executors wrap each keyed step in :func:`repro.obs.phase` so every
emission lands in the right phase scope on every path.

The three round entry points run under :func:`collector_paused`: a round
allocates tens of thousands of containers that reference counting frees
and that form no cycles, so the cyclic collector's passes during a round
only re-scan live objects (DESIGN.md §7, "Collector pause").
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import threading
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Iterator, List, Optional, Tuple

from repro import obs
from repro.lppa.round.state import RoundState

__all__ = [
    "PHASE_STEPS",
    "PhaseStep",
    "collector_paused",
    "execute_round",
    "execute_round_async",
    "observe_steps",
]


async def _maybe(value: Any) -> Any:
    """Resolve a driver hook's return: await it only if it is awaitable."""
    if inspect.isawaitable(value):
        return await value
    return value


@dataclass(frozen=True, eq=False)
class PhaseStep:
    """One pipeline stage: an obs phase key (``None`` = unscoped) + body.

    Identity matters: the module-level step objects in :data:`PHASE_STEPS`
    are *the* pipeline, and the wrapper-unification tests assert that every
    execution path runs these exact objects.
    """

    key: Optional[str]
    run: Callable[[RoundState], Coroutine[Any, Any, None]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseStep({self.key or self.run.__name__})"


async def _run_setup(state: RoundState) -> None:
    await _maybe(state.driver.prepare(state))
    state.backend.setup(state)
    tr = state.tr
    if tr is not None:
        tr.round_begin()
        for name, vis, fields in state.backend.setup_trace(state):
            tr.meta(name, vis=vis, **fields)


async def _run_location_submission(state: RoundState) -> None:
    await _maybe(state.driver.collect_locations(state))
    tr = state.tr
    if tr is not None and state.location_subs is not None:
        # Field set and order are scheme-specific: every submission type
        # supplies its own trace_fields() (the scheme seam).
        for sub in state.location_subs:
            tr.message("location_submission", **sub.trace_fields())
    state.backend.ingest_locations(state)
    obs.count(
        "lppa.location_submissions",
        len(state.location_subs)
        if state.location_subs is not None
        else state.submission_count(),
    )
    if state.location_bytes is not None:
        obs.count("lppa.location_bytes", state.location_bytes)


async def _run_bid_submission(state: RoundState) -> None:
    await _maybe(state.driver.collect_bids(state))
    if state.relocate:
        # Net-path straggler repair: participants shrank between the two
        # collect phases, so the conflict graph is rebuilt over the final
        # roster (a second conflict_graph trace instant marks the repair).
        # The byte counters were already recorded for the original set.
        state.backend.ingest_locations(state)
        state.relocate = False
    tr = state.tr
    if tr is not None and state.bid_subs is not None:
        for sub in state.bid_subs:
            tr.message("bid_submission", **sub.trace_fields())
    state.backend.ingest_bids(state)
    obs.count("lppa.bid_submissions", state.submission_count())
    if state.bid_bytes is not None:
        obs.count("lppa.bid_bytes", state.bid_bytes)


async def _run_psd_allocation(state: RoundState) -> None:
    state.backend.allocate(state)


async def _run_ttp_charging(state: RoundState) -> None:
    material = state.backend.charge_request(state)
    decisions: Optional[List[Any]] = None
    if material is not None:
        decisions = await _maybe(state.driver.decide_charges(state, material))
    state.backend.finish_charges(state, decisions)


async def _run_finish(state: RoundState) -> None:
    state.backend.finalize(state)
    await _maybe(state.driver.publish(state))
    tr = state.tr
    if tr is not None:
        tr.round_end(**state.round_end_args)


#: The paper's round, as data.  The two ``key=None`` steps bracket the four
#: phases whose wall time the metrics artifacts account for.
PHASE_STEPS: Tuple[PhaseStep, ...] = (
    PhaseStep(None, _run_setup),
    PhaseStep("location_submission", _run_location_submission),
    PhaseStep("bid_submission", _run_bid_submission),
    PhaseStep("psd_allocation", _run_psd_allocation),
    PhaseStep("ttp_charging", _run_ttp_charging),
    PhaseStep(None, _run_finish),
)

_observers: List[Callable[[PhaseStep, RoundState], None]] = []

_pause_lock = threading.Lock()
_pause_depth = 0
_resume_collector = False


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Hold CPython's cyclic garbage collector off for a ``with`` block.

    Pauses may nest and overlap (two server rounds interleaved on one
    event loop): the collector is disabled when the first pause begins and
    re-enabled when the last one ends, and only if it was enabled when the
    first began, so a caller that disabled it finds it still disabled.

    Also a decorator (``@collector_paused()``), the form the in-process
    entry points use: the wrapped function's frame, and with it the
    round's :class:`RoundState`, is released before the pause ends, so the
    collector's first pass after the round sees only what the caller kept.
    """
    global _pause_depth, _resume_collector
    with _pause_lock:
        if _pause_depth == 0:
            _resume_collector = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _resume_collector:
                gc.enable()


@contextlib.contextmanager
def observe_steps() -> Iterator[List[Tuple[PhaseStep, RoundState]]]:
    """Record ``(step, state)`` for every step any executor runs.

    Test hook: lets the unification tests assert that all three wrappers
    execute the *same* :data:`PHASE_STEPS` objects.
    """
    seen: List[Tuple[PhaseStep, RoundState]] = []

    def _record(step: PhaseStep, state: RoundState) -> None:
        seen.append((step, state))

    _observers.append(_record)
    try:
        yield seen
    finally:
        _observers.remove(_record)


def _notify(step: PhaseStep, state: RoundState) -> None:
    for observer in list(_observers):
        observer(step, state)


def _scope(step: PhaseStep) -> Any:
    return obs.phase(step.key) if step.key is not None else contextlib.nullcontext()


def _drive_sync(step: PhaseStep, state: RoundState) -> None:
    """Run one step's coroutine to completion without an event loop."""
    coro = step.run(state)
    try:
        coro.send(None)
    except StopIteration:
        return
    coro.close()
    raise RuntimeError(
        f"phase step {step.key or 'setup/finish'} suspended under a "
        "synchronous driver; run it with execute_round_async"
    )


def execute_round(state: RoundState) -> None:
    """Drive one round synchronously (in-process drivers only).

    The steps are ``async def`` but an in-process round never suspends, so
    each coroutine completes on its first resume — no event loop, no
    per-round overhead beyond a try/except per step.
    """
    for step in PHASE_STEPS:
        _notify(step, state)
        state.driver.enter_phase(state, step)
        with _scope(step):
            _drive_sync(step, state)


async def execute_round_async(state: RoundState) -> None:
    """Drive one round on the event loop (network drivers)."""
    for step in PHASE_STEPS:
        _notify(step, state)
        await _maybe(state.driver.enter_phase(state, step))
        with _scope(step):
            await step.run(state)
