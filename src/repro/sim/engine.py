"""Synchronous cycle-driven simulation engine.

Every hardware block in this reproduction is a :class:`SimComponent` with a
``step(cycle)`` method.  The :class:`Simulator` advances a global cycle
counter and steps components in registration order; registration order is
therefore part of a model's semantics (fabrics register their rings before
their bridges, systems register traffic sources before the fabric, and so
on).  This mirrors a single synchronous clock domain, which matches the
paper's NoC: one 3 GHz clock across the package, with die-to-die links
modeled as pipeline delay rather than as a clock-domain crossing.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class SimComponent:
    """Base class for anything that does work once per clock cycle."""

    def step(self, cycle: int) -> None:
        """Advance this component by one cycle."""
        raise NotImplementedError


class Simulator:
    """Owns the clock and the ordered list of components.

    The simulator is deliberately minimal: no event queue, no delta cycles.
    A cycle-driven loop keeps ring-slot semantics exact (one hop per cycle)
    and keeps the whole reproduction deterministic for a given seed.
    """

    def __init__(self) -> None:
        self._components: List[SimComponent] = []
        self._invariants: List[Callable[[int], None]] = []
        self._cycle = 0

    @property
    def cycle(self) -> int:
        """Current cycle (number of completed steps)."""
        return self._cycle

    def register(self, component: SimComponent) -> None:
        """Append ``component`` to the per-cycle step order."""
        self._components.append(component)

    def register_first(self, component: SimComponent) -> None:
        """Prepend ``component`` so it steps before everything else."""
        self._components.insert(0, component)

    def register_invariant(self, check: Callable[[int], None]) -> None:
        """Add an invariant probe called after every component each cycle.

        Probes are opt-in (``--check-invariants``): they observe the
        post-step state and raise
        :class:`repro.lint.invariants.InvariantViolation` on failure, so
        a run stops at the first cycle where an invariant breaks rather
        than producing silently wrong statistics.
        """
        self._invariants.append(check)

    def step(self) -> None:
        """Advance the whole system by one cycle."""
        cycle = self._cycle
        for component in self._components:
            component.step(cycle)
        for check in self._invariants:
            check(cycle)
        self._cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` cycles.

        Fused loop: the component list is bound once (it is the live
        list, so components registered mid-run still step the same cycle,
        exactly as per-cycle :meth:`step` calls would) and the invariant
        sweep is skipped entirely when no probe is registered.
        """
        components = self._components
        invariants = self._invariants
        cycle = self._cycle
        end = cycle + cycles
        if invariants:
            while cycle < end:
                for component in components:
                    component.step(cycle)
                for check in invariants:
                    check(cycle)
                cycle += 1
                self._cycle = cycle
        else:
            while cycle < end:
                for component in components:
                    component.step(cycle)
                cycle += 1
                self._cycle = cycle

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        check_every: int = 1,
        watchdog=None,
        on_check: Optional[Callable[[int], None]] = None,
    ) -> bool:
        """Run until ``predicate()`` is true or ``max_cycles`` elapse.

        Returns True if the predicate fired, False on timeout.

        Cadence, explicitly: the predicate is evaluated after every
        ``check_every``-th step — that is, after steps ``check_every``,
        ``2*check_every``, ... — and, if ``max_cycles`` is not a multiple
        of ``check_every``, once more after the final step so a timeout
        never misses a predicate that became true inside the last
        partial window.  The predicate is never evaluated twice for the
        same step and never before the first step.

        ``on_check(cycle)`` is called immediately before each predicate
        evaluation (same cadence, including the final partial window).
        This is the sampling hook the observability layer's
        :class:`repro.obs.metrics.SnapshotSampler` plugs into: periodic
        measurement rides the existing check cadence instead of adding a
        second bookkeeping interval.  A list/tuple of callables is also
        accepted and invoked in order, so several riders can share the
        one cadence.

        ``watchdog`` (a :class:`repro.faults.watchdog.ProgressWatchdog`)
        is observed after every step and turns a wedged system into a
        :class:`repro.faults.watchdog.NoProgressError` with a diagnostic
        dump instead of a silent timeout.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if on_check is not None and not callable(on_check):
            hooks = list(on_check)

            def on_check(cycle, _hooks=hooks):
                for hook in _hooks:
                    hook(cycle)

        steps = 0
        for _ in range(max_cycles):
            self.step()
            steps += 1
            if watchdog is not None:
                watchdog.observe(self._cycle)
            if steps % check_every == 0:
                if on_check is not None:
                    on_check(self._cycle)
                if predicate():
                    return True
        if steps % check_every != 0:
            if on_check is not None:
                on_check(self._cycle)
            if predicate():
                return True
        return False


class FunctionComponent(SimComponent):
    """Adapter wrapping a plain callable as a component."""

    def __init__(self, fn: Callable[[int], None], name: Optional[str] = None):
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "fn")

    def step(self, cycle: int) -> None:
        self._fn(cycle)
