"""The online speculation controller.

One :class:`SpeculationController` instance closes the loop between
runtime outcomes and speculation decisions for one (workload, loop)
pair, across all invocations of one execution:

* **AIMD epoch sizing** — the checkpoint period (iterations per epoch)
  grows additively on every clean commit, amortizing the fixed
  checkpoint cost, and shrinks multiplicatively on every squash,
  bounding the re-execution window §5.3 charges per misspeculation.
  Always clamped to ``[min_epoch, MAX_CHECKPOINT_PERIOD]`` so shadow
  timestamps keep fitting in a metadata byte.
* **Classification demotion** — misspeculations are attributed to the
  object (allocation site) whose speculative classification caused them;
  after ``demote_after`` strikes the site is recorded as demoted.  The
  decision takes effect through the policy store on the next run, when
  ``prepare()`` demotes the site to the unrestricted heap and re-plans;
  within the current run the backoff machinery below bounds the damage.
* **Sequential fallback with exponential backoff** — after
  ``fallback_after`` consecutive whole-epoch squashes the executor is
  told to run the next ``backoff`` iterations sequentially (committed,
  non-speculative), then probe speculation again; each re-entry doubles
  the span up to ``backoff_max``, and a clean commit resets it.

Every decision is a pure function of the epoch-outcome sequence — no
wall clocks, no randomness — so both execution backends drive the
controller through identical state trajectories and differential parity
holds under adaptation.  Decisions are observable as ``adapt.*`` metrics
and trace instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..obs.log import get_logger
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from ..transform.plan import MAX_CHECKPOINT_PERIOD
from .monitor import MisspecRateMonitor
from .policy import PolicyStore

log = get_logger("adapt")


@dataclass
class AdaptConfig:
    """Tuning knobs for the speculation controller (all deterministic)."""

    #: Epoch-size bounds; the upper bound may never exceed the shadow
    #: timestamp limit of :data:`MAX_CHECKPOINT_PERIOD`.
    min_epoch: int = 2
    max_epoch: int = MAX_CHECKPOINT_PERIOD
    #: Additive increase per clean commit.
    grow_add: int = 4
    #: Multiplicative decrease on squash: ``epoch * num // den``.
    shrink_num: int = 1
    shrink_den: int = 2
    #: Misspeculations attributable to one object site before it is
    #: demoted (recorded for the next run's re-plan).
    demote_after: int = 8
    #: Consecutive whole-epoch squashes before sequential fallback.
    fallback_after: int = 3
    #: Initial / maximum sequential-fallback span (iterations), and the
    #: growth factor applied on every consecutive fallback.
    backoff_initial: int = 8
    backoff_factor: int = 2
    backoff_max: int = 512
    #: Monitor window, in epoch attempts.
    window: int = 32

    def __post_init__(self) -> None:
        self.max_epoch = min(self.max_epoch, MAX_CHECKPOINT_PERIOD)
        self.min_epoch = max(1, min(self.min_epoch, self.max_epoch))

    def clamp(self, epoch: int) -> int:
        return max(self.min_epoch, min(self.max_epoch, epoch))


class SpeculationController:
    """Online feedback controller for one (workload, loop) pair."""

    def __init__(self, key: str = "", loop: str = "", workload: str = "",
                 config: Optional[AdaptConfig] = None,
                 store: Optional[PolicyStore] = None):
        self.key = key
        self.loop = loop
        self.workload = workload
        self.config = config or AdaptConfig()
        self.store = store
        self.monitor = MisspecRateMonitor(window=self.config.window)

        #: Current epoch size; seeded lazily by :meth:`begin_invocation`
        #: so the executor's default period wins on a cold start.
        self.epoch_size: Optional[int] = None
        self.initial_epoch: Optional[int] = None
        self.min_epoch_seen: Optional[int] = None
        self.max_epoch_seen: Optional[int] = None

        self.grows = 0
        self.shrinks = 0
        self.fallbacks = 0
        self.sequential_iterations = 0
        self.consecutive_squashes = 0
        self.backoff = self.config.backoff_initial

        #: Misspeculation strike counts per attributed object site.
        self.site_strikes: Dict[str, int] = {}
        #: Latest forensic diagnosis per attributed site (so demotion
        #: decisions carry a root cause, not just a strike count).
        self.site_diagnoses: Dict[str, str] = {}
        #: Demotions decided during *this* run.
        self.new_demotions: Set[str] = set()
        #: Flight recorder that decisions are mirrored into
        #: (:class:`repro.forensics.recorder.FlightRecorder`); installed
        #: by the executor alongside ``RuntimeSystem.controller``.
        self.recorder = None

        # Warm start: reload the persisted policy for this loop.
        self.warm_start = False
        self.warm_epoch: Optional[int] = None
        self.persisted_demotions: Set[str] = set()
        if store is not None and key:
            entry = store.loop_policy(key, loop)
            if entry:
                self.warm_start = True
                size = entry.get("epoch_size")
                if isinstance(size, int) and size > 0:
                    self.warm_epoch = self.config.clamp(size)
                self.persisted_demotions = set(entry.get("demotions") or [])

    # -- executor-facing decisions -------------------------------------------

    def _record_decision(self, action: str, **fields: object) -> None:
        """Mirror one controller decision into the flight recorder."""
        if self.recorder is not None:
            self.recorder.record("decision", action=action, loop=self.loop,
                                 **fields)

    def begin_invocation(self, default_epoch: int) -> None:
        """Seed the epoch size on the first invocation: warm-started from
        the policy store when available, the executor's default otherwise.
        Later invocations keep the learned size."""
        if self.epoch_size is not None:
            return
        seed = self.warm_epoch if self.warm_epoch is not None else default_epoch
        self.epoch_size = self.config.clamp(seed)
        self.initial_epoch = self.epoch_size
        self.min_epoch_seen = self.epoch_size
        self.max_epoch_seen = self.epoch_size
        self._record_decision("seed", epoch_size=self.epoch_size,
                              warm_start=self.warm_start)
        if TRACER.enabled:
            METRICS.gauge("adapt.epoch_size").set(self.epoch_size)
            TRACER.instant("adapt.seed", cat="adapt", loop=self.loop,
                           epoch_size=self.epoch_size,
                           warm_start=self.warm_start)

    def next_epoch_size(self) -> int:
        assert self.epoch_size is not None, "begin_invocation not called"
        return self.epoch_size

    def should_fallback(self) -> bool:
        """Has speculation squashed often enough to pause it?"""
        return self.consecutive_squashes >= self.config.fallback_after

    def begin_fallback(self) -> int:
        """Enter sequential fallback: returns the span (iterations) to run
        non-speculatively, and doubles the backoff for the next entry.
        The squash counter is re-armed one below the threshold, so a
        single squash right after the probe resumes falls straight back —
        that is what makes the backoff exponential under a sustained
        misspeculation storm."""
        span = self.backoff
        self.backoff = min(self.config.backoff_max,
                           self.backoff * self.config.backoff_factor)
        self.fallbacks += 1
        self.consecutive_squashes = self.config.fallback_after - 1
        log.info("adapt: sequential fallback for %d iteration(s) "
                 "(next backoff %d)", span, self.backoff)
        self._record_decision("fallback", span=span, next_backoff=self.backoff)
        if TRACER.enabled:
            METRICS.counter("adapt.fallbacks").inc()
            TRACER.instant("adapt.fallback", cat="adapt", loop=self.loop,
                           span=span, next_backoff=self.backoff)
        return span

    def end_fallback(self, iterations: int) -> None:
        self.sequential_iterations += iterations
        self._record_decision("reenable", sequential_iterations=iterations,
                              epoch_size=self.epoch_size)
        if TRACER.enabled:
            TRACER.instant("adapt.reenable", cat="adapt", loop=self.loop,
                           sequential_iterations=iterations,
                           epoch_size=self.epoch_size)

    def on_squash(self, squashed_iterations: int, kind: str = "") -> None:
        """An epoch attempt squashed: shrink multiplicatively and arm the
        fallback counter."""
        assert self.epoch_size is not None, "begin_invocation not called"
        self.monitor.record_squash(max(0, squashed_iterations))
        self.consecutive_squashes += 1
        old = self.epoch_size
        cfg = self.config
        self.epoch_size = cfg.clamp(old * cfg.shrink_num // cfg.shrink_den)
        if self.epoch_size < old:
            self.shrinks += 1
            log.info("adapt: epoch %d -> %d after %s squash "
                     "(%d iteration(s) lost)", old, self.epoch_size, kind,
                     squashed_iterations)
        self.min_epoch_seen = min(self.min_epoch_seen, self.epoch_size)
        if self.epoch_size < old:
            self._record_decision("shrink", from_size=old,
                                  to_size=self.epoch_size, cause=kind)
        if TRACER.enabled:
            if self.epoch_size < old:
                METRICS.counter("adapt.epoch.shrinks").inc()
                TRACER.instant("adapt.resize", cat="adapt", loop=self.loop,
                               direction="shrink", from_size=old,
                               to_size=self.epoch_size, cause=kind)
            METRICS.gauge("adapt.epoch_size").set(self.epoch_size)
            METRICS.gauge("adapt.misspec_rate").set(self.monitor.rate())

    # -- runtime-facing feedback (monitor inputs) ----------------------------

    def note_commit(self, epoch_start: int, epoch_end: int) -> None:
        """A checkpoint committed ``[epoch_start, epoch_end)`` cleanly:
        grow additively, reset the fallback state."""
        assert self.epoch_size is not None, "begin_invocation not called"
        self.monitor.record_commit(epoch_end - epoch_start)
        self.consecutive_squashes = 0
        self.backoff = self.config.backoff_initial
        old = self.epoch_size
        self.epoch_size = self.config.clamp(old + self.config.grow_add)
        if self.epoch_size > old:
            self.grows += 1
        self.max_epoch_seen = max(self.max_epoch_seen, self.epoch_size)
        if self.epoch_size > old:
            self._record_decision("grow", from_size=old,
                                  to_size=self.epoch_size)
        if TRACER.enabled:
            if self.epoch_size > old:
                METRICS.counter("adapt.epoch.grows").inc()
                TRACER.instant("adapt.resize", cat="adapt", loop=self.loop,
                               direction="grow", from_size=old,
                               to_size=self.epoch_size)
            METRICS.gauge("adapt.epoch_size").set(self.epoch_size)
            METRICS.gauge("adapt.misspec_rate").set(self.monitor.rate())

    def note_misspec(self, kind: str, iteration: int,
                     site: Optional[str],
                     diagnosis: Optional[str] = None) -> None:
        """One misspeculation event, attributed (when possible) to the
        object site whose classification caused it.  ``demote_after``
        strikes against one site record a demotion decision; the latest
        forensic ``diagnosis`` string rides along so the decision names
        the root cause, not just a count."""
        self.monitor.record_misspec(kind)
        if site is None or site in self.new_demotions \
                or site in self.persisted_demotions:
            return
        strikes = self.site_strikes.get(site, 0) + 1
        self.site_strikes[site] = strikes
        if diagnosis is not None:
            self.site_diagnoses[site] = diagnosis
        if strikes < self.config.demote_after:
            return
        self.new_demotions.add(site)
        cause = self.site_diagnoses.get(site, kind)
        log.warning("adapt: demoting %s to unrestricted after %d "
                    "misspeculation(s) (%s); takes effect on the next "
                    "run's re-plan", site, strikes, cause)
        self._record_decision("demote", site=site, strikes=strikes,
                              cause=kind, diagnosis=self.site_diagnoses.get(site))
        if TRACER.enabled:
            METRICS.counter("adapt.demotions").inc()
            TRACER.instant("adapt.demote", cat="adapt", loop=self.loop,
                           site=site, strikes=strikes, cause=kind)

    # -- persistence ----------------------------------------------------------

    def save(self) -> None:
        """Persist the learned policy (no-op without a store or before
        the first invocation seeded an epoch size)."""
        if self.store is None or not self.key or self.epoch_size is None:
            return
        self.store.update(
            self.key, self.loop, epoch_size=self.epoch_size,
            demotions=self.persisted_demotions | self.new_demotions,
            fallbacks=self.fallbacks, workload=self.workload)

    # -- reporting ------------------------------------------------------------

    def converged(self) -> bool:
        """Did the controller shrink under misspeculation pressure and
        then recover (grow back off its minimum)?"""
        return (self.shrinks > 0
                and self.initial_epoch is not None
                and self.min_epoch_seen < self.initial_epoch
                and self.epoch_size > self.min_epoch_seen)

    def decision_counts(self) -> Dict[str, int]:
        return {
            "grows": self.grows,
            "shrinks": self.shrinks,
            "fallbacks": self.fallbacks,
            "demotions": len(self.new_demotions),
        }

    def summary(self) -> Dict[str, object]:
        return {
            **self.decision_counts(),
            "loop": self.loop,
            "workload": self.workload,
            "warm_start": self.warm_start,
            "initial_epoch": self.initial_epoch,
            "min_epoch": self.min_epoch_seen,
            "max_epoch": self.max_epoch_seen,
            "final_epoch": self.epoch_size,
            "sequential_iterations": self.sequential_iterations,
            "demotions": sorted(self.new_demotions),
            "demotion_diagnoses": {
                site: self.site_diagnoses[site]
                for site in sorted(self.new_demotions)
                if site in self.site_diagnoses
            },
            "persisted_demotions": sorted(self.persisted_demotions),
            "converged": self.converged(),
            "monitor": self.monitor.snapshot(),
        }

    def summary_line(self) -> str:
        """One-line human summary (the CI smoke job greps this)."""
        return format_summary(self.summary())


def format_summary(summary: Dict[str, object]) -> str:
    """Render a controller summary dict (``ExecutionResult.adapt``) as the
    one-line form the CLI prints and the CI smoke job greps."""
    monitor = summary.get("monitor") or {}
    return (f"epoch {summary['initial_epoch']}->{summary['min_epoch']}"
            f"->{summary['final_epoch']} grows={summary['grows']} "
            f"shrinks={summary['shrinks']} fallbacks={summary['fallbacks']} "
            f"seq_iters={summary['sequential_iterations']} "
            f"demotions={len(summary['demotions'])} "
            f"misspec_rate={monitor.get('rate', 0.0):.1%} "
            f"warm={'yes' if summary['warm_start'] else 'no'} "
            f"converged={'yes' if summary['converged'] else 'no'}")
