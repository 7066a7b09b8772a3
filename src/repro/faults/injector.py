"""Seeded, deterministic fault injection for the FPVM pipeline.

A :class:`FaultPlan` is plain frozen data (picklable, hashable) naming
*where* and *when* faults fire; a :class:`FaultInjector` is the runtime
object that evaluates the plan.  Determinism is the load-bearing
property: the same plan produces the same fault sequence on every run
— per-stage PRNG streams are seeded from ``(plan.seed, stage)`` so the
sequence at one stage never depends on how probes at other stages
interleave, and campaign tables are reproducible bit-for-bit.

Stages map onto the named phases of the trap-and-emulate pipeline
(paper §4.1) plus the protective actions around it:

==================  =====================================================
``decode``          instruction → FPVMOp flattening fails
``bind``            operand templates → locations fails
``emulate``         the arithmetic port raises mid-operation
``gc_sweep``        the conservative collector skips its sweep phase
``shadow_lookup``   a NaN-box handle misses the shadow table (dangling)
``nanbox_corrupt``  a bit flip lands in the 51-bit box payload; the
                    handle dangles (a universal NaN) or names another
                    live cell, whose value is read undetected
``extern_demote``   the pre-extern-call register demotion is skipped
==================  =====================================================

Probes are host-side only: evaluating a rule charges no modeled cycles,
so a zero-rule plan is bit-identical (instructions, cycles, stdout) to
running without an injector at all — a property the test suite pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ReproError

#: the injectable VM stages, in pipeline order
STAGES = (
    "decode",
    "bind",
    "emulate",
    "gc_sweep",
    "shadow_lookup",
    "nanbox_corrupt",
    "extern_demote",
)


class FaultPlanError(ReproError):
    """A fault plan names an unknown stage or an impossible trigger."""


class InjectedFault(ReproError):
    """A fault fired by the injector at a named VM stage.

    Recoverable by design: the runtime's degradation ladder catches it,
    demotes the faulting operands, and re-executes under vanilla
    semantics.
    """

    def __init__(self, stage: str, occurrence: int, detail: str = "") -> None:
        msg = f"injected {stage} fault (occurrence {occurrence})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.stage = stage
        self.occurrence = occurrence


@dataclass(frozen=True)
class FaultRule:
    """One trigger: fire at ``stage`` on the nth occurrence and/or with
    per-occurrence probability.

    ``nth`` fires exactly at that 1-based occurrence of the stage;
    ``probability`` rolls an independent per-stage PRNG on every
    occurrence.  ``max_fires`` bounds total fires from this rule
    (``None`` = unbounded); the default of 1 makes a bare
    ``FaultRule("emulate", nth=3)`` a single-shot fault.
    """

    stage: str
    probability: float = 0.0
    nth: int | None = None
    max_fires: int | None = 1

    def validate(self) -> None:
        if self.stage not in STAGES:
            raise FaultPlanError(
                f"unknown fault stage {self.stage!r}; "
                f"expected one of {', '.join(STAGES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise FaultPlanError(f"nth must be >= 1, got {self.nth}")
        if self.probability == 0.0 and self.nth is None:
            raise FaultPlanError(
                f"rule for {self.stage!r} can never fire "
                "(no probability, no nth)")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultPlanError(
                f"max_fires must be >= 1 or None, got {self.max_fires}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic set of fault rules (plain picklable data).

    The zero-rule plan (``FaultPlan(seed=s)``) is the control: it
    threads an injector through the pipeline but never fires, and runs
    bit-identical to an uninstrumented execution.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            rule.validate()

    @property
    def stages(self) -> tuple[str, ...]:
        """The distinct stages this plan can fault, in STAGES order."""
        mine = {r.stage for r in self.rules}
        return tuple(s for s in STAGES if s in mine)

    def describe(self) -> str:
        if not self.rules:
            return f"zero-fault plan (seed {self.seed})"
        parts = []
        for r in self.rules:
            trig = []
            if r.nth is not None:
                trig.append(f"nth={r.nth}")
            if r.probability:
                trig.append(f"p={r.probability:g}")
            cap = "" if r.max_fires is None else f"≤{r.max_fires}"
            parts.append(f"{r.stage}[{','.join(trig)}{cap}]")
        return f"seed {self.seed}: " + " ".join(parts)


@dataclass
class _StageState:
    """Runtime bookkeeping for one stage's rules."""

    rules: list[FaultRule] = field(default_factory=list)
    rng: random.Random | None = None
    occurrences: int = 0
    fired: int = 0
    rule_fires: list[int] = field(default_factory=list)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a running pipeline.

    The runtime calls :meth:`fires` (boolean probe, used where the
    degradation is behavioral — skip a sweep, skip a demotion, corrupt
    a payload) or :meth:`fire` (raising probe, used where the fault
    must unwind into the recovery ladder) at each stage.  Stages with
    no rules cost one dict lookup per probe and nothing else.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._stages: dict[str, _StageState] = {}
        for rule in plan.rules:
            st = self._stages.get(rule.stage)
            if st is None:
                st = self._stages[rule.stage] = _StageState(
                    rng=random.Random(f"{plan.seed}:{rule.stage}"))
            st.rules.append(rule)
            st.rule_fires.append(0)

    # ------------------------------------------------------------------ #

    def fires(self, stage: str) -> bool:
        """Count one occurrence of ``stage``; True if any rule fires."""
        st = self._stages.get(stage)
        if st is None:
            return False
        st.occurrences += 1
        hit = False
        for i, rule in enumerate(st.rules):
            if (rule.max_fires is not None
                    and st.rule_fires[i] >= rule.max_fires):
                continue
            if rule.nth is not None and st.occurrences == rule.nth:
                fired = True
            elif rule.probability > 0.0:
                # roll even when another rule already hit, so the
                # stage's PRNG stream advances identically regardless
                # of which rules are present alongside it
                fired = st.rng.random() < rule.probability
            else:
                fired = False
            if fired:
                st.rule_fires[i] += 1
                hit = True
        if hit:
            st.fired += 1
        return hit

    def fire(self, stage: str, detail: str = "") -> None:
        """Raising probe: raise :class:`InjectedFault` if a rule fires."""
        if self.fires(stage):
            raise InjectedFault(stage, self._stages[stage].occurrences,
                                detail)

    def rng(self, stage: str) -> random.Random:
        """The stage's deterministic PRNG (payload corruption etc.)."""
        st = self._stages.get(stage)
        if st is None:  # probe-only stage: still deterministic
            st = self._stages[stage] = _StageState(
                rng=random.Random(f"{self.plan.seed}:{stage}"))
        return st.rng

    # ------------------------------------------------------------------ #
    # accounting                                                          #
    # ------------------------------------------------------------------ #

    @property
    def total_fired(self) -> int:
        return sum(st.fired for st in self._stages.values())

    @property
    def fired(self) -> dict[str, int]:
        """Stage → number of occurrences at which a fault fired."""
        return {s: st.fired for s, st in self._stages.items() if st.fired}

    @property
    def occurrences(self) -> dict[str, int]:
        """Stage → number of times the stage was probed."""
        return {s: st.occurrences for s, st in self._stages.items()
                if st.occurrences}

    def summary(self) -> dict:
        """Picklable accounting snapshot (campaign table rows)."""
        return {
            "plan": self.plan.describe(),
            "fired": self.fired,
            "occurrences": self.occurrences,
            "total_fired": self.total_fired,
        }
