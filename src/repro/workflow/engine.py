"""Workflow execution: moving materials through the graph.

The engine is the glue between workflow *modelling* (the graph) and
workflow *tracking* (LabBase): advancing a material looks up the
transition for its current state, records the step (extending the event
history), creates any new materials the step produces, applies the
transition test (a seeded coin against ``fail_probability``), and
asserts the new state.

Attribute values are produced by a *value factory* so workload
generators control realism and size; :func:`default_value_factory`
provides sensible synthetic values for every :class:`ValueKind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TransitionError
from repro.labbase.database import LabBase
from repro.labbase.temporal import LabClock
from repro.util.rng import DeterministicRng
from repro.workflow.graph import WorkflowGraph
from repro.workflow.spec import AttributeSpec, StepSpec, ValueKind

#: (step, attribute, material_key, rng) -> value
ValueFactory = Callable[[StepSpec, AttributeSpec, str, DeterministicRng], object]


def default_value_factory(
    step: StepSpec,
    attribute: AttributeSpec,
    material_key: str,
    rng: DeterministicRng,
) -> object:
    """Small, deterministic synthetic values for every kind."""
    kind = attribute.kind
    if kind is ValueKind.IDENTIFIER:
        return rng.identifier(attribute.name[:4])
    if kind is ValueKind.DNA:
        return rng.dna(rng.gaussian_int(400, 120, minimum=50))
    if kind is ValueKind.INTEGER:
        return rng.randint(0, 10_000)
    if kind is ValueKind.FLOAT:
        return round(rng.uniform(0.0, 1.0), 4)
    if kind is ValueKind.TEXT:
        return f"{attribute.name} of {material_key}"
    if kind is ValueKind.DATE:
        return rng.randint(9_000, 9_999)
    if kind is ValueKind.HIT_LIST:
        return [
            {
                "accession": rng.identifier("gb", 6),
                "score": rng.randint(30, 2000),
                "expect": rng.uniform(0.0, 0.01),
            }
            for _ in range(rng.gaussian_int(8, 4, minimum=0))
        ]
    raise TransitionError(f"no generator for value kind {kind}")


@dataclass(frozen=True)
class StepEvent:
    """What one :meth:`WorkflowEngine.advance` call did."""

    step_class: str
    step_oid: int
    material_oid: int
    from_state: str
    to_state: str
    failed: bool
    created: tuple[int, ...] = ()


@dataclass
class EngineCounters:
    """Tallies over an engine's lifetime (workload reporting)."""

    steps: int = 0
    failures: int = 0
    materials_created: int = 0
    completed: int = 0
    per_step: dict = field(default_factory=dict)


class WorkflowEngine:
    """Drives materials through a workflow graph against a LabBase."""

    def __init__(
        self,
        db: LabBase,
        graph: WorkflowGraph,
        rng: DeterministicRng,
        clock: LabClock | None = None,
        value_factory: ValueFactory = default_value_factory,
    ) -> None:
        self.db = db
        self.graph = graph
        self.rng = rng
        self.clock = clock or LabClock()
        self.value_factory = value_factory
        self.counters = EngineCounters()
        self._key_counters: dict[str, int] = {}

    # -- schema installation -------------------------------------------------

    def install_schema(self) -> None:
        """Register the workflow's material and step classes in LabBase."""
        for material in self.graph.spec.materials:
            self.db.define_material_class(
                material.class_name,
                description=material.description,
                parent=material.parent,
            )
        for step in self.graph.spec.steps:
            self.db.define_step_class(
                step.class_name,
                step.attribute_names,
                involves_classes=step.involves_classes,
                description=step.description,
            )

    # -- material intake ---------------------------------------------------------

    def next_key(self, class_name: str) -> str:
        spec = self.graph.spec.material(class_name)
        count = self._key_counters.get(class_name, 0) + 1
        self._key_counters[class_name] = count
        return f"{spec.key_prefix}-{count:06d}"

    def create_material(self, class_name: str) -> int:
        """New material in its class's initial state."""
        spec = self.graph.spec.material(class_name)
        oid = self.db.create_material(
            class_name,
            self.next_key(class_name),
            self.clock.tick(),
            state=spec.initial_state,
        )
        self.counters.materials_created += 1
        return oid

    # -- advancing ------------------------------------------------------------------

    def advance(self, material_oid: int) -> StepEvent | None:
        """Apply the next workflow step to a material.

        Returns None when the material's state is terminal (or it has no
        state).  Raises :class:`TransitionError` if the material sits in
        a state with no transition that is not terminal — validation
        should make that impossible, so it indicates database damage.
        """
        state = self.db.state_of(material_oid)
        if state is None or self.graph.is_terminal(state):
            return None
        transition = self.graph.transition_for(state)
        if transition is None:
            raise TransitionError(
                f"material {material_oid} in state {state!r} has no transition"
            )
        step_spec = self.graph.spec.step(transition.step)
        material = self.db.material(material_oid)
        material_key = material["key"]

        results = {
            attr.name: self.value_factory(step_spec, attr, material_key, self.rng)
            for attr in step_spec.attributes
        }

        created = tuple(
            self.create_material(class_name) for class_name in step_spec.creates
        )

        step_oid = self.db.record_step(
            step_spec.class_name,
            self.clock.tick(),
            involves=(material_oid, *created),
            results=results,
        )

        failed = transition.fail_probability > 0 and self.rng.chance(
            transition.fail_probability
        )
        to_state = transition.fail_state if failed else transition.to_state
        assert to_state is not None  # guaranteed by Transition validation
        self.db.set_state(material_oid, to_state, self.clock.tick())

        self.counters.steps += 1
        self.counters.per_step[step_spec.class_name] = (
            self.counters.per_step.get(step_spec.class_name, 0) + 1
        )
        if failed:
            self.counters.failures += 1
        if self.graph.is_terminal(to_state):
            self.counters.completed += 1

        return StepEvent(
            step_class=step_spec.class_name,
            step_oid=step_oid,
            material_oid=material_oid,
            from_state=state,
            to_state=to_state,
            failed=failed,
            created=created,
        )

    def run_to_completion(self, material_oid: int, max_steps: int = 1000) -> list[StepEvent]:
        """Advance one material until it reaches a terminal state."""
        events = []
        for _ in range(max_steps):
            event = self.advance(material_oid)
            if event is None:
                return events
            events.append(event)
        raise TransitionError(
            f"material {material_oid} did not terminate within {max_steps} steps"
        )

    def pump(self, max_steps: int) -> int:
        """Advance whatever work is pending, round-robin over states.

        Within a state the lowest-oid (oldest-created) waiting material
        goes first.

        Returns the number of steps executed (may be less than
        ``max_steps`` if the lab runs dry).
        """
        executed = 0
        while executed < max_steps:
            progressed = False
            for state in self.graph.states():
                if self.graph.is_terminal(state):
                    continue
                pending = self.db.first_in_state(state)
                if pending is None:
                    continue
                self.advance(pending)
                executed += 1
                progressed = True
                if executed >= max_steps:
                    break
            if not progressed:
                break
        return executed
