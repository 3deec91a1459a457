"""Unit tests for workflow-graph construction and validation."""

import pytest

from repro.errors import InvalidWorkflowError
from repro.workflow.graph import WorkflowGraph
from repro.workflow.spec import (
    AttributeSpec,
    MaterialSpec,
    StepSpec,
    Transition,
    ValueKind,
    WorkflowSpec,
)


def _spec(**overrides) -> WorkflowSpec:
    base = dict(
        name="toy",
        materials=[MaterialSpec("m", "m", initial_state="start")],
        steps=[
            StepSpec("go", (AttributeSpec("a", ValueKind.INTEGER),), ("m",)),
        ],
        transitions=[Transition("go", "start", "end")],
        terminal_states=("end",),
    )
    base.update(overrides)
    return WorkflowSpec(**base)


def test_valid_toy_graph():
    graph = WorkflowGraph(_spec())
    assert graph.states() == ["end", "start"]
    assert graph.initial_states() == ["start"]
    assert graph.is_terminal("end")
    assert not graph.has_cycles()
    assert graph.longest_acyclic_path() == 1


def test_transition_lookup():
    graph = WorkflowGraph(_spec())
    transition = graph.transition_for("start")
    assert transition is not None and transition.step == "go"
    assert graph.transition_for("end") is None
    assert len(graph.transitions_from("start")) == 1


def test_unknown_step_rejected():
    with pytest.raises(InvalidWorkflowError, match="unknown"):
        WorkflowGraph(_spec(transitions=[Transition("ghost", "start", "end")]))


def test_step_referencing_unknown_material_rejected():
    bad_step = StepSpec("go", (), ("phantom",))
    with pytest.raises(InvalidWorkflowError, match="unknown material"):
        WorkflowGraph(_spec(steps=[bad_step]))


def test_no_terminal_states_rejected():
    with pytest.raises(InvalidWorkflowError, match="terminal"):
        WorkflowGraph(_spec(terminal_states=()))


def test_terminal_with_outgoing_rejected():
    spec = _spec(
        transitions=[
            Transition("go", "start", "end"),
            Transition("go", "end", "start"),
        ]
    )
    with pytest.raises(InvalidWorkflowError, match="outgoing"):
        WorkflowGraph(spec)


def test_no_initial_state_rejected():
    spec = _spec(materials=[MaterialSpec("m", "m", initial_state=None)])
    with pytest.raises(InvalidWorkflowError, match="initial"):
        WorkflowGraph(spec)


def test_unreachable_state_rejected():
    spec = _spec(
        transitions=[
            Transition("go", "start", "end"),
            Transition("go", "island_a", "island_b"),
        ],
        terminal_states=("end", "island_b"),
    )
    with pytest.raises(InvalidWorkflowError, match="unreachable"):
        WorkflowGraph(spec)


def test_dead_end_state_rejected():
    """A non-terminal state that cannot reach any terminal."""
    spec = _spec(
        steps=[
            StepSpec("go", (), ("m",)),
            StepSpec("stray", (), ("m",)),
        ],
        transitions=[
            Transition("go", "start", "end"),
            Transition("stray", "start", "limbo"),
            Transition("stray", "limbo", "limbo2"),
            Transition("stray", "limbo2", "limbo"),
        ],
    )
    with pytest.raises(InvalidWorkflowError, match="cannot reach"):
        WorkflowGraph(spec)


def test_failure_edge_creates_cycle():
    spec = _spec(
        transitions=[
            Transition(
                "go", "start", "end", fail_state="start", fail_probability=0.2
            )
        ]
    )
    graph = WorkflowGraph(spec)
    assert graph.has_cycles()
    assert graph.longest_acyclic_path() == 1  # success edges only


def test_to_text_mentions_everything():
    spec = _spec(
        transitions=[
            Transition(
                "go", "start", "end", fail_state="start",
                fail_probability=0.25, test="test:ok",
            )
        ]
    )
    text = WorkflowGraph(spec).to_text()
    assert "start --[go]--> end" in text
    assert "25%" in text and "test:ok" in text
    assert "terminal states: end" in text


def test_cli_import_leaves_networkx_out():
    """Every served or embedded process builds a workflow graph at
    start-up; none should pay for a graph library to check twenty states."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli, repro.workflow.graph; "
            "sys.exit('networkx' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0
