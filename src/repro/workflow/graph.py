"""Workflow graphs.

"Workflow graphs are based on the idea that each material has a workflow
state, and as the material is processed, it moves from one state to
another" (Section 2.2).  Nodes are states; edges are steps, possibly
with failure branches (the re-queue edges of the paper's Appendix B
graph).  The graph largely determines the DBMS workload, so validation
here is strict: a malformed graph would silently skew every experiment.

The structural checks (reachability, cycles, longest success path) are
plain traversals of an adjacency dict: a workflow has under twenty
states, and every process that serves or streams one builds this graph
at start-up, so they need no graph library.
"""

from __future__ import annotations

from repro.errors import InvalidWorkflowError
from repro.workflow.spec import Transition, WorkflowSpec


class _Cycle(Exception):
    """Raised inside a traversal that walked back onto its own path."""


class WorkflowGraph:
    """A validated workflow graph built from a :class:`WorkflowSpec`."""

    def __init__(self, spec: WorkflowSpec) -> None:
        self.spec = spec
        # state -> [(next state, is the success edge)]; every state has a
        # key, in first-mention order.
        self._edges: dict[str, list[tuple[str, bool]]] = {}
        self._by_state: dict[str, list[Transition]] = {}
        self._build()
        self.validate()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        edges = self._edges
        for transition in self.spec.transitions:
            edges.setdefault(transition.from_state, []).append(
                (transition.to_state, True)
            )
            edges.setdefault(transition.to_state, [])
            if transition.fail_state is not None:
                edges[transition.from_state].append((transition.fail_state, False))
                edges.setdefault(transition.fail_state, [])
            self._by_state.setdefault(transition.from_state, []).append(transition)
        for state in self.spec.terminal_states:
            edges.setdefault(state, [])
        for material in self.spec.materials:
            if material.initial_state is not None:
                edges.setdefault(material.initial_state, [])

    def _reachable(self, start: str) -> set[str]:
        """``start`` and every state some path of edges leads to from it."""
        seen = {start}
        frontier = [start]
        while frontier:
            for successor, _ok in self._edges[frontier.pop()]:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    def _longest_path(self, success_only: bool) -> int:
        """Edges on the longest path, or -1 if the edges form a cycle."""
        longest: dict[str, int] = {}
        on_path: set[str] = set()

        def visit(state: str) -> int:
            if state in on_path:
                raise _Cycle
            if state not in longest:
                on_path.add(state)
                longest[state] = max(
                    (
                        1 + visit(successor)
                        for successor, ok in self._edges[state]
                        if ok or not success_only
                    ),
                    default=0,
                )
                on_path.discard(state)
            return longest[state]

        try:
            return max(map(visit, self._edges), default=0)
        except _Cycle:
            return -1

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`InvalidWorkflowError` on any structural defect."""
        spec = self.spec
        step_names = {step.class_name for step in spec.steps}
        material_names = {material.class_name for material in spec.materials}

        if not spec.terminal_states:
            raise InvalidWorkflowError(f"workflow {spec.name!r}: no terminal states")

        for transition in spec.transitions:
            if transition.step not in step_names:
                raise InvalidWorkflowError(
                    f"transition from {transition.from_state!r} uses unknown "
                    f"step {transition.step!r}"
                )

        for step in spec.steps:
            for class_name in step.involves_classes + step.creates:
                if class_name not in material_names:
                    raise InvalidWorkflowError(
                        f"step {step.class_name!r} references unknown material "
                        f"class {class_name!r}"
                    )

        for state in spec.terminal_states:
            if self._by_state.get(state):
                raise InvalidWorkflowError(
                    f"terminal state {state!r} has outgoing transitions"
                )

        initials = self.initial_states()
        if not initials:
            raise InvalidWorkflowError(
                f"workflow {spec.name!r}: no material has an initial state"
            )

        reachable: set[str] = set()
        for initial in initials:
            reachable |= self._reachable(initial)
        unreachable = set(self._edges) - reachable
        if unreachable:
            raise InvalidWorkflowError(
                f"states unreachable from any initial state: {sorted(unreachable)}"
            )

        terminal_set = set(spec.terminal_states)
        for state in self._edges:
            if state in terminal_set:
                continue
            if not terminal_set & self._reachable(state):
                raise InvalidWorkflowError(
                    f"state {state!r} cannot reach any terminal state"
                )

    # -- queries -----------------------------------------------------------------

    def initial_states(self) -> list[str]:
        return sorted(
            {
                material.initial_state
                for material in self.spec.materials
                if material.initial_state is not None
            }
        )

    def states(self) -> list[str]:
        return sorted(self._edges)

    def transitions_from(self, state: str) -> list[Transition]:
        return list(self._by_state.get(state, ()))

    def transition_for(self, state: str) -> Transition | None:
        """The (first) transition out of a state, or None if terminal."""
        transitions = self._by_state.get(state)
        return transitions[0] if transitions else None

    def is_terminal(self, state: str) -> bool:
        return state in self.spec.terminal_states

    def has_cycles(self) -> bool:
        """Whether re-queue edges create cycles (Appendix B's graph does)."""
        return self._longest_path(success_only=False) < 0

    def longest_acyclic_path(self) -> int:
        """Steps on the longest success path (failure edges removed);
        -1 if the success edges alone cycle, as exotic workflows may."""
        return self._longest_path(success_only=True)

    # -- rendering (the E4 "figure") ------------------------------------------------

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT (for documentation figures).

        Success edges are solid and labelled with the step; failure
        edges are dashed and labelled with the probability and test.
        """
        lines = [f'digraph "{self.spec.name}" {{', "  rankdir=LR;"]
        terminal = set(self.spec.terminal_states)
        initial = set(self.initial_states())
        for state in self.states():
            shape = "doublecircle" if state in terminal else (
                "box" if state in initial else "ellipse"
            )
            lines.append(f'  "{state}" [shape={shape}];')
        for transition in self.spec.transitions:
            lines.append(
                f'  "{transition.from_state}" -> "{transition.to_state}" '
                f'[label="{transition.step}"];'
            )
            if transition.fail_state is not None:
                label = f"{transition.fail_probability:.0%}"
                if transition.test:
                    label += f"\\n{transition.test} fails"
                lines.append(
                    f'  "{transition.from_state}" -> "{transition.fail_state}" '
                    f'[label="{label}", style=dashed];'
                )
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Render the graph as indented text, one transition per line."""
        lines = [f"workflow {self.spec.name!r}"]
        lines.append(f"  initial states : {', '.join(self.initial_states())}")
        lines.append(f"  terminal states: {', '.join(self.spec.terminal_states)}")
        lines.append("  transitions:")
        for transition in self.spec.transitions:
            arrow = f"{transition.from_state} --[{transition.step}]--> {transition.to_state}"
            if transition.fail_state is not None:
                arrow += (
                    f"  (fail {transition.fail_probability:.0%} -> "
                    f"{transition.fail_state}"
                )
                if transition.test:
                    arrow += f", test {transition.test}"
                arrow += ")"
            lines.append(f"    {arrow}")
        return "\n".join(lines)
