"""Model-assumption validation (Section 2, made checkable).

The paper's guarantees hold under specific assumptions; silently violating
one produces confusing "bugs".  :func:`validate_model` checks an
experiment configuration against every assumption and returns a list of
:class:`Violation` diagnostics (empty = clean), so harnesses can run
``strict`` and fail fast with a precise message instead of a wrong sum.

Checked assumptions:

* ``connected``   — the topology is connected (required by the model);
* ``root-safe``   — the root never crashes;
* ``f-budget``    — edge failures stay within the declared ``f``;
* ``c-stretch``   — the surviving diameter never exceeds ``c * d``;
* ``input-domain``— inputs are non-negative and polynomial in ``N``;
* ``b-feasible``  — Algorithm 1's ``b >= 21c`` precondition;
* ``known-nodes`` — the schedule only names real nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..graphs.topology import Topology


class ModelViolation(ValueError):
    """A configuration breaks one or more Section 2 assumptions."""


@dataclass(frozen=True)
class Violation:
    """One broken model assumption."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


def validate_model(
    topology: Topology,
    inputs: Optional[Dict[int, int]] = None,
    schedule=None,
    f: Optional[int] = None,
    b: Optional[int] = None,
    c: int = 2,
    input_degree: int = 3,
    allow_root_crash: bool = False,
) -> List[Violation]:
    """Check a configuration against the Section 2 assumptions.

    ``input_degree`` bounds the polynomial input domain: inputs must stay
    within ``N ** input_degree``.  ``allow_root_crash`` skips the
    root-safety check (the :mod:`repro.resilience` failover opt-in).
    """
    violations: List[Violation] = []

    # Topology construction already guarantees connectivity, but re-check
    # defensively (the object may have been mutated).
    from ..graphs.properties import is_connected

    if not is_connected(topology.adjacency):
        violations.append(
            Violation("connected", "topology is not connected")
        )

    if schedule is not None:
        if topology.root in schedule.failed_nodes and not allow_root_crash:
            violations.append(
                Violation(
                    "root-safe",
                    f"the root (node {topology.root}) is scheduled to crash",
                )
            )
        unknown = schedule.failed_nodes - set(topology.adjacency)
        if unknown:
            violations.append(
                Violation(
                    "known-nodes",
                    f"schedule names nodes outside the graph: {sorted(unknown)}",
                )
            )
        if f is not None:
            used = topology.edges_incident(
                schedule.failed_nodes & set(topology.adjacency)
            )
            if used > f:
                violations.append(
                    Violation(
                        "f-budget",
                        f"schedule induces {used} edge failures "
                        f"(declared budget f={f})",
                    )
                )
        if not unknown and topology.root not in schedule.failed_nodes:
            if not schedule.respects_c_constraint(topology, c):
                violations.append(
                    Violation(
                        "c-stretch",
                        f"failures stretch the surviving diameter past "
                        f"c*d = {c * topology.diameter}",
                    )
                )

    if inputs is not None:
        missing = set(topology.adjacency) - set(inputs)
        if missing:
            violations.append(
                Violation(
                    "input-domain",
                    f"nodes without inputs: {sorted(missing)[:5]}...",
                )
            )
        limit = topology.n_nodes**input_degree
        for node, value in inputs.items():
            if value < 0:
                violations.append(
                    Violation(
                        "input-domain",
                        f"node {node} has a negative input ({value})",
                    )
                )
                break
            if value > limit:
                violations.append(
                    Violation(
                        "input-domain",
                        f"node {node}'s input {value} exceeds the polynomial "
                        f"domain N^{input_degree} = {limit}",
                    )
                )
                break

    if b is not None and b < 21 * c:
        violations.append(
            Violation(
                "b-feasible",
                f"Algorithm 1 requires b >= 21c = {21 * c}, got b={b}",
            )
        )

    return violations


def assert_model(
    topology: Topology,
    inputs: Optional[Dict[int, int]] = None,
    schedule=None,
    f: Optional[int] = None,
    b: Optional[int] = None,
    c: int = 2,
    allow_root_crash: bool = False,
) -> None:
    """Raise :class:`ModelViolation` (a ValueError) with all diagnostics
    if any assumption is broken."""
    violations = validate_model(
        topology,
        inputs=inputs,
        schedule=schedule,
        f=f,
        b=b,
        c=c,
        allow_root_crash=allow_root_crash,
    )
    if violations:
        details = "\n  ".join(str(v) for v in violations)
        raise ModelViolation(f"model assumptions violated:\n  {details}")
