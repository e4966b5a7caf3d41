"""Process-role inference over the project call graph.

The sharded engine (:mod:`repro.sim.shard`) is a forked multi-process
system: the master runs the adversary/receive/close phases, owns every
shared-memory segment, and splices worker send streams; each worker owns
one position band and runs only the compute phase.  Which *functions*
execute in which process is not written down anywhere — it is implied by
reachability from a handful of entry points.  This module makes that
implicit partition explicit:

* **worker seeds** — functions named like a worker body
  (:data:`WORKER_ENTRY_NAMES`, e.g. ``_worker_main``): they run inside a
  forked child from the first round command to the stop message;
* **master seeds** — every method of a coordinator class
  (:data:`MASTER_ENTRY_CLASSES`, e.g. ``ShardRunner``) plus the engine's
  round drivers (``Engine.run`` / ``Engine.run_round``): they only ever
  run in the parent.

Roles propagate along *resolved* call edges (the same resolution the flow
analysis uses, :class:`~repro.analysis.flow.callgraph.ProjectIndex`): a
function reachable only from worker seeds is **worker**-role, only from
master seeds **master**-role, from both **shared**.  Unresolvable calls
(arbitrary receivers, builtins, third-party code) deliberately stop
propagation — same tripwire semantics as the flow analysis: what the graph
cannot see, the rules do not claim to check.

Passing a worker entry point as a ``Process`` *target* is a name load,
not a call, so worker seeds are never accidentally pulled into the
master's reach by the fork call site itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.flow.callgraph import ProjectIndex

__all__ = [
    "MASTER",
    "WORKER",
    "SHARED",
    "WORKER_ENTRY_NAMES",
    "MASTER_ENTRY_CLASSES",
    "MASTER_ENTRY_SUFFIXES",
    "RoleMap",
    "call_edges",
    "infer_roles",
]

#: Role constants (values appear in reports and test assertions).
MASTER = "master"
WORKER = "worker"
SHARED = "shared"

#: Bare function names treated as worker-process entry points.
WORKER_ENTRY_NAMES: tuple[str, ...] = ("_worker_main", "_worker_loop")

#: Classes whose every method is a master-process entry point.
MASTER_ENTRY_CLASSES: tuple[str, ...] = ("ShardRunner",)

#: Qualified-name suffixes that are master entry points wherever they live.
MASTER_ENTRY_SUFFIXES: tuple[str, ...] = (".Engine.run", ".Engine.run_round")


@dataclass
class RoleMap:
    """The inferred process role of every function reachable from a seed."""

    #: ``qname -> MASTER | WORKER | SHARED``; unreachable functions absent.
    roles: dict[str, str]
    worker_seeds: tuple[str, ...]
    master_seeds: tuple[str, ...]

    def role_of(self, qname: str) -> str | None:
        return self.roles.get(qname)

    def worker_only(self, qname: str) -> bool:
        """Whether ``qname`` runs *exclusively* in worker processes."""
        return self.roles.get(qname) == WORKER

    def counts(self) -> dict[str, int]:
        out = {MASTER: 0, WORKER: 0, SHARED: 0}
        for role in self.roles.values():
            out[role] += 1
        return out


def call_edges(index: ProjectIndex) -> dict[str, set[str]]:
    """Resolved caller -> callee edges for every indexed function.

    Calls inside nested functions/lambdas are attributed to the enclosing
    indexed function — they execute (if at all) in the same process.
    """
    edges: dict[str, set[str]] = {}
    for qname, info in index.functions.items():
        out: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = index.resolve_call(info.module, info.cls, node.func)
            if resolved is not None:
                out.add(resolved[0].qname)
        edges[qname] = out
    return edges


def _reach(seeds: list[str], edges: dict[str, set[str]]) -> set[str]:
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        qname = frontier.pop()
        for callee in edges.get(qname, ()):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


def infer_roles(index: ProjectIndex) -> RoleMap:
    """Seed the entry points and propagate roles over the call graph."""
    worker_seeds = sorted(
        qname
        for qname, info in index.functions.items()
        if info.node.name in WORKER_ENTRY_NAMES
    )
    master_seeds = sorted(
        qname
        for qname, info in index.functions.items()
        if info.cls in MASTER_ENTRY_CLASSES
        or any(qname.endswith(suffix) for suffix in MASTER_ENTRY_SUFFIXES)
    )
    edges = call_edges(index)
    from_worker = _reach(worker_seeds, edges)
    from_master = _reach(master_seeds, edges)
    roles: dict[str, str] = {}
    for qname in from_worker | from_master:
        if qname not in index.functions:  # pragma: no cover - defensive
            continue
        in_w = qname in from_worker
        in_m = qname in from_master
        roles[qname] = SHARED if (in_w and in_m) else (WORKER if in_w else MASTER)
    return RoleMap(
        roles=roles,
        worker_seeds=tuple(worker_seeds),
        master_seeds=tuple(master_seeds),
    )
