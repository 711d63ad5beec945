"""The architecture contract: which subsystem may import which.

The paper's pipeline (Fig 3) is a layered architecture, and the
reproduction keeps it that way so subsystems stay independently
testable and replaceable:

    util                          (rank 0: imports nothing from repro)
    obs                           (rank 1: tracing + metrics substrate)
    exec                          (rank 2: execution backends)
    engine store faults           (rank 3: engine; warehouse; resilience)
    synth                         (rank 4: generators fill the store)
    asr cleaning linking annotation   (rank 5: channel engines)
    mining churn                  (rank 6: analysis layer)
    core devtools stream          (rank 7: facade / tooling / streaming)
    serve prop                    (rank 8: serving; differential harness)
    cli                           (rank 9: entry points)
    __main__                      (rank 10)

A module may import from strictly lower-ranked subsystems and from its
own subsystem; same-rank cross-package imports (``asr`` -> ``cleaning``)
are rejected so sibling engines never entangle.  Cycles anywhere in
the module graph are rejected outright.
"""

from dataclasses import dataclass, field

from repro.devtools.violations import Severity, Violation

#: Subsystem -> rank for the reproduction, mirroring DESIGN.md's
#: inventory.  ``store`` sits below ``synth`` because the generators
#: build warehouse records (Databases) as part of their corpora.
DEFAULT_LAYERS = {
    "util": 0,
    # Observability sits below every instrumented layer: the engine,
    # the stream consumer and the channel hot paths all open spans and
    # bump counters, so the tracer/metrics substrate must be
    # importable from rank 2 upward while itself importing nothing.
    "obs": 1,
    # Execution backends (inline / process fan-out) sit just above
    # observability: the engine maps its pure stages through them,
    # while the backends themselves only record write-only metrics.
    "exec": 2,
    "engine": 3,
    "store": 3,
    # The resilience substrate (fault injection, retries, breakers)
    # must be importable by everything that does I/O or serves —
    # stream, serve, cli — while itself needing only the RNG helpers
    # and write-only observability, so it sits with the engine.
    "faults": 3,
    "synth": 4,
    "asr": 5,
    "cleaning": 5,
    "linking": 5,
    "annotation": 5,
    "mining": 6,
    "churn": 6,
    "core": 7,
    "devtools": 7,
    # The streaming consumer drives engine stage graphs (rank 3) and
    # mirrors the mining analyses (rank 6), so it sits with the
    # facades; same-rank isolation keeps it independent of ``core``.
    "stream": 7,
    # Serving answers queries over the stream layer's epoch snapshots
    # with the mining analytics, so it sits above both and below the CLI
    # entry points that host it.
    "serve": 8,
    # The seeded differential-testing harness drives the engine, the
    # mining analytics and the stream consumer end to end; it shares
    # serve's rank (no cross-import either way) so the CLI can host
    # both.
    "prop": 8,
    "cli": 9,
    "__main__": 10,
}


@dataclass(frozen=True)
class LayerContract:
    """Declared ranks plus the membership test the checker applies."""

    layers: "dict[str, int]" = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )

    def rank(self, subpackage):
        """Rank of a subsystem, or ``None`` if undeclared."""
        return self.layers.get(subpackage)

    def allows(self, src_pkg, dst_pkg):
        """May ``src_pkg`` import ``dst_pkg`` under this contract?

        Imports within one subsystem are always allowed; the package
        root (``""``) may import anything (it only re-exports).
        Undeclared subsystems are handled by the caller, which reports
        them instead of guessing a rank.
        """
        if src_pkg == dst_pkg or src_pkg == "" or dst_pkg == "":
            return True
        src_rank = self.rank(src_pkg)
        dst_rank = self.rank(dst_pkg)
        if src_rank is None or dst_rank is None:
            return False
        return dst_rank < src_rank


#: The contract ``bivoc lint`` enforces on ``src/repro``.
DEFAULT_CONTRACT = LayerContract()


def check_layering(graph, contract=DEFAULT_CONTRACT):
    """Check a :class:`~repro.devtools.modgraph.ModuleGraph` against a contract.

    Emits ``layer-contract`` violations for forbidden edges (including
    edges touching a subsystem the contract does not declare) and one
    ``import-cycle`` violation per strongly connected component.
    """
    violations = []
    for src in sorted(graph.edges):
        src_pkg = graph.subpackage_of(src)
        for dst, line in sorted(graph.edges[src].items()):
            dst_pkg = graph.subpackage_of(dst)
            if contract.allows(src_pkg, dst_pkg):
                continue
            path = str(graph.modules[src])
            if contract.rank(src_pkg) is None or contract.rank(
                dst_pkg
            ) is None:
                undeclared = (
                    src_pkg if contract.rank(src_pkg) is None else dst_pkg
                )
                message = (
                    f"subsystem '{undeclared}' is not declared in the "
                    f"layer contract; declare its rank in "
                    f"repro.devtools.layering before importing across it"
                )
            else:
                message = (
                    f"'{src}' (layer '{src_pkg}', rank "
                    f"{contract.rank(src_pkg)}) may not import '{dst}' "
                    f"(layer '{dst_pkg}', rank {contract.rank(dst_pkg)}); "
                    f"only strictly lower layers are importable"
                )
            violations.append(
                Violation(
                    path=path,
                    line=line,
                    col=0,
                    rule_id="layer-contract",
                    severity=Severity.ERROR,
                    message=message,
                )
            )

    for component in graph.find_cycles():
        anchor = component[0]
        cycle = " -> ".join(component + (component[0],))
        violations.append(
            Violation(
                path=str(graph.modules[anchor]),
                line=1,
                col=0,
                rule_id="import-cycle",
                severity=Severity.ERROR,
                message=f"import cycle among modules: {cycle}",
            )
        )
    return sorted(violations)
