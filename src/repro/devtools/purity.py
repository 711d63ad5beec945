"""Concurrency-safety checker for the engine's purity contract.

The parallel executor trusts ``Stage.pure`` declarations: a pure stage
is run in worker processes, so a mis-declared one silently diverges
(its writes to shared state land in a worker's copy, never in the
parent's).  This module makes the declaration checkable: it finds every
stage class (structurally — any class defining both a ``pure`` class
attribute and a ``process`` method, plus all subclasses — so vendored
test engines are recognised without configuration), infers the effects
of running its ``process`` entry point *specialised to the concrete
class* (template methods like ``MapStage.process`` dispatch to the
subclass hook they will actually reach), and compares against the
declaration:

* declared ``pure=True`` with a provable disallowed effect — shared
  state (``self``/global/closure writes) is an
  ``effect-shared-state-race`` error, other impurities (I/O, wall
  clock, unseeded RNG) an ``effect-pure-mismatch`` error;
* declared impure but provably pure — an
  ``effect-missed-parallelism`` advisory (warning), skipped for base
  classes with project subclasses;
* anything reaching an ``unknown`` effect is *unverifiable*: the
  checker stays silent rather than guess, so it never emits a false
  positive.

``FunctionStage(..., pure=True)`` constructions are checked the same
way through the wrapped callable (a lambda or a resolvable function),
including its closure captures.
"""

import ast
from dataclasses import dataclass

from repro.devtools.effects import (
    AMBIENT_OBS,
    IO,
    MUTATES_GLOBAL,
    MUTATES_PARAM,
    MUTATES_SELF,
    UNKNOWN,
    UNSEEDED_RNG,
    WALL_CLOCK,
    Origin,
    map_callee_effect,
)
from repro.devtools.violations import Severity, Violation

RULE_PURE_MISMATCH = "effect-pure-mismatch"
RULE_SHARED_STATE = "effect-shared-state-race"
RULE_MISSED_PARALLELISM = "effect-missed-parallelism"

#: The effect rule ids, in severity order.
EFFECT_RULE_IDS = (
    RULE_PURE_MISMATCH,
    RULE_SHARED_STATE,
    RULE_MISSED_PARALLELISM,
)

#: Effects a pure stage may have: per-document mutation (documents are
#: partitioned across workers) and write-only ambient instrumentation
#: (the tracer/metrics registry is lock-protected).
ALLOWED_FOR_PURE = frozenset({MUTATES_PARAM, AMBIENT_OBS})

#: Disallowed effects that are *shared mutable state* — a race, not
#: just nondeterminism.
RACE_EFFECTS = frozenset({MUTATES_SELF, MUTATES_GLOBAL})

#: Disallowed effects that break determinism without a shared write.
NONDETERMINISM_EFFECTS = frozenset({IO, WALL_CLOCK, UNSEEDED_RNG})

_ENTRY_METHOD = "process"


@dataclass
class StageReport:
    """One checked stage: where, what was declared, what was inferred.

    ``kind`` is ``"class"`` or ``"construction"``; ``verdict`` is one
    of ``consistent`` / ``mismatch`` / ``race`` / ``advisory`` /
    ``unverifiable``.
    """

    kind: str
    name: str
    path: str
    line: int
    declared_pure: object  # True / False / None (undeterminable)
    effects: "tuple[str, ...]" = ()
    verdict: str = "consistent"


def find_stage_roots(graph):
    """Classes that *define* the stage protocol: own ``pure`` + ``process``.

    Structural, not nominal: a vendored ``Stage`` base inside a test
    fixture package is recognised exactly like the engine's.
    """
    return sorted(
        qualname
        for qualname, info in graph.classes.items()
        if "pure" in info.class_attrs and "process" in info.methods
    )


def stage_classes(graph, roots=None):
    """Every class whose project MRO reaches a stage root."""
    roots = set(find_stage_roots(graph) if roots is None else roots)
    found = set()
    for qualname in graph.classes:
        if roots.intersection(graph.mro(qualname)):
            found.add(qualname)
    return sorted(found)


def _constant_bool(node):
    """The bool of an ``ast.Constant`` True/False node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


def declared_purity(graph, class_qualname):
    """The ``pure`` flag a class declares, or ``None`` if dynamic.

    ``self.pure = <constant>`` in the class's own ``__init__`` wins
    over the (possibly inherited) class attribute, mirroring runtime
    attribute lookup.
    """
    init = graph.resolve_method(class_qualname, "__init__")
    if init is not None:
        node = graph.functions[init].node
        for walked in ast.walk(node):
            if not isinstance(walked, ast.Assign):
                continue
            for target in walked.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "pure"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return _constant_bool(walked.value)
    return _constant_bool(graph.class_attr(class_qualname, "pure"))


def construction_declared(graph, class_qualname):
    """Whether purity is declared per construction (``pure`` __init__
    parameter), FunctionStage-style."""
    init = graph.resolve_method(class_qualname, "__init__")
    return (
        init is not None and "pure" in graph.functions[init].params
    )


def class_entry_effects(analysis, class_qualname,
                        entry_method=_ENTRY_METHOD):
    """Effects of running ``class_qualname().process`` concretely.

    Returns ``(effects, origins, entry)`` where ``effects`` maps each
    inferred effect to its :class:`~repro.devtools.effects.Origin` in
    the *entry* function, ``origins`` maps ``(member, effect)`` pairs
    for witness-chain walking, and ``entry`` is the resolved entry
    qualname (``None`` when the class has no ``process`` anywhere in
    its MRO — then ``effects`` is ``{unknown: ...}``).

    Member methods reached through ``self.<m>()`` are re-resolved in
    the concrete class's MRO and analysed as a private fixpoint; calls
    that leave the class fall back to the global analysis.
    """
    graph = analysis.graph

    def resolve_self(method_name):
        return graph.resolve_method(class_qualname, method_name)

    entry = resolve_self(entry_method)
    if entry is None:
        info = graph.classes[class_qualname]
        origin = Origin(
            "direct", info.path, info.line,
            detail=f"no '{entry_method}' method resolvable",
        )
        return {UNKNOWN: origin}, {}, None

    # Member discovery: BFS over self-dispatched edges.
    members = []
    queue = [entry]
    seen = set()
    while queue:
        current = queue.pop()
        if current in seen or current not in graph.functions:
            continue
        seen.add(current)
        members.append(current)
        info = graph.functions[current]
        if info.declared_effects is not None:
            continue
        for site in info.calls:
            if site.self_method:
                target = resolve_self(site.method)
                if target is not None:
                    queue.append(target)

    # Per-member effects, specialised; then fixpoint over the members.
    member_effects = {}
    origins = {}
    for member in members:
        info = graph.functions[member]
        if info.declared_effects is not None:
            member_effects[member] = {
                effect: Origin(
                    "direct", info.path, info.line,
                    detail="declared by # bivoc: effects[...]",
                )
                for effect in info.declared_effects
            }
        else:
            member_effects[member] = dict(
                analysis.direct_effects(info, resolve_self=resolve_self)
            )
    changed = True
    while changed:
        changed = False
        for member in members:
            info = graph.functions[member]
            if info.declared_effects is not None:
                continue
            current = member_effects[member]
            for site in info.calls:
                if site.self_method:
                    target = resolve_self(site.method)
                    callees = () if target is None else (target,)
                else:
                    callees = site.targets
                for callee in callees:
                    callee_effects = (
                        member_effects[callee]
                        if callee in member_effects
                        else analysis.effects_of(callee)
                    )
                    for effect in callee_effects:
                        mapped = map_callee_effect(effect, site)
                        if mapped is None or mapped in current:
                            continue
                        current[mapped] = Origin(
                            "call", info.path, site.line, callee=callee
                        )
                        changed = True
    for member, effects in member_effects.items():
        for effect, origin in effects.items():
            origins[(member, effect)] = origin
    return member_effects[entry], origins, entry


def _witness_text(analysis, origins, start, effect, limit=8):
    """Human-readable evidence chain for one ``(function, effect)``."""
    steps = []
    seen = set()
    current = start
    while current not in seen and len(steps) < limit:
        seen.add(current)
        origin = origins.get((current, effect))
        if origin is None:
            origin = analysis.origin_of(current, effect)
        if origin is None:
            break
        if origin.kind != "call":
            steps.append(f"{origin.detail} at {origin.path}:{origin.line}")
            break
        short = origin.callee.rsplit(".", 2)
        steps.append("via " + ".".join(short[-2:]))
        current = origin.callee
    return ", ".join(steps) if steps else "(no witness recorded)"


def _short(qualname):
    return qualname.rsplit(".", 1)[-1]


def _verdict_for(declared_pure, effects):
    """(verdict, offending_effects) for one declared/inferred pair."""
    disallowed = sorted(
        effect for effect in effects
        if effect in RACE_EFFECTS or effect in NONDETERMINISM_EFFECTS
    )
    if declared_pure is True:
        if disallowed:
            race = [e for e in disallowed if e in RACE_EFFECTS]
            return ("race" if race else "mismatch", disallowed)
        if UNKNOWN in effects:
            return ("unverifiable", [])
        return ("consistent", [])
    if declared_pure is False:
        if UNKNOWN in effects or disallowed:
            return ("consistent", [])
        return ("advisory", [])
    return ("unverifiable", [])


def check_stage_classes(analysis):
    """Check every statically-declared stage class.

    Returns ``(violations, stage_reports)``.  Construction-declared
    classes (``pure`` __init__ parameter) are skipped here and handled
    by :func:`check_constructions`.
    """
    graph = analysis.graph
    violations = []
    reports = []
    for class_qualname in stage_classes(graph):
        if construction_declared(graph, class_qualname):
            continue
        info = graph.classes[class_qualname]
        declared = declared_purity(graph, class_qualname)
        effects, origins, entry = class_entry_effects(
            analysis, class_qualname
        )
        verdict, offending = _verdict_for(declared, effects)
        has_subclasses = bool(graph.subclasses_of(class_qualname))
        if verdict == "advisory" and has_subclasses:
            # A base/template class is not itself scheduled; advising
            # to flip its default would change every subclass.
            verdict = "consistent"
        reports.append(StageReport(
            kind="class",
            name=class_qualname,
            path=info.path,
            line=info.line,
            declared_pure=declared,
            effects=tuple(sorted(effects)),
            verdict=verdict,
        ))
        short = _short(class_qualname)
        if verdict in ("race", "mismatch"):
            rule = (
                RULE_SHARED_STATE if verdict == "race"
                else RULE_PURE_MISMATCH
            )
            noun = (
                "writes shared state" if verdict == "race"
                else "has non-deterministic effects"
            )
            for effect in offending:
                witness = _witness_text(analysis, origins, entry, effect)
                violations.append(Violation(
                    path=info.path,
                    line=info.line,
                    col=0,
                    rule_id=rule,
                    severity=Severity.ERROR,
                    message=(
                        f"stage '{short}' is declared pure=True but "
                        f"{noun}: {effect} ({witness}); parallel "
                        f"execution would race"
                    ),
                ))
        elif verdict == "advisory":
            violations.append(Violation(
                path=info.path,
                line=info.line,
                col=0,
                rule_id=RULE_MISSED_PARALLELISM,
                severity=Severity.WARNING,
                message=(
                    f"stage '{short}' is declared pure=False but its "
                    f"'{_ENTRY_METHOD}' is provably free of shared "
                    f"state and non-determinism; declaring pure=True "
                    f"would let the engine parallelise it"
                ),
            ))
    return violations, reports


def _call_node_index(function):
    """``(line, col) -> ast.Call`` for one function's own scope."""
    index = {}
    stack = list(ast.iter_child_nodes(function.node))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            index[(node.lineno, node.col_offset)] = node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return index


def _bound_arguments(call_node, params):
    """Map ``__init__`` parameter names to argument AST nodes.

    ``params`` includes ``self``; positionals bind from the second
    parameter on.  ``**kwargs``/``*args`` constructions return partial
    maps — absent entries mean "not statically determinable".
    """
    bound = {}
    positional = [p for p in params[1:]]
    for index, arg in enumerate(call_node.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(positional):
            bound[positional[index]] = arg
    for keyword in call_node.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    return bound


def _lambda_qualname_of(graph, function, lambda_node):
    """Synthetic qualname of a lambda node inside ``function``."""
    index = 0
    for walked in ast.walk(function.node):
        if isinstance(walked, ast.Lambda):
            if walked is lambda_node:
                candidate = f"{function.qualname}.<lambda#{index}>"
                return candidate if candidate in graph.functions else None
            index += 1
    return None


def _callable_qualname(graph, function, fn_node):
    """Resolve a construction's ``fn=`` argument to a function node."""
    if isinstance(fn_node, ast.Lambda):
        return _lambda_qualname_of(graph, function, fn_node)
    if isinstance(fn_node, ast.Name):
        entry = graph.symbols.get(function.module, {}).get(fn_node.id)
        if entry and entry[0] in ("function", "symbol"):
            qualname = entry[1]
            if qualname in graph.functions:
                return qualname
    return None


def check_constructions(analysis):
    """Check every ``FunctionStage(..., pure=...)``-style construction.

    Returns ``(violations, stage_reports)``.  The wrapped callable's
    effect set (closure captures included — a lambda mutating an
    enclosing list is a ``mutates-global`` closure write) is judged by
    the same policy as class stages.
    """
    graph = analysis.graph
    ctor_inits = {}
    for class_qualname in stage_classes(graph):
        if not construction_declared(graph, class_qualname):
            continue
        init = graph.resolve_method(class_qualname, "__init__")
        ctor_inits[init] = class_qualname

    violations = []
    reports = []
    for function in list(graph.functions.values()):
        sites = [
            site for site in function.calls
            if any(target in ctor_inits for target in site.targets)
        ]
        if not sites:
            continue
        call_index = _call_node_index(function)
        for site in sites:
            init = next(t for t in site.targets if t in ctor_inits)
            class_qualname = ctor_inits[init]
            call_node = call_index.get((site.line, site.col))
            if call_node is None:
                continue
            bound = _bound_arguments(
                call_node, graph.functions[init].params
            )
            declared = (
                _constant_bool(bound["pure"]) if "pure" in bound
                else False  # the engine's default
            )
            fn_node = bound.get("fn")
            fn_qualname = (
                _callable_qualname(graph, function, fn_node)
                if fn_node is not None else None
            )
            if fn_qualname is None:
                effects = {UNKNOWN: None}
            else:
                effects = {
                    effect: analysis.origin_of(fn_qualname, effect)
                    for effect in analysis.effects_of(fn_qualname)
                }
            verdict, offending = _verdict_for(declared, effects)
            label = (
                f"{_short(class_qualname)} construction in "
                f"{_short(function.qualname)}"
            )
            reports.append(StageReport(
                kind="construction",
                name=label,
                path=function.path,
                line=site.line,
                declared_pure=declared,
                effects=tuple(sorted(effects)),
                verdict=verdict,
            ))
            if verdict in ("race", "mismatch"):
                rule = (
                    RULE_SHARED_STATE if verdict == "race"
                    else RULE_PURE_MISMATCH
                )
                for effect in offending:
                    witness = (
                        _witness_text(analysis, {}, fn_qualname, effect)
                        if fn_qualname else "(callable unresolved)"
                    )
                    violations.append(Violation(
                        path=function.path,
                        line=site.line,
                        col=site.col,
                        rule_id=rule,
                        severity=Severity.ERROR,
                        message=(
                            f"{_short(class_qualname)} declared "
                            f"pure=True wraps a callable with effect "
                            f"{effect} ({witness}); parallel execution "
                            f"would race"
                        ),
                    ))
            elif verdict == "advisory":
                violations.append(Violation(
                    path=function.path,
                    line=site.line,
                    col=site.col,
                    rule_id=RULE_MISSED_PARALLELISM,
                    severity=Severity.WARNING,
                    message=(
                        f"{_short(class_qualname)} declared pure=False "
                        f"wraps a provably pure callable; declaring "
                        f"pure=True would let the engine parallelise it"
                    ),
                ))
    return violations, reports


def check_purity(analysis):
    """All purity findings for one analysed package.

    Returns ``(violations, stage_reports)``; violations are sorted by
    location, reports by (path, line).
    """
    class_violations, class_reports = check_stage_classes(analysis)
    ctor_violations, ctor_reports = check_constructions(analysis)
    violations = sorted(class_violations + ctor_violations)
    reports = sorted(
        class_reports + ctor_reports,
        key=lambda r: (r.path, r.line, r.name),
    )
    return violations, reports
