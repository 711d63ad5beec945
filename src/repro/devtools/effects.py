"""Interprocedural effect inference over the project call graph.

Every function in a :class:`~repro.devtools.callgraph.CallGraph` gets
an *effect set* — which observable side effects running it may have —
inferred in two steps:

1. **Direct effects** from its own body: assignments classified by what
   they touch (a parameter, ``self``, a module global, a closure-
   captured free variable), calls into known-impure externals (wall
   clock, unseeded RNG constructors, I/O), calls into the ambient
   observability layer, and name-table heuristics for methods the
   resolver could not bind (``x.append`` mutates ``x`` even when ``x``'s
   class is unknown).
2. **Fixpoint propagation** over call edges: a callee's effects flow
   into every caller, with mutation effects re-mapped through the call
   site (a callee that mutates ``self`` mutates whatever object the
   caller invoked it on).  Unresolvable or dynamic calls contribute the
   conservative :data:`UNKNOWN` effect, so "no impure effect inferred"
   is only ever claimed when every reachable call was actually
   analysed.

The lattice is a powerset: effect sets only grow during propagation,
so the fixpoint terminates in at most ``|functions| x |effects|``
rounds.  A ``# bivoc: effects[...]`` annotation on a ``def`` line
pins that function's effect set and stops inference from descending
into it — the escape hatch for helpers whose effects are by design
(the observability accessors) or whose impurity is deliberate and
encapsulated (see the known-effect table below).
"""

import ast
from dataclasses import dataclass

from repro.devtools.callgraph import (
    _ScopeInfo,
    _function_local_symbols,
    _local_assignments,
    build_callgraph,
    classify_expr,
)

# -- The effect alphabet -------------------------------------------------

MUTATES_PARAM = "mutates-param"
MUTATES_SELF = "mutates-self"
MUTATES_GLOBAL = "mutates-global"
IO = "io"
WALL_CLOCK = "wall-clock"
UNSEEDED_RNG = "unseeded-rng"
AMBIENT_OBS = "ambient-obs"
UNKNOWN = "unknown"

#: Every inferable effect, in report order.
ALL_EFFECTS = (
    MUTATES_PARAM,
    MUTATES_SELF,
    MUTATES_GLOBAL,
    IO,
    WALL_CLOCK,
    UNSEEDED_RNG,
    AMBIENT_OBS,
    UNKNOWN,
)

# -- Known-effect override table (externals) -----------------------------

#: Wall-clock reads (mirrors the ``no-wallclock-in-algo`` lint rule).
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Dotted-prefix -> effect set for external (non-project) calls.  First
#: matching prefix wins; longest prefixes are listed first where they
#: overlap.  Everything not covered falls through to ``UNKNOWN``.
KNOWN_EXTERNAL_PREFIXES = (
    ("numpy.random.", frozenset({UNSEEDED_RNG})),
    ("numpy.", frozenset()),
    ("scipy.", frozenset()),
    ("random.", frozenset({UNSEEDED_RNG})),
    ("secrets.", frozenset({UNSEEDED_RNG})),
    ("uuid.uuid1", frozenset({UNSEEDED_RNG})),
    ("uuid.uuid4", frozenset({UNSEEDED_RNG})),
    ("os.urandom", frozenset({UNSEEDED_RNG})),
    ("os.", frozenset({IO})),
    ("sys.stdout", frozenset({IO})),
    ("sys.stderr", frozenset({IO})),
    ("sys.stdin", frozenset({IO})),
    ("sys.", frozenset()),
    ("subprocess.", frozenset({IO})),
    ("shutil.", frozenset({IO})),
    ("socket.", frozenset({IO})),
    ("logging.", frozenset({IO})),
    ("pathlib.", frozenset()),  # Path() construction; methods below
    ("tempfile.", frozenset({IO})),
    ("math.", frozenset()),
    ("statistics.", frozenset()),
    ("json.", frozenset()),
    ("re.", frozenset()),
    ("string.", frozenset()),
    ("textwrap.", frozenset()),
    ("itertools.", frozenset()),
    ("operator.", frozenset()),
    ("functools.", frozenset()),
    ("collections.", frozenset()),
    ("dataclasses.", frozenset()),
    ("copy.", frozenset()),
    ("bisect.", frozenset()),
    ("unicodedata.", frozenset()),
    ("difflib.", frozenset()),
    ("argparse.", frozenset()),
    ("enum.", frozenset()),
    ("abc.", frozenset()),
    ("typing.", frozenset()),
    ("threading.", frozenset()),  # Lock() construction is benign
    # Executor construction/submission (repro.exec backends) moves
    # work, not data: the backends' order-preserving map keeps results
    # bit-identical to serial, so pool plumbing itself is effect-free
    # for purity purposes.
    ("concurrent.futures.", frozenset()),
    ("multiprocessing.", frozenset()),
    # Pickling serializes to bytes in memory; no file or socket moves.
    ("pickle.", frozenset()),
    ("queue.", frozenset()),
    ("contextlib.", frozenset()),
    ("hashlib.", frozenset()),
    ("struct.", frozenset()),
)

#: Builtins whose call has no effect of interest.
_PURE_BUILTINS = frozenset({
    "abs", "all", "any", "ascii", "bin", "bool", "bytearray", "bytes",
    "callable", "chr", "classmethod", "complex", "dict", "divmod",
    "enumerate", "filter", "float", "format", "frozenset", "getattr",
    "hasattr", "hash", "hex", "id", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "memoryview", "min", "next",
    "object", "oct", "ord", "pow", "property", "range", "repr",
    "reversed", "round", "set", "slice", "sorted", "staticmethod",
    "str", "sum", "super", "tuple", "type", "vars", "zip",
    "ValueError", "TypeError", "KeyError", "IndexError", "RuntimeError",
    "NotImplementedError", "StopIteration", "AttributeError",
    "FileNotFoundError", "OSError", "Exception", "AssertionError",
    "ZeroDivisionError", "OverflowError", "ArithmeticError",
    "LookupError", "UnicodeDecodeError",
})

#: Builtins that perform I/O when called.
_IO_BUILTINS = frozenset({"print", "open", "input", "breakpoint"})

#: Builtins that mutate their first argument.
_MUTATOR_BUILTINS = frozenset({"setattr", "delattr"})

#: Dynamic-execution builtins: conservatively unknown.
_DYNAMIC_BUILTINS = frozenset({"eval", "exec", "compile", "globals",
                               "locals", "__import__"})

# -- Method-name heuristics (unresolved receivers) -----------------------

#: Method names that mutate their receiver wherever they appear.
MUTATOR_METHOD_NAMES = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "appendleft", "popleft", "rotate", "put", "push", "write",
    "writelines", "add_edge", "add_import_from", "subtract",
    "difference_update", "intersection_update", "symmetric_difference_update",
})

#: Method names that read without observable effects — string/dict/list
#: accessors plus this project's artifact-envelope readers.  The table
#: deliberately covers only names whose meaning is unambiguous across
#: the codebase; anything else stays ``UNKNOWN``.
BENIGN_METHOD_NAMES = frozenset({
    "get", "require", "keys", "values", "items", "copy",
    "split", "rsplit", "splitlines", "join", "strip", "lstrip",
    "rstrip", "lower", "upper", "title", "capitalize", "casefold",
    "startswith", "endswith", "count", "index", "find", "rfind",
    "format", "format_map", "replace", "encode", "decode", "zfill",
    "ljust", "rjust", "center", "partition", "rpartition", "isdigit",
    "isalpha", "isalnum", "isspace", "istitle", "isupper", "islower",
    "most_common", "elements", "total", "union", "intersection",
    "difference", "symmetric_difference", "issubset", "issuperset",
    "isdisjoint", "as_dict", "to_json_dict", "render", "render_text",
    "item", "tolist", "mean", "std", "sum", "min", "max", "argmin",
    "argmax", "astype", "reshape", "with_suffix", "relative_to",
    "exists", "is_dir", "is_file", "resolve", "absolute", "parent",
    "name", "stem", "suffix", "parts",
    # Concept-index read accessors (repro.mining.index): pure lookups
    # over postings/dimension tables — the counting functions of the
    # mining analytics (repro.mining.analytic) are verified pure
    # through these.
    "postings_view", "documents_with", "count_pair",
    "values_of_dimension", "keys_of_dimension", "keys_of",
    "timestamp_of", "text_of",
})

#: Method names that touch the ambient observability layer (the span
#: tracer / metrics registry API surface).  Write-only instrumentation:
#: reported as :data:`AMBIENT_OBS`, never as a mutation.
OBS_METHOD_NAMES = frozenset({
    "span", "tag", "counter", "gauge", "histogram", "inc", "observe",
})

#: Method names that perform file I/O on their receiver.
IO_METHOD_NAMES = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "open",
    "mkdir", "rmdir", "unlink", "touch", "rename", "flush",
})


def _scoped_nodes(root):
    """Every node in ``root``'s own scope — nested defs/lambdas excluded.

    Assignments inside a nested function belong to *its* scope; walking
    into them with the outer function's scope info would misclassify
    their locals.
    """
    collected = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        collected.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return collected


def _map_mutation(receiver_kind):
    """Effect of mutating an object with the given scope class."""
    if receiver_kind == "param":
        return MUTATES_PARAM
    if receiver_kind == "self":
        return MUTATES_SELF
    if receiver_kind in ("global", "free"):
        return MUTATES_GLOBAL
    if receiver_kind in ("local", "fresh"):
        return None
    return UNKNOWN


@dataclass(frozen=True)
class Origin:
    """Why a function carries an effect: the witness for reports.

    ``kind`` is ``"direct"`` (with ``detail`` describing the construct)
    or ``"call"`` (with ``callee`` naming the function the effect was
    inherited from).  ``path``/``line`` locate the originating source.
    """

    kind: str
    path: str
    line: int
    detail: str = ""
    callee: str = ""


class EffectAnalysis:
    """Inferred effects for every function of one call graph."""

    def __init__(self, graph):
        self.graph = graph
        #: qualname -> frozenset of effects
        self.effects = {}
        #: (qualname, effect) -> Origin (first witness wins)
        self.origins = {}
        self._infer()

    # -- public API ------------------------------------------------------

    def effects_of(self, qualname):
        """Effect set of one function (empty set when unregistered)."""
        return self.effects.get(qualname, frozenset({UNKNOWN}))

    def origin_of(self, qualname, effect):
        """The recorded witness for ``(function, effect)``, or None."""
        return self.origins.get((qualname, effect))

    def witness_chain(self, qualname, effect, limit=12):
        """Call chain from ``qualname`` down to the direct origin.

        Returns a list of ``(qualname, Origin)`` pairs ending at the
        function whose own body produced the effect.
        """
        chain = []
        seen = set()
        current = qualname
        while current not in seen and len(chain) < limit:
            seen.add(current)
            origin = self.origins.get((current, effect))
            if origin is None:
                break
            chain.append((current, origin))
            if origin.kind != "call":
                break
            current = origin.callee
        return chain

    # -- inference -------------------------------------------------------

    def _infer(self):
        direct = {}
        for qualname, function in self.graph.functions.items():
            if function.declared_effects is not None:
                self.effects[qualname] = frozenset(
                    function.declared_effects
                )
                for effect in self.effects[qualname]:
                    self._witness(
                        qualname, effect,
                        Origin("direct", function.path, function.line,
                               detail="declared by # bivoc: effects[...]"),
                    )
                continue
            effects = self._direct_effects(function)
            direct[qualname] = effects
            self.effects[qualname] = frozenset(effects)
        self._propagate(direct)

    def _witness(self, qualname, effect, origin):
        self.origins.setdefault((qualname, effect), origin)

    def direct_effects(self, function, resolve_self=None):
        """``{effect: Origin}`` evident from one function's own body.

        With ``resolve_self`` (a ``method_name -> qualname|None``
        callable) the function is analysed *as seen from a concrete
        class*: ``self.method(...)`` call sites that re-resolve in that
        class become propagation edges for the caller to follow, and
        ones that do not resolve anywhere in its MRO are ``unknown``.
        The purity checker uses this to specialise template methods
        (``MapStage.process`` dispatching ``self.process_document``)
        per concrete stage class.
        """
        effects = {}
        path = function.path

        def add(effect, line, detail):
            if effect is None:
                return
            effects.setdefault(
                effect, Origin("direct", path, line, detail=detail)
            )

        self._assignment_effects(function, add)
        for site in function.calls:
            self._call_site_effects(
                function, site, add, resolve_self=resolve_self
            )
        return effects

    def _direct_effects(self, function):
        """Effects evident from one function's own body (global pass)."""
        effects = self.direct_effects(function)
        for effect, origin in effects.items():
            self._witness(function.qualname, effect, origin)
        return set(effects)

    def _assignment_effects(self, function, add):
        """Classify every assignment / deletion target."""
        node = function.node
        is_lambda = isinstance(node, ast.Lambda)
        local_names = (
            set() if is_lambda else _local_assignments(node)
        )
        scope = _ScopeInfo(
            function.params,
            local_names,
            self.graph.symbols.get(function.module, {}),
            enclosing_locals=function.enclosing_locals,
            local_symbols=_function_local_symbols(
                self.graph, function
            ),
        )
        body_nodes = [] if is_lambda else _scoped_nodes(node)
        declared_global = set()
        declared_nonlocal = set()
        for walked in body_nodes:
            if isinstance(walked, ast.Global):
                declared_global.update(walked.names)
            elif isinstance(walked, ast.Nonlocal):
                declared_nonlocal.update(walked.names)
        for walked in body_nodes:
            targets = ()
            if isinstance(walked, ast.Assign):
                targets = walked.targets
            elif isinstance(walked, (ast.AnnAssign, ast.AugAssign)):
                targets = (walked.target,)
            elif isinstance(walked, ast.Delete):
                targets = walked.targets
            for target in targets:
                self._target_effect(
                    target, scope, declared_global, declared_nonlocal,
                    add,
                )

    def _target_effect(self, target, scope, declared_global,
                       declared_nonlocal, add):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target_effect(
                    element, scope, declared_global, declared_nonlocal,
                    add,
                )
            return
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                add(MUTATES_GLOBAL, target.lineno,
                    f"assigns global '{target.id}'")
            elif target.id in declared_nonlocal:
                add(MUTATES_GLOBAL, target.lineno,
                    f"assigns nonlocal '{target.id}' (closure state)")
            return  # plain local rebinding: no effect
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            kind, name = classify_expr(target, scope)
            detail_kind = (
                "attribute" if isinstance(target, ast.Attribute)
                else "item"
            )
            mapped = _map_mutation(kind)
            label = {
                MUTATES_PARAM: f"writes {detail_kind} of parameter "
                               f"'{name}'",
                MUTATES_SELF: f"writes {detail_kind} of self",
                MUTATES_GLOBAL: f"writes {detail_kind} of shared "
                                f"'{name}'",
                UNKNOWN: f"writes {detail_kind} of unresolvable "
                         f"receiver",
            }.get(mapped, "")
            add(mapped, target.lineno, label)

    def _call_site_effects(self, function, site, add,
                           resolve_self=None):
        """Direct effects of one call site (externals + heuristics)."""
        if site.external:
            self._external_effects(site, add)
            return
        if resolve_self is not None and site.self_method:
            if resolve_self(site.method) is not None:
                return  # a concrete-class edge; caller propagates it
            add(UNKNOWN, site.line,
                f"'self.{site.method}()' resolves nowhere in the "
                f"concrete class's MRO")
            return
        if site.targets:
            if site.unresolved:
                # Open-world dispatch: the resolved targets propagate,
                # but the receiver may also be something unanalysed.
                add(UNKNOWN, site.line,
                    "call may also reach unanalysed receivers")
            return  # resolved targets handled by propagation
        # Unresolved: fall back to name heuristics.
        method = site.method
        receiver_kind = site.receiver[0] if site.receiver else "unknown"
        if method in _PURE_BUILTINS and receiver_kind in (
            "unknown", "fresh"
        ) and not site.targets:
            return
        if method in _IO_BUILTINS:
            add(IO, site.line, f"calls builtin '{method}()'")
            return
        if method in _DYNAMIC_BUILTINS:
            add(UNKNOWN, site.line,
                f"calls dynamic builtin '{method}()'")
            return
        if method in _MUTATOR_BUILTINS:
            for arg in site.arg_classes[:1]:
                add(_map_mutation(arg[0]), site.line,
                    f"'{method}()' mutates its argument")
            return
        if method in MUTATOR_METHOD_NAMES:
            add(_map_mutation(receiver_kind), site.line,
                f"'.{method}()' mutates its receiver")
            return
        if method in OBS_METHOD_NAMES:
            add(AMBIENT_OBS, site.line,
                f"'.{method}()' touches the ambient tracer/metrics")
            return
        if method in IO_METHOD_NAMES:
            add(IO, site.line, f"'.{method}()' performs I/O")
            return
        if method in BENIGN_METHOD_NAMES:
            return
        add(UNKNOWN, site.line,
            f"unresolvable call"
            + (f" to '.{method}()'" if method else ""))

    def _external_effects(self, site, add):
        name = site.external
        if name in _WALL_CLOCK_CALLS:
            add(WALL_CLOCK, site.line, f"calls '{name}()' (wall clock)")
            return
        for prefix, effect_set in KNOWN_EXTERNAL_PREFIXES:
            if name == prefix.rstrip(".") or name.startswith(prefix):
                for effect in effect_set:
                    detail = {
                        UNSEEDED_RNG: f"calls '{name}()' (unseeded RNG)",
                        IO: f"calls '{name}()' (I/O)",
                    }.get(effect, f"calls '{name}()'")
                    add(effect, site.line, detail)
                return
        if name in _IO_BUILTINS:
            add(IO, site.line, f"calls '{name}()'")
            return
        add(UNKNOWN, site.line, f"calls external '{name}()'")

    def _propagate(self, direct):
        """Grow effect sets over call edges until the fixpoint."""
        changed = True
        while changed:
            changed = False
            for qualname, function in self.graph.functions.items():
                if function.declared_effects is not None:
                    continue
                current = set(self.effects[qualname])
                before = len(current)
                for site in function.calls:
                    for target in site.targets:
                        self._merge_call(
                            qualname, site, target, current
                        )
                if len(current) != before:
                    self.effects[qualname] = frozenset(current)
                    changed = True

    def _merge_call(self, caller, site, target, current):
        callee_effects = self.effects.get(target)
        if callee_effects is None:
            if UNKNOWN not in current:
                current.add(UNKNOWN)
                self._witness(
                    caller, UNKNOWN,
                    Origin("direct",
                           self.graph.functions[caller].path,
                           site.line,
                           detail=f"call into unregistered '{target}'"),
                )
            return
        path = self.graph.functions[caller].path
        for effect in callee_effects:
            mapped = map_callee_effect(effect, site)
            if mapped is None or mapped in current:
                continue
            current.add(mapped)
            self._witness(
                caller, mapped,
                Origin("call", path, site.line, callee=target),
            )


def map_callee_effect(effect, site):
    """Re-map a callee's effect through the caller's call site.

    A callee that mutates *its* ``self`` or a parameter mutates
    whatever object the caller invoked it on / passed in — which may be
    the caller's own parameter, ``self``, shared state, or nothing
    observable (a local).  All other effects pass through unchanged.
    """
    if effect == MUTATES_SELF:
        return _map_mutation(
            site.receiver[0] if site.receiver else "unknown"
        )
    if effect == MUTATES_PARAM:
        return _map_param_mutation(site)
    return effect


def _map_param_mutation(site):
    """A param-mutating callee mutates what the caller passed in."""
    if not site.arg_classes:
        return None
    mapped = set()
    for arg in site.arg_classes:
        mapped.add(_map_mutation(arg[0]))
    for effect in (UNKNOWN, MUTATES_PARAM, MUTATES_SELF,
                   MUTATES_GLOBAL):
        if effect in mapped:
            return effect
    return None


def analyse_package(package_dir, modgraph=None):
    """Build the call graph and run effect inference over a package."""
    graph = build_callgraph(package_dir, modgraph=modgraph)
    return EffectAnalysis(graph)
