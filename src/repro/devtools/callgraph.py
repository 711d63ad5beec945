"""Project-wide call graph, resolved statically over the import graph.

Builds on :mod:`repro.devtools.modgraph`: every ``*.py`` under a
package root is parsed once, every function, method and lambda becomes
a :class:`FunctionInfo` node, and every call expression becomes a
:class:`CallSite` edge — resolved to its target when the receiver can
be determined statically (module functions, imported symbols followed
through ``__init__`` re-export chains, ``self.method`` dispatch
through a project-resolved MRO, ``self.attr.method`` when ``attr`` is
assigned a known constructor in ``__init__``), and left unresolved
otherwise so effect inference (:mod:`repro.devtools.effects`) can be
conservative about dynamic calls.

Nothing is imported or executed — the graph is pure ``ast``, which is
what lets the purity checker run over adversarial fixture packages
that would be unsafe to import.
"""

import ast
import re
from dataclasses import dataclass, field

from repro.devtools.modgraph import build_module_graph

#: ``# bivoc: effects[io, ambient-obs]`` on a ``def`` line declares the
#: function's effect set, overriding inference (``pure`` = no effects).
_EFFECTS_ANNOTATION_RE = re.compile(
    r"#\s*bivoc:\s*effects\[(?P<effects>[A-Za-z0-9_,\- ]*)\]"
)


@dataclass
class CallSite:
    """One call expression inside one function.

    ``targets`` is the set of function qualnames the call may reach
    (empty when unresolved); ``external`` is the fully-resolved dotted
    name when the call leaves the project (``"numpy.random.default_rng"``,
    ``"time.time"``); ``receiver`` classifies what the call's receiver
    or arguments refer to in the caller's scope (see
    :func:`classify_expr`).  ``method`` is the attribute name for
    method-style calls, used by the effect engine's name tables when
    resolution fails.
    """

    line: int
    col: int
    targets: "tuple[str, ...]" = ()
    external: str = ""
    method: str = ""
    receiver: "tuple[str, ...]" = ("unknown",)
    arg_classes: "tuple[tuple[str, ...], ...]" = ()
    unresolved: bool = False
    #: true for direct ``self.method(...)`` calls — the purity checker
    #: re-resolves these in the *concrete* class's MRO so template
    #: methods dispatch to the subclass hook they will actually reach.
    self_method: bool = False


@dataclass
class FunctionInfo:
    """One function, method or lambda in the project."""

    qualname: str
    module: str
    path: str
    line: int
    node: object  # ast.FunctionDef / AsyncFunctionDef / Lambda
    params: "tuple[str, ...]" = ()
    class_qualname: str = ""  # owning class, "" for module functions
    is_method: bool = False
    declared_effects: object = None  # frozenset or None (inferred)
    calls: "list[CallSite]" = field(default_factory=list)
    #: names of the enclosing function's locals/params, for lambdas
    #: (free-variable = closure-capture detection).
    enclosing_locals: frozenset = frozenset()


@dataclass
class ClassInfo:
    """One class: bases, methods, attribute types, class attributes."""

    qualname: str
    module: str
    path: str
    line: int
    bases: "tuple[str, ...]" = ()  # resolved base qualnames
    unresolved_bases: "tuple[str, ...]" = ()
    methods: "dict[str, str]" = field(default_factory=dict)
    class_attrs: "dict[str, object]" = field(default_factory=dict)
    #: attribute name -> set of candidate class qualnames (from
    #: ``self.x = SomeClass(...)`` assignments); ``None`` in the set
    #: means "possibly something else" (a parameter branch).
    attr_types: "dict[str, set]" = field(default_factory=dict)


@dataclass
class CallGraph:
    """The whole project's functions, classes and call edges."""

    package: str
    modgraph: object = None
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    classes: "dict[str, ClassInfo]" = field(default_factory=dict)
    #: module -> {local name: ("function"|"class"|"module"|"external",
    #: qualname)} — what each module-level name statically binds to.
    symbols: "dict[str, dict[str, tuple]]" = field(default_factory=dict)

    def mro(self, class_qualname):
        """Project-resolvable linearisation (DFS, left to right)."""
        order = []
        seen = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack = list(self.classes[current].bases) + stack
        return order

    def resolve_method(self, class_qualname, method_name):
        """Qualname of ``method_name`` seen from ``class_qualname``.

        Walks the project MRO; returns ``None`` when no project class
        in the chain defines the method.
        """
        for klass in self.mro(class_qualname):
            method = self.classes[klass].methods.get(method_name)
            if method is not None:
                return method
        return None

    def class_attr(self, class_qualname, attr_name):
        """First MRO hit for a class-body attribute, or ``None``."""
        for klass in self.mro(class_qualname):
            if attr_name in self.classes[klass].class_attrs:
                return self.classes[klass].class_attrs[attr_name]
        return None

    def attr_type_candidates(self, class_qualname, attr_name):
        """Candidate classes of ``self.<attr_name>``, MRO-merged."""
        merged = set()
        found = False
        for klass in self.mro(class_qualname):
            candidates = self.classes[klass].attr_types.get(attr_name)
            if candidates is not None:
                merged |= candidates
                found = True
        return merged if found else None

    def subclasses_of(self, root_qualname):
        """Every class whose project MRO includes ``root_qualname``."""
        return sorted(
            name
            for name in self.classes
            if name != root_qualname and root_qualname in self.mro(name)
        )


def parse_effects_annotation(line_text):
    """Effect set declared by ``# bivoc: effects[...]``, or ``None``.

    ``effects[pure]`` and ``effects[]`` both mean "no effects".
    """
    match = _EFFECTS_ANNOTATION_RE.search(line_text)
    if match is None:
        return None
    names = {
        name.strip()
        for name in match.group("effects").split(",")
        if name.strip() and name.strip() != "pure"
    }
    return frozenset(names)


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ScopeInfo:
    """Name classification context for one function body."""

    def __init__(self, params, local_names, module_symbols,
                 enclosing_locals=frozenset(), local_symbols=None):
        self.params = set(params)
        self.locals = set(local_names) - self.params
        self.module_symbols = module_symbols
        self.enclosing_locals = set(enclosing_locals)
        # Function-local imports shadow/extend the module table.
        self.local_symbols = dict(local_symbols or {})

    def symbol(self, name):
        """Static binding of a bare name visible in this scope."""
        if name in self.local_symbols:
            return self.local_symbols[name]
        if name in self.params or name in self.locals:
            return None
        return self.module_symbols.get(name)

    def classify(self, name):
        """``param`` / ``self`` / ``local`` / ``global`` / ``free`` /
        ``unknown`` for one bare name."""
        if name == "self":
            return "self"
        if name in self.params:
            return "param"
        if name in self.locals or name in self.local_symbols:
            return "local"
        if name in self.module_symbols:
            return "global"
        if name in self.enclosing_locals:
            return "free"
        return "unknown"


def classify_expr(expr, scope):
    """Classify what an expression's mutation would touch.

    Returns a tuple whose first element is one of ``param`` / ``self``
    / ``local`` / ``global`` / ``free`` / ``fresh`` / ``unknown``
    (``fresh`` = a literal or newly-constructed value that nothing else
    can share).
    """
    if isinstance(expr, ast.Name):
        return (scope.classify(expr.id), expr.id)
    if isinstance(expr, ast.Attribute):
        base = expr.value
        while isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name):
            return (scope.classify(base.id), base.id)
        return ("unknown", "")
    if isinstance(expr, ast.Subscript):
        return classify_expr(expr.value, scope)
    if isinstance(
        expr,
        (ast.Constant, ast.List, ast.Dict, ast.Set, ast.Tuple,
         ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
         ast.JoinedStr, ast.Lambda, ast.BinOp, ast.UnaryOp,
         ast.Compare),
    ):
        return ("fresh", "")
    if isinstance(expr, (ast.BoolOp, ast.IfExp)):
        branches = (
            expr.values
            if isinstance(expr, ast.BoolOp)
            else [expr.body, expr.orelse]
        )
        kinds = {classify_expr(branch, scope)[0] for branch in branches}
        if len(kinds) == 1:
            return (kinds.pop(), "")
        return ("unknown", "")
    if isinstance(expr, ast.Call):
        return ("fresh", "")  # a new object; callee effects are separate
    if isinstance(expr, ast.Starred):
        return classify_expr(expr.value, scope)
    return ("unknown", "")


def _bound_names(target):
    """Names an assignment target binds: ``x`` and the names unpacked
    through tuples, lists and starred targets.

    ``x[k] = v`` and ``x.attr = v`` write *into* ``x`` and bind nothing,
    so ``x`` keeps the scope class it already had.
    """
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    return []


def _local_assignments(node):
    """Names a function body binds locally (assignments, loops, withs).

    Nested function/lambda bodies are skipped — their locals belong to
    their own scope.
    """
    names = set()

    def visit(body_node, top):
        for child in ast.iter_child_nodes(body_node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    names.add(child.name)
                continue
            if isinstance(child, ast.ClassDef):
                names.add(child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign,
                                  ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    names.update(_bound_names(target))
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                names.update(_bound_names(child.target))
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        names.update(_bound_names(item.optional_vars))
            elif isinstance(child, ast.ExceptHandler):
                if child.name:
                    names.add(child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    if alias.name == "*":
                        continue
                    names.add(
                        alias.asname or alias.name.split(".")[0]
                    )
            # comprehension targets are scoped to the comprehension in
            # py3, but classifying them local is harmless (they cannot
            # be shared state either way).
            for walked in ast.walk(child):
                if isinstance(walked, ast.comprehension):
                    names.update(_bound_names(walked.target))
            visit(child, False)

    visit(node, True)
    return names


def _bind_plain_imports(node, table, project_modules):
    """Bind an ``import a.b [as c]`` statement into a symbol table.

    ``import a.b`` binds the *top* name ``a``; ``import a.b as c``
    binds ``c`` directly to module ``a.b``.
    """
    for alias in node.names:
        if alias.asname:
            kind = (
                "module" if alias.name in project_modules else "external"
            )
            table[alias.asname] = (kind, alias.name)
        else:
            top = alias.name.split(".")[0]
            kind = "module" if top in project_modules else "external"
            table.setdefault(top, (kind, top))


class _ModuleIndexer:
    """Collects one module's symbols, functions and classes."""

    def __init__(self, graph, module, path, tree, lines):
        self.graph = graph
        self.module = module
        self.path = str(path)
        self.tree = tree
        self.lines = lines

    def _annotation_for(self, node):
        """Declared-effects annotation on a def's signature lines."""
        start = node.lineno - 1
        # Decorated defs start at the decorator; scan to the body.
        end = node.body[0].lineno if node.body else node.lineno
        for lineno in range(start, min(end, len(self.lines))):
            declared = parse_effects_annotation(self.lines[lineno])
            if declared is not None:
                return declared
        return None

    def index_symbols(self):
        """Build the module-level name table (imports, defs, values)."""
        table = {}
        for node in self.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name in _bound_names(target):
                        table[name] = ("symbol", f"{self.module}.{name}")
            elif isinstance(node, ast.Import):
                _bind_plain_imports(
                    node, table, self.graph.modgraph.modules
                )
            elif isinstance(node, ast.ImportFrom):
                self._index_import_from(node, table)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                table[node.name] = (
                    "function", f"{self.module}.{node.name}"
                )
            elif isinstance(node, ast.ClassDef):
                table[node.name] = (
                    "class", f"{self.module}.{node.name}"
                )
        self.graph.symbols[self.module] = table

    def _index_import_from(self, node, table):
        modgraph = self.graph.modgraph
        if node.level:
            parts = self.module.split(".")
            path_is_package = self.path.endswith("__init__.py")
            if not path_is_package:
                parts = parts[:-1]
            if node.level > 1:
                parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        else:
            base = node.module
        if not base:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if base not in modgraph.modules:
                table[bound] = ("external", f"{base}.{alias.name}")
                continue
            resolved = modgraph.resolve_export(base, alias.name)
            if resolved is None:
                table[bound] = ("external", f"{base}.{alias.name}")
                continue
            defining, name = resolved
            if name is None:
                table[bound] = ("module", defining)
            else:
                # Defined where?  A function, class, or plain value in
                # ``defining`` — decided later by qualname lookups.
                table[bound] = ("symbol", f"{defining}.{name}")

    def index_definitions(self):
        """Register module functions, classes and their methods."""
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                self._register_function(node, class_info=None)
            elif isinstance(node, ast.ClassDef):
                self._register_class(node)

    def _register_function(self, node, class_info):
        if class_info is None:
            qualname = f"{self.module}.{node.name}"
        else:
            short = class_info.qualname.rsplit(".", 1)[-1]
            qualname = f"{self.module}.{short}.{node.name}"
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args]
        if args.vararg:
            params.append(args.vararg.arg)
        params.extend(arg.arg for arg in args.kwonlyargs)
        if args.kwarg:
            params.append(args.kwarg.arg)
        info = FunctionInfo(
            qualname=qualname,
            module=self.module,
            path=self.path,
            line=node.lineno,
            node=node,
            params=tuple(params),
            class_qualname=(
                class_info.qualname if class_info is not None else ""
            ),
            is_method=class_info is not None,
            declared_effects=self._annotation_for(node),
        )
        self.graph.functions[qualname] = info
        if class_info is not None:
            class_info.methods[node.name] = qualname
        return info

    def _register_class(self, node):
        qualname = f"{self.module}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=self.module,
            path=self.path,
            line=node.lineno,
        )
        bases = []
        unresolved = []
        for base in node.bases:
            resolved = self._resolve_base(base)
            if resolved is not None:
                bases.append(resolved)
            else:
                unresolved.append(_dotted(base) or "?")
        info.bases = tuple(bases)
        info.unresolved_bases = tuple(unresolved)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                self._register_function(child, class_info=info)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        info.class_attrs[target.id] = child.value
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                info.class_attrs[child.target.id] = child.value
        self.graph.classes[qualname] = info

    def _resolve_base(self, base_node):
        """Project qualname of a base-class expression, or ``None``."""
        table = self.graph.symbols.get(self.module, {})
        if isinstance(base_node, ast.Name):
            entry = table.get(base_node.id)
            if entry and entry[0] in ("class", "symbol"):
                return entry[1]
            return None
        dotted = _dotted(base_node)
        if dotted is None:
            return None
        first, _, rest = dotted.partition(".")
        entry = table.get(first)
        if entry and entry[0] == "module" and rest:
            return f"{entry[1]}.{rest}"
        return None


def _infer_attr_types(graph, class_info):
    """``self.x = ClassName(...)`` candidates from every method body."""
    for method_qualname in class_info.methods.values():
        function = graph.functions[method_qualname]
        table = graph.symbols.get(function.module, {})
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                candidates = _constructor_candidates(
                    node.value, table, graph
                )
                slot = class_info.attr_types.setdefault(
                    target.attr, set()
                )
                slot |= candidates


def _constructor_candidates(expr, table, graph):
    """Classes ``expr`` may instantiate; ``None`` marks "or other"."""
    if isinstance(expr, ast.Call):
        name = _dotted(expr.func)
        if name is not None:
            resolved = _resolve_symbol_path(name, table, graph)
            if resolved is not None and resolved in graph.classes:
                return {resolved}
        return {None}
    if isinstance(expr, ast.BoolOp):
        merged = set()
        for value in expr.values:
            merged |= _constructor_candidates(value, table, graph)
        return merged
    if isinstance(expr, ast.IfExp):
        return _constructor_candidates(
            expr.body, table, graph
        ) | _constructor_candidates(expr.orelse, table, graph)
    return {None}


def _resolve_symbol_path(dotted, table, graph):
    """Project qualname for ``a.b.c`` seen through a symbol table."""
    first, _, rest = dotted.partition(".")
    entry = table.get(first)
    if entry is None:
        return None
    kind, qualname = entry
    if kind == "external":
        return None
    if not rest:
        if kind == "symbol":
            return _disambiguate_symbol(qualname, graph)
        if kind in ("function", "class"):
            return qualname
        return None
    if kind == "module":
        candidate = f"{qualname}.{rest}"
        if candidate in graph.functions or candidate in graph.classes:
            return candidate
        resolved = graph.modgraph.resolve_export(
            qualname, rest.split(".")[0]
        )
        if resolved is not None:
            defining, name = resolved
            tail = rest.split(".", 1)
            if name is None:
                deeper = (
                    f"{defining}.{tail[1]}" if len(tail) > 1 else None
                )
                if deeper and (
                    deeper in graph.functions or deeper in graph.classes
                ):
                    return deeper
                return None
            candidate = f"{defining}.{name}"
            if candidate in graph.functions or candidate in graph.classes:
                return candidate
        return None
    if kind in ("class", "symbol"):
        target = _disambiguate_symbol(qualname, graph)
        if target in graph.classes:
            candidate = f"{target}.{rest}"
            if candidate in graph.functions:
                return candidate
    return None


def _disambiguate_symbol(qualname, graph):
    """A ``symbol`` entry is a function or class iff registered."""
    if qualname in graph.functions or qualname in graph.classes:
        return qualname
    return qualname  # plain value; callers check membership


def _external_name(dotted, scope):
    """Fully-resolved external dotted name for a call, or ``""``."""
    first, _, rest = dotted.partition(".")
    entry = scope.symbol(first)
    if entry is None:
        return ""
    kind, qualname = entry
    if kind != "external":
        return ""
    return f"{qualname}.{rest}" if rest else qualname


class _CallCollector(ast.NodeVisitor):
    """Extracts :class:`CallSite` records from one function body."""

    def __init__(self, graph, function, scope):
        self.graph = graph
        self.function = function
        self.scope = scope

    def visit_FunctionDef(self, node):
        """Nested defs are separate functions; do not descend."""

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        """Nested lambdas are analysed by their own FunctionInfo."""

    def visit_Call(self, node):
        """Record one call site, resolving the target if possible."""
        self.generic_visit(node)
        graph = self.graph
        scope = self.scope
        arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
        arg_classes = tuple(
            classify_expr(arg, scope) for arg in arg_exprs
        )
        site = CallSite(
            line=node.lineno,
            col=node.col_offset,
            arg_classes=arg_classes,
        )
        func = node.func
        if isinstance(func, ast.Name):
            self._resolve_bare(func.id, site)
        elif isinstance(func, ast.Attribute):
            self._resolve_attribute(func, site)
        else:
            site.unresolved = True
        self.function.calls.append(site)

    def _resolve_bare(self, name, site):
        graph, scope = self.graph, self.scope
        site.receiver = ("fresh", "")
        entry = scope.symbol(name)
        if entry is None:
            # A parameter/local holding a callable, or a builtin.
            kind = scope.classify(name)
            if kind in ("param", "local", "free", "unknown"):
                site.method = name
                site.receiver = (kind, name)
                site.unresolved = True
            return
        kind, qualname = entry
        if kind == "external":
            site.external = qualname
            return
        if kind in ("function", "symbol") and qualname in graph.functions:
            site.targets = (qualname,)
            return
        target = (
            qualname
            if kind == "class"
            else _disambiguate_symbol(qualname, graph)
        )
        if target in graph.classes:
            init = graph.resolve_method(target, "__init__")
            site.targets = (init,) if init else ()
            site.receiver = ("fresh", "")
            if init is None and graph.classes[target].unresolved_bases:
                site.unresolved = True
            return
        if kind == "module":
            site.unresolved = True
            return
        # A re-exported plain value (constant): calling it is dynamic.
        site.method = name
        site.unresolved = True

    def _resolve_attribute(self, func, site):
        graph, scope = self.graph, self.scope
        site.method = func.attr
        site.receiver = classify_expr(func, scope)
        dotted = _dotted(func)
        if dotted is not None:
            external = _external_name(dotted, scope)
            if external:
                site.external = external
                return
            resolved = _resolve_symbol_path(dotted, scope_table(scope),
                                            graph)
            if resolved is not None:
                if resolved in graph.functions:
                    site.targets = (resolved,)
                    return
                if resolved in graph.classes:
                    init = graph.resolve_method(resolved, "__init__")
                    site.targets = (init,) if init else ()
                    site.receiver = ("fresh", "")
                    return
        # ``self.method(...)`` — dispatch through the owning class.
        value = func.value
        if (
            isinstance(value, ast.Name)
            and value.id == "self"
            and self.function.class_qualname
        ):
            site.self_method = True
            method = graph.resolve_method(
                self.function.class_qualname, func.attr
            )
            if method is not None:
                site.targets = (method,)
                site.receiver = ("self", "self")
                return
            site.unresolved = True
            return
        # ``self.attr.method(...)`` — use inferred attribute types.
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.function.class_qualname
        ):
            candidates = graph.attr_type_candidates(
                self.function.class_qualname, value.attr
            )
            if candidates:
                targets = []
                open_world = False
                for candidate in sorted(
                    c for c in candidates if c is not None
                ):
                    method = graph.resolve_method(candidate, func.attr)
                    if method is not None:
                        targets.append(method)
                    else:
                        open_world = True
                if None in candidates:
                    open_world = True
                site.targets = tuple(targets)
                site.unresolved = open_world or not targets
                return
        site.unresolved = True


def scope_table(scope):
    """Merged module + function-local symbol table for a scope."""
    merged = dict(scope.module_symbols)
    merged.update(scope.local_symbols)
    return merged


def _function_local_symbols(graph, function):
    """Symbol entries for imports inside one function body."""
    indexer = _ModuleIndexer(
        graph, function.module,
        graph.functions[function.qualname].path,
        None, [],
    )
    table = {}
    for node in ast.walk(function.node):
        if isinstance(node, ast.Import):
            _bind_plain_imports(node, table, graph.modgraph.modules)
        elif isinstance(node, ast.ImportFrom):
            indexer._index_import_from(node, table)
    return table


def _lambda_qualname(owner_qualname, index):
    """Stable synthetic qualname for the n-th lambda in a function."""
    return f"{owner_qualname}.<lambda#{index}>"


def _register_lambdas(graph, function):
    """Give every lambda in ``function`` its own FunctionInfo node.

    Lambdas see the enclosing function's locals as free variables,
    which is exactly the closure-capture information the purity checker
    needs.
    """
    registered = []
    enclosing_locals = (
        _local_assignments(function.node)
        if not isinstance(function.node, ast.Lambda)
        else set()
    )
    index = 0
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Lambda):
            continue
        qualname = _lambda_qualname(function.qualname, index)
        index += 1
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args]
        if args.vararg:
            params.append(args.vararg.arg)
        params.extend(arg.arg for arg in args.kwonlyargs)
        if args.kwarg:
            params.append(args.kwarg.arg)
        info = FunctionInfo(
            qualname=qualname,
            module=function.module,
            path=function.path,
            line=node.lineno,
            node=node,
            params=tuple(params),
            class_qualname=function.class_qualname,
            is_method=False,
        )
        info.enclosing_locals = (
            enclosing_locals | set(function.params)
        )
        graph.functions[qualname] = info
        registered.append((node, info))
    return registered


def build_callgraph(package_dir, modgraph=None):
    """Parse a package tree into a fully-indexed :class:`CallGraph`."""
    modgraph = (
        modgraph if modgraph is not None
        else build_module_graph(package_dir)
    )
    graph = CallGraph(package=modgraph.package, modgraph=modgraph)

    parsed = {}
    for module, path in sorted(modgraph.modules.items()):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (SyntaxError, OSError):
            continue
        parsed[module] = (path, tree, source.splitlines())

    # Pass 1: module symbol tables (imports must resolve before class
    # bases, which may be imported names).
    indexers = {}
    for module, (path, tree, lines) in parsed.items():
        indexer = _ModuleIndexer(graph, module, path, tree, lines)
        indexer.index_symbols()
        indexers[module] = indexer

    # Pass 2: functions, classes, methods.
    for module, indexer in indexers.items():
        indexer.index_definitions()

    # Pass 3: attribute type inference (needs all classes registered).
    for class_info in graph.classes.values():
        _infer_attr_types(graph, class_info)

    # Pass 4: call extraction, including synthetic lambda functions.
    for qualname in list(graph.functions):
        function = graph.functions[qualname]
        local_symbols = _function_local_symbols(graph, function)
        body_locals = _local_assignments(function.node)
        scope = _ScopeInfo(
            function.params,
            body_locals,
            graph.symbols.get(function.module, {}),
            local_symbols=local_symbols,
        )
        collector = _CallCollector(graph, function, scope)
        for child in ast.iter_child_nodes(function.node):
            collector.visit(child)
        for node, info in _register_lambdas(graph, function):
            lambda_scope = _ScopeInfo(
                info.params,
                set(),
                graph.symbols.get(info.module, {}),
                enclosing_locals=info.enclosing_locals,
                local_symbols=local_symbols,
            )
            lambda_collector = _CallCollector(graph, info, lambda_scope)
            lambda_collector.visit(node.body)
    return graph
