"""Interprocedural determinism & contract analyzer: ``repro.devtools.flow``.

The AST linter (:mod:`repro.devtools.lint`, RPR001-006) checks single
lines in single files.  This module is the whole-program companion: it
builds a module-level call graph over the ``repro`` package, infers
per-function *effect summaries*, propagates them transitively to a
fixpoint, and checks the package's declared contracts -- turning
guarantees that previously only the differential test harness could
observe (Thm. 2 bit-identity across engines) into pre-test, per-commit
static checks.

Pipeline
--------
1. **Collect.**  Every ``.py`` module under the analyzed roots is
   parsed once; top-level functions, classes (with their methods and
   resolved base classes), and *all* imports -- including the lazy
   function-body imports the engines use -- are indexed.
2. **Call graph.**  Calls are resolved through local names, ``repro.*``
   module aliases, ``from``-imports, ``self.``/``super().`` dispatch
   (over the analyzed class hierarchy, ancestors *and* descendants, so
   ``Engine.all_pairs -> self._all_pairs`` reaches every backend), and
   class-hierarchy analysis for unknown receivers -- which is what
   resolves the registry indirection ``resolve_engine(engine).price_table``
   to every registered engine.  Bare function names passed as arguments
   (worker callbacks handed to a multiprocessing pool) are treated as
   called.
3. **Effects.**  Per function, local effects are inferred --
   ``reads-rng`` (global/unseeded randomness), ``reads-wall-clock``
   (``time.time`` family; the monotonic clock is deliberately exempt),
   ``iterates-unordered-set``, ``performs-io``,
   ``mutates-module-state`` -- plus the set of mutated parameters.
   Effects propagate caller-ward over the call graph to a fixpoint;
   parameter mutation propagates through argument bindings.
4. **Contracts.**  Violations surface as four new codes:

``RPR007`` -- **transitive nondeterminism at a contract entry point.**
    ``all_pairs_lcp``, ``compute_price_table``,
    ``distributed_mechanism``, ``timed_mechanism``, and every registered
    engine's route/price methods must be transitively deterministic (no
    global RNG, no wall clock, no unordered-set iteration anywhere
    beneath them) and must not mutate their ``graph`` argument.  The
    finding message carries the full call chain down to the offending
    line.

``RPR008`` -- **cache write outside the commit path.**  The incremental
    engine's epoch caches may only be written inside its declared
    commit methods; a write anywhere else could leave the caches
    inconsistent with the graph epoch they claim to describe.
    Local aliases of cache attributes (``cache = self._avoiding...``)
    are tracked.

``RPR009`` -- **engine signature drift.**  Every registered engine's
    public ``all_pairs``/``price_table`` signature must be AST-identical
    (names, kinds, defaults, keyword-only structure) to the reference
    engine's, and the ``all_pairs_lcp`` / ``compute_price_table`` pair
    must keep identical keyword-only ``engine=/sanitize=/obs=`` tails.

``RPR010`` -- **unbalanced obs span.**  A ``.span(...)`` call must be
    closed on all paths: opened in a ``with`` statement, handed to an
    ``ExitStack.enter_context``, returned to the caller (factory
    delegation), or paired with ``__exit__`` in a ``finally`` block.

Findings honor the same line-level ``# repro-lint: ok(CODE)``
suppressions as the linter, and a checked-in baseline file
(``flow_baseline.json`` next to this module) grandfathers accepted
findings so the CI gate only fails on *new* ones.  ``--json`` emits a
machine-readable report; ``--check-suppressions`` flags suppression
comments whose line no longer produces any finding (lint or flow).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.lint import (
    _MUTATOR_METHODS,
    _RANDOM_FUNCS,
    _WALLCLOCK_FUNCS,
    _chain_names,
    _is_set_annotation,
    _is_set_expr,
    _package_relpath,
    _suppressed_lines,
    lint_source,
)

__all__ = [
    "AnalysisResult",
    "FlowFinding",
    "FLOW_CODES",
    "StaleSuppression",
    "analyze_paths",
    "check_suppressions",
    "default_baseline_path",
    "load_baseline",
    "main",
    "split_baseline",
    "write_baseline",
]

FLOW_CODES: Tuple[str, ...] = ("RPR007", "RPR008", "RPR009", "RPR010")

#: Effect lattice elements (a flat powerset lattice; join = union).
EFFECT_RNG = "reads-rng"
EFFECT_CLOCK = "reads-wall-clock"
EFFECT_SET_ITER = "iterates-unordered-set"
EFFECT_IO = "performs-io"
EFFECT_MODULE_STATE = "mutates-module-state"

#: Effects forbidden beneath a determinism contract entry point.
DETERMINISM_EFFECTS: Tuple[str, ...] = (
    EFFECT_RNG,
    EFFECT_CLOCK,
    EFFECT_SET_ITER,
)

#: Seeded constructors: flagged only when called with no arguments.
_SEEDED_NP_CONSTRUCTORS = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Method names never resolved by class-hierarchy analysis: they
#: collide with builtin container/str methods and would wire half the
#: package to unrelated classes.
_CHA_SKIP = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "extend",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "lower",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "split",
        "startswith",
        "strip",
        "update",
        "upper",
        "values",
    }
)

#: Consumers whose result does not depend on iteration order: a set
#: iterated inside e.g. ``sorted(x for x in s)`` is deterministic.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "len", "set", "frozenset", "min", "max", "any", "all"}
)

#: Module roots whose calls count as IO (informational effect).
_IO_MODULE_ROOTS = frozenset({"subprocess", "shutil", "socket"})
_IO_BUILTINS = frozenset({"open", "print", "input"})
_IO_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes", "unlink", "mkdir"}
)


# ----------------------------------------------------------------------
# Contract tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EntryContract:
    """One routing/mechanism entry point held to the determinism bar."""

    relpath: str
    function: str  # "name" or "Class.name"
    graph_param: Optional[str] = "graph"


#: Module-level entry points (engine methods are added from the
#: registry module at analysis time).
ENTRY_CONTRACTS: Tuple[EntryContract, ...] = (
    EntryContract("routing/allpairs.py", "all_pairs_lcp"),
    EntryContract("mechanism/vcg.py", "compute_price_table"),
    EntryContract("core/protocol.py", "distributed_mechanism"),
    EntryContract("core/protocol.py", "timed_mechanism"),
)

#: Engine methods the determinism contract covers, resolved per
#: registered class through the analyzed MRO.
ENGINE_ENTRY_METHODS: Tuple[str, ...] = (
    "all_pairs",
    "price_table",
    "_all_pairs",
    "_price_table",
    "cost_matrix",
)

#: Public engine methods whose signatures must match the reference
#: engine's exactly (RPR009).
ENGINE_PUBLIC_METHODS: Tuple[str, ...] = ("all_pairs", "price_table")

ENGINE_REGISTRY_RELPATH = "routing/engines/__init__.py"

#: Function pair that must keep identical keyword-only tails.
KWONLY_PARITY: Tuple[Tuple[str, str], ...] = (
    ("routing/allpairs.py", "all_pairs_lcp"),
    ("mechanism/vcg.py", "compute_price_table"),
)


@dataclass(frozen=True)
class CacheContract:
    """Attributes writable only inside declared commit methods."""

    relpath: str
    class_name: str
    cache_attrs: Tuple[str, ...]
    commit_methods: Tuple[str, ...]


CACHE_CONTRACTS: Tuple[CacheContract, ...] = (
    CacheContract(
        relpath="routing/engines/incremental.py",
        class_name="IncrementalEngine",
        cache_attrs=(
            "_graph",
            "_trees",
            "_avoiding",
            "_rows",
            "_row_transit",
        ),
        commit_methods=(
            "__init__",
            "reset",
            "_sync",
            "_rebuild_all",
            "_price_table",
            "_build_rows",
        ),
    ),
)


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowFinding:
    """One contract violation."""

    path: str
    line: int
    col: int
    code: str
    message: str
    function: str
    #: Stable identity for the baseline file: no line numbers, so the
    #: baseline survives unrelated edits above the finding.
    key: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "function": self.function,
            "key": self.key,
        }


# ----------------------------------------------------------------------
# Program model
# ----------------------------------------------------------------------
#: origin of an effect: ("local", line, desc) | ("call", line, callee_id)
Origin = Tuple[str, int, str]
#: origin of a parameter mutation:
#: ("local", line, desc) | ("call", line, callee_id, callee_param)
ParamOrigin = Tuple[Any, ...]


@dataclass
class CallSite:
    """One resolved call: candidate callees plus binding metadata."""

    line: int
    node: ast.Call
    #: (callee func_id, binds_receiver_as_self, receiver_root_name)
    candidates: Tuple[Tuple[str, bool, Optional[str]], ...]


@dataclass
class FunctionInfo:
    func_id: str
    relpath: str
    name: str
    qualname: str
    class_name: Optional[str]
    lineno: int
    params: Tuple[str, ...]
    node: Any
    calls: List[CallSite] = field(default_factory=list)
    local_effects: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    local_mutated: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    #: (cache attribute, line) writes, for RPR008.
    cache_writes: List[Tuple[str, int]] = field(default_factory=list)
    #: unbalanced ``.span(...)`` call lines, for RPR010.
    unbalanced_spans: List[int] = field(default_factory=list)


@dataclass
class ClassInfo:
    class_id: str
    relpath: str
    name: str
    lineno: int
    methods: Dict[str, str] = field(default_factory=dict)
    base_exprs: List[Any] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)  # resolved class ids
    engine_name: Optional[str] = None


@dataclass
class ModuleInfo:
    relpath: str
    dotted: str
    path: Path
    tree: Any
    source: str
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> (dotted module, symbol | None)
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    top_level_names: Set[str] = field(default_factory=set)


@dataclass
class AnalysisResult:
    """Everything one whole-program pass produced."""

    findings: List[FlowFinding]
    #: func_id -> {"effects": [...], "mutates_params": [...]}
    summaries: Dict[str, Dict[str, List[str]]]
    modules: int
    functions: int

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {code: 0 for code in FLOW_CODES}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def _dotted_name(relpath: str) -> str:
    """``routing/engines/__init__.py`` -> ``repro.routing.engines``."""
    parts = relpath[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _collect_imports(module: ModuleInfo) -> None:
    """Index every import binding, including lazy function-body ones.

    Function-body imports are treated as module-wide bindings: the
    engines import their heavy collaborators lazily, and the call graph
    must still see through those names.
    """
    package = module.dotted.rsplit(".", 1)[0] if "." in module.dotted else "repro"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                dotted = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports.setdefault(bound, (dotted, None))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module.dotted.split(".")
                # level 1 = current package; strip one extra segment for
                # non-__init__ modules (dotted already names the module).
                if not module.relpath.endswith("__init__.py"):
                    base_parts = base_parts[:-1]
                base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                source = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                source = node.module or package
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports.setdefault(bound, (source, alias.name))


def _class_engine_name(node: ast.ClassDef) -> Optional[str]:
    """The ``name: ClassVar[str] = "..."`` registry key, if declared."""
    for statement in node.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.AnnAssign):
            target, value = statement.target, statement.value
        elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target, value = statement.targets[0], statement.value
        if (
            isinstance(target, ast.Name)
            and target.id == "name"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return None


class _Program:
    """The whole-program index plus the propagation state."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # relpath -> module
        self.by_dotted: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> sorted func_ids (class-hierarchy analysis).
        self.methods_by_name: Dict[str, List[str]] = {}
        #: class id -> direct subclasses (resolved).
        self.children: Dict[str, List[str]] = {}
        # Propagated state:
        self.effects: Dict[str, Set[str]] = {}
        self.effect_origin: Dict[str, Dict[str, Origin]] = {}
        self.mutated: Dict[str, Dict[str, ParamOrigin]] = {}

    # -- collection ----------------------------------------------------
    def add_module(self, path: Path) -> Optional[ModuleInfo]:
        source = path.read_text(encoding="utf-8")
        relpath = _package_relpath(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return None
        module = ModuleInfo(
            relpath=relpath,
            dotted=_dotted_name(relpath),
            path=path,
            tree=tree,
            source=source,
        )
        _collect_imports(module)
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, statement, class_name=None)
            elif isinstance(statement, ast.ClassDef):
                self._add_class(module, statement)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        module.top_level_names.add(target.id)
        self.modules[relpath] = module
        self.by_dotted[module.dotted] = module
        return module

    def _add_function(
        self,
        module: ModuleInfo,
        node: Any,
        class_name: Optional[str],
    ) -> FunctionInfo:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        func_id = f"{module.relpath}::{qualname}"
        args = node.args
        params = tuple(
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        info = FunctionInfo(
            func_id=func_id,
            relpath=module.relpath,
            name=node.name,
            qualname=qualname,
            class_name=class_name,
            lineno=node.lineno,
            params=params,
            node=node,
        )
        self.functions[func_id] = info
        if class_name is None:
            module.functions[node.name] = func_id
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        class_id = f"{module.relpath}::{node.name}"
        info = ClassInfo(
            class_id=class_id,
            relpath=module.relpath,
            name=node.name,
            lineno=node.lineno,
            base_exprs=list(node.bases),
            engine_name=_class_engine_name(node),
        )
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._add_function(module, statement, class_name=node.name)
                info.methods[statement.name] = func.func_id
        module.classes[node.name] = info
        self.classes[class_id] = info

    # -- name resolution -----------------------------------------------
    def resolve_symbol(
        self, module: ModuleInfo, name: str
    ) -> Optional[Tuple[str, Any]]:
        """Resolve a bare name to ``("func"| "class" | "module", obj)``."""
        if name in module.functions:
            return ("func", self.functions[module.functions[name]])
        if name in module.classes:
            return ("class", module.classes[name])
        binding = module.imports.get(name)
        if binding is None:
            return None
        source, symbol = binding
        if symbol is None:
            target = self.by_dotted.get(source)
            return ("module", target) if target is not None else None
        submodule = self.by_dotted.get(f"{source}.{symbol}")
        if submodule is not None:
            return ("module", submodule)
        origin = self.by_dotted.get(source)
        if origin is None:
            return None
        if symbol in origin.functions:
            return ("func", self.functions[origin.functions[symbol]])
        if symbol in origin.classes:
            return ("class", origin.classes[symbol])
        # Re-exported names (engines/__init__ re-exports backends):
        chained = origin.imports.get(symbol)
        if chained is not None:
            chained_source, chained_symbol = chained
            if chained_symbol is None:
                target = self.by_dotted.get(chained_source)
                return ("module", target) if target is not None else None
            deeper = self.by_dotted.get(chained_source)
            if deeper is not None:
                if chained_symbol in deeper.functions:
                    return ("func", self.functions[deeper.functions[chained_symbol]])
                if chained_symbol in deeper.classes:
                    return ("class", deeper.classes[chained_symbol])
        return None

    def link_classes(self) -> None:
        """Resolve base-class names and build the hierarchy indexes."""
        for class_id in sorted(self.classes):
            info = self.classes[class_id]
            module = self.modules[info.relpath]
            for base in info.base_exprs:
                resolved: Optional[ClassInfo] = None
                if isinstance(base, ast.Name):
                    hit = self.resolve_symbol(module, base.id)
                    if hit is not None and hit[0] == "class":
                        resolved = hit[1]
                elif isinstance(base, ast.Attribute):
                    names = _chain_names(base)
                    if len(names) >= 2:
                        target = self._module_for_chain(module, names[:-1])
                        if target is not None and names[-1] in target.classes:
                            resolved = target.classes[names[-1]]
                if resolved is not None:
                    info.bases.append(resolved.class_id)
                    self.children.setdefault(resolved.class_id, []).append(class_id)
        for class_id in sorted(self.classes):
            for method, func_id in self.classes[class_id].methods.items():
                if method.startswith("__") and method.endswith("__"):
                    continue
                if method in _CHA_SKIP:
                    continue
                self.methods_by_name.setdefault(method, []).append(func_id)
        for func_ids in self.methods_by_name.values():
            func_ids.sort()

    def _module_for_chain(
        self, module: ModuleInfo, names: Sequence[str]
    ) -> Optional[ModuleInfo]:
        """The analyzed module a dotted name chain refers to, if any."""
        if not names:
            return None
        binding = module.imports.get(names[0])
        if binding is None:
            return None
        source, symbol = binding
        base = source if symbol is None else f"{source}.{symbol}"
        dotted = ".".join([base, *names[1:]])
        hit = self.by_dotted.get(dotted)
        if hit is not None:
            return hit
        # `import repro.obs` binds "repro": the chain itself extends it.
        if symbol is None and len(names) > 1:
            return self.by_dotted.get(".".join([source, *names[1:]]))
        return None

    # -- class hierarchy helpers ---------------------------------------
    def ancestors(self, class_id: str) -> List[str]:
        seen: List[str] = []
        stack = list(self.classes[class_id].bases)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.append(current)
            stack.extend(self.classes[current].bases)
        return seen

    def descendants(self, class_id: str) -> List[str]:
        seen: List[str] = []
        stack = list(self.children.get(class_id, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.append(current)
            stack.extend(self.children.get(current, ()))
        return seen

    def resolve_method(self, class_id: str, method: str) -> Optional[str]:
        """The defining func_id for ``class.method`` through the MRO."""
        info = self.classes[class_id]
        if method in info.methods:
            return info.methods[method]
        for ancestor in self.ancestors(class_id):
            ancestor_info = self.classes[ancestor]
            if method in ancestor_info.methods:
                return ancestor_info.methods[method]
        return None

    def family_methods(self, class_id: str, method: str) -> List[str]:
        """All defs of *method* in the class, its ancestors, and its
        descendants -- the virtual-dispatch candidate set."""
        family = [class_id, *self.ancestors(class_id), *self.descendants(class_id)]
        hits = []
        for member in family:
            func_id = self.classes[member].methods.get(method)
            if func_id is not None:
                hits.append(func_id)
        return sorted(set(hits))


# ----------------------------------------------------------------------
# Per-function local analysis
# ----------------------------------------------------------------------
def _module_rng_names(module: ModuleInfo) -> Dict[str, Set[str]]:
    """Alias sets for the RNG/clock/numpy modules visible in *module*."""
    names: Dict[str, Set[str]] = {
        "random": set(),
        "time": set(),
        "numpy": set(),
        "numpy.random": set(),
        "from_random": set(),
        "from_time": set(),
    }
    for bound, (source, symbol) in module.imports.items():
        if symbol is None:
            if source == "random":
                names["random"].add(bound)
            elif source == "time":
                names["time"].add(bound)
            elif source == "numpy":
                names["numpy"].add(bound)
            elif source == "numpy.random":
                names["numpy.random"].add(bound)
        else:
            if source == "random" and symbol in _RANDOM_FUNCS:
                names["from_random"].add(bound)
            elif source == "time" and symbol in _WALLCLOCK_FUNCS:
                names["from_time"].add(bound)
            elif source == "numpy" and symbol == "random":
                names["numpy.random"].add(bound)
    return names


class _FunctionScanner(ast.NodeVisitor):
    """One pass over a function body collecting local facts.

    Nested functions and lambdas are scanned as part of their enclosing
    function: defining a closure does not execute it, but every closure
    in this package is either called or returned by its definer, so
    folding its effects upward is a sound over-approximation.
    """

    def __init__(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        rng_names: Dict[str, Set[str]],
        cache_contract: Optional[CacheContract],
    ) -> None:
        self.func = func
        self.module = module
        self.rng = rng_names
        self.cache_contract = cache_contract
        self.raw_calls: List[ast.Call] = []
        self._set_names: Set[str] = set()
        self._locals: Set[str] = set(func.params)
        self._globals: Set[str] = set()
        #: local aliases of protected cache attributes (RPR008).
        self._cache_aliases: Dict[str, str] = {}
        #: iter nodes consumed order-insensitively (``sorted(... for ...)``).
        self._order_ok: Set[int] = set()
        for arg in [
            *func.node.args.posonlyargs,
            *func.node.args.args,
            *func.node.args.kwonlyargs,
        ]:
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                self._set_names.add(arg.arg)

    # -- effect recording ---------------------------------------------
    def _effect(self, name: str, node: ast.AST, desc: str) -> None:
        self.func.local_effects.setdefault(
            name, (getattr(node, "lineno", self.func.lineno), desc)
        )

    def _mutates(self, param: str, node: ast.AST, desc: str) -> None:
        self.func.local_mutated.setdefault(
            param, (getattr(node, "lineno", self.func.lineno), desc)
        )

    # -- bindings -------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)
        self.generic_visit(node)

    def _bind(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self._locals.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element)
        elif isinstance(target, ast.Starred):
            self._bind(target.value)

    # -- mutation detection ---------------------------------------------
    def _cache_attr_in_chain(self, names: List[str]) -> Optional[str]:
        if self.cache_contract is None:
            return None
        if len(names) >= 2 and names[0] == "self":
            if names[1] in self.cache_contract.cache_attrs:
                return names[1]
        if names and names[0] in self._cache_aliases:
            return self._cache_aliases[names[0]]
        return None

    def _check_write(self, target: ast.AST, node: ast.AST, verb: str) -> None:
        """Classify one write (assignment/del/mutator call) by its root."""
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self._effect(
                    EFFECT_MODULE_STATE,
                    node,
                    f"{verb} to module-level name '{target.id}'",
                )
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        names = _chain_names(target)
        if not names:
            return
        root = names[0]
        cache_attr = self._cache_attr_in_chain(names)
        if cache_attr is not None:
            self.func.cache_writes.append(
                (cache_attr, getattr(node, "lineno", self.func.lineno))
            )
        if root in self.func.params:
            self._mutates(root, node, f"{verb} through parameter '{root}'")
        elif root in self.module.top_level_names and root not in self._locals:
            self._effect(
                EFFECT_MODULE_STATE,
                node,
                f"{verb} through module-level object '{root}'",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(target, node, "assignment")
        # RPR008 alias tracking: `cache = self._avoiding.setdefault(...)`.
        if self.cache_contract is not None and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                names = _chain_names(node.value)
                attr = self._cache_attr_in_chain(names)
                if attr is not None:
                    self._cache_aliases[target.id] = attr
                else:
                    self._cache_aliases.pop(target.id, None)
        # RPR003-style set-name inference (single flat scope).
        if _is_set_expr(node.value, self._set_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_names.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_names.discard(target.id)
        for target in node.targets:
            self._bind(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write(node.target, node, "assignment")
        if isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                self._set_names.add(node.target.id)
            self._bind(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target, node, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write(target, node, "deletion")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self._bind(node.target)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self._bind(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind(item.optional_vars)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._locals.add(node.name)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if id(iter_node) in self._order_ok:
            return
        if _is_set_expr(iter_node, self._set_names):
            self._effect(
                EFFECT_SET_ITER,
                iter_node,
                "iterates a set without sorted()",
            )

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.raw_calls.append(node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE
        ):
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp, ast.ListComp)):
                    for generator in arg.generators:
                        self._order_ok.add(id(generator.iter))
        self._check_rng_call(node)
        self._check_clock_call(node)
        self._check_io_call(node)
        self._check_mutator_call(node)
        self.generic_visit(node)

    def _check_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _MUTATOR_METHODS:
            return
        names = _chain_names(func.value)
        if not names:
            return
        root = names[0]
        desc = f"'.{func.attr}()' call"
        cache_attr = self._cache_attr_in_chain([*names, func.attr])
        if cache_attr is not None:
            self.func.cache_writes.append(
                (cache_attr, getattr(node, "lineno", self.func.lineno))
            )
        if root in self.func.params:
            self._mutates(root, node, f"{desc} through parameter '{root}'")
        elif root in self.module.top_level_names and root not in self._locals:
            self._effect(
                EFFECT_MODULE_STATE,
                node,
                f"{desc} on module-level object '{root}'",
            )

    def _check_rng_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = func.value.id
            if root in self.rng["random"]:
                if func.attr in _RANDOM_FUNCS:
                    self._effect(EFFECT_RNG, node, f"'{root}.{func.attr}()'")
                elif func.attr == "Random" and not node.args and not node.keywords:
                    self._effect(EFFECT_RNG, node, f"unseeded '{root}.Random()'")
                return
        elif isinstance(func, ast.Name) and func.id in self.rng["from_random"]:
            self._effect(EFFECT_RNG, node, f"'{func.id}()' (from random)")
            return
        np_attr: Optional[str] = None
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self.rng["numpy"]
            ):
                np_attr = func.attr
            elif (
                isinstance(value, ast.Name) and value.id in self.rng["numpy.random"]
            ):
                np_attr = func.attr
        if np_attr is not None:
            if np_attr in _SEEDED_NP_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    self._effect(
                        EFFECT_RNG, node, f"unseeded 'numpy.random.{np_attr}()'"
                    )
            else:
                self._effect(EFFECT_RNG, node, f"'numpy.random.{np_attr}'")

    def _check_clock_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.rng["time"]
            and func.attr in _WALLCLOCK_FUNCS
        ):
            self._effect(EFFECT_CLOCK, node, f"'{func.value.id}.{func.attr}()'")
        elif isinstance(func, ast.Name) and func.id in self.rng["from_time"]:
            self._effect(EFFECT_CLOCK, node, f"'{func.id}()' (from time)")

    def _check_io_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            if func.id not in self._locals:
                self._effect(EFFECT_IO, node, f"'{func.id}()'")
            return
        if isinstance(func, ast.Attribute):
            names = _chain_names(func.value)
            if func.attr in _IO_METHODS:
                self._effect(EFFECT_IO, node, f"'.{func.attr}()'")
            elif names and names[0] in self.module.imports:
                source, symbol = self.module.imports[names[0]]
                if symbol is None and source.split(".")[0] in _IO_MODULE_ROOTS:
                    self._effect(EFFECT_IO, node, f"'{source}.{func.attr}()'")
            elif "stdout" in names or "stderr" in names:
                self._effect(EFFECT_IO, node, f"'.{func.attr}()' on a stream")


def _scan_spans(func: FunctionInfo) -> None:
    """RPR010: every ``.span(...)`` call must be closed on all paths."""
    allowed: Set[int] = set()
    with_names: Set[str] = set()
    exit_names: Set[str] = set()
    assigned: Dict[int, str] = {}  # id(call node) -> assigned name
    span_calls: List[ast.Call] = []
    for node in ast.walk(func.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                allowed.add(id(item.context_expr))
                if isinstance(item.context_expr, ast.Name):
                    with_names.add(item.context_expr.id)
        elif isinstance(node, ast.Return) and node.value is not None:
            allowed.add(id(node.value))
        elif isinstance(node, ast.Try):
            for statement in node.finalbody:
                for call in ast.walk(statement):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in {"__exit__", "close"}
                        and isinstance(call.func.value, ast.Name)
                    ):
                        exit_names.add(call.func.value.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                assigned[id(node.value)] = target.id
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in {"enter_context", "push", "callback"}:
                    for arg in node.args:
                        allowed.add(id(arg))
                elif node.func.attr == "span":
                    span_calls.append(node)
    for call in span_calls:
        if id(call) in allowed:
            continue
        name = assigned.get(id(call))
        if name is not None and (name in exit_names or name in with_names):
            continue
        func.unbalanced_spans.append(call.lineno)


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------
Candidate = Tuple[str, bool, Optional[str]]


def _resolve_call(
    program: _Program,
    module: ModuleInfo,
    func: FunctionInfo,
    node: ast.Call,
) -> List[Candidate]:
    """Candidate callees for one call expression."""
    candidates: List[Candidate] = []
    target = node.func
    if isinstance(target, ast.Name):
        hit = program.resolve_symbol(module, target.id)
        if hit is not None:
            kind, obj = hit
            if kind == "func":
                candidates.append((obj.func_id, False, None))
            elif kind == "class":
                init = program.resolve_method(obj.class_id, "__init__")
                if init is not None:
                    candidates.append((init, True, None))
    elif isinstance(target, ast.Attribute):
        receiver = target.value
        method = target.attr
        receiver_root = receiver.id if isinstance(receiver, ast.Name) else None
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and func.class_name is not None
        ):
            class_id = f"{func.relpath}::{func.class_name}"
            for ancestor in program.ancestors(class_id):
                hit_id = program.classes[ancestor].methods.get(method)
                if hit_id is not None:
                    candidates.append((hit_id, True, "self"))
                    break
        elif receiver_root == "self" and func.class_name is not None:
            class_id = f"{func.relpath}::{func.class_name}"
            if class_id in program.classes:
                for func_id in program.family_methods(class_id, method):
                    candidates.append((func_id, True, "self"))
        else:
            names = _chain_names(receiver)
            resolved_module = (
                program._module_for_chain(module, names) if names else None
            )
            if resolved_module is not None:
                if method in resolved_module.functions:
                    candidates.append(
                        (resolved_module.functions[method], False, None)
                    )
                elif method in resolved_module.classes:
                    init = program.resolve_method(
                        resolved_module.classes[method].class_id, "__init__"
                    )
                    if init is not None:
                        candidates.append((init, True, None))
            elif names and names[0] in module.imports:
                # A symbol imported from an analyzed module used as a
                # namespace (e.g. `sanitize.check_price_table`).
                hit = program.resolve_symbol(module, names[0])
                if hit is not None and hit[0] == "class" and len(names) == 1:
                    func_id = program.classes[hit[1].class_id].methods.get(method)
                    if func_id is not None:
                        candidates.append((func_id, True, None))
                elif method not in _CHA_SKIP:
                    candidates.extend(
                        (func_id, True, receiver_root)
                        for func_id in program.methods_by_name.get(method, ())
                    )
            elif method not in _CHA_SKIP:
                # Unknown receiver: class-hierarchy analysis.
                candidates.extend(
                    (func_id, True, receiver_root)
                    for func_id in program.methods_by_name.get(method, ())
                )
    # Bare function names passed as arguments (pool callbacks) count as
    # potential calls -- effects must not hide behind higher-order use.
    for arg in [*node.args, *[kw.value for kw in node.keywords]]:
        if isinstance(arg, ast.Name):
            hit = program.resolve_symbol(module, arg.id)
            if hit is not None and hit[0] == "func":
                candidates.append((hit[1].func_id, False, None))
    seen: Set[Candidate] = set()
    unique: List[Candidate] = []
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def _bind_arguments(
    call: ast.Call,
    callee: FunctionInfo,
    binds_receiver: bool,
    receiver_root: Optional[str],
) -> Dict[str, Optional[str]]:
    """Map callee parameter names to caller bare-name arguments.

    Only arguments that are plain names matter for parameter-mutation
    propagation; anything else maps to ``None``.
    """
    binding: Dict[str, Optional[str]] = {}
    params = list(callee.params)
    position = 0
    if binds_receiver and params:
        binding[params[0]] = receiver_root
        position = 1
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        if position >= len(params):
            break
        binding[params[position]] = arg.id if isinstance(arg, ast.Name) else None
        position += 1
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in callee.params:
            binding[keyword.arg] = (
                keyword.value.id if isinstance(keyword.value, ast.Name) else None
            )
    return binding


# ----------------------------------------------------------------------
# Propagation
# ----------------------------------------------------------------------
def _propagate(program: _Program) -> None:
    """Transitive closure of effects and parameter mutation.

    Deterministic regardless of input file ordering: functions are
    visited in sorted ``func_id`` order each pass, and origins record
    the *first* discovery in that fixed order.
    """
    order = sorted(program.functions)
    for func_id in order:
        func = program.functions[func_id]
        program.effects[func_id] = set(func.local_effects)
        program.effect_origin[func_id] = {
            effect: ("local", line, desc)
            for effect, (line, desc) in func.local_effects.items()
        }
        program.mutated[func_id] = {
            param: ("local", line, desc)
            for param, (line, desc) in func.local_mutated.items()
        }
    changed = True
    while changed:
        changed = False
        for func_id in order:
            func = program.functions[func_id]
            effects = program.effects[func_id]
            origins = program.effect_origin[func_id]
            mutated = program.mutated[func_id]
            for call_site in func.calls:
                for callee_id, binds_receiver, receiver_root in call_site.candidates:
                    callee_effects = program.effects.get(callee_id)
                    if callee_effects is None:
                        continue
                    for effect in sorted(callee_effects - effects):
                        effects.add(effect)
                        origins[effect] = ("call", call_site.line, callee_id)
                        changed = True
                    callee_mutated = program.mutated[callee_id]
                    if not callee_mutated:
                        continue
                    callee = program.functions[callee_id]
                    binding = _bind_arguments(
                        call_site.node, callee, binds_receiver, receiver_root
                    )
                    for callee_param in sorted(callee_mutated):
                        caller_name = binding.get(callee_param)
                        if (
                            caller_name is not None
                            and caller_name in func.params
                            and caller_name not in mutated
                        ):
                            mutated[caller_name] = (
                                "call",
                                call_site.line,
                                callee_id,
                                callee_param,
                            )
                            changed = True


def _effect_chain(program: _Program, func_id: str, effect: str) -> str:
    """Human-readable witness: entry -> ... -> local origin."""
    steps: List[str] = []
    visited: Set[str] = set()
    current = func_id
    while True:
        if current in visited:
            steps.append(f"{current} (cycle)")
            break
        visited.add(current)
        origin = program.effect_origin[current].get(effect)
        if origin is None:
            steps.append(current)
            break
        if origin[0] == "local":
            _kind, line, desc = origin
            steps.append(f"{current} ({desc} at line {line})")
            break
        _kind, line, callee_id = origin
        steps.append(f"{current} (line {line})")
        current = callee_id
    return " -> ".join(steps)


def _mutation_chain(program: _Program, func_id: str, param: str) -> str:
    steps: List[str] = []
    visited: Set[Tuple[str, str]] = set()
    current, current_param = func_id, param
    while True:
        if (current, current_param) in visited:
            steps.append(f"{current} (cycle)")
            break
        visited.add((current, current_param))
        origin = program.mutated[current].get(current_param)
        if origin is None:
            steps.append(current)
            break
        if origin[0] == "local":
            _kind, line, desc = origin
            steps.append(f"{current} ({desc} at line {line})")
            break
        _kind, line, callee_id, callee_param = origin
        steps.append(f"{current} (line {line})")
        current, current_param = callee_id, callee_param
    return " -> ".join(steps)


# ----------------------------------------------------------------------
# Contract checks
# ----------------------------------------------------------------------
def _find_function(
    program: _Program, relpath: str, qualname: str
) -> Optional[FunctionInfo]:
    return program.functions.get(f"{relpath}::{qualname}")


def _registered_engines(program: _Program) -> List[Tuple[str, ClassInfo]]:
    """``(registered name, class)`` pairs from the registry module."""
    registry = program.modules.get(ENGINE_REGISTRY_RELPATH)
    if registry is None:
        return []
    engines: List[Tuple[str, ClassInfo]] = []
    for statement in registry.tree.body:
        call: Optional[ast.Call] = None
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
            call = statement.value
        if (
            call is None
            or not isinstance(call.func, ast.Name)
            or call.func.id != "register"
            or not call.args
            or not isinstance(call.args[0], ast.Name)
        ):
            continue
        hit = program.resolve_symbol(registry, call.args[0].id)
        if hit is not None and hit[0] == "class":
            info = hit[1]
            engines.append((info.engine_name or info.name, info))
    # Decorator form: @register above a class definition.
    for module in program.modules.values():
        for statement in module.tree.body:
            if not isinstance(statement, ast.ClassDef):
                continue
            for decorator in statement.decorator_list:
                name = (
                    decorator.id
                    if isinstance(decorator, ast.Name)
                    else getattr(decorator, "attr", None)
                )
                if name == "register":
                    info = module.classes[statement.name]
                    engines.append((info.engine_name or info.name, info))
    seen: Set[str] = set()
    unique: List[Tuple[str, ClassInfo]] = []
    for name, info in sorted(engines, key=lambda pair: pair[0]):
        if info.class_id not in seen:
            seen.add(info.class_id)
            unique.append((name, info))
    return unique


def _check_determinism_contracts(program: _Program) -> List[FlowFinding]:
    findings: List[FlowFinding] = []
    #: func_id -> (display label, graph param, relpath, line)
    entries: Dict[str, Tuple[str, Optional[str]]] = {}
    for contract in ENTRY_CONTRACTS:
        func = _find_function(program, contract.relpath, contract.function)
        if func is not None:
            entries.setdefault(func.func_id, (func.qualname, contract.graph_param))
    for engine_name, info in _registered_engines(program):
        for method in ENGINE_ENTRY_METHODS:
            func_id = program.resolve_method(info.class_id, method)
            if func_id is not None:
                func = program.functions[func_id]
                entries.setdefault(
                    func_id, (f"{func.qualname} (engine '{engine_name}')", "graph")
                )
    for func_id in sorted(entries):
        label, graph_param = entries[func_id]
        func = program.functions[func_id]
        effects = program.effects[func_id]
        for effect in DETERMINISM_EFFECTS:
            if effect in effects:
                chain = _effect_chain(program, func_id, effect)
                findings.append(
                    FlowFinding(
                        path=func.relpath,
                        line=func.lineno,
                        col=1,
                        code="RPR007",
                        message=(
                            f"entry point {label} must be transitively "
                            f"deterministic but {effect}: {chain}"
                        ),
                        function=func.qualname,
                        key=f"RPR007:{func.relpath}:{func.qualname}:{effect}",
                    )
                )
        if graph_param is not None and graph_param in program.mutated[func_id]:
            chain = _mutation_chain(program, func_id, graph_param)
            findings.append(
                FlowFinding(
                    path=func.relpath,
                    line=func.lineno,
                    col=1,
                    code="RPR007",
                    message=(
                        f"entry point {label} mutates its "
                        f"'{graph_param}' argument: {chain}"
                    ),
                    function=func.qualname,
                    key=(
                        f"RPR007:{func.relpath}:{func.qualname}:"
                        f"mutates-{graph_param}"
                    ),
                )
            )
    return findings


def _check_cache_contracts(program: _Program) -> List[FlowFinding]:
    findings: List[FlowFinding] = []
    for contract in CACHE_CONTRACTS:
        class_id = f"{contract.relpath}::{contract.class_name}"
        info = program.classes.get(class_id)
        if info is None:
            continue
        for method in sorted(info.methods):
            if method in contract.commit_methods:
                continue
            func = program.functions[info.methods[method]]
            for attr, line in func.cache_writes:
                findings.append(
                    FlowFinding(
                        path=func.relpath,
                        line=line,
                        col=1,
                        code="RPR008",
                        message=(
                            f"cache attribute '{attr}' of "
                            f"{contract.class_name} written outside the "
                            f"commit path (method '{method}'; allowed: "
                            f"{', '.join(contract.commit_methods)})"
                        ),
                        function=func.qualname,
                        key=(
                            f"RPR008:{func.relpath}:{func.qualname}:{attr}"
                        ),
                    )
                )
    return findings


def _signature_shape(node: Any) -> Tuple[Any, ...]:
    """The comparable shape of a function signature.

    Annotations are excluded -- they do not change the calling
    convention -- but names, kinds, defaults, and the keyword-only
    structure all participate.
    """
    args = node.args
    return (
        tuple(arg.arg for arg in args.posonlyargs),
        tuple(arg.arg for arg in args.args),
        tuple(ast.unparse(default) for default in args.defaults),
        args.vararg.arg if args.vararg else None,
        tuple(arg.arg for arg in args.kwonlyargs),
        tuple(
            ast.unparse(default) if default is not None else None
            for default in args.kw_defaults
        ),
        args.kwarg.arg if args.kwarg else None,
    )


def _render_signature(node: Any) -> str:
    args = node.args
    parts: List[str] = []
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        parts.append(
            arg.arg if default is None else f"{arg.arg}={ast.unparse(default)}"
        )
    if args.vararg is not None:
        parts.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(
            arg.arg if default is None else f"{arg.arg}={ast.unparse(default)}"
        )
    if args.kwarg is not None:
        parts.append(f"**{args.kwarg.arg}")
    return f"({', '.join(parts)})"


def _check_signature_contracts(program: _Program) -> List[FlowFinding]:
    findings: List[FlowFinding] = []
    engines = _registered_engines(program)
    reference: Optional[ClassInfo] = None
    for name, info in engines:
        if name == "reference":
            reference = info
            break
    if reference is not None:
        for engine_name, info in engines:
            if info.class_id == reference.class_id:
                continue
            for method in ENGINE_PUBLIC_METHODS:
                reference_id = program.resolve_method(reference.class_id, method)
                engine_id = program.resolve_method(info.class_id, method)
                if reference_id is None or engine_id is None:
                    continue
                if engine_id == reference_id:
                    continue  # same inherited definition
                reference_func = program.functions[reference_id]
                engine_func = program.functions[engine_id]
                if _signature_shape(reference_func.node) != _signature_shape(
                    engine_func.node
                ):
                    findings.append(
                        FlowFinding(
                            path=engine_func.relpath,
                            line=engine_func.lineno,
                            col=1,
                            code="RPR009",
                            message=(
                                f"engine '{engine_name}' method '{method}' "
                                f"signature drifts from the reference "
                                f"engine: expected "
                                f"{_render_signature(reference_func.node)}, "
                                f"found {_render_signature(engine_func.node)}"
                            ),
                            function=engine_func.qualname,
                            key=(
                                f"RPR009:{engine_func.relpath}:"
                                f"{engine_func.qualname}:{method}"
                            ),
                        )
                    )
    # Keyword-only parity of the paired module-level entry points.
    pair = [
        _find_function(program, relpath, function)
        for relpath, function in KWONLY_PARITY
    ]
    if all(func is not None for func in pair) and len(pair) == 2:
        first, second = pair[0], pair[1]
        assert first is not None and second is not None
        first_tail = _signature_shape(first.node)[4:6]
        second_tail = _signature_shape(second.node)[4:6]
        if first_tail != second_tail:
            findings.append(
                FlowFinding(
                    path=second.relpath,
                    line=second.lineno,
                    col=1,
                    code="RPR009",
                    message=(
                        f"keyword-only tail of '{second.qualname}' "
                        f"{second_tail} drifts from '{first.qualname}' "
                        f"{first_tail}; the engine=/sanitize=/obs= "
                        f"surface must stay identical"
                    ),
                    function=second.qualname,
                    key=(
                        f"RPR009:{second.relpath}:{second.qualname}:kwonly-parity"
                    ),
                )
            )
    return findings


def _check_span_contracts(program: _Program) -> List[FlowFinding]:
    findings: List[FlowFinding] = []
    for func_id in sorted(program.functions):
        func = program.functions[func_id]
        for index, line in enumerate(func.unbalanced_spans):
            findings.append(
                FlowFinding(
                    path=func.relpath,
                    line=line,
                    col=1,
                    code="RPR010",
                    message=(
                        "obs span is not closed on all paths; open it in "
                        "a 'with' statement (or ExitStack.enter_context, "
                        "or pair __exit__ in a finally block)"
                    ),
                    function=func.qualname,
                    key=f"RPR010:{func.relpath}:{func.qualname}:{index}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _cache_contract_for(func: FunctionInfo) -> Optional[CacheContract]:
    for contract in CACHE_CONTRACTS:
        if (
            func.relpath == contract.relpath
            and func.class_name == contract.class_name
        ):
            return contract
    return None


def _build_program(paths: Sequence[Path]) -> _Program:
    """Parse, index, scan, resolve, and propagate over *paths*."""
    program = _Program()
    for path in _iter_python_files(paths):
        program.add_module(path)
    program.link_classes()
    for func_id in sorted(program.functions):
        func = program.functions[func_id]
        module = program.modules[func.relpath]
        scanner = _FunctionScanner(
            func, module, _module_rng_names(module), _cache_contract_for(func)
        )
        scanner.visit(func.node)
        _scan_spans(func)
        for call in scanner.raw_calls:
            candidates = _resolve_call(program, module, func, call)
            if candidates:
                func.calls.append(
                    CallSite(
                        line=call.lineno,
                        node=call,
                        candidates=tuple(candidates),
                    )
                )
    _propagate(program)
    return program


def _run_contract_checks(program: _Program) -> List[FlowFinding]:
    findings = [
        *_check_determinism_contracts(program),
        *_check_cache_contracts(program),
        *_check_signature_contracts(program),
        *_check_span_contracts(program),
    ]
    return sorted(findings, key=lambda f: (f.path, f.line, f.code, f.key))


def _filter_suppressed(
    program: _Program, findings: Sequence[FlowFinding]
) -> List[FlowFinding]:
    """Honor line-level ``# repro-lint: ok(CODE)`` comments."""
    cache: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    kept: List[FlowFinding] = []
    for finding in findings:
        module = program.modules.get(finding.path)
        if module is None:
            kept.append(finding)
            continue
        if finding.path not in cache:
            cache[finding.path] = _suppressed_lines(module.source)
        codes = cache[finding.path].get(finding.line, ...)
        if codes is ... or (codes is not None and finding.code not in codes):
            kept.append(finding)
    return kept


def analyze_paths(
    paths: Sequence[Path],
    *,
    apply_suppressions: bool = True,
) -> AnalysisResult:
    """Whole-program analysis of every ``.py`` file under *paths*."""
    program = _build_program([Path(p) for p in paths])
    findings = _run_contract_checks(program)
    if apply_suppressions:
        findings = _filter_suppressed(program, findings)
    summaries: Dict[str, Dict[str, List[str]]] = {}
    for func_id in sorted(program.functions):
        summaries[func_id] = {
            "effects": sorted(program.effects[func_id]),
            "mutates_params": sorted(program.mutated[func_id]),
        }
    return AnalysisResult(
        findings=findings,
        summaries=summaries,
        modules=len(program.modules),
        functions=len(program.functions),
    )


# ----------------------------------------------------------------------
# Stale-suppression detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StaleSuppression:
    """A ``# repro-lint: ok`` comment that no longer suppresses anything."""

    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: stale suppression: {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "message": self.message}


def _comment_lines(source: str) -> Set[int]:
    """Line numbers holding an actual ``#`` comment token.

    The suppression grammar also appears inside docstrings (this file's
    own, for one); a regex over raw lines would misread those as
    suppression comments, so the stale check tokenizes first.
    """
    lines: Set[int] = set()
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except tokenize.TokenError:
        pass
    return lines


def check_suppressions(paths: Sequence[Path]) -> List[StaleSuppression]:
    """Suppression comments whose line produces no (lint or flow) finding.

    A comment naming specific codes is stale when *any* named code is
    not produced by its line; a blanket ``ok`` comment is stale when the
    line produces nothing at all.
    """
    program = _build_program([Path(p) for p in paths])
    flow_findings = _run_contract_checks(program)
    stale: List[StaleSuppression] = []
    for relpath in sorted(program.modules):
        module = program.modules[relpath]
        comment_lines = _comment_lines(module.source)
        suppressed = {
            line: codes
            for line, codes in _suppressed_lines(module.source).items()
            if line in comment_lines
        }
        if not suppressed:
            continue
        produced: Dict[int, Set[str]] = {}
        try:
            lint_findings = lint_source(
                module.source, relpath, apply_suppressions=False
            )
        except SyntaxError:
            continue
        for lint_finding in lint_findings:
            produced.setdefault(lint_finding.line, set()).add(lint_finding.code)
        for flow_finding in flow_findings:
            if flow_finding.path == relpath:
                produced.setdefault(flow_finding.line, set()).add(
                    flow_finding.code
                )
        for line in sorted(suppressed):
            codes = suppressed[line]
            actual = produced.get(line, set())
            if codes is None:
                if not actual:
                    stale.append(
                        StaleSuppression(
                            path=relpath,
                            line=line,
                            message=(
                                "blanket 'repro-lint: ok' but the line "
                                "produces no finding"
                            ),
                        )
                    )
            else:
                unused = sorted(codes - actual)
                if unused:
                    stale.append(
                        StaleSuppression(
                            path=relpath,
                            line=line,
                            message=(
                                f"code(s) {', '.join(unused)} no longer "
                                f"produced by this line"
                            ),
                        )
                    )
    return stale


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def default_baseline_path() -> Path:
    return Path(__file__).resolve().with_name("flow_baseline.json")


def load_baseline(path: Path) -> Set[str]:
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return set(data.get("keys", []))


def write_baseline(findings: Sequence[FlowFinding], path: Path) -> int:
    keys = sorted({finding.key for finding in findings})
    payload = {
        "comment": (
            "Grandfathered repro.devtools.flow findings; the CI gate "
            "only fails on findings whose key is absent from this list. "
            "Regenerate with: python -m repro.devtools.flow --write-baseline"
        ),
        "keys": keys,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return len(keys)


def split_baseline(
    findings: Sequence[FlowFinding], baseline: Set[str]
) -> Tuple[List[FlowFinding], List[FlowFinding]]:
    """``(new, grandfathered)`` partition of *findings* by baseline key."""
    new = [finding for finding in findings if finding.key not in baseline]
    old = [finding for finding in findings if finding.key in baseline]
    return new, old


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _default_root() -> Path:
    return Path(__file__).resolve().parents[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.flow",
        description=(
            "Interprocedural determinism & contract analyzer for the "
            "repro package (codes RPR007-RPR010)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON report",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of grandfathered finding keys "
        "(default: flow_baseline.json next to this module)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit",
    )
    parser.add_argument(
        "--summaries",
        action="store_true",
        help="include per-function effect summaries in the output",
    )
    parser.add_argument(
        "--check-suppressions",
        action="store_true",
        help="flag '# repro-lint: ok' comments whose line no longer "
        "produces any finding (lint or flow)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or [_default_root()]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    if args.check_suppressions:
        stale = check_suppressions(paths)
        if args.as_json:
            print(
                json.dumps(
                    {"stale_suppressions": [entry.as_dict() for entry in stale]},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for entry in stale:
                print(entry)
            print(f"flow: {len(stale)} stale suppression(s)")
        return 1 if stale else 0

    result = analyze_paths(paths)
    baseline_path = args.baseline or default_baseline_path()
    if args.write_baseline:
        count = write_baseline(result.findings, baseline_path)
        print(f"flow: wrote {count} baseline key(s) to {baseline_path}")
        return 0
    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    new, grandfathered = split_baseline(result.findings, baseline)
    counts: Dict[str, int] = {code: 0 for code in FLOW_CODES}
    for finding in new:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    if args.as_json:
        payload: Dict[str, Any] = {
            "modules": result.modules,
            "functions": result.functions,
            "counts": counts,
            "findings": [finding.as_dict() for finding in new],
            "grandfathered": len(grandfathered),
        }
        if args.summaries:
            payload["summaries"] = result.summaries
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(finding)
        if args.summaries:
            for func_id, summary in result.summaries.items():
                if summary["effects"] or summary["mutates_params"]:
                    effects = ", ".join(summary["effects"]) or "-"
                    mutates = ", ".join(summary["mutates_params"]) or "-"
                    print(f"{func_id}: effects=[{effects}] mutates=[{mutates}]")
        print(
            f"flow: {len(new)} finding(s) "
            f"({len(grandfathered)} grandfathered) across "
            f"{result.modules} module(s) / {result.functions} function(s)"
        )
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
