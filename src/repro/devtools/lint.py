"""Domain-specific AST linter for the repro codebase.

``python -m repro.devtools.lint [paths...]`` walks the source tree and
enforces invariants that generic linters cannot know about but that the
paper's correctness results depend on:

``RPR001`` -- **no float equality on costs or prices.**  ``==`` / ``!=``
    between cost-like values (identifiers mentioning cost, price,
    payment, intensity, weight, welfare, or utility, or literal floats)
    silently breaks once arithmetic reassociates; comparisons must go
    through the epsilon helpers in :mod:`repro.types`.  The canonical
    route order in ``routing/tiebreak.py`` is exempt: its *exact*
    comparison is the design (both engines accumulate costs
    bit-identically).

``RPR002`` -- **no mutation of routing structures in protocol code.**
    Inside ``bgp/`` and ``core/``, the AS graph and selected paths are
    read-only inputs: mutating ``graph``-rooted state or ``path``-named
    sequences from a stage loop would invalidate every price already
    derived from them.

``RPR003`` -- **no unordered set iteration in protocol hot paths.**
    Inside ``bgp/``, ``core/``, ``routing/``, and ``mechanism/``,
    iterating a ``set`` without ``sorted()`` makes stage outcomes depend
    on hash order; the protocol's determinism (identical tie-breaking in
    both engines) requires a canonical iteration order.

``RPR004`` -- **no unseeded randomness.**  Module-level ``random.*``
    calls, ``random.Random()`` with no seed, and ``numpy.random.*``
    outside an explicit seeded ``Generator`` draw from hidden global
    state; every stochastic element must take an explicit seed.  Only
    ``graphs/generators.py`` (which threads seeds into samplers) is
    exempt from the numpy aliasing restriction; it too must seed.

``RPR005`` -- **no wall-clock reads in protocol/engine code.**  Inside
    ``bgp/``, ``core/``, ``routing/``, ``mechanism/``, and ``obs/``,
    ``time.time()`` (and friends: ``time_ns``, ``ctime``, ``gmtime``,
    ``localtime``) reads a clock that NTP can step backwards, so
    durations computed from it can be negative and recorded traces
    stop being comparable across hosts.  Timing must use the monotonic
    ``time.perf_counter()`` / ``time.monotonic()`` family, which is
    what :mod:`repro.obs` stamps events with.

``RPR006`` -- **no O(n + m) graph copies in routing hot paths.**
    Inside ``routing/``, every ``.without_node()`` call allocates a
    full copy of the AS graph; the avoiding-tree sweep makes one such
    call per (destination, transit) pair, so the copies dominate the
    mechanism's running time.  Use
    :meth:`~repro.graphs.asgraph.ASGraph.masked_without_node`, which
    answers the same reads through a copy-free view.  The copying
    constructor remains legitimate where a true independent graph is
    needed (``graphs/``, ``extensions/``, experiments, tests).

``RPR011`` -- **no imports of deprecated in-tree shims.**  Once a
    module is demoted to a deprecation shim (today:
    ``repro.routing.scipy_engine``, superseded by the engine registry
    :mod:`repro.routing.engines`), in-tree code must import the
    real home; importing the shim re-entangles the tree with a surface
    scheduled for deletion and fires the shim's ``DeprecationWarning``
    inside library code, which the ``-W error::DeprecationWarning`` CI
    step turns into a failure.

A finding on a given line is suppressed by a trailing
``# repro-lint: ok`` comment, optionally scoped to codes:
``# repro-lint: ok(RPR001)``.  Suppressions are deliberate escape
hatches for the handful of *intentional* exact comparisons (e.g. the
engines' change-detection, which relies on bit-identical accumulation).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "main",
    "ALL_CODES",
]

ALL_CODES: Tuple[str, ...] = (
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
    "RPR006",
    "RPR011",
)

#: Identifier tokens treated as "cost-like" by RPR001.
_COST_TOKEN = re.compile(
    r"(?:^|_)(?:cost|costs|price|prices|payment|payments|intensity|"
    r"weight|weights|welfare|utility)(?:_|$)"
)

#: Files (relative to the package root) exempt from RPR001: the
#: canonical route order *is* exact comparison, by design.
_FLOAT_EQ_EXEMPT = ("routing/tiebreak.py",)

#: File exempt from RPR004's module-alias restriction: the topology
#: generators own the seeded samplers.
_RANDOM_EXEMPT = ("graphs/generators.py",)

#: Subtrees whose stage loops must not mutate routing structures.
_MUTATION_SCOPE = ("bgp/", "core/")

#: Protocol hot paths requiring deterministic iteration.
_DETERMINISM_SCOPE = ("bgp/", "core/", "routing/", "mechanism/")

#: Subtrees where timing must be monotonic (RPR005): the protocol and
#: engine core plus the observability layer that timestamps it.
_WALLCLOCK_SCOPE = ("bgp/", "core/", "routing/", "mechanism/", "obs/")

#: ``time``-module functions that read the wall clock.
_WALLCLOCK_FUNCS = frozenset({"time", "time_ns", "ctime", "gmtime", "localtime"})

#: Subtree where graph copies are banned (RPR006): the routing hot
#: paths, where :meth:`masked_without_node` answers the same reads
#: without the O(n + m) allocation.
_GRAPH_COPY_SCOPE = ("routing/",)

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "add",
        "discard",
        "setdefault",
    }
)

_PATH_NAMES = frozenset({"path", "paths", "_paths"})

_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "seed",
        "getrandbits",
    }
)

#: Deprecated in-tree shim modules whose import is banned (RPR011).
#: Grows one entry per demotion; an entry is dropped only when the shim
#: file itself is deleted from the tree.
_DEPRECATED_SHIMS = frozenset({"repro.routing.scipy_engine"})

_SUPPRESS = re.compile(r"#\s*repro-lint:\s*ok(?:\(([^)]*)\))?")


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute/call chain."""
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_names(node: ast.AST) -> List[str]:
    """All identifiers along a name/attribute/subscript chain, root first."""
    names: List[str] = []

    def walk(current: ast.AST) -> None:
        if isinstance(current, ast.Attribute):
            walk(current.value)
            names.append(current.attr)
        elif isinstance(current, ast.Subscript):
            walk(current.value)
        elif isinstance(current, ast.Call):
            walk(current.func)
        elif isinstance(current, ast.Name):
            names.append(current.id)

    walk(node)
    return names


def _is_cost_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    name = _terminal_name(node)
    return name is not None and bool(_COST_TOKEN.search(name))


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether *node* statically looks like a set-valued expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = _terminal_name(node.func)
        if func in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _is_set_annotation(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    name = _terminal_name(annotation)
    return name in {"Set", "FrozenSet", "set", "frozenset", "MutableSet", "AbstractSet"}


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every enabled rule to one module."""

    def __init__(
        self,
        relpath: str,
        select: Set[str],
        findings: List[Finding],
    ) -> None:
        self.relpath = relpath
        self.select = select
        self.findings = findings
        # RPR003: names statically known to hold sets, per enclosing
        # function scope (a stack; module level is the first frame).
        self._set_scopes: List[Set[str]] = [set()]
        # RPR004: aliases under which the random / numpy modules are
        # visible in this module.
        self._random_aliases: Set[str] = set()
        self._numpy_aliases: Set[str] = set()
        self._numpy_random_aliases: Set[str] = set()
        self._from_random_names: Set[str] = set()
        # RPR005: aliases under which the time module is visible, and
        # wall-clock functions imported from it by name.
        self._time_aliases: Set[str] = set()
        self._from_time_names: Set[str] = set()

    # -- helpers -----------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.select:
            self.findings.append(
                Finding(
                    path=self.relpath,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0) + 1,
                    code=code,
                    message=message,
                )
            )

    def _in_scope(self, prefixes: Iterable[str]) -> bool:
        return any(self.relpath.startswith(prefix) for prefix in prefixes)

    @property
    def _sets(self) -> Set[str]:
        return self._set_scopes[-1]

    # -- scope management (RPR003 name inference) --------------------

    def _visit_function(self, node: ast.AST) -> None:
        self._set_scopes.append(set())
        args = getattr(node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None and _is_set_annotation(arg.annotation):
                    self._set_scopes[-1].add(arg.arg)
        self.generic_visit(node)
        self._set_scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    # -- imports (RPR004 alias tracking) -----------------------------

    def _check_shim_import(self, node: ast.AST, module: Optional[str]) -> None:
        if module in _DEPRECATED_SHIMS:
            self._emit(
                node,
                "RPR011",
                f"import of deprecated shim module {module}; import its "
                "replacement instead (the shim exists only for external "
                "callers and will be removed)",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_shim_import(node, alias.name)
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "numpy":
                self._numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._numpy_random_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_shim_import(node, node.module)
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCS:
                    self._from_random_names.add(alias.asname or alias.name)
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_FUNCS:
                    self._from_time_names.add(alias.asname or alias.name)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- RPR001 ------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.relpath not in _FLOAT_EQ_EXEMPT:
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_cost_like(left) or _is_cost_like(right):
                    self._emit(
                        node,
                        "RPR001",
                        "float equality on a cost-like value; use the "
                        "epsilon helpers in repro.types (costs_close / "
                        "is_zero_cost) or math.isnan/isinf for guards",
                    )
                    break
        self.generic_visit(node)

    # -- RPR002 ------------------------------------------------------

    def _mutates_graph_chain(self, target: ast.AST) -> bool:
        """Assignment through a graph object (``graph`` non-terminal)."""
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return False
        names = _chain_names(target)
        interior = names[:-1] if isinstance(target, ast.Attribute) else names
        return "graph" in interior

    def _check_mutation_target(self, target: ast.AST) -> None:
        if self._mutates_graph_chain(target):
            self._emit(
                target,
                "RPR002",
                "mutation through an AS-graph object inside protocol "
                "code; derive a new graph (with_cost / without_node) "
                "outside the stage loop instead",
            )
        if isinstance(target, ast.Attribute) and target.attr in {
            "path",
            "node_costs",
        }:
            self._emit(
                target,
                "RPR002",
                f"assignment to '.{target.attr}' of a routing structure; "
                "paths and cost snapshots are immutable once published",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._in_scope(_MUTATION_SCOPE):
            for target in node.targets:
                self._check_mutation_target(target)
        self._track_set_assignment(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._in_scope(_MUTATION_SCOPE):
            self._check_mutation_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._in_scope(_MUTATION_SCOPE):
            for target in node.targets:
                if self._mutates_graph_chain(target):
                    self._emit(
                        target,
                        "RPR002",
                        "deletion through an AS-graph object inside "
                        "protocol code",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_mutator_call(node)
        self._check_random_call(node)
        self._check_wallclock_call(node)
        self._check_graph_copy_call(node)
        self.generic_visit(node)

    def _check_mutator_call(self, node: ast.Call) -> None:
        if not self._in_scope(_MUTATION_SCOPE):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _MUTATOR_METHODS:
            return
        receiver = node.func.value
        names = _chain_names(receiver)
        terminal = names[-1] if names else None
        if "graph" in names:
            self._emit(
                node,
                "RPR002",
                f"'.{node.func.attr}()' mutates state reached through an "
                "AS-graph object inside protocol code",
            )
        elif terminal in _PATH_NAMES:
            self._emit(
                node,
                "RPR002",
                f"'.{node.func.attr}()' on a path; selected paths are "
                "immutable tuples -- build a new tuple instead",
            )

    # -- RPR003 ------------------------------------------------------

    def _track_set_assignment(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self._sets):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._sets.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._sets.discard(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and _is_set_annotation(node.annotation):
            self._sets.add(node.target.id)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if not self._in_scope(_DETERMINISM_SCOPE):
            return
        if _is_set_expr(iter_node, self._sets):
            self._emit(
                iter_node,
                "RPR003",
                "iteration over a set in a protocol hot path; wrap in "
                "sorted() so stage outcomes do not depend on hash order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- RPR004 ------------------------------------------------------

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        # random.<fn>(...) on the module alias, or bare <fn> imported
        # from random: hidden global RNG state.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = func.value.id
            if root in self._random_aliases:
                if func.attr in _RANDOM_FUNCS:
                    self._emit(
                        node,
                        "RPR004",
                        f"'{root}.{func.attr}()' uses the global RNG; "
                        "construct random.Random(seed) and thread it "
                        "through explicitly",
                    )
                elif func.attr == "Random" and not node.args and not node.keywords:
                    self._emit(
                        node,
                        "RPR004",
                        "'random.Random()' without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
        elif isinstance(func, ast.Name) and func.id in self._from_random_names:
            self._emit(
                node,
                "RPR004",
                f"'{func.id}()' imported from random uses the global "
                "RNG; construct random.Random(seed) instead",
            )
        # numpy.random.<fn>(...) / np.random.<fn>(...): legacy global
        # generator, except an explicitly seeded default_rng(...).
        np_random_attr: Optional[str] = None
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self._numpy_aliases
            ):
                np_random_attr = func.attr
            elif isinstance(value, ast.Name) and value.id in self._numpy_random_aliases:
                np_random_attr = func.attr
        if np_random_attr is not None and self.relpath not in _RANDOM_EXEMPT:
            if np_random_attr in {"default_rng", "Generator", "SeedSequence"}:
                if not node.args and not node.keywords:
                    self._emit(
                        node,
                        "RPR004",
                        f"'numpy.random.{np_random_attr}()' without a "
                        "seed is nondeterministic; pass an explicit seed",
                    )
            else:
                self._emit(
                    node,
                    "RPR004",
                    f"'numpy.random.{np_random_attr}' draws from numpy's "
                    "global state; use numpy.random.default_rng(seed)",
                )

    # -- RPR006 ------------------------------------------------------

    def _check_graph_copy_call(self, node: ast.Call) -> None:
        if not self._in_scope(_GRAPH_COPY_SCOPE):
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "without_node":
            self._emit(
                node,
                "RPR006",
                "'.without_node()' copies the whole graph in a routing "
                "hot path; use '.masked_without_node()', the copy-free "
                "view with identical reads",
            )

    # -- RPR005 ------------------------------------------------------

    def _check_wallclock_call(self, node: ast.Call) -> None:
        if not self._in_scope(_WALLCLOCK_SCOPE):
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
            and func.attr in _WALLCLOCK_FUNCS
        ):
            self._emit(
                node,
                "RPR005",
                f"'{func.value.id}.{func.attr}()' reads the wall clock in "
                "protocol/engine code; use time.perf_counter() / "
                "time.monotonic() so durations cannot go backwards",
            )
        elif isinstance(func, ast.Name) and func.id in self._from_time_names:
            self._emit(
                node,
                "RPR005",
                f"'{func.id}()' imported from time reads the wall clock in "
                "protocol/engine code; use time.perf_counter() / "
                "time.monotonic() so durations cannot go backwards",
            )


def _suppressed_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed codes (``None`` = all codes)."""
    suppressed: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS.search(line)
        if not match:
            continue
        codes = match.group(1)
        if codes:
            suppressed[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
        else:
            suppressed[lineno] = None
    return suppressed


def lint_source(
    source: str,
    relpath: str,
    select: Optional[Sequence[str]] = None,
    *,
    apply_suppressions: bool = True,
) -> List[Finding]:
    """Lint one module given as text; *relpath* is package-root relative
    (forward slashes), which is what scopes the per-subtree rules.

    ``apply_suppressions=False`` reports findings on suppressed lines
    too; the analyzer's ``--check-suppressions`` mode uses this to spot
    ``# repro-lint: ok`` comments that no longer suppress anything.
    """
    chosen = set(select) if select is not None else set(ALL_CODES)
    tree = ast.parse(source, filename=relpath)
    findings: List[Finding] = []
    visitor = _RuleVisitor(relpath=relpath, select=chosen, findings=findings)
    visitor.visit(tree)
    if apply_suppressions:
        suppressed = _suppressed_lines(source)
        kept = []
        for finding in findings:
            codes = suppressed.get(finding.line, ...)
            if codes is ...:
                kept.append(finding)
            elif codes is not None and finding.code not in codes:
                kept.append(finding)
        findings = kept
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def _package_relpath(path: Path) -> str:
    """Path relative to the enclosing ``repro`` package root, if any."""
    parts = path.as_posix().split("/")
    for anchor in ("repro",):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            rel = "/".join(parts[index + 1 :])
            if rel:
                return rel
    return path.name


def lint_file(path: Path, select: Optional[Sequence[str]] = None) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, _package_relpath(path), select=select)


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under *paths*.  A file that does not
    parse is reported as a ``PARSE`` finding (never filtered by
    *select*) rather than aborting the whole walk."""
    findings: List[Finding] = []
    for path in _iter_python_files(paths):
        try:
            findings.extend(lint_file(path, select=select))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=_package_relpath(path),
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    code="PARSE",
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return findings


def _default_root() -> Path:
    """The ``src/repro`` tree this module belongs to."""
    return Path(__file__).resolve().parent.parent


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Repo-specific AST lint for the BGP/VCG core.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule codes to enable (default: all)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or [_default_root()]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    if select is not None:
        unknown = sorted(set(select) - set(ALL_CODES))
        if unknown:
            print(
                f"error: unknown rule code(s) {', '.join(unknown)}; "
                f"known: {', '.join(ALL_CODES)}",
                file=sys.stderr,
            )
            return 2
    findings = lint_paths(paths, select=select)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
