"""Project-wide interprocedural determinism dataflow analysis.

The per-file AST lint (:mod:`repro.lint.rules`) catches what a single
module betrays about itself: a stray ``import random``, a wall-clock
read.  This analyzer parses the *whole* source tree into a symbol table
and call graph and tracks two things no file-local pass can see — RNG
lineage and process-boundary dataflow — to catch the defect classes
that silently break bit-identical reproducibility across stepping modes
and worker counts:

``rng-not-rooted`` (error)
    A random stream constructed outside the :mod:`repro.sim.rng`
    factories (``random.Random(...)``, ``random.random()``,
    ``numpy.random.default_rng(...)``, ``secrets.*`` — through any
    import alias).  Unlike the per-file ``determinism`` rule, this
    check has no perf-harness exemption: a raw stream in the
    measurement harness still desynchronizes a sweep.

``split-collision`` (error)
    Two :func:`repro.sim.rng.split_rng` derivations from the same
    parent stream with the same constant salt along any call path —
    directly in one function, or through callees that split their RNG
    parameter (tracked with per-function salt summaries propagated to
    a fixpoint over the call graph).  Colliding children are the *same*
    stream: two traffic sources that were meant to be independent draw
    identical sequences.

``process-shared-state`` (error)
    Module-global mutable state reachable from a worker root — a
    function dispatched through ``ProcessPoolExecutor``
    ``submit``/``map`` or the sweep dispatchers
    (``run_sweep``/``run_campaign``), plus every module-level function
    of :mod:`repro.perf.workers`.  A module-global RNG is flagged on
    any access (each pool child gets its own copy, so draws depend on
    worker placement); other mutable globals are flagged on *mutation*
    (a write in a pool child never propagates back, so results differ
    between ``workers=1`` and ``workers=N``).  Read-only lookup tables
    are fine.

``config-mutated-after-handoff`` (error)
    Attribute assignment into a config dataclass (``MultiRingConfig``
    and friends) *after* the object was handed to a fabric/sweep/cache
    sink.  The sweep cache keys on a fingerprint of the config taken at
    handoff; mutating it afterwards desyncs the cache key from the
    behavior it labels.  Mutation through a callee is tracked with
    per-function parameter-mutation summaries.

All four checks are heuristic static analyses: flow-insensitive inside
a function (statement order approximated by line number), best-effort
name resolution through import aliases, and silent on values they
cannot prove anything about (non-constant salts, dynamically chosen
callables).  They are tuned to be quiet on the shipped tree — anything
they do flag is either fixed or explicitly suppressed, never ignored.

Findings anchor to source lines and carry the line text as fingerprint
context, and inline ``# repro: allow[rule]`` suppressions apply exactly
as they do for the per-file lint.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.rules import DETERMINISM_EXEMPT, iter_python_files
from repro.lint.suppress import Suppressions

#: Dataflow rule ids, in reporting order.
DATAFLOW_RULES: Tuple[str, ...] = (
    "rng-not-rooted",
    "split-collision",
    "process-shared-state",
    "config-mutated-after-handoff",
)

#: Call-name prefixes that construct an unrooted random stream.
_UNROOTED_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Functions that dispatch their first argument to worker processes.
_WORKER_DISPATCHERS = {"run_sweep", "run_campaign"}

#: Modules whose module-level functions are worker roots by contract
#: (picklable pool entry points), path suffixes.
_WORKER_ROOT_MODULES = ("repro/perf/workers.py",)

#: Constructor calls producing mutable containers (module-global scan).
_MUTABLE_CTORS = {"list", "dict", "set", "deque", "defaultdict",
                  "OrderedDict", "Counter"}

#: Methods that mutate their receiver (container mutators).
_MUTATOR_METHODS = {"append", "appendleft", "add", "update", "pop",
                    "popleft", "setdefault", "extend", "extendleft",
                    "remove", "discard", "clear", "insert", "sort"}

#: Config-ish class-name suffixes for the handoff check.
_CONFIG_SUFFIXES = ("Config", "Params")
_CONFIG_NAMES = {"BudgetSpec", "QueueParams"}

#: Call-name suffixes that accept a config and fingerprint/freeze it.
_HANDOFF_SUFFIXES = ("Fabric", "Processor", "Package", "System")
_HANDOFF_NAMES = {"run_sweep", "run_campaign", "make_key",
                  "analyze_system", "validate_spec", "config_fingerprint"}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    Paths inside a ``repro/`` tree map to their real import name
    (``.../repro/perf/sweep.py`` -> ``repro.perf.sweep``); anything else
    (test fixtures) maps to its bare stem so fixture files can import
    each other by stem.
    """
    posix = path.replace(os.sep, "/")
    idx = posix.rfind("/repro/")
    if idx >= 0:
        rel = posix[idx + 1:]
    elif posix.startswith("repro/"):
        rel = posix
    else:
        rel = posix.rsplit("/", 1)[-1]
    if rel.endswith(".py"):
        rel = rel[:-3]
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    return rel.replace("/", ".")


@dataclass
class FunctionInfo:
    """One analyzed function (module-level def or class method)."""

    qualname: str
    module: "ModuleInfo"
    node: ast.AST
    params: List[str]
    #: Salt sets this function applies (transitively) to each RNG param,
    #: by param index — the split-collision summary.
    split_salts: Dict[int, Set[object]] = field(default_factory=dict)
    #: Param indices this function attribute-mutates (transitively).
    mutates_params: Set[int] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Parsed per-module facts feeding the interprocedural passes."""

    path: str
    modname: str
    tree: ast.Module
    source_lines: List[str]
    #: local name -> dotted import target (module or symbol)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: global name -> (lineno, description, is_rng)
    mutable_globals: Dict[str, Tuple[int, str, bool]] = field(
        default_factory=dict)


@dataclass
class DataflowReport:
    """Everything one analysis run derived."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    functions: int = 0
    #: Worker-root qualnames, for the report/debugging.
    roots: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "modules": self.modules,
            "functions": self.functions,
            "roots": sorted(self.roots),
        }


class _ImportCollector(ast.NodeVisitor):
    """Union of every import binding in a module (incl. lazy in-function
    imports, which this codebase uses heavily)."""

    def __init__(self, modname: str):
        self.package = modname.rsplit(".", 1)[0] if "." in modname else ""
        self.imports: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            base = self.package.split(".") if self.package else []
            # one level = current package; each extra level pops one.
            base = base[: len(base) - (node.level - 1)] if node.level > 1 \
                else base
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.imports[local] = (module + "." + alias.name) if module \
                else alias.name


def _collect_functions(mod: ModuleInfo) -> None:
    """Register module-level functions and class methods.

    Nested functions stay part of their parent's body: closures are
    analyzed as the enclosing function (they share its frame, which is
    exactly the aliasing the checks care about).
    """
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{mod.modname}.{stmt.name}"
            mod.functions[qual] = FunctionInfo(
                qual, mod, stmt, [a.arg for a in stmt.args.args])
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{mod.modname}.{stmt.name}.{sub.name}"
                    params = [a.arg for a in sub.args.args]
                    if params and params[0] in ("self", "cls"):
                        params = params[1:]
                    mod.functions[qual] = FunctionInfo(
                        qual, mod, sub, params)


def _collect_mutable_globals(mod: ModuleInfo, analyzer) -> None:
    for stmt in mod.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        desc = None
        is_rng = False
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            desc = f"a {type(value).__name__.lower()} literal"
        elif isinstance(value, ast.Call):
            dotted = analyzer.resolve(mod, value.func) or \
                (_dotted(value.func) or "")
            last = dotted.split(".")[-1]
            if analyzer.is_rng_factory(dotted) or \
                    dotted in ("random.Random",):
                desc, is_rng = f"an RNG stream ({last}(...))", True
            elif last in _MUTABLE_CTORS:
                desc = f"a mutable {last}()"
        if desc is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mod.mutable_globals[target.id] = (stmt.lineno, desc, is_rng)


class DataflowAnalyzer:
    """The whole-program analysis: build, then :meth:`run`."""

    def __init__(self, sources: Dict[str, str],
                 suppressions: Optional[Dict[str, Suppressions]] = None):
        self.suppressions = suppressions or {}
        self.modules: Dict[str, ModuleInfo] = {}
        self.symbols: Dict[str, FunctionInfo] = {}
        self.findings: List[Finding] = []
        self._parse_errors: List[str] = []
        for path in sorted(sources):
            source = sources[path]
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                # The per-file lint already reports a ``syntax`` finding;
                # the project analysis just proceeds without the module.
                self._parse_errors.append(path)
                continue
            modname = module_name_for(path)
            mod = ModuleInfo(path=path, modname=modname, tree=tree,
                             source_lines=source.splitlines())
            collector = _ImportCollector(modname)
            collector.visit(tree)
            mod.imports = collector.imports
            _collect_functions(mod)
            self.modules[path] = mod
        for mod in self.modules.values():
            for qual, info in mod.functions.items():
                self.symbols[qual] = info
            _collect_mutable_globals(mod, self)

    # -- name resolution --------------------------------------------------

    def resolve(self, mod: ModuleInfo, func: ast.AST) -> Optional[str]:
        """Best-effort dotted name of a call target through imports."""
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in mod.imports:
            base = mod.imports[head]
            return base + ("." + rest if rest else "")
        # A bare name defined in this module?
        if not rest and f"{mod.modname}.{head}" in mod.functions:
            return f"{mod.modname}.{head}"
        # An unresolved head is a local/attribute, not a module: a local
        # variable named ``random`` must not look like the stdlib.
        return None

    def lookup(self, dotted: Optional[str]) -> Optional[FunctionInfo]:
        if dotted is None:
            return None
        return self.symbols.get(dotted)

    @staticmethod
    def is_rng_factory(dotted: Optional[str]) -> bool:
        if not dotted:
            return False
        return (dotted.startswith("repro.")
                and dotted.split(".")[-1] in ("make_rng", "split_rng"))

    @staticmethod
    def is_split(dotted: Optional[str]) -> bool:
        return bool(dotted) and dotted.startswith("repro.") \
            and dotted.split(".")[-1] == "split_rng"

    # -- emission ---------------------------------------------------------

    def _emit(self, mod: ModuleInfo, node: ast.AST, rule: str,
              message: str) -> None:
        line = getattr(node, "lineno", 0)
        supp = self.suppressions.get(mod.path)
        if supp is not None and supp.is_suppressed(line, rule):
            return
        context = None
        if 0 < line <= len(mod.source_lines):
            context = mod.source_lines[line - 1]
        self.findings.append(Finding(
            rule=rule, message=message, severity=Severity.ERROR,
            path=mod.path, line=line,
            col=getattr(node, "col_offset", 0), context=context))

    # -- check 1: unrooted RNG streams ------------------------------------

    def _check_rng_roots(self) -> None:
        for mod in self.modules.values():
            posix = mod.path.replace(os.sep, "/")
            if any(posix.endswith(s) for s in DETERMINISM_EXEMPT):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = self.resolve(mod, node.func)
                if dotted is None:
                    continue
                if dotted == "random.Random" or any(
                        dotted.startswith(p) for p in _UNROOTED_PREFIXES):
                    self._emit(
                        mod, node, "rng-not-rooted",
                        f"'{dotted}' constructs a random stream outside "
                        "the repro.sim.rng factories; root every stream "
                        "in make_rng/split_rng so runs stay a pure "
                        "function of the seed (this project-wide check "
                        "has no perf-harness exemption)")

    # -- check 2: split_rng salt collisions -------------------------------

    def _rng_vars(self, info: FunctionInfo) -> Dict[str, Tuple[str, object]]:
        """Map of local names to RNG origins: ('param', i) or ('local', line)."""
        origins: Dict[str, Tuple[str, object]] = {}
        for i, name in enumerate(info.params):
            origins[name] = ("param", i)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and isinstance(node.value,
                                                           ast.Call):
                dotted = self.resolve(info.module, node.value.func)
                if self.is_rng_factory(dotted):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            origins[target.id] = ("local", node.lineno)
        return origins

    def _split_events(
        self, info: FunctionInfo, origins: Dict[str, Tuple[str, object]],
        use_summaries: bool,
    ) -> List[Tuple[Tuple[str, object], object, int, str]]:
        """(origin, salt, lineno, how) for every constant-salt derivation."""
        events = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = self.resolve(info.module, node.func)
            if self.is_split(dotted):
                if (len(node.args) >= 2
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in origins
                        and isinstance(node.args[1], ast.Constant)):
                    events.append((origins[node.args[0].id],
                                   node.args[1].value, node.lineno,
                                   "split_rng here"))
                continue
            if not use_summaries:
                continue
            callee = self.lookup(dotted)
            if callee is None or not callee.split_salts:
                continue
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id in origins:
                    for salt in callee.split_salts.get(pos, ()):
                        events.append((origins[arg.id], salt, node.lineno,
                                       f"via {callee.qualname}()"))
        return events

    def _compute_split_summaries(self) -> None:
        """Fixpoint over the call graph: salts each fn splits per param."""
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for info in self.symbols.values():
                origins = self._rng_vars(info)
                new: Dict[int, Set[object]] = {}
                for origin, salt, _, _ in self._split_events(
                        info, origins, use_summaries=True):
                    if origin[0] == "param":
                        new.setdefault(origin[1], set()).add(salt)
                if new != info.split_salts:
                    info.split_salts = new
                    changed = True

    def _check_split_collisions(self) -> None:
        self._compute_split_summaries()
        for info in self.symbols.values():
            origins = self._rng_vars(info)
            events = self._split_events(info, origins, use_summaries=True)
            seen: Dict[Tuple[Tuple[str, object], object],
                       Tuple[int, str]] = {}
            reported = set()
            for origin, salt, lineno, how in sorted(
                    events, key=lambda e: e[2]):
                key = (origin, salt)
                if key not in seen:
                    seen[key] = (lineno, how)
                elif key not in reported:
                    first_line, first_how = seen[key]
                    reported.add(key)
                    anchor = ast.Constant(value=0)
                    anchor.lineno = lineno
                    anchor.col_offset = 0
                    self._emit(
                        info.module, anchor, "split-collision",
                        f"split_rng salt {salt!r} derives the same child "
                        f"stream twice from one parent ({first_how} at "
                        f"line {first_line}, then {how}): colliding "
                        "children draw identical sequences; give every "
                        "derivation path a distinct salt")
            del reported
        # (non-constant salts and unresolvable parents are ignored: the
        # analysis only reports what it can prove)

    # -- check 3: process-boundary shared state ---------------------------

    def _worker_roots(self) -> Set[str]:
        roots: Set[str] = set()
        for mod in self.modules.values():
            posix = mod.path.replace(os.sep, "/")
            if any(posix.endswith(s) for s in _WORKER_ROOT_MODULES):
                roots.update(q for q, f in mod.functions.items()
                             if "." not in q[len(mod.modname) + 1:])
            # dynamic roots: fn names handed to pool.submit/map or a
            # sweep dispatcher's first argument.
            pools = self._pool_names(mod)
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn_arg: Optional[ast.AST] = None
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("submit", "map"):
                    owner = node.func.value
                    owner_is_pool = (
                        (isinstance(owner, ast.Name)
                         and owner.id in pools)
                        or (isinstance(owner, ast.Call)
                            and (_dotted(owner.func) or "").split(".")[-1]
                            == "ProcessPoolExecutor"))
                    if owner_is_pool and node.args:
                        fn_arg = node.args[0]
                else:
                    dotted = self.resolve(mod, node.func) or ""
                    if dotted.split(".")[-1] in _WORKER_DISPATCHERS \
                            and node.args:
                        fn_arg = node.args[0]
                if isinstance(fn_arg, ast.Name):
                    target = self.resolve(mod, ast.Name(id=fn_arg.id,
                                                        ctx=ast.Load()))
                    if target is None:
                        target = f"{mod.modname}.{fn_arg.id}"
                    if target in self.symbols:
                        roots.add(target)
        return roots

    @staticmethod
    def _pool_names(mod: ModuleInfo) -> Set[str]:
        pools: Set[str] = set()
        for node in ast.walk(mod.tree):
            ctor = None
            if isinstance(node, ast.Assign) and isinstance(node.value,
                                                           ast.Call):
                ctor = (node.value, [t for t in node.targets
                                     if isinstance(t, ast.Name)])
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call) and \
                            isinstance(item.optional_vars, ast.Name):
                        ctor = (item.context_expr, [item.optional_vars])
            if ctor is None:
                continue
            call, names = ctor
            if (_dotted(call.func) or "").split(".")[-1] == \
                    "ProcessPoolExecutor":
                pools.update(n.id for n in names)
        return pools

    def _callees(self, info: FunctionInfo) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                dotted = self.resolve(info.module, node.func)
                if dotted in self.symbols:
                    out.add(dotted)
                elif isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id == "self":
                    # self.method() in the same class
                    cls = info.qualname.rsplit(".", 2)
                    if len(cls) == 3:
                        cand = f"{cls[0]}.{cls[1]}.{node.func.attr}"
                        if cand in self.symbols:
                            out.add(cand)
        return out

    def _check_process_state(self) -> Set[str]:
        roots = self._worker_roots()
        reachable: Set[str] = set()
        frontier = list(roots)
        while frontier:
            qual = frontier.pop()
            if qual in reachable or qual not in self.symbols:
                continue
            reachable.add(qual)
            frontier.extend(self._callees(self.symbols[qual]))
        for qual in sorted(reachable):
            info = self.symbols[qual]
            mod = info.module
            if not mod.mutable_globals:
                continue
            local_shadows = {a for a in info.params}
            seen_lines: Set[Tuple[int, str]] = set()
            for node in ast.walk(info.node):
                name = None
                is_write = False
                if isinstance(node, ast.Global):
                    for g in node.names:
                        if g in mod.mutable_globals:
                            name, is_write = g, True
                elif isinstance(node, ast.Name) and node.id in \
                        mod.mutable_globals and node.id not in local_shadows:
                    name = node.id
                    is_write = isinstance(node.ctx, (ast.Store, ast.Del))
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATOR_METHODS and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id in mod.mutable_globals and \
                        node.func.value.id not in local_shadows:
                    name, is_write = node.func.value.id, True
                elif isinstance(node, (ast.Subscript, ast.Attribute)) and \
                        isinstance(node.ctx, ast.Store) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in mod.mutable_globals and \
                        node.value.id not in local_shadows:
                    name, is_write = node.value.id, True
                if name is None:
                    continue
                glineno, desc, is_rng = mod.mutable_globals[name]
                if not is_rng and not is_write:
                    continue  # read-only lookup tables are fine
                key = (getattr(node, "lineno", 0), name)
                if key in seen_lines:
                    continue
                seen_lines.add(key)
                if is_rng:
                    what = (f"module-global RNG '{name}' (defined line "
                            f"{glineno}) is used by worker-reachable "
                            f"'{qual}': each pool child re-creates its "
                            "own copy, so draws depend on worker "
                            "placement and count")
                else:
                    what = (f"worker-reachable '{qual}' mutates "
                            f"module-global '{name}' ({desc}, line "
                            f"{glineno}): writes in a pool child never "
                            "propagate back, so results differ between "
                            "workers=1 and workers=N")
                self._emit(mod, node, "process-shared-state",
                           what + "; pass state through the point "
                           "payload and return values instead")
        return roots

    # -- check 4: config mutation after handoff ---------------------------

    def _is_config_ctor(self, dotted: Optional[str], raw: str) -> bool:
        name = (dotted or raw).split(".")[-1]
        return name.endswith(_CONFIG_SUFFIXES) or name in _CONFIG_NAMES

    @staticmethod
    def _is_handoff(name: str) -> bool:
        return name.endswith(_HANDOFF_SUFFIXES) or name in _HANDOFF_NAMES

    def _compute_mutation_summaries(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for info in self.symbols.values():
                param_idx = {p: i for i, p in enumerate(info.params)}
                new: Set[int] = set()
                for node in ast.walk(info.node):
                    if isinstance(node, (ast.Attribute,)) and \
                            isinstance(node.ctx, ast.Store) and \
                            isinstance(node.value, ast.Name) and \
                            node.value.id in param_idx:
                        new.add(param_idx[node.value.id])
                    elif isinstance(node, ast.Call):
                        dotted = self.resolve(info.module, node.func)
                        if (_dotted(node.func) == "setattr"
                                and node.args
                                and isinstance(node.args[0], ast.Name)
                                and node.args[0].id in param_idx):
                            new.add(param_idx[node.args[0].id])
                            continue
                        callee = self.lookup(dotted)
                        if callee is None:
                            continue
                        for pos, arg in enumerate(node.args):
                            if isinstance(arg, ast.Name) and \
                                    arg.id in param_idx and \
                                    pos in callee.mutates_params:
                                new.add(param_idx[arg.id])
                if new != info.mutates_params:
                    info.mutates_params = new
                    changed = True

    def _check_config_handoff(self) -> None:
        self._compute_mutation_summaries()
        for info in self.symbols.values():
            mod = info.module
            # config-typed locals: assigned from a *Config ctor, or
            # annotated parameters.
            config_vars: Dict[str, int] = {}
            args_node = getattr(info.node, "args", None)
            if args_node is not None:
                for arg in args_node.args:
                    ann = getattr(arg, "annotation", None)
                    if ann is not None:
                        ann_name = _dotted(ann) or (
                            ann.value if isinstance(ann, ast.Constant)
                            and isinstance(ann.value, str) else "")
                        if ann_name and self._is_config_ctor(
                                None, str(ann_name)):
                            config_vars[arg.arg] = getattr(
                                info.node, "lineno", 0)
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) and \
                        isinstance(node.value, ast.Call):
                    dotted = self.resolve(mod, node.value.func)
                    raw = _dotted(node.value.func) or ""
                    if self._is_config_ctor(dotted, raw):
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                config_vars[t.id] = node.lineno
            if not config_vars:
                continue
            handed: Dict[str, Tuple[int, str]] = {}
            mutations: List[Tuple[str, int, str, ast.AST]] = []
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    dotted = self.resolve(mod, node.func)
                    raw = _dotted(node.func) or ""
                    last = (dotted or raw).split(".")[-1]
                    callee = self.lookup(dotted)
                    for pos, arg in enumerate(
                            list(node.args)
                            + [kw.value for kw in node.keywords]):
                        if not (isinstance(arg, ast.Name)
                                and arg.id in config_vars):
                            continue
                        if self._is_handoff(last):
                            prev = handed.get(arg.id)
                            if prev is None or node.lineno < prev[0]:
                                handed[arg.id] = (node.lineno, last)
                        if callee is not None and pos < len(node.args) \
                                and pos in callee.mutates_params:
                            mutations.append(
                                (arg.id, node.lineno,
                                 f"via {callee.qualname}()", node))
                    if _dotted(node.func) == "setattr" and node.args and \
                            isinstance(node.args[0], ast.Name) and \
                            node.args[0].id in config_vars:
                        mutations.append((node.args[0].id, node.lineno,
                                          "via setattr(...)", node))
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in config_vars:
                    mutations.append((node.value.id, node.lineno,
                                      f".{node.attr} = ...", node))
            for var, lineno, how, node in mutations:
                handoff = handed.get(var)
                if handoff is None or lineno <= handoff[0]:
                    continue
                self._emit(
                    mod, node, "config-mutated-after-handoff",
                    f"config '{var}' is mutated ({how}) after being "
                    f"handed to {handoff[1]}(...) on line {handoff[0]}: "
                    "the fabric/sweep/cache fingerprinted it at handoff, "
                    "so later mutation desyncs cache keys and recorded "
                    "behavior; build the final config first (or use "
                    "dataclasses.replace for a fresh copy)")

    # -- driver -----------------------------------------------------------

    def run(self) -> DataflowReport:
        self._check_rng_roots()
        self._check_split_collisions()
        roots = self._check_process_state()
        self._check_config_handoff()
        return DataflowReport(
            findings=self.findings,
            modules=len(self.modules),
            functions=len(self.symbols),
            roots=sorted(roots))


def analyze_sources(
    sources: Dict[str, str],
    suppressions: Optional[Dict[str, Suppressions]] = None,
) -> DataflowReport:
    """Analyze in-memory sources (tests and the hypothesis properties)."""
    return DataflowAnalyzer(sources, suppressions).run()


def analyze_paths(
    paths: Iterable[str],
    suppressions: Optional[Dict[str, Suppressions]] = None,
) -> DataflowReport:
    """Analyze every python file under ``paths`` as one program."""
    sources: Dict[str, str] = {}
    for root in paths:
        for filepath in iter_python_files(root):
            if filepath in sources:
                continue
            with open(filepath, "r", encoding="utf-8") as fh:
                sources[filepath] = fh.read()
    return analyze_sources(sources, suppressions)
