"""AST lint rules tailored to a cycle-accurate simulator.

Generic linters do not know what breaks a simulator.  These rules do:

- ``determinism`` — no ambient randomness or wall-clock reads in sim
  paths.  Every random stream must come from
  :func:`repro.sim.rng.make_rng` so a run is a pure function of its
  seed; ``time.time()`` in a model silently couples results to the host.
  ``numpy`` itself is permitted (the dense stepping tier is built on
  it) but ``numpy.random`` is banned in every spelling — ``import
  numpy.random``, ``from numpy import random``, and attribute use like
  ``np.random.default_rng()`` through any numpy alias — because a
  numpy-seeded stream bypasses ``repro.sim.rng`` exactly like the
  stdlib ``random`` module would.
- ``mutable-default`` — a mutable default argument is shared across all
  calls, which in a simulator aliases state across components.
- ``float-cycle`` — cycle counters are integers.  Assigning a float (or
  a true-division result) to a cycle variable lets ``0.30000000000004``
  creep into ready-times and break cycle-exact comparisons; use ``//``
  or keep float math in reporting-only variables.
- ``bare-except`` — ``except:`` swallows the structured
  :class:`repro.lint.invariants.InvariantViolation` (and
  ``KeyboardInterrupt``), turning a caught correctness bug into silence.
- ``parallel-seeding`` — worker processes and pid-derived seeds belong
  in :mod:`repro.perf` only.  A ``multiprocessing``/process-pool import
  or an ``os.getpid()`` call in a sim path is how "same seed, different
  worker count, different results" bugs are born; parallel sweeps must
  go through :func:`repro.perf.sweep.run_sweep`, which derives every
  point's seed from ``(base_seed, point index)`` before dispatch.
- ``sweep-bare-pool`` — collecting results straight off
  ``ProcessPoolExecutor.map`` outside ``repro/perf/``.  A bare
  ``pool.map`` is all-or-nothing: one worker exception aborts the loop
  and every completed point is lost; dispatch through
  :func:`repro.perf.sweep.run_sweep`, which seeds each point from its
  index, turns a worker exception into that point's failure record,
  and caches each result as it is collected.
- ``unordered-iteration`` — iterating a ``set`` (a literal, a
  ``set()``/``frozenset()`` call, a set-algebra method result, or a
  local bound to one) inside the order-sensitive simulation packages
  (:data:`ORDER_SENSITIVE_DIRS`: ``repro/{core,fabric,sim,analyze}``).
  Set iteration order depends on insertion history and hash seeding, so
  any simulation state touched in that order diverges between otherwise
  identical runs; iterate ``sorted(...)`` instead.  Plain ``dict``
  iteration is deliberately *not* flagged: dicts preserve insertion
  order (guaranteed since Python 3.7), which is deterministic as long
  as insertions are.

A line can opt out of one rule with a trailing ``# repro: allow[rule]``
comment (the legacy ``# lint: allow[rule]`` spelling still works; see
:mod:`repro.lint.suppress`, which also reports suppressions that never
fire); :data:`DETERMINISM_EXEMPT` files (the RNG helper itself) are
exempt from the determinism rule wholesale, and everything under
:data:`PERF_EXEMPT_DIRS` (the measurement harness, which legitimately
reads wall clocks and spawns workers) is exempt from the determinism,
parallel-seeding, and sweep-bare-pool rules.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.suppress import Suppressions

#: Rule names, in reporting order.
DEFAULT_RULES: Tuple[str, ...] = (
    "determinism",
    "mutable-default",
    "float-cycle",
    "bare-except",
    "parallel-seeding",
    "sweep-bare-pool",
    "unordered-iteration",
)

#: Files (posix-path suffixes) where the determinism rule does not apply:
#: the RNG helper is the one legitimate owner of ``random``.
DETERMINISM_EXEMPT: Tuple[str, ...] = ("repro/sim/rng.py",)

#: Directory fragments exempt from the determinism, parallel-seeding,
#: and sweep-bare-pool rules: the measurement harness times wall clocks
#: and owns the worker pools by design — it is harness, not simulation.
PERF_EXEMPT_DIRS: Tuple[str, ...] = ("repro/perf/",)

#: Directory fragments where iteration order feeds simulation state, so
#: the unordered-iteration rule is active.  Reporting/CLI layers may
#: iterate sets freely (their output is sorted at render time).
ORDER_SENSITIVE_DIRS: Tuple[str, ...] = (
    "repro/core/",
    "repro/fabric/",
    "repro/sim/",
    "repro/analyze/",
)

#: Individual files outside those packages that still feed simulation
#: state.  The dense stepping tier lives under the perf harness but
#: mirrors ring state bit-for-bit; one set-ordered loop there breaks
#: cycle-identical equivalence with the reference walk, so it is held
#: to the unordered-iteration rule like the core packages.
ORDER_SENSITIVE_FILES: Tuple[str, ...] = ("repro/perf/dense.py",)

#: Modules whose import outside repro/perf/ the parallel-seeding rule
#: flags.
_PARALLEL_MODULES = {"multiprocessing", "concurrent.futures"}

#: Method names whose call result is a set (set algebra).  ``copy`` is
#: excluded: it is too generic to attribute to sets from syntax alone.
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}

#: Modules whose import anywhere in a sim path is nondeterminism.
#: ``numpy`` itself is deliberately absent — deterministic array math is
#: how the dense stepping tier earns its keep — but ``numpy.random``
#: (in any spelling; see the visitor) stays banned.
_BANNED_MODULES = {"random", "secrets", "numpy.random"}

#: Dotted call suffixes that read the wall clock or entropy pool.
_BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Names that the float-cycle rule treats as cycle counters.  Rates named
#: ``*_per_cycle`` are not counters and may legitimately be floats.
_CYCLE_NAME = re.compile(r"(^|_)cycles?$")
_RATE_NAME = re.compile(r"per_cycle")

#: Builtins whose result does not depend on the iteration order of their
#: iterable argument (commutative/associative reductions, re-sorting, or
#: re-collection into another unordered type).  A comprehension feeding
#: one of these directly is exempt from the unordered-iteration rule.
_ORDER_INSENSITIVE_REDUCERS = {
    "sum", "max", "min", "any", "all", "len", "sorted", "set", "frozenset",
    "Counter",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute chain (``a.b.c``) or bare name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_cycle_name(node: ast.AST) -> bool:
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None or _RATE_NAME.search(name):
        return False
    return bool(_CYCLE_NAME.search(name))


def _contains_float_math(node: ast.AST) -> Optional[ast.AST]:
    """First sub-expression that produces a float: a float literal,
    a true division, or a call to ``float``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return sub
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return sub
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"):
            return sub
    return None


def _set_expr_desc(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it syntactically produces a set, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = _dotted(node.func) or ""
        last = name.split(".")[-1]
        if last in {"set", "frozenset"}:
            return f"a {last}() call"
        if isinstance(node.func, ast.Attribute) and last in _SET_METHODS:
            return f"a .{last}() set-algebra result"
    return None


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor applying every enabled rule."""

    def __init__(
        self,
        path: str,
        rules: Sequence[str],
        suppressed: Suppressions,
        determinism_exempt: bool,
        parallel_exempt: bool = False,
        order_sensitive: bool = False,
        source_lines: Optional[List[str]] = None,
    ):
        self.path = path
        self.rules = set(rules)
        if determinism_exempt:
            self.rules.discard("determinism")
        if parallel_exempt:
            self.rules.discard("parallel-seeding")
            self.rules.discard("sweep-bare-pool")
        if not order_sensitive:
            self.rules.discard("unordered-iteration")
        self.suppressed = suppressed
        self.source_lines = source_lines or []
        self.findings: List[Finding] = []
        # Comprehension nodes feeding an order-insensitive reduction
        # (``sum(x for x in some_set)``), exempt from unordered-iteration.
        self._commutative_ok: Set[int] = set()
        # Per-scope map of local names currently bound to set values,
        # for the unordered-iteration rule's flow-insensitive inference.
        self._set_locals: List[Set[str]] = [set()]
        # Names the module binds to the numpy package (``import numpy``,
        # ``import numpy as np``), so ``np.random.*`` attribute use can
        # be attributed back to the banned ``numpy.random``.
        self._numpy_aliases: Set[str] = set()
        # Names bound to ProcessPoolExecutor instances (assignment or
        # with-as), for the sweep-bare-pool rule's ``pool.map`` check.
        self._pool_names: Set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.rules:
            return
        line = getattr(node, "lineno", 0)
        if self.suppressed.is_suppressed(line, rule):  # inline opt-out
            return
        context = None
        if 0 < line <= len(self.source_lines):
            context = self.source_lines[line - 1]
        self.findings.append(
            Finding(rule=rule, message=message, severity=Severity.ERROR,
                    path=self.path, line=line,
                    col=getattr(node, "col_offset", 0), context=context)
        )

    # -- determinism ------------------------------------------------------

    @staticmethod
    def _parallel_module(name: str) -> bool:
        return any(name == mod or name.startswith(mod + ".")
                   for mod in _PARALLEL_MODULES)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")
            if alias.name in _BANNED_MODULES:
                self._emit(
                    node, "determinism",
                    f"import of '{alias.name}' in a sim path; create "
                    "generators with repro.sim.rng.make_rng/split_rng "
                    "(type-hint with repro.sim.rng.Rng)",
                )
            if self._parallel_module(alias.name):
                self._emit(
                    node, "parallel-seeding",
                    f"import of '{alias.name}' outside repro/perf/; run "
                    "parallel work through repro.perf.sweep.run_sweep "
                    "so per-point seeds stay worker-independent",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module in _BANNED_MODULES:
            self._emit(
                node, "determinism",
                f"import from '{module}' in a sim path; use "
                "repro.sim.rng.make_rng/split_rng instead",
            )
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._emit(
                        node, "determinism",
                        "'from numpy import random' is numpy.random in "
                        "disguise; all randomness goes through "
                        "repro.sim.rng.make_rng/split_rng",
                    )
        if self._parallel_module(module):
            self._emit(
                node, "parallel-seeding",
                f"import from '{module}' outside repro/perf/; run "
                "parallel work through repro.perf.sweep.run_sweep "
                "so per-point seeds stay worker-independent",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_REDUCERS):
            # ``sum(x for x in some_set)`` and friends: the reduction is
            # commutative (or re-orders anyway), so the set iteration
            # feeding it cannot leak nondeterministic order into state.
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.SetComp)):
                    self._commutative_ok.add(id(arg))
        if dotted is not None:
            for banned in _BANNED_CALLS:
                if dotted == banned or dotted.endswith("." + banned):
                    self._emit(
                        node, "determinism",
                        f"wall-clock/entropy call '{dotted}' in a sim "
                        "path; cycle counts are the only clock a "
                        "deterministic simulator may read",
                    )
                    break
            if dotted == "os.getpid" or dotted.endswith(".getpid"):
                self._emit(
                    node, "parallel-seeding",
                    f"'{dotted}' outside repro/perf/: a pid-derived "
                    "value in a sim path makes results depend on which "
                    "worker ran the point; derive per-point seeds with "
                    "repro.perf.sweep.point_seed",
                )
        self._check_bare_pool_map(node)
        self.generic_visit(node)

    # -- bare pool.map ----------------------------------------------------

    @staticmethod
    def _is_pool_ctor(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _dotted(node.func) or ""
        return name.split(".")[-1] == "ProcessPoolExecutor"

    def _check_bare_pool_map(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) or node.func.attr != "map":
            return
        owner = node.func.value
        is_pool = self._is_pool_ctor(owner) or (
            isinstance(owner, ast.Name) and owner.id in self._pool_names)
        if is_pool:
            self._emit(
                node, "sweep-bare-pool",
                "direct ProcessPoolExecutor.map outside repro/perf/ is "
                "all-or-nothing: one worker exception loses every "
                "completed point; dispatch through "
                "repro.perf.sweep.run_sweep (index-derived seeds, "
                "per-point failure records, cached results)",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in self._numpy_aliases):
            self._emit(
                node, "determinism",
                f"'{node.value.id}.random' in a sim path: numpy array "
                "math is fine, numpy randomness is not — a "
                "numpy-seeded stream bypasses repro.sim.rng and breaks "
                "run-for-run determinism",
            )
        self.generic_visit(node)

    # -- mutable defaults -------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                bad = type(default).__name__.lower()
            elif isinstance(default, ast.Call):
                name = _dotted(default.func) or ""
                if name.split(".")[-1] in {"list", "dict", "set",
                                           "deque", "defaultdict",
                                           "OrderedDict", "Counter"}:
                    bad = name
            if bad is not None:
                self._emit(
                    default, "mutable-default",
                    f"mutable default ({bad}) in '{node.name}' is shared "
                    "across calls; default to None and allocate inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._set_locals.append(set())
        self.generic_visit(node)
        self._set_locals.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._set_locals.append(set())
        self.generic_visit(node)
        self._set_locals.pop()

    # -- float arithmetic on cycle counters -------------------------------

    def _check_cycle_assign(self, node: ast.AST, targets: Iterable[ast.AST],
                            value: ast.AST) -> None:
        if not any(_is_cycle_name(t) for t in targets):
            return
        culprit = _contains_float_math(value)
        if culprit is not None:
            self._emit(
                node, "float-cycle",
                "float arithmetic assigned to a cycle counter; cycle "
                "counts must stay integral (use // or do unit "
                "conversion in a reporting-only variable)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_cycle_assign(node, node.targets, node.value)
        is_set = _set_expr_desc(node.value) is not None
        is_pool = self._is_pool_ctor(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._set_locals[-1].add(target.id)
                else:
                    self._set_locals[-1].discard(target.id)
                if is_pool:
                    self._pool_names.add(target.id)
                else:
                    self._pool_names.discard(target.id)
        self.generic_visit(node)

    def _visit_with(self, node) -> None:
        for item in node.items:
            if (self._is_pool_ctor(item.context_expr)
                    and isinstance(item.optional_vars, ast.Name)):
                self._pool_names.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_cycle_assign(node, [node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _is_cycle_name(node.target) and (
            isinstance(node.op, ast.Div)
            or _contains_float_math(node.value) is not None
        ):
            self._emit(
                node, "float-cycle",
                "float arithmetic on a cycle counter; cycle counts must "
                "stay integral",
            )
        self.generic_visit(node)

    # -- bare except ------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(
                node, "bare-except",
                "bare 'except:' swallows InvariantViolation and "
                "KeyboardInterrupt; catch a concrete exception type",
            )
        self.generic_visit(node)

    # -- unordered iteration ----------------------------------------------

    def _set_iter_desc(self, iterable: ast.AST) -> Optional[str]:
        desc = _set_expr_desc(iterable)
        if desc is not None:
            return desc
        if isinstance(iterable, ast.Name):
            for scope in reversed(self._set_locals):
                if iterable.id in scope:
                    return f"'{iterable.id}' (bound to a set above)"
        return None

    def _check_iteration(self, node: ast.AST, iterable: ast.AST) -> None:
        desc = self._set_iter_desc(iterable)
        if desc is not None:
            self._emit(
                node, "unordered-iteration",
                f"iteration over {desc} in an order-sensitive sim path; "
                "set order depends on insertion history and hashing, so "
                "state touched in that order diverges between runs — "
                "iterate sorted(...) instead",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._commutative_ok:
            for gen in node.generators:
                self._check_iteration(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _perf_exempt(posix_path: str) -> bool:
    """True for files inside the measurement-harness directories."""
    return any(frag in posix_path or posix_path.startswith(frag.rstrip("/"))
               for frag in PERF_EXEMPT_DIRS)


def _order_sensitive(posix_path: str) -> bool:
    """True for files inside the order-sensitive simulation packages."""
    return (any(frag in posix_path for frag in ORDER_SENSITIVE_DIRS)
            or any(posix_path.endswith(suffix)
                   for suffix in ORDER_SENSITIVE_FILES))


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[str] = DEFAULT_RULES,
    determinism_exempt: Optional[bool] = None,
    parallel_exempt: Optional[bool] = None,
    order_sensitive: Optional[bool] = None,
    suppressions: Optional[Suppressions] = None,
) -> List[Finding]:
    """Lint one module's source text; returns findings (empty = clean).

    Pass a shared :class:`Suppressions` instance to track which inline
    ``allow[...]`` comments actually fired across checker layers (the
    runner does, for unused-suppression detection); without one, a
    private instance is created and discarded.
    """
    posix = path.replace(os.sep, "/")
    if determinism_exempt is None:
        determinism_exempt = (any(posix.endswith(s)
                                  for s in DETERMINISM_EXEMPT)
                              or _perf_exempt(posix))
    if parallel_exempt is None:
        parallel_exempt = _perf_exempt(posix)
    if order_sensitive is None:
        order_sensitive = _order_sensitive(posix)
    if suppressions is None:
        suppressions = Suppressions(source, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="syntax", severity=Severity.ERROR,
                        message=f"cannot parse: {exc.msg}", path=path,
                        line=exc.lineno or 0, col=exc.offset or 0)]
    visitor = _RuleVisitor(path, rules, suppressions,
                           determinism_exempt, parallel_exempt,
                           order_sensitive,
                           source_lines=source.splitlines())
    visitor.visit(tree)
    return visitor.findings


def iter_python_files(root: str) -> List[str]:
    """All ``.py`` files under ``root`` (or ``root`` itself if a file)."""
    if os.path.isfile(root):
        return [root]
    out: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d != "__pycache__" and not d.endswith(".egg-info")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                out.append(os.path.join(dirpath, name))
    return out


def lint_paths(
    paths: Iterable[str],
    rules: Sequence[str] = DEFAULT_RULES,
) -> Tuple[List[Finding], int]:
    """Lint every python file under ``paths``.

    Returns (findings, number of files linted).
    """
    findings: List[Finding] = []
    nfiles = 0
    for root in paths:
        for filepath in iter_python_files(root):
            nfiles += 1
            with open(filepath, "r", encoding="utf-8") as fh:
                findings.extend(lint_source(fh.read(), filepath, rules))
    return findings, nfiles
