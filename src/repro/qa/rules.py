"""AST rule implementations for the sketch-lint static-analysis pass.

Each rule is a pure function from a parsed module (plus its repo path)
to a list of :class:`Finding`\\ s. Rules are *repo-specific*: they encode
the correctness disciplines the Clock-sketch hot path depends on — the
disciplines a generic linter cannot know about:

SK101
    No per-item Python loops over stream items inside the hot-path
    modules (``core/``, ``engine/``, ``hashing/``). The batch engine
    exists so whole streams move through numpy; a stray scalar loop
    silently reverts a hot path to pre-vectorised throughput.
    Deliberate scalar reference paths carry ``# sketchlint: scalar-ok``.
SK102
    Every numpy array construction in ``core/``/``engine/`` passes an
    explicit ``dtype``. Clock cells, step counts and timestamps each
    have one correct width; platform-dependent default dtypes are how
    bit-identity breaks between machines.
SK103
    No raw clock arithmetic outside ``clockarray.py``: neither
    ``1 << s`` cell-width constants nor direct writes to a clock
    array's ``values`` buffer. All cell mutation goes through the
    :class:`~repro.core.clockarray.ClockArray` API so invariants stay
    enforceable in one place.
SK105
    Every sketch subclass of :class:`~repro.core.base.ClockSketchBase`
    defines *matched* scalar/batch API pairs: ``insert``/``insert_many``,
    ``query``/``query_many``, ``contains``/``contains_many``. Half a
    pair means some callers silently fall off the vectorised path (or
    have no scalar reference to property-test against).
SK106
    Metric registration sites (``counter`` / ``gauge`` / ``histogram``
    registrars and ``timed`` instrumentation) must name their series
    through the registered constants in :mod:`repro.obs.names`, never
    inline string literals. An inline name drifts from the catalogue
    silently — dashboards point at a series nobody emits any more.
    Test modules (any path with a ``tests`` segment) are exempt, as
    are intentional literals marked ``# sketchlint: metric-name-ok``.
SK107
    Hot-path numpy kernel math lives only under ``repro/kernels/``.
    Defining one of the primitive kernels (``sweep_hits``,
    ``snapshot_values``, ``decay_all``, ``decrement_range``,
    ``fuse_*``) — or calling one as a bare function instead of
    dispatching through a backend (``clock.kernels.fuse_touch(...)``)
    — inside ``core/``/``engine/``/``shard/``/``hashing/`` forks the
    kernel seam: the copy stops being swappable for the compiled
    backend and silently drifts from the reference. Deliberate
    exceptions carry ``# sketchlint: kernel-ok``.

The historical SK104 (ThreadSafeSketch lock discipline) was absorbed
into the flow analyzer's SK108 (:mod:`repro.qa.flow.rules`), which
checks the same discipline with real control-flow dominance — plus
shard-replica quiescence — instead of a per-statement pattern; its
suppression token is ``lock-ok``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["Finding", "ModuleScope", "RULE_IDS", "SUPPRESSION_TOKENS",
           "run_rules", "scope_for_path"]

RULE_IDS = ("SK101", "SK102", "SK103", "SK105", "SK106", "SK107")

#: Suppression comment tokens (``# sketchlint: <token>``) per rule.
#: Shared with the flow analyzer (SK108-SK111).
SUPPRESSION_TOKENS: Dict[str, str] = {
    "scalar-ok": "SK101",
    "dtype-ok": "SK102",
    "raw-clock-ok": "SK103",
    "pair-ok": "SK105",
    "metric-name-ok": "SK106",
    "kernel-ok": "SK107",
    "lock-ok": "SK108",
    "fault-ok": "SK109",
    "impure-ok": "SK110",
    "obs-gate-ok": "SK111",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class ModuleScope:
    """Which rule families apply to a module, derived from its path."""

    hot_path: bool      # SK101: core/, engine/, hashing/, kernels/
    dtype_scope: bool   # SK102: core/, engine/, kernels/
    clock_scope: bool   # SK103: core/, engine/, shard/, serialize.py
                        #        — minus clockarray.py and kernels/
    metric_scope: bool  # SK106: everywhere except tests/
    kernel_scope: bool  # SK107: core/, engine/, shard/, hashing/
                        #        — minus kernels/ itself


def scope_for_path(path: str) -> ModuleScope:
    """Classify a module path into rule scopes.

    Paths are interpreted by their directory segments, so both real
    repository paths and the virtual paths used by the linter's own
    tests classify identically.
    """
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    segments = set(parts)
    basename = parts[-1] if parts else ""
    in_kernels = "kernels" in segments
    hot = bool(segments & {"core", "engine", "hashing", "kernels"})
    dtype_scope = bool(segments & {"core", "engine", "kernels"})
    # The kernel layer is, like clockarray.py, a legitimate home of
    # cell mutation — SK103 polices everyone else.
    clock_scope = (bool(segments & {"core", "engine"})
                   or "shard" in segments
                   or basename == "serialize.py") \
        and basename != "clockarray.py" and not in_kernels
    metric_scope = "tests" not in segments
    kernel_scope = bool(segments & {"core", "engine", "shard", "hashing"}) \
        and not in_kernels
    return ModuleScope(hot_path=hot, dtype_scope=dtype_scope,
                       clock_scope=clock_scope, metric_scope=metric_scope,
                       kernel_scope=kernel_scope)


# ----------------------------------------------------------------------
# SK101 — per-item Python loops over stream items in hot-path modules
# ----------------------------------------------------------------------

#: Identifiers that, by repo convention, name whole stream batches.
STREAM_NAMES: Set[str] = {"items", "keys", "times", "times_arr", "stream",
                          "stream_items", "batch_items"}

_ITER_WRAPPERS = {"enumerate", "zip", "reversed", "iter", "sorted", "list",
                  "tuple"}


def _is_stream_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in STREAM_NAMES
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name in _ITER_WRAPPERS:
            return any(_is_stream_expr(arg) for arg in node.args)
        if name == "range":
            return any(_is_stream_len(arg) for arg in node.args)
    return False


def _is_stream_len(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and any(_is_stream_expr(arg) for arg in node.args))


def _rule_sk101(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    if not scope.hot_path:
        return []
    findings: List[Finding] = []

    def flag(line: int) -> None:
        findings.append(Finding(
            "SK101", path, line,
            "per-item Python loop over stream items in a hot-path module; "
            "route the batch through the engine, or mark a deliberate "
            "reference path with `# sketchlint: scalar-ok`",
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_stream_expr(node.iter):
            flag(node.iter.lineno)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                if _is_stream_expr(comp.iter):
                    flag(comp.iter.lineno)
    return findings


# ----------------------------------------------------------------------
# SK102 — numpy array constructions must pass an explicit dtype
# ----------------------------------------------------------------------

#: Constructor name -> positional index at which ``dtype`` may be passed.
_NP_CONSTRUCTORS: Dict[str, Optional[int]] = {
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "arange": 3,
    "fromiter": 1,
    "frombuffer": 1,
}

_NUMPY_ALIASES = {"np", "numpy"}


def _rule_sk102(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    if not scope.dtype_scope:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_ALIASES
                and func.attr in _NP_CONSTRUCTORS):
            continue
        if any(kw.arg == "dtype" for kw in node.keywords):
            continue
        pos = _NP_CONSTRUCTORS[func.attr]
        if pos is not None and len(node.args) > pos:
            continue
        findings.append(Finding(
            "SK102", path, node.lineno,
            f"np.{func.attr}(...) without an explicit dtype in a hot-path "
            "module; default dtypes are platform-dependent and break "
            "bit-identity",
        ))
    return findings


# ----------------------------------------------------------------------
# SK103 — raw clock arithmetic / direct clock-cell writes
# ----------------------------------------------------------------------

def _attr_chain(node: ast.expr) -> List[str]:
    """Dotted name chain of an attribute expression (outermost last)."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    names.reverse()
    return names


def _is_clock_values_chain(node: ast.expr) -> bool:
    """True for expressions like ``clock.values`` / ``self.clock.values``."""
    if not isinstance(node, ast.Attribute) or node.attr != "values":
        return False
    return "clock" in _attr_chain(node.value)


def _clock_value_aliases(func: ast.AST) -> Set[str]:
    """Local names bound directly to a clock's ``values`` buffer.

    Catches ``values = clock.values`` (and any other simple-name
    binding of the buffer) anywhere inside the function, including in
    nested closures, so later subscript writes through the alias are
    attributable.
    """
    aliases: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_clock_values_chain(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return aliases


def _rule_sk103(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    if not scope.clock_scope:
        return []
    findings: List[Finding] = []

    # (a) `1 << s` cell-width constants outside ClockArray.
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                and isinstance(node.left, ast.Constant)
                and node.left.value == 1):
            right = node.right
            names = _attr_chain(right) if isinstance(right, (ast.Attribute, ast.Name)) else []
            if names and names[-1] == "s":
                findings.append(Finding(
                    "SK103", path, node.lineno,
                    "raw clock-width arithmetic (`1 << s`) outside "
                    "clockarray.py; use ClockArray's max_value / "
                    "circles_per_window helpers",
                ))

    # (b) Direct writes into a clock array's cell buffer.
    aliases = _clock_value_aliases(tree)

    def flag_write(line: int) -> None:
        findings.append(Finding(
            "SK103", path, line,
            "direct clock-cell write outside clockarray.py; go through "
            "ClockArray.touch / ClockArray.load_values so invariants stay "
            "enforceable",
        ))

    def _is_clock_buffer(node: ast.expr) -> bool:
        if _is_clock_values_chain(node):
            return True
        return isinstance(node, ast.Name) and node.id in aliases

    for node in ast.walk(tree):
        targets: Iterable[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = (node.target,)
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript) and _is_clock_buffer(target.value):
                flag_write(target.value.lineno)
    return findings


# ----------------------------------------------------------------------
# SK105 — matched scalar/batch API pairs on temporal-base subclasses
# ----------------------------------------------------------------------

_API_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("insert", "insert_many"),
    ("query", "query_many"),
    ("contains", "contains_many"),
)

_TEMPORAL_BASE = "ClockSketchBase"


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        chain = _attr_chain(base)
        if chain:
            names.add(chain[-1])
    return names


def _rule_sk105(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    # Resolve (single-module) transitive subclasses of the temporal base.
    sketchy: Set[str] = {_TEMPORAL_BASE}
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name not in sketchy and _base_names(cls) & sketchy:
                sketchy.add(cls.name)
                changed = True

    findings: List[Finding] = []
    for cls in classes:
        if cls.name not in sketchy or cls.name == _TEMPORAL_BASE:
            continue
        defined = {
            stmt.name for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for scalar, batch in _API_PAIRS:
            has_scalar, has_batch = scalar in defined, batch in defined
            if has_scalar == has_batch:
                continue
            present, missing = (scalar, batch) if has_scalar else (batch, scalar)
            findings.append(Finding(
                "SK105", path, cls.lineno,
                f"sketch class {cls.name} defines `{present}` without its "
                f"twin `{missing}`; scalar and batch APIs must come in "
                "matched pairs",
            ))
    return findings


# ----------------------------------------------------------------------
# SK106 — metric names must be registered constants, not inline strings
# ----------------------------------------------------------------------

#: Registrar call names whose first argument names a metric series.
_METRIC_REGISTRARS: Set[str] = {"counter", "gauge", "histogram", "timed"}


def _metric_name_arg(node: ast.Call) -> "Optional[ast.expr]":
    for kw in node.keywords:
        if kw.arg == "name":
            return kw.value
    if node.args:
        return node.args[0]
    return None


def _rule_sk106(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    if not scope.metric_scope:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            registrar = func.attr
        elif isinstance(func, ast.Name):
            registrar = func.id
        else:
            continue
        if registrar not in _METRIC_REGISTRARS:
            continue
        arg = _metric_name_arg(node)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            findings.append(Finding(
                "SK106", path, node.lineno,
                f"inline metric-name literal in `{registrar}(...)`; metric "
                "names are registered constants — import them from "
                "repro.obs.names (mark an intentional literal with "
                "`# sketchlint: metric-name-ok`)",
            ))
    return findings


# ----------------------------------------------------------------------
# SK107 — kernel math may live only under repro/kernels/
# ----------------------------------------------------------------------

#: The primitive-kernel names owned by the kernel-backend layer
#: (:mod:`repro.kernels`). Defining or bare-calling one of these in a
#: hot-path module bypasses the backend seam.
_KERNEL_PRIMITIVES: Set[str] = {
    "sweep_hits", "snapshot_values", "decay_all", "decrement_range",
    "fuse_touch", "fuse_timespan", "fuse_countmin",
}


def _rule_sk107(tree: ast.Module, path: str, scope: ModuleScope) -> List[Finding]:
    if not scope.kernel_scope:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _KERNEL_PRIMITIVES):
            findings.append(Finding(
                "SK107", path, node.lineno,
                f"kernel primitive `{node.name}` defined outside "
                "repro/kernels/; hot-path kernel math lives in the "
                "kernel-backend layer so every backend stays swappable "
                "(mark a deliberate exception with "
                "`# sketchlint: kernel-ok`)",
            ))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _KERNEL_PRIMITIVES):
            findings.append(Finding(
                "SK107", path, node.func.lineno,
                f"bare call to kernel primitive `{node.func.id}`; dispatch "
                "through a backend (`clock.kernels." + node.func.id +
                "(...)` or `resolve_backend(...)`) so compiled backends "
                "apply (mark a deliberate exception with "
                "`# sketchlint: kernel-ok`)",
            ))
    return findings


_RULES: Tuple[Callable[[ast.Module, str, ModuleScope], List[Finding]], ...] = (
    _rule_sk101, _rule_sk102, _rule_sk103, _rule_sk105,
    _rule_sk106, _rule_sk107,
)


def run_rules(tree: ast.Module, path: str,
              scope: Optional[ModuleScope] = None) -> List[Finding]:
    """Run every SK rule over one parsed module."""
    if scope is None:
        scope = scope_for_path(path)
    findings: List[Finding] = []
    for rule in _RULES:
        findings.extend(rule(tree, path, scope))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
