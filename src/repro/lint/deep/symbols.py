"""Project-wide symbol table for the deep (whole-program) analyses.

The file-local checkers of :mod:`repro.lint` see one ``ast`` tree at a
time; the deep analyses (transitive purity, dimension inference) need
to reason *across* files: which class does this base name resolve to,
which method does ``self.scale()`` dispatch to under the CSS/CIP mixin
composition, which attribute accesses does a helper three modules away
perform. :class:`ProjectIndex` answers those
questions from one pass over every ``.py`` file of the ``repro``
package:

* **modules** — parsed trees plus an import table mapping each local
  name to its fully dotted target (``Container`` ->
  ``repro.sim.container.Container``), including names imported under
  ``if TYPE_CHECKING:`` (annotations matter to the analyses even though
  they are erased at runtime);
* **classes** — base-class names resolved through the import tables and
  linearized with the C3 algorithm, so mixin assemblies like
  ``CIDREPolicy(CSSScalingMixin, CIPEvictionMixin)`` get the *same*
  method-resolution order the interpreter uses (a naive depth-first
  walk would place ``OrchestrationPolicy`` before ``CIPEvictionMixin``
  and mis-resolve every eviction hook);
* **functions** — every ``def`` (module-level, method, nested skipped)
  keyed by dotted qualname, with parameter lists and resolved parameter
  annotations;
* **attribute types** — a per-class map from ``self.<attr>`` to the
  project class it holds, inferred from constructor calls
  (``self.sim = Simulator(...)``) and annotated assignments
  (``self.ctx: Optional[PolicyContext]``), which lets the call graph
  resolve ``self.sim.schedule(...)`` without runtime types.

Everything is plain ``ast`` + stdlib; no imports of the analyzed code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lint.engine import relpath_of


# ======================================================================
# Records


@dataclass
class FunctionInfo:
    """One ``def`` (module-level function or method)."""

    qualname: str                 #: ``repro.sim.worker.Worker.add``
    name: str                     #: ``add``
    module: "ModuleInfo"
    cls: Optional["ClassInfo"]    #: enclosing class, None at module level
    node: ast.AST                 #: FunctionDef / AsyncFunctionDef
    params: List[str]             #: positional+kw param names, in order
    #: param name -> dotted annotation text (``Worker``, ``repro...``),
    #: with ``Optional[...]``/quotes unwrapped; None when unannotated.
    param_annotations: Dict[str, Optional[str]]

    @property
    def relpath(self) -> str:
        return self.module.relpath

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


@dataclass
class ClassInfo:
    """One class definition."""

    qualname: str                 #: ``repro.sim.worker.Worker``
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: List[str]         #: raw dotted base expressions
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: self.<attr> -> class qualname (constructor / annotation inference).
    attr_types: Dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.qualname}>"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    modname: str                  #: ``repro.sim.worker``
    relpath: str                  #: ``repro/sim/worker.py``
    path: Optional[Path]          #: filesystem path (None for strings)
    tree: ast.Module
    source: str
    lines: List[str]
    #: local name -> fully dotted target (module or module.symbol).
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


# ======================================================================
# AST helpers


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("a", "b", "c")`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Dotted class name carried by an annotation expression.

    Unwraps string (forward-reference) annotations, ``Optional[X]`` /
    ``List[X]`` subscripts down to their first argument, and quoted
    names inside them. Returns None for unions of multiple classes and
    anything else the analyses cannot use.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X] / Dict[K, V]: Optional and List forward
        # to the single payload class; multi-argument containers do not
        # name one class.
        head = attr_chain(node.value)
        inner = node.slice
        if head and head[-1] in ("Optional", "List", "Sequence", "Set",
                                 "Iterable", "Tuple", "Type", "Deque"):
            if isinstance(inner, ast.Tuple):
                return None
            return annotation_name(inner)
        return None
    chain = attr_chain(node)
    return ".".join(chain) if chain else None


# ======================================================================
# Per-module collection


class _ModuleCollector(ast.NodeVisitor):
    """Fills a ModuleInfo from its tree (imports, classes, functions)."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self._class_stack: List[ClassInfo] = []

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else local
            self.info.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:  # relative: join with the current package
            pkg_parts = self.info.modname.split(".")[:-node.level]
            base = ".".join(pkg_parts + ([node.module]
                                         if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.imports[local] = f"{base}.{alias.name}" \
                if base else alias.name

    # -- defs -----------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            qualname=f"{self.info.modname}.{node.name}",
            name=node.name, module=self.info, node=node,
            base_names=[".".join(chain) for base in node.bases
                        if (chain := attr_chain(base)) is not None])
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _visit_def(self, node) -> None:
        if self._class_stack:
            cls = self._class_stack[-1]
            qualname = f"{cls.qualname}.{node.name}"
        else:
            cls = None
            qualname = f"{self.info.modname}.{node.name}"
        args = node.args
        ordered = (args.posonlyargs + args.args + args.kwonlyargs
                   + ([args.vararg] if args.vararg else [])
                   + ([args.kwarg] if args.kwarg else []))
        info = FunctionInfo(
            qualname=qualname, name=node.name, module=self.info,
            cls=cls, node=node,
            params=[a.arg for a in ordered],
            param_annotations={a.arg: annotation_name(a.annotation)
                               for a in ordered})
        if cls is not None:
            # First definition wins (@property getter vs setter pairs
            # reuse a name; the getter is the one reads resolve to).
            cls.methods.setdefault(node.name, info)
        else:
            self.info.functions.setdefault(node.name, info)
        # Nested defs are deliberately not indexed: they are not
        # addressable cross-module and the file-local rules cover them.

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def


def _collect_attr_types(cls: ClassInfo) -> None:
    """Infer ``self.<attr>`` types from the class's own method bodies."""
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            target = value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            chain = attr_chain(target) if target is not None else None
            if chain is None or len(chain) != 2 or chain[0] != "self":
                continue
            attr = chain[1]
            if isinstance(node, ast.AnnAssign):
                name = annotation_name(node.annotation)
                if name:
                    cls.attr_types.setdefault(attr, name)
                    continue
            if isinstance(value, ast.Call):
                name = ".".join(attr_chain(value.func) or ()) or None
                if name:
                    cls.attr_types.setdefault(attr, name)


# ======================================================================
# The project index


class ProjectIndex:
    """Symbol table over one ``repro`` package tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: qualname -> ClassInfo / FunctionInfo, project-wide.
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._mro_cache: Dict[str, List[ClassInfo]] = {}
        self._subclasses: Optional[Dict[str, List[ClassInfo]]] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, root: Union[str, Path]) -> "ProjectIndex":
        """Index every ``.py`` file under ``root`` (a ``repro`` package
        directory, or any directory containing one)."""
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        return cls.build_files(files)

    @classmethod
    def build_files(cls, files: Sequence[Union[str, Path]]
                    ) -> "ProjectIndex":
        index = cls()
        for path in files:
            path = Path(path)
            try:
                source = path.read_text()
            except OSError:
                continue
            index.add_source(source, relpath_of(path), path=path)
        index.finalize()
        return index

    def add_source(self, source: str, relpath: str,
                   path: Optional[Path] = None) -> Optional[ModuleInfo]:
        """Parse and index one source string (None on syntax errors —
        the classic linter reports those as E999)."""
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError:
            return None
        modname = relpath[:-3].replace("/", ".")
        if modname.endswith(".__init__"):
            modname = modname[:-len(".__init__")]
        info = ModuleInfo(modname=modname, relpath=relpath, path=path,
                          tree=tree, source=source,
                          lines=source.splitlines())
        _ModuleCollector(info).visit(tree)
        self.modules[modname] = info
        return info

    def finalize(self) -> None:
        """Build the project-wide qualname maps (after add_source calls)."""
        self.classes.clear()
        self.functions.clear()
        for module in self.modules.values():
            for klass in module.classes.values():
                self.classes[klass.qualname] = klass
                _collect_attr_types(klass)
                for method in klass.methods.values():
                    self.functions[method.qualname] = method
            for func in module.functions.values():
                self.functions[func.qualname] = func
        self._mro_cache.clear()
        self._subclasses = None

    # -- name resolution ------------------------------------------------

    def resolve_class(self, name: str,
                      module: ModuleInfo) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted) class name used inside ``module``."""
        if not name:
            return None
        head, _, rest = name.partition(".")
        # Local class first (later defs shadow imports, close enough).
        if not rest and head in module.classes:
            return module.classes[head]
        target = module.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
        else:
            dotted = name
        hit = self.classes.get(dotted)
        if hit is not None:
            return hit
        # ``import repro.sim.worker`` + ``repro.sim.worker.Worker``.
        if "." in dotted:
            modpart, _, symbol = dotted.rpartition(".")
            mod = self.modules.get(modpart)
            if mod is not None:
                return mod.classes.get(symbol)
        return None

    def resolve_function(self, name: str,
                         module: ModuleInfo) -> Optional[FunctionInfo]:
        """Resolve a (possibly dotted) function name used in ``module``."""
        head, _, rest = name.partition(".")
        if not rest and head in module.functions:
            return module.functions[head]
        target = module.imports.get(head)
        dotted = (f"{target}.{rest}" if rest else target) \
            if target is not None else name
        hit = self.functions.get(dotted)
        if hit is not None:
            return hit
        if "." in dotted:
            modpart, _, symbol = dotted.rpartition(".")
            mod = self.modules.get(modpart)
            if mod is not None:
                return mod.functions.get(symbol)
        return None

    # -- class hierarchy ------------------------------------------------

    def bases_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Direct project-internal bases, declaration order."""
        out = []
        for name in cls.base_names:
            base = self.resolve_class(name, cls.module)
            if base is not None:
                out.append(base)
        return out

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """C3 linearization over project-internal classes.

        External bases (``Protocol``, ``enum.Enum`` ...) are ignored —
        their methods are not analyzable anyway. Falls back to a
        depth-first, left-to-right, duplicates-last order if the C3
        merge fails (inconsistent hierarchies cannot occur in code that
        actually imports, but string fixtures might).
        """
        cached = self._mro_cache.get(cls.qualname)
        if cached is not None:
            return cached
        bases = self.bases_of(cls)
        try:
            sequences = [[cls]] + [list(self.mro(b)) for b in bases] \
                + [list(bases)]
            result = _c3_merge(sequences)
        except ValueError:
            seen: Dict[str, ClassInfo] = {}
            stack = [cls]
            while stack:
                node = stack.pop(0)
                seen.setdefault(node.qualname, node)
                stack.extend(b for b in self.bases_of(node)
                             if b.qualname not in seen)
            result = list(seen.values())
        self._mro_cache[cls.qualname] = result
        return result

    def resolve_method(self, cls: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        """The method ``name`` dispatches to on an instance of ``cls``."""
        for klass in self.mro(cls):
            hit = klass.methods.get(name)
            if hit is not None:
                return hit
        return None

    def subclasses(self, cls: ClassInfo) -> List[ClassInfo]:
        """All transitive project-internal subclasses, indexed once."""
        if self._subclasses is None:
            table: Dict[str, List[ClassInfo]] = {}
            for klass in self.classes.values():
                for base in self.bases_of(klass):
                    table.setdefault(base.qualname, []).append(klass)
            self._subclasses = table
        out: List[ClassInfo] = []
        queue = list(self._subclasses.get(cls.qualname, ()))
        seen = set()
        while queue:
            sub = queue.pop(0)
            if sub.qualname in seen:
                continue
            seen.add(sub.qualname)
            out.append(sub)
            queue.extend(self._subclasses.get(sub.qualname, ()))
        return out


def _c3_merge(sequences: List[List[ClassInfo]]) -> List[ClassInfo]:
    """Standard C3 merge; raises ValueError on inconsistent input."""
    result: List[ClassInfo] = []
    sequences = [list(seq) for seq in sequences if seq]
    while sequences:
        for seq in sequences:
            head = seq[0]
            if not any(head in other[1:] for other in sequences):
                break
        else:
            raise ValueError("inconsistent hierarchy")
        result.append(head)
        for seq in sequences:
            if seq and seq[0] is head:
                del seq[0]
        sequences = [seq for seq in sequences if seq]
    return result


def find_package_root(paths: Iterable[Union[str, Path]]) -> Optional[Path]:
    """The ``repro`` package directory governing ``paths``, if any.

    Walks each path's resolved parts looking for a ``repro`` component;
    the whole-program analyses index everything under it even when the
    user asked to lint a single file (findings are filtered back to the
    requested paths by the driver).
    """
    for path in paths:
        parts = Path(path).resolve().parts
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                return Path(*parts[:i + 1])
    return None
