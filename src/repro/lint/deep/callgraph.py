"""Project-wide call graph over a :class:`~repro.lint.deep.symbols.ProjectIndex`.

The deep analyses need to follow calls across files: transitive purity
walks caller -> callee mutation summaries, dimension inference binds
argument units to callee parameters, and both must know what
``self.priority(...)`` means inside ``CIPEvictionMixin`` (answer: the
first definition along the C3 MRO).

Resolution is deliberately conservative and purely syntactic:

* ``name(...)`` — a local ``def`` in the same module, else an imported
  function, resolved through the module's import table;
* ``mod.func(...)`` / ``pkg.mod.func(...)`` — through the import table;
* ``self.m(...)`` — MRO lookup starting at the enclosing class; if the
  class itself does not define ``m`` anywhere in its MRO (abstract
  hooks, Protocol members) the call is *virtually dispatched*: every
  project-internal subclass override is added as a possible target,
  which is exactly what makes ``CSSScalingMixin`` calling the abstract
  ``scale_signal`` land on the concrete policy's implementation;
* ``super().m(...)`` — MRO lookup starting *after* the enclosing class,
  matching cooperative mixin chains;
* ``Class.m(...)`` and ``Class(...)`` — explicit class method calls and
  constructor calls (``__init__``);
* ``x.m(...)`` where ``x`` is a parameter with a resolvable class
  annotation, or ``self.attr`` with an inferred attribute type —
  MRO lookup on that class.

Anything else (builtins, stdlib, dynamically-typed receivers) is kept
as an :class:`UnresolvedCall` so analyses can still pattern-match on
the receiver/method names (e.g. ``list.append`` mutation heuristics).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.lint.deep.symbols import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    attr_chain,
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    #: How the callee was reached: ``direct`` (plain/module-qualified
    #: name), ``method`` (typed receiver incl. ``self``), ``super``,
    #: ``virtual`` (abstract hook dispatched over subclasses), ``init``
    #: (constructor).
    via: str

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass(frozen=True)
class UnresolvedCall:
    """A call the graph could not (or chose not to) resolve."""

    caller: FunctionInfo
    node: ast.Call
    #: Receiver chain without the method, e.g. ``("self", "_pending")``
    #: for ``self._pending.append(x)``; empty for ``name(...)`` calls.
    receiver: Tuple[str, ...]
    method: str


class CallGraph:
    """Call edges for every indexed function."""

    def __init__(self, project: ProjectIndex):
        self.project = project
        self.calls: Dict[str, List[CallSite]] = {}
        self.unresolved: Dict[str, List[UnresolvedCall]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, project: ProjectIndex) -> "CallGraph":
        graph = cls(project)
        for func in project.functions.values():
            graph._index_function(func)
        return graph

    def _index_function(self, func: FunctionInfo) -> None:
        sites: List[CallSite] = []
        pending: List[UnresolvedCall] = []
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_call(func, node)
            if resolved:
                sites.extend(CallSite(func, callee, node, via)
                             for callee, via in resolved)
            else:
                chain = attr_chain(node.func)
                if chain is None:
                    continue
                pending.append(UnresolvedCall(
                    caller=func, node=node,
                    receiver=chain[:-1], method=chain[-1]))
        self.calls[func.qualname] = sites
        self.unresolved[func.qualname] = pending

    # -- resolution -----------------------------------------------------

    def _resolve_call(self, func: FunctionInfo, node: ast.Call
                      ) -> List[Tuple[FunctionInfo, str]]:
        target = node.func
        module = func.module

        # super().m(...) — cooperative dispatch depends on the MRO of
        # the *instantiating* class, not the defining one: MixA's
        # super() lands on MixB when both sit under one concrete
        # policy. Resolve against every project class that inherits
        # the definer (and the definer itself) and collect the
        # distinct next-in-line targets.
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Call)
                and isinstance(target.value.func, ast.Name)
                and target.value.func.id == "super"
                and func.cls is not None):
            targets: Dict[str, FunctionInfo] = {}
            candidates = [func.cls] + self.project.subclasses(func.cls)
            for concrete in candidates:
                mro = self.project.mro(concrete)
                if func.cls not in mro:
                    continue
                for klass in mro[mro.index(func.cls) + 1:]:
                    hit = klass.methods.get(target.attr)
                    if hit is not None:
                        targets.setdefault(hit.qualname, hit)
                        break
            return [(hit, "super") for hit in targets.values()]

        chain = attr_chain(target)
        if chain is None:
            return []

        if len(chain) == 1:
            name = chain[0]
            # Constructor call on a local/imported class.
            klass = self.project.resolve_class(name, module)
            if klass is not None:
                init = self.project.resolve_method(klass, "__init__")
                return [(init, "init")] if init is not None else []
            hit = self.project.resolve_function(name, module)
            return [(hit, "direct")] if hit is not None else []

        receiver, method = chain[:-1], chain[-1]

        # self.m(...) — MRO then virtual dispatch over subclasses.
        if receiver == ("self",) and func.cls is not None:
            hit = self.project.resolve_method(func.cls, method)
            if hit is not None:
                return [(hit, "method")]
            targets = []
            for sub in self.project.subclasses(func.cls):
                own = sub.methods.get(method)
                if own is not None:
                    targets.append((own, "virtual"))
            return targets

        # self.attr.m(...) — through the inferred attribute type.
        if (len(receiver) == 2 and receiver[0] == "self"
                and func.cls is not None):
            for klass in self.project.mro(func.cls):
                type_name = klass.attr_types.get(receiver[1])
                if type_name is None:
                    continue
                attr_cls = self.project.resolve_class(
                    type_name, klass.module)
                if attr_cls is None:
                    break
                hit = self.project.resolve_method(attr_cls, method)
                return [(hit, "method")] if hit is not None else []
            return []

        # param.m(...) — through the parameter annotation.
        if len(receiver) == 1:
            ann = func.param_annotations.get(receiver[0])
            if ann is not None:
                recv_cls = self.project.resolve_class(ann, module)
                if recv_cls is not None:
                    hit = self.project.resolve_method(recv_cls, method)
                    return [(hit, "method")] if hit is not None else []

            # Class.m(...) — explicit class-qualified call.
            klass = self.project.resolve_class(receiver[0], module)
            if klass is not None:
                hit = self.project.resolve_method(klass, method)
                return [(hit, "method")] if hit is not None else []

        # mod.func(...) / pkg.mod.Class(...) through the import table.
        dotted = ".".join(chain)
        klass = self.project.resolve_class(dotted, module)
        if klass is not None:
            init = self.project.resolve_method(klass, "__init__")
            return [(init, "init")] if init is not None else []
        hit = self.project.resolve_function(dotted, module)
        if hit is not None:
            return [(hit, "direct")]
        return []

    # -- queries --------------------------------------------------------

    def callees(self, func: FunctionInfo) -> List[CallSite]:
        return self.calls.get(func.qualname, [])

    def unresolved_in(self, func: FunctionInfo) -> List[UnresolvedCall]:
        return self.unresolved.get(func.qualname, [])



def bind_arguments(site_node: ast.Call, callee: FunctionInfo,
                   *, skip_self: bool) -> List[Tuple[str, ast.AST]]:
    """Map call arguments to callee parameter names.

    Returns ``(param_name, arg_expr)`` pairs for positional and keyword
    arguments that bind cleanly; ``*args``/``**kwargs`` on either side
    and arity overflows are silently skipped (the analyses treat an
    unbindable argument as unknown, never as a finding).
    """
    params = callee.params
    if skip_self and params and params[0] in ("self", "cls"):
        params = params[1:]
    out: List[Tuple[str, ast.AST]] = []
    for i, arg in enumerate(site_node.args):
        if isinstance(arg, ast.Starred) or i >= len(params):
            break
        out.append((params[i], arg))
    for kw in site_node.keywords:
        if kw.arg is not None and kw.arg in callee.params:
            out.append((kw.arg, kw.value))
    return out


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "UnresolvedCall",
    "bind_arguments",
]
