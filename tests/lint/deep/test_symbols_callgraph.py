"""Symbol table and call graph: the foundation of the deep analyses.

Two halves:

* a **property test** over the real tree — every public function and
  method in ``src/repro`` resolves to a node, and method resolution
  through the MRO never dead-ends on a class's own methods;
* **fixture tests** pinning the hard resolution cases: C3 mixin
  linearization (the CSS/CIP composition), inherited-method dispatch,
  ``super()`` chains, virtual dispatch of abstract hooks, and
  attribute-type inference.
"""

from pathlib import Path

from repro.lint.deep.callgraph import CallGraph
from repro.lint.deep.symbols import ProjectIndex, find_package_root

REPO = Path(__file__).resolve().parents[3]
SRC = REPO / "src" / "repro"


def build_fixture(*modules):
    """ProjectIndex from (relpath, source) pairs."""
    index = ProjectIndex()
    for relpath, source in modules:
        assert index.add_source(source, relpath) is not None
    index.finalize()
    return index


# ======================================================================
# Property: whole-tree resolution


class TestWholeTree:
    def setup_method(self):
        self.index = ProjectIndex.build(SRC)
        self.graph = CallGraph.build(self.index)

    def test_package_root_discovery(self):
        assert find_package_root([SRC / "sim" / "worker.py"]) == SRC

    def test_every_public_function_resolves(self):
        unresolved = []
        for qualname, func in self.index.functions.items():
            if not func.is_public:
                continue
            if func.cls is not None:
                hit = self.index.resolve_method(func.cls, func.name)
            else:
                hit = self.index.resolve_function(func.name, func.module)
            if hit is None:
                unresolved.append(qualname)
        assert unresolved == []

    def test_every_function_has_a_callgraph_entry(self):
        missing = [q for q in self.index.functions
                   if q not in self.graph.calls]
        assert missing == []
        # The graph is not vacuous: a solid majority of functions have
        # at least one resolved project-internal edge.
        with_edges = sum(1 for sites in self.graph.calls.values()
                         if sites)
        assert with_edges > 100

    def test_tree_is_substantial(self):
        assert len(self.index.modules) > 50
        assert len(self.index.classes) > 80
        assert len(self.index.functions) > 500

    def test_cidre_mixin_mro_is_c3(self):
        cidre = self.index.classes["repro.core.cidre.CIDREPolicy"]
        names = [c.name for c in self.index.mro(cidre)]
        # C3 places both mixins before the shared OrchestrationPolicy
        # base; depth-first would visit OrchestrationPolicy after the
        # first mixin and mis-resolve every CIP hook.
        assert names == ["CIDREPolicy", "CSSScalingMixin",
                         "CIPEvictionMixin", "OrchestrationPolicy"]

    def test_cidre_inherited_method_resolution(self):
        cidre = self.index.classes["repro.core.cidre.CIDREPolicy"]
        offset = self.index.resolve_method(cidre, "group_offset")
        assert offset.qualname == \
            "repro.core.priority.CIPEvictionMixin.group_offset"
        priority = self.index.resolve_method(cidre, "priority")
        assert priority.qualname == \
            "repro.policies.base.OrchestrationPolicy.priority"
        on_complete = self.index.resolve_method(cidre,
                                                "on_request_complete")
        assert on_complete.qualname == \
            "repro.core.scaling.CSSScalingMixin.on_request_complete"

    def test_cip_touch_calls_priority_through_self(self):
        touch = self.index.functions[
            "repro.core.priority.CIPEvictionMixin._touch"]
        callees = {s.callee.qualname for s in self.graph.callees(touch)}
        assert ("repro.policies.base.OrchestrationPolicy.priority"
                in callees)

    def test_orchestrator_attr_types_inferred(self):
        orch = self.index.classes[
            "repro.sim.orchestrator.Orchestrator"]
        assert orch.attr_types.get("sim") == "Simulator"
        assert orch.attr_types.get("metrics") == "MetricsCollector"


# ======================================================================
# Fixtures: the hard resolution cases, pinned


DIAMOND = ("repro/core/diamond.py", """
class Base:
    def hook(self):
        return 0

class Left(Base):
    def hook(self):
        return 1

class Right(Base):
    def hook(self):
        return 2
    def right_only(self):
        return 3

class Join(Left, Right):
    pass
""")


class TestFixtures:
    def test_diamond_mro_and_inherited_dispatch(self):
        index = build_fixture(DIAMOND)
        join = index.classes["repro.core.diamond.Join"]
        assert [c.name for c in index.mro(join)] == \
            ["Join", "Left", "Right", "Base"]
        assert index.resolve_method(join, "hook").qualname == \
            "repro.core.diamond.Left.hook"
        assert index.resolve_method(join, "right_only").qualname == \
            "repro.core.diamond.Right.right_only"

    def test_super_call_resolves_past_own_class(self):
        index = build_fixture(
            ("repro/core/chain.py", """
class Base:
    def on_done(self):
        return "base"

class MixA(Base):
    def on_done(self):
        return "a" + super().on_done()

class MixB(Base):
    def on_done(self):
        return "b" + super().on_done()

class Impl(MixA, MixB):
    def on_done(self):
        return "i" + super().on_done()
"""))
        graph = CallGraph.build(index)

        def super_targets(qualname):
            func = index.functions[qualname]
            return {s.callee.qualname for s in graph.callees(func)
                    if s.via == "super"}

        # Cooperative dispatch follows the MRO of the instantiating
        # class: under Impl, MixA's super() lands on MixB, not on the
        # static base. The graph keeps every possibility — MixA used
        # standalone chains straight to Base.
        assert super_targets("repro.core.chain.Impl.on_done") == \
            {"repro.core.chain.MixA.on_done"}
        assert super_targets("repro.core.chain.MixA.on_done") == \
            {"repro.core.chain.MixB.on_done",
             "repro.core.chain.Base.on_done"}
        assert super_targets("repro.core.chain.MixB.on_done") == \
            {"repro.core.chain.Base.on_done"}

    def test_virtual_dispatch_of_abstract_hook(self):
        index = build_fixture(
            ("repro/core/hooks.py", """
class Mixin:
    def run(self):
        return self.signal() + 1

class ImplA(Mixin):
    def signal(self):
        return 10

class ImplB(Mixin):
    def signal(self):
        return 20
"""))
        graph = CallGraph.build(index)
        run = index.functions["repro.core.hooks.Mixin.run"]
        virtual = {s.callee.qualname for s in graph.callees(run)
                   if s.via == "virtual"}
        assert virtual == {"repro.core.hooks.ImplA.signal",
                           "repro.core.hooks.ImplB.signal"}

    def test_cross_module_import_resolution(self):
        index = build_fixture(
            ("repro/sim/helpers.py", """
def shared():
    return 1
"""),
            ("repro/sim/uses.py", """
from repro.sim.helpers import shared

def caller():
    return shared()
"""))
        graph = CallGraph.build(index)
        caller = index.functions["repro.sim.uses.caller"]
        assert [s.callee.qualname for s in graph.callees(caller)] == \
            ["repro.sim.helpers.shared"]

    def test_attr_type_receiver_resolution(self):
        index = build_fixture(
            ("repro/sim/parts.py", """
class Engine:
    def tick(self):
        return 1

class Owner:
    def __init__(self):
        self.engine = Engine()

    def step(self):
        return self.engine.tick()
"""))
        graph = CallGraph.build(index)
        step = index.functions["repro.sim.parts.Owner.step"]
        callees = {s.callee.qualname for s in graph.callees(step)}
        assert "repro.sim.parts.Engine.tick" in callees

    def test_annotated_param_receiver_resolution(self):
        index = build_fixture(
            ("repro/sim/annot.py", """
class Target:
    def poke(self):
        return 1

def use(t: "Target"):
    return t.poke()
"""))
        graph = CallGraph.build(index)
        use = index.functions["repro.sim.annot.use"]
        assert [s.callee.qualname for s in graph.callees(use)] == \
            ["repro.sim.annot.Target.poke"]

    def test_unresolved_calls_are_recorded_not_dropped(self):
        index = build_fixture(
            ("repro/sim/extern.py", """
def touch(bag):
    bag.append(1)
"""))
        graph = CallGraph.build(index)
        touch = index.functions["repro.sim.extern.touch"]
        assert graph.callees(touch) == []
        pending = graph.unresolved_in(touch)
        assert [(u.receiver, u.method) for u in pending] == \
            [(("bag",), "append")]
