"""Tests for the three-phase Data Structure Analysis (§4.2)."""

import pytest

from repro.analysis.dsa import run_dsa
from repro.analysis.dsa.graph import F_PHEAP, F_STACK, F_UNKNOWN
from repro.ir import IRBuilder, Module, types as ty


class TestLocalAnalysis:
    def test_allocation_flags(self):
        mod = Module("l", persistency_model="strict")
        fn = mod.define_function("f", ty.VOID, [], source_file="l.c")
        b = IRBuilder(fn)
        s = b.alloca(ty.I64)
        h = b.malloc(ty.I64)
        p = b.palloc(ty.I64)
        b.ret()
        g = run_dsa(mod).graph("f")
        assert F_STACK in g.cell_of(s).node.find().flags
        assert not g.cell_of(h).node.find().persistent
        assert g.cell_of(p).node.find().persistent

    def test_field_offsets_tracked(self):
        mod = Module("l", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64), ("b", ty.I64)])
        fn = mod.define_function("f", ty.VOID, [], source_file="l.c")
        b = IRBuilder(fn)
        p = b.palloc(st)
        fb = b.getfield(p, "b")
        b.ret()
        g = run_dsa(mod).graph("f")
        base = g.cell_of(p)
        field = g.cell_of(fb)
        assert field.node.find() is base.node.find()
        assert field.offset.delta(base.offset) == 8

    def test_constant_vs_variable_index(self):
        mod = Module("l", persistency_model="strict")
        fn = mod.define_function("f", ty.VOID, [("i", ty.I64)], source_file="l.c")
        b = IRBuilder(fn)
        arr = b.palloc(ty.I64, 8)
        c2 = b.getelem(arr, 2)
        var = b.getelem(arr, fn.arg("i"))
        b.ret()
        g = run_dsa(mod).graph("f")
        assert g.cell_of(c2).offset.is_concrete()
        assert g.cell_of(c2).offset.const == 16
        assert not g.cell_of(var).offset.is_concrete()

    def test_pointer_store_load_creates_edge(self):
        mod = Module("l", persistency_model="strict")
        cell_t = mod.define_struct("cell", [("next", ty.PTR)])
        fn = mod.define_function("f", ty.VOID, [], source_file="l.c")
        b = IRBuilder(fn)
        a = b.palloc(cell_t)
        target = b.palloc(ty.I64)
        nf = b.getfield(a, "next")
        b.store(target, nf)
        loaded = b.load(nf)
        b.ret()
        g = run_dsa(mod).graph("f")
        assert g.cell_of(loaded).node.find() is g.cell_of(target).node.find()

    def test_int_cast_launders_provenance(self):
        mod = Module("l", persistency_model="strict")
        fn = mod.define_function("f", ty.VOID, [], source_file="l.c")
        b = IRBuilder(fn)
        p = b.palloc(ty.I64)
        raw = b.cast(p, ty.I64)
        back = b.cast(raw, ty.pointer_to(ty.I64))
        b.ret()
        g = run_dsa(mod).graph("f")
        assert g.cell_of(back).node.find() is not g.cell_of(p).node.find()
        assert F_UNKNOWN in g.cell_of(back).node.find().flags

    def test_pointer_cast_preserves_provenance(self):
        mod = Module("l", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        fn = mod.define_function("f", ty.VOID, [], source_file="l.c")
        b = IRBuilder(fn)
        p = b.palloc(st)
        q = b.cast(p, ty.PTR)
        b.ret()
        g = run_dsa(mod).graph("f")
        assert g.cell_of(q).node.find() is g.cell_of(p).node.find()


class TestInterprocedural:
    def test_bottom_up_returned_allocation(self):
        """The Figure 10 pattern: callee pallocs, caller sees persistence."""
        mod = Module("bu", persistency_model="strict")
        lk = mod.define_struct("lk", [("state", ty.I64)])
        helper = mod.define_function("mk", ty.pointer_to(lk), [],
                                     source_file="b.c")
        hb = IRBuilder(helper)
        p = hb.palloc(lk)
        hb.ret(p)
        fn = mod.define_function("caller", ty.VOID, [], source_file="b.c")
        b = IRBuilder(fn)
        got = b.call(helper)
        b.ret()
        g = run_dsa(mod).graph("caller")
        assert g.cell_of(got).node.find().persistent

    def test_bottom_up_argument_unification(self):
        mod = Module("bu", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        callee = mod.define_function("use", ty.VOID,
                                     [("p", ty.pointer_to(st))],
                                     source_file="b.c")
        cb = IRBuilder(callee)
        cb.ret()
        fn = mod.define_function("caller", ty.VOID, [], source_file="b.c")
        b = IRBuilder(fn)
        obj = b.palloc(st)
        b.call(callee, [obj])
        b.ret()
        run_dsa(mod)  # must not raise; unification happens in caller graph

    def test_top_down_persistence_reaches_callee(self):
        """Caller passes NVM object; callee's own graph learns pheap."""
        mod = Module("td", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        callee = mod.define_function("use", ty.VOID,
                                     [("p", ty.pointer_to(st))],
                                     source_file="t.c")
        cb = IRBuilder(callee)
        fa = cb.getfield(callee.arg("p"), "a")
        cb.store(1, fa)
        cb.ret()
        fn = mod.define_function("caller", ty.VOID, [], source_file="t.c")
        b = IRBuilder(fn)
        obj = b.palloc(st)
        b.call(callee, [obj])
        b.ret()
        result = run_dsa(mod)
        callee_graph = result.graph("use")
        arg_cell = callee_graph.arg_cells[0]
        assert arg_cell is not None
        assert arg_cell.node.find().persistent

    def test_recursive_functions_handled(self):
        mod = Module("rec", persistency_model="strict")
        st = mod.define_struct("n", [("v", ty.I64), ("next", ty.PTR)])
        fn = mod.define_function("walk", ty.VOID,
                                 [("p", ty.pointer_to(st))], source_file="r.c")
        b = IRBuilder(fn)
        stop = b.new_block("stop")
        go = b.new_block("go")
        nf = b.getfield(fn.arg("p"), "next")
        nxt = b.load(nf)
        c = b.icmp("eq", b.cast(nxt, ty.I64), 0)
        b.br(c, stop, go)
        b.position_at(stop)
        b.ret()
        b.position_at(go)
        typed = b.cast(nxt, ty.pointer_to(st))
        b.call(fn, [typed])
        b.ret()
        result = run_dsa(mod)  # no infinite cloning
        assert result.graph("walk") is not None

    def test_annotation_alloc_effect(self):
        from repro.ir.annotations import EFFECT_ALLOC, Effect

        mod = Module("an", persistency_model="strict")
        st = mod.define_struct("s", [("a", ty.I64)])
        mod.annotations.annotate("pm_alloc", [Effect(EFFECT_ALLOC)])
        fn = mod.define_function("f", ty.VOID, [], source_file="a.c")
        b = IRBuilder(fn)
        p = b.call("pm_alloc", ret_type=ty.pointer_to(st))
        b.ret()
        g = run_dsa(mod).graph("f")
        assert g.cell_of(p).node.find().persistent

    def test_stats(self):
        mod = Module("st", persistency_model="strict")
        fn = mod.define_function("f", ty.VOID, [], source_file="s.c")
        b = IRBuilder(fn)
        b.palloc(ty.I64)
        b.ret()
        stats = run_dsa(mod).stats()
        assert stats["functions"] == 1
        assert stats["persistent_nodes"] >= 1


class TestNodeNumbering:
    """Node ids and symbolic offset terms are numbered per DSA run, so a
    warning that names a node by its id, and a trace that prints an
    offset, read the same whatever the process analysed before."""

    def test_each_run_numbers_from_one(self):
        from repro.corpus import REGISTRY

        module = REGISTRY.program("pmdk_hashmap").build()
        first = run_dsa(module)
        second = run_dsa(module)

        def ids(result):
            return {name: [n.node_id for n in g.nodes]
                    for name, g in result.graphs.items()}

        assert ids(first) == ids(second)
        every = [i for ns in ids(first).values() for i in ns]
        assert min(every) == 1
        assert len(every) == len(set(every))

    def test_each_run_numbers_terms_from_one(self):
        def terms():
            mod = Module("t", persistency_model="strict")
            fn = mod.define_function("f", ty.VOID,
                                     [("i", ty.I64), ("j", ty.I64)],
                                     source_file="t.c")
            b = IRBuilder(fn)
            arr = b.palloc(ty.I64, 8)
            cells = [b.getelem(arr, fn.arg(name)) for name in ("i", "j", "i")]
            b.ret()
            graph = run_dsa(mod).graph("f")
            return [graph.cell_of(cell).offset.terms for cell in cells]

        # two builds of one module: equal terms, one per index value
        assert terms() == terms() == [((1, 8),), ((2, 8),), ((1, 8),)]

    def test_two_file_checks_in_one_process_are_identical(self, tmp_path):
        import json

        from repro.corpus import REGISTRY
        from repro.ir import print_module
        from repro.serve import methods

        path = tmp_path / "hashmap.nvmir"
        path.write_text(print_module(
            REGISTRY.program("pmdk_hashmap").build()), encoding="utf-8")
        params = {"file": str(path)}
        first = methods.run_check(params)
        second = methods.run_check(params)
        messages = [w["message"] for w in first["report"]["warnings"]]
        # the warning this guards names a node by its id
        assert any("object N" in m for m in messages)
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))
