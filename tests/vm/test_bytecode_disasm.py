"""Golden disassembly: the compiled form of three corpus programs.

The goldens pin the *whole* compiler output — register allocation,
constant materialization, branch-target resolution, and which pairs
fused — so an accidental lowering change shows up as a readable diff
instead of a perf mystery. Regenerate after an intentional compiler
change with:

    PYTHONPATH=src python - <<'EOF'
    from repro.corpus import REGISTRY
    from repro.vm.compile import compile_module
    for name in ("pmdk_obj_pmemlog_simple", "pmfs_super",
                 "mnemosyne_phlog"):
        text = compile_module(REGISTRY.program(name).build()).disassemble()
        open(f"tests/vm/goldens/{name}.disasm", "w").write(text)
    EOF

and review the diff like any other code change.
"""

import os

import pytest

from repro.cli import main
from repro.corpus import REGISTRY
from repro.ir import print_module
from repro.vm.bytecode import OPSPECS
from repro.vm.compile import compile_module

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN_PROGRAMS = ("pmdk_obj_pmemlog_simple", "pmfs_super",
                   "mnemosyne_phlog")
OPCODE_NAMES = {spec.name for spec in OPSPECS}


def _disassemble(name):
    return compile_module(REGISTRY.program(name).build()).disassemble()


class TestGoldenDisassembly:
    @pytest.mark.parametrize("name", GOLDEN_PROGRAMS)
    def test_matches_golden(self, name):
        with open(os.path.join(GOLDEN_DIR, f"{name}.disasm"),
                  encoding="utf-8") as fh:
            golden = fh.read()
        assert _disassemble(name) == golden, (
            f"compiled bytecode for {name} drifted from its golden — if "
            f"the compiler change is intentional, regenerate the golden "
            f"(see this file's docstring) and review the diff")

    @pytest.mark.parametrize("name", GOLDEN_PROGRAMS)
    def test_deterministic(self, name):
        assert _disassemble(name) == _disassemble(name)

    @pytest.mark.parametrize("name", GOLDEN_PROGRAMS)
    def test_structure(self, name):
        text = _disassemble(name)
        lines = text.splitlines()
        assert lines[0].startswith(f"; module {name} — bytecode (")
        # every mnemonic in the listing is a registered opcode
        for line in lines:
            parts = line.split()
            if parts and parts[0].isdigit():
                assert parts[1] in OPCODE_NAMES, line
        # function headers carry the register/argument/fusion summary
        assert any(line.startswith("@main (regs=") for line in lines)


class TestDumpBytecodeCLI:
    def test_dump_matches_library_disassembly(self, tmp_path, capsys):
        program = REGISTRY.program("mnemosyne_phlog")
        path = tmp_path / "phlog.nvmir"
        path.write_text(print_module(program.build()))
        assert main(["run", str(path), "--dump-bytecode"]) == 0
        out = capsys.readouterr().out
        # the CLI dumps without executing: no result/stats lines
        assert "returned:" not in out
        assert out.splitlines()[0].startswith("; module mnemosyne_phlog")
        assert "fuse_icmp_br" in out or "fuse_load_binop" in out


class TestDedicatedOpcodes:
    """i64 sdiv/srem, the three kinds of planned hook and the four stack
    slot ops compile to their own opcodes; every other width stays
    generic."""

    def _module(self):
        from repro.ir import IRBuilder, Module, REGION_STRAND, types as ty

        mod = Module("ops", persistency_model="strand")
        fn = mod.define_function("main", ty.I64, [("a", ty.I64)],
                                 source_file="ops.c")
        b = IRBuilder(fn)
        a = fn.arg("a")
        q = b.binop("sdiv", a, 3, line=1)
        r = b.binop("srem", q, 7, line=2)
        narrow = b.binop("srem", b.cast(r, ty.I32), b.cast(q, ty.I32),
                         line=3)
        p = b.palloc(ty.I64, line=4)
        b.txbegin(REGION_STRAND, line=5)
        b.store(r, p, line=6)
        v = b.load(p, line=7)
        b.txend(REGION_STRAND, line=8)
        b.fence(line=9)
        b.ret(b.add(v, b.cast(narrow, ty.I64)), line=11)
        # an i8 counter and an i64 accumulator, both promoted slots
        slots = mod.define_function("slots", ty.I64, [("x", ty.I8)],
                                    source_file="ops.c")
        sb = IRBuilder(slots)
        n = sb.alloca(ty.I8, line=12)
        acc = sb.alloca(ty.I64, line=13)
        sb.store(slots.arg("x"), n, line=14)
        sb.store(sb.add(sb.load(acc, line=15), 2, line=15), acc, line=15)
        total = sb.load(acc, line=16)
        sb.ret(sb.add(total, sb.cast(sb.load(n, line=17), ty.I64)),
               line=18)
        return mod

    def test_each_dedicated_opcode_renders(self):
        from repro.analysis.dsa import run_dsa
        from repro.dynamic import plan_hooks

        mod = self._module()
        text = compile_module(mod, hooks=plan_hooks(mod, run_dsa(mod))
                              ).disassemble()
        body = [line.split(None, 1)[1] for line in text.splitlines()
                if line.split() and line.split()[0].isdigit()]
        for expected in ("sdiv64          r1 <- r0, r10",
                         "srem64          r2 <- r1, r11",
                         "hook_write      r6, r13",
                         "hook_read       r6, r14",
                         "hook_fence",
                         "alloca_slot     r1 <- i8 (1 bytes)",
                         "alloca_slot     r2 <- i64 (8 bytes)",
                         "store_slot      r1 <- r0 wrap=s8",
                         "fuse_slot_binop r3 <- r2; r4 <- add <loaded>, r9",
                         "store_slot      r2 <- r4 wrap=s64",
                         "load_slot       r5 <- r2",
                         "load_slot       r6 <- r1"):
            assert expected in body, (expected, text)
        # each hook sits just before the instruction it was planned for
        for hook, inst in (("hook_write", "store_i"), ("hook_read", "load_i"),
                           ("hook_fence", "fence")):
            pc = next(i for i, line in enumerate(body)
                      if line.startswith(hook))
            assert body[pc + 1].startswith(inst), text
        assert any(line.startswith("binop           ") and " srem i32 " in line
                   for line in body), text
