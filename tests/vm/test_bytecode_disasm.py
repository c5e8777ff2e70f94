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
