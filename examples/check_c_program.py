#!/usr/bin/env python3
"""Checking a C program end-to-end, the way the paper's users would.

Compiles an NVM-C program (the Figure 3 + Figure 5 patterns combined)
with the `-strict` model pragma, runs DeepMC, prints warnings with fix
suggestions pointing at the original C lines, then executes the program
on the simulated NVM.

Run:  python examples/check_c_program.py
"""

from repro import check_module
from repro.checker.fixes import suggest_fixes
from repro.frontend import compile_c
from repro.vm import make_interpreter

SOURCE = """\
#pragma persistency(strict)

struct region {
    long header;
    long attach;
    long vsize;
};

struct task {
    long proto;
    long pad[31];
};

void create_region(struct region* region) {
    memset(region, 0, 24);
    pmem_flush(region, 24);
    /* missing persist barrier (Figure 3) */
    tx_begin();
    tx_add(region, 24);
    region->attach = 1;
    tx_end();
}

void task_construct(struct task* t) {
    t->proto = 99;
    /* whole 256-byte object persisted for one field (Figure 5) */
    pmem_persist(t, sizeof(struct task));
}

long main(void) {
    struct region* r = pmalloc(struct region);
    struct task* t = pmalloc(struct task);
    create_region(r);
    task_construct(t);
    return r->attach + t->proto;
}
"""


def main() -> None:
    print("Compiling region.c with -strict ...")
    module = compile_c(SOURCE, "region.c")

    report = check_module(module)
    print(f"\nDeepMC found {len(report)} issue(s):\n")
    print(report.render())

    print("\nSuggested fixes:")
    for s in suggest_fixes(report):
        print(f"  {s.render()}")

    result = make_interpreter(module).run()
    print(f"\nExecution: main() = {result.value}, "
          f"{result.stats.flushes} flushes, {result.stats.fences} fences, "
          f"{result.stats.nvm_write_bytes} bytes written to NVM")
    assert result.value == 100

    assert report.has("strict.missing-barrier", "region.c", 16)
    assert report.has("perf.flush-unmodified", "region.c", 27)
    print("\nBoth bugs found at their C source lines.")


if __name__ == "__main__":
    main()
