#!/usr/bin/env python3
"""Quickstart: write an NVM program, check it with DeepMC, fix it, run it.

The program below implements the paper's running theme: a persistent
record updated under strict persistency. One field update is missing its
flush — DeepMC pinpoints the line; the fixed version checks clean and its
data survives on the simulated NVM device.

Run:  python examples/quickstart.py
"""

from repro import check_module
from repro.ir import IRBuilder, Module, types as ty, verify_module
from repro.vm import make_interpreter


def build_account_program(fixed: bool) -> Module:
    """A bank-account record on NVM under strict persistency."""
    mod = Module("quickstart", persistency_model="strict")
    account = mod.define_struct(
        "account",
        [("balance", ty.I64), ("pad", ty.ArrayType(ty.I64, 7)),
         ("audit_flag", ty.I64)],
    )

    fn = mod.define_function("main", ty.I64, [], source_file="account.c")
    b = IRBuilder(fn)
    acc = b.palloc(account, line=10)

    # deposit: balance update, properly persisted
    bal = b.getfield(acc, "balance", line=12)
    b.store(100, bal, line=12)
    b.flush(bal, 8, line=13)
    b.fence(line=14)

    # audit trail: the programmer forgot the flush...
    audit = b.getfield(acc, "audit_flag", line=16)
    b.store(1, audit, line=16)
    if fixed:
        b.flush(audit, 8, line=17)
        b.fence(line=18)

    v = b.load(bal, line=20)
    b.ret(v, line=21)
    verify_module(mod)
    return mod


def main() -> None:
    print("=" * 72)
    print("1. Static checking the buggy program (-strict flag)")
    print("=" * 72)
    buggy = build_account_program(fixed=False)
    report = check_module(buggy)
    print(report.render())
    assert report.has("strict.unflushed-write", "account.c", 16)

    print()
    print("=" * 72)
    print("2. The fixed program checks clean")
    print("=" * 72)
    fixed = build_account_program(fixed=True)
    clean = check_module(fixed)
    print(clean.render())
    assert len(clean) == 0

    print()
    print("=" * 72)
    print("3. Executing on the simulated NVM")
    print("=" * 72)
    result = make_interpreter(fixed).run()
    print(f"main() returned {result.value} after {result.steps} steps")
    stats = result.stats
    print(f"persistent stores: {stats.persistent_stores}, "
          f"flushes: {stats.flushes}, fences: {stats.fences}, "
          f"NVM bytes written: {stats.nvm_write_bytes}")
    image = list(result.domain.durable_snapshot().values())[0]
    balance = int.from_bytes(image[:8], "little")
    audit = int.from_bytes(image[64:72], "little")
    print(f"durable state: balance={balance}, audit_flag={audit}")
    assert (balance, audit) == (100, 1)
    print("\nOK: the fixed program's state is fully durable.")


if __name__ == "__main__":
    main()
