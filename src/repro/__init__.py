"""DeepMC reproduction: detecting deep memory persistency bugs in NVM programs.

Reproduces Reidys & Huang, *Understanding and Detecting Deep Memory
Persistency Bugs in NVM Programs with DeepMC* (PPoPP 2022): a persistency-
model-aware checking toolkit combining static analysis (CFG/CG traces,
field-sensitive Data Structure Analysis) with dynamic happens-before
checking, applied to mini re-implementations of PMDK, PMFS, NVM-Direct and
Mnemosyne and to the paper's bug corpus.

Top-level convenience API::

    from repro import check_module
    report = check_module(module)          # static checking
    print(report.render())
"""

__version__ = "1.0.0"


def check_module(module, model=None):
    """Run DeepMC's static checker on a module.

    ``model`` overrides the module's compile-flag persistency model.
    Returns a :class:`repro.checker.report.Report`.
    """
    from .checker.engine import StaticChecker

    return StaticChecker(module, model=model).run()


def check_dynamic(module, entry="main", model=None, **kwargs):
    """Plan hooks for, execute, and dynamically check a module.

    Returns ``(report, runs)``, with one run result per seed.
    """
    from .dynamic.checker import DynamicChecker

    checker = DynamicChecker(module, model=model)
    return checker.run(entry=entry, **kwargs)
