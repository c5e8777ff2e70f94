"""Every default crash budget reads its one constant.

``crashsim.engine.DEFAULT_MAX_STATES`` is the default of ``deepmc
crashsim`` and ``deepmc litmus`` and of the serve ``crashsim`` and
``litmus`` params; ``fuzz.oracle.DEFAULT_MAX_STATES`` is the default of
``deepmc fuzz`` and of the serve ``fuzz`` params. Each is read when the
command or request runs, so a changed constant reaches all of them.
"""

import pytest

from repro import crashsim, fuzz, litmus
from repro.cli import main
from repro.crashsim import engine as crash_engine
from repro.fuzz import oracle as fuzz_oracle
from repro.serve import methods

CRASH_BUDGET = 17
FUZZ_BUDGET = 19


@pytest.fixture
def budgets(monkeypatch):
    monkeypatch.setattr(crash_engine, "DEFAULT_MAX_STATES", CRASH_BUDGET)
    monkeypatch.setattr(fuzz_oracle, "DEFAULT_MAX_STATES", FUZZ_BUDGET)


@pytest.fixture
def seen(monkeypatch):
    """The budget each command hands its engine, by command."""
    seen = {}

    def simulate_programs(names, **kwargs):
        seen["crashsim"] = kwargs["max_states"]
        return []

    def run_litmus(**kwargs):
        seen["litmus"] = kwargs["max_states"]
        return {"cases": [], "summary": {"errors": 0, "disagreeing": 0}}

    def run_fuzz(**kwargs):
        seen["fuzz"] = kwargs["max_states"]
        return {"errors": [], "disagreements": []}

    monkeypatch.setattr(crashsim, "simulate_programs", simulate_programs)
    monkeypatch.setattr(litmus, "run_litmus", run_litmus)
    monkeypatch.setattr(fuzz, "run_fuzz", run_fuzz)
    return seen


def _run_commands(extra, capsys):
    assert main(["crashsim", "pmfs_symlink", "--format", "json"]
                + extra) == 0
    assert main(["litmus", "message-passing", "--format", "json"]
                + extra) == 0
    assert main(["fuzz", "--seeds", "0", "--format", "json"] + extra) == 0
    capsys.readouterr()


def test_serve_params_default_to_the_constants(budgets):
    assert methods.normalize(
        "crashsim", {"programs": ["pmfs_symlink"]})["max_states"] \
        == CRASH_BUDGET
    assert methods.normalize("litmus", {})["max_states"] == CRASH_BUDGET
    assert methods.normalize("fuzz", {})["max_states"] == FUZZ_BUDGET


def test_the_commands_default_to_the_constants(budgets, seen, capsys):
    _run_commands([], capsys)
    assert seen == {"crashsim": CRASH_BUDGET, "litmus": CRASH_BUDGET,
                    "fuzz": FUZZ_BUDGET}


def test_an_explicit_budget_wins(budgets, seen, capsys):
    _run_commands(["--max-states", "5"], capsys)
    assert seen == {"crashsim": 5, "litmus": 5, "fuzz": 5}
    assert methods.normalize("fuzz", {"max_states": 5})["max_states"] == 5
