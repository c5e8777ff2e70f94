"""Heavy method implementations behind the serve daemon.

Each method is a pure function ``normalized params → result document``,
and each result document is **exactly** what the corresponding one-shot
CLI command prints with ``--format json``:

=========  =====================================================
method     one-shot equivalent
=========  =====================================================
check      ``deepmc check --program NAME --format json``
crashsim   ``deepmc crashsim P1 P2 ... --format json``
litmus     ``deepmc litmus T1 T2 ... --format json``
fuzz       ``deepmc fuzz --seeds SPEC ... --format json``
=========  =====================================================

That equivalence is the daemon's core correctness contract — the chaos
serve phase and the CI serve job diff the two byte-for-byte — so nothing
nondeterministic (timings, cache provenance, worker attribution) may
ever appear in a result document.

Params are validated and *normalized* (defaults filled in) up front, so
``{"program": "x"}`` and ``{"program": "x", "model": null}`` share one
artifact-store key. The cooperative ``deadline`` threads into the stages
that support budgets: a static check that misses the analysis cache
raises :class:`~repro.errors.DeadlineExceeded` (a static report has no
safe partial), crash simulation degrades to a well-formed document
marked ``truncated`` + ``deadline_exceeded``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Optional, Tuple

from ..deadline import Deadline

_MODELS = ("strict", "epoch", "strand")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _str_list(params: Dict[str, Any], key: str) -> list:
    value = params.get(key, [])
    _require(isinstance(value, list)
             and all(isinstance(v, str) for v in value),
             f"'{key}' must be a list of strings")
    return list(value)


def _opt_model(params: Dict[str, Any]) -> Optional[str]:
    model = params.get("model")
    _require(model is None or model in _MODELS,
             f"'model' must be one of {', '.join(_MODELS)}")
    return model


def _pos_int(params: Dict[str, Any], key: str, default: int) -> int:
    value = params.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value > 0, f"'{key}' must be a positive integer")
    return value


def _check_unknown(params: Dict[str, Any], allowed: tuple) -> None:
    unknown = set(params) - set(allowed)
    _require(not unknown,
             f"unknown param(s): {', '.join(sorted(unknown))}")


# -- validation / normalization ---------------------------------------------

def _validate_check(params: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(params, ("program", "file", "model"))
    program, file = params.get("program"), params.get("file")
    _require((program is None) != (file is None),
             "check needs exactly one of 'program'/'file'")
    _require(program is None or isinstance(program, str),
             "'program' must be a string")
    _require(file is None or isinstance(file, str),
             "'file' must be a string")
    out: Dict[str, Any] = {"model": _opt_model(params)}
    if program is not None:
        out["program"] = program
    else:
        out["file"] = file
    return out


def _validate_crashsim(params: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(params, ("programs", "fixed", "max_states"))
    programs = _str_list(params, "programs")
    _require(bool(programs), "'programs' must name at least one program")
    fixed = params.get("fixed", False)
    _require(isinstance(fixed, bool), "'fixed' must be a boolean")
    return {"programs": programs, "fixed": fixed,
            "max_states": _pos_int(params, "max_states", 4096)}


def _validate_litmus(params: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(params, ("tests", "model", "max_states"))
    return {"tests": _str_list(params, "tests"),
            "model": _opt_model(params),
            "max_states": _pos_int(params, "max_states", 4096)}


def _validate_fuzz(params: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(params, ("seeds", "budget", "model", "max_states",
                            "shrink"))
    seeds = params.get("seeds", [0])
    _require(isinstance(seeds, list) and bool(seeds)
             and all(isinstance(s, int) and not isinstance(s, bool)
                     for s in seeds),
             "'seeds' must be a non-empty list of integers")
    shrink = params.get("shrink", True)
    _require(isinstance(shrink, bool), "'shrink' must be a boolean")
    return {"seeds": list(seeds),
            "budget": _pos_int(params, "budget", 8),
            "model": _opt_model(params),
            "max_states": _pos_int(params, "max_states", 2048),
            "shrink": shrink}


_VALIDATORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "check": _validate_check,
    "crashsim": _validate_crashsim,
    "litmus": _validate_litmus,
    "fuzz": _validate_fuzz,
}


def normalize(method: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one heavy method's params and fill defaults in.
    Raises ``ValueError`` (→ ``bad_request``) on anything malformed."""
    validator = _VALIDATORS.get(method)
    _require(validator is not None, f"not a heavy method: {method}")
    return validator(params)


def method_key(method: str, params: Dict[str, Any]) -> str:
    """Canonical artifact-store key of one (method, normalized params)."""
    return json.dumps({"method": method, "params": params},
                      sort_keys=True, separators=(",", ":"))


def pin_request(method: str, params: Dict[str, Any]
                ) -> Tuple[str, Dict[str, Any]]:
    """The artifact-store key of one (method, normalized params), and
    the params to run it with.

    A file check is keyed by its path and a SHA-256 digest of the file's
    bytes, and runs on exactly those bytes, so a stored document always
    belongs to the content its key names. A file that cannot be read
    keeps the key of its path alone, and the run fails to read it.
    """
    if method != "check" or "file" not in params:
        return method_key(method, params), params
    try:
        with open(params["file"], "rb") as fh:
            data = fh.read()
    except OSError:
        return method_key(method, params), params
    digest = hashlib.sha256(data).hexdigest()
    return (method_key(method, dict(params, sha256=digest)),
            dict(params, source=data))


# -- execution --------------------------------------------------------------

def run_check(params: Dict[str, Any],
              deadline: Optional[Deadline] = None,
              cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """The ``check`` result document (also behind ``deepmc check
    --program``), computed through the analysis cache in ``cache_dir``
    when one is given. A file check reads the file, or parses the bytes
    that :func:`pin_request` put under ``source``."""
    from ..corpus import REGISTRY
    from ..parallel.cache import AnalysisCache, check_with_cache

    if "program" in params:
        program = REGISTRY.program(params["program"])
        module = program.build()
        subject = {"program": params["program"]}
    else:
        from ..cli import _load_module

        module = _load_module(params["file"], params.get("source"))
        subject = {"file": params["file"]}

    cache = AnalysisCache(cache_dir) if cache_dir else None
    checked = check_with_cache(module, cache, model=params.get("model"),
                               deadline=deadline)
    doc = dict(subject)
    doc.update({
        "model": checked.report.model,
        "report": checked.report.to_dict(),
        "traces_checked": checked.traces_checked,
        "suppressed": 0,
    })
    return doc


def run_crashsim(params: Dict[str, Any],
                 deadline: Optional[Deadline] = None) -> Dict[str, Any]:
    """The ``crashsim`` result document (= ``results_payload``). Under a
    deadline cut, per-program entries come back well-formed but marked
    ``truncated`` + ``deadline_exceeded`` — partial, never torn."""
    import traceback

    from ..crashsim.engine import results_payload, simulate_program

    payloads = []
    for name in params["programs"]:
        try:
            report = simulate_program(name, fixed=params["fixed"],
                                      max_states=params["max_states"],
                                      deadline=deadline)
            payloads.append({"name": name, "ok": True,
                             "result": report.to_dict()})
        except Exception:
            payloads.append({"name": name, "ok": False,
                             "error": traceback.format_exc()})
    return results_payload(payloads)


def run_litmus_method(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..litmus import get_test, run_litmus

    tests = ([get_test(name) for name in params["tests"]]
             if params["tests"] else None)
    models = [params["model"]] if params["model"] else None
    return run_litmus(tests=tests, models=models,
                      max_states=params["max_states"])


def run_fuzz_method(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..fuzz import run_fuzz

    return run_fuzz(seeds=params["seeds"], budget=params["budget"],
                    model=params["model"],
                    max_states=params["max_states"],
                    shrink=params["shrink"])


def run_method(method: str, params: Dict[str, Any],
               deadline: Optional[Deadline] = None,
               cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Execute one heavy method on *normalized* params."""
    if method == "check":
        return run_check(params, deadline=deadline, cache_dir=cache_dir)
    if method == "crashsim":
        return run_crashsim(params, deadline=deadline)
    if method == "litmus":
        return run_litmus_method(params)
    if method == "fuzz":
        return run_fuzz_method(params)
    raise ValueError(f"not a heavy method: {method}")
