"""Every function the package defines runs in one of the seven suites.

The suites run through ``cli.main``, so the CLI's own functions run too.  A
function no suite calls is code that no report and no benchmark workload
depends on: it goes, unless ``KEPT`` gives the reason it stays.
"""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys
import types

import foliation_lab
from foliation_lab import cli

CAYLEY = (
    "the Cayley identification of Hardy bases, which the README claims and "
    "test_criterion_9_cayley_orthonormality checks; no suite reports it yet"
)

# unreached code that stays, with its reason
KEPT = {
    "wiener_hopf.cayley_basis_image": CAYLEY,
    "wiener_hopf.cayley_basis_image.<locals>.fn": CAYLEY,
    "wiener_hopf.cayley_gram_matrix": CAYLEY,
    "wiener_hopf._cayley_tail": CAYLEY,
}


def _hooked_names():
    """The names the benchmark tracer hooks (``LAYERS`` in perfbench/spans.py).
    Its install refuses to run when one is missing, so each stays while hooked."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{layer.module}.{layer.attr}" for layer in spans.LAYERS if layer.attr}


def _package_modules():
    names = (info.name for info in pkgutil.iter_modules(foliation_lab.__path__))
    return [importlib.import_module(f"foliation_lab.{name}") for name in names]


def _defined_code(modules):
    """{code object: "module.qualname"} for every function, method, property
    getter and nested def the modules define; lambdas and comprehensions aside."""
    found = {}

    def add(code, short):
        if not code.co_name.startswith("<"):
            found[code] = f"{short}.{code.co_qualname}"
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, short)

    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else [value]:
                member = getattr(member, "fget", member)  # a property
                member = getattr(member, "__func__", member)  # a classmethod
                member = inspect.unwrap(member)  # an lru_cache
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    add(code, short)
    return found


def test_every_function_runs_in_a_suite(tmp_path):
    modules = _package_modules()
    defined = _defined_code(modules)
    # a warm cache would skip the function behind it
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = {
            suite: cli.main([suite, "--out", str(tmp_path / suite), "--override", "seed=12345"])
            for suite in cli.SUITES
        }
    finally:
        sys.setprofile(previous)
    # a check that raises stops partway, and what it would reach reads unreached
    assert 3 not in codes.values(), codes
    unreached = {name for code, name in defined.items() if code not in seen}
    missing = sorted(unreached - KEPT.keys() - _hooked_names())
    assert not missing, f"no suite runs {', '.join(missing)}"
    stale = sorted(KEPT.keys() - unreached)
    assert not stale, f"a suite runs {', '.join(stale)}: drop it from KEPT"
