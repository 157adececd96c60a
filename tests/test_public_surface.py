"""The package's public surface: what ``__all__`` promises, and what
was retired.

Every name listed in ``repro.__all__`` and ``repro.core.__all__`` must
resolve.  The engine has one call surface (``repro.core.homengine``)
and one way to configure it (``EngineConfig``, fixed per ``Session``),
so the former wrapper module and the runtime knobs must stay gone.
"""

import importlib

import pytest

import repro
import repro.core
from repro import zoo
from repro.core import cactus, dsirup, homengine, runtime
from repro.core.homengine import HomEngine
from repro.core.runtime import PoolRuntime


@pytest.mark.parametrize("module", [repro, repro.core])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_wrapper_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.homomorphism")


RETIRED = {
    homengine: (
        "count_homomorphisms",
        "get_default_backend",
        "set_default_backend",
        "configure_cache",
        "clear_hom_cache",
        "hom_cache_info",
    ),
    runtime: ("pool_info", "configure_pool", "shutdown_pool"),
    cactus: ("clear_cactus_caches", "clear_structure_intern"),
    dsirup: ("evaluate",),
    HomEngine: ("set_default_backend", "configure_cache"),
    PoolRuntime: ("configure",),
}


@pytest.mark.parametrize(
    "owner,name",
    [(owner, name) for owner, names in RETIRED.items() for name in names],
)
def test_retired_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    if owner in (homengine, runtime, cactus):  # no re-export either
        for module in (repro, repro.core):
            assert not hasattr(module, name)


def test_session_evaluate_takes_no_strategy():
    with repro.Session() as s:
        with pytest.raises(TypeError):
            s.evaluate(zoo.q1(), zoo.d1(), strategy="auto")
