import importlib
import pkgutil

import pytest

import spinswap
import spinswap.evolve as evolve


def package_caches() -> set:
    """Every module-level cache of the spinswap package: each callable with
    a `cache_clear`, once, however many modules import it."""
    return {obj for info in pkgutil.iter_modules(spinswap.__path__, "spinswap.")
            for obj in vars(importlib.import_module(info.name)).values()
            if callable(obj) and hasattr(obj, "cache_clear")}


def clear_package_caches() -> None:
    """Empty every cache of the package, as in a freshly started process."""
    for cached in package_caches():
        cached.cache_clear()


@pytest.fixture(autouse=True)
def cold_propagators():
    """Start every test with no cached window propagator, so that counting
    and monkeypatching tests see a cold walk whatever ran before them."""
    evolve._propagator.cache_clear()
