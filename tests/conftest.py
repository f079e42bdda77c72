import pytest

import spinswap.evolve as evolve


@pytest.fixture(autouse=True)
def cold_propagators():
    """Start every test with no cached window propagator, so that counting
    and monkeypatching tests see a cold walk whatever ran before them."""
    evolve._propagator.cache_clear()
