import importlib

import pytest

from latent_structure_lab import estimate

# A pool capacity that no restart count divides evenly, so that a dataset's
# restarts enter in different refills.
SMALL_EM_POOL_ROWS = 7


@pytest.fixture
def small_em_pool(monkeypatch):
    """Shrink the EM row pool to SMALL_EM_POOL_ROWS rows, so that a test's
    datasets cross many refills whatever the production capacity is."""
    monkeypatch.setattr(estimate, "_EM_POOL_ROWS", SMALL_EM_POOL_ROWS)
    return SMALL_EM_POOL_ROWS


@pytest.fixture
def pool_starts(monkeypatch):
    """The `max_workers` of each worker pool that `search` starts during the test."""
    search_module = importlib.import_module("latent_structure_lab.search")
    starts = []

    class CountingPool(search_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_module, "ProcessPoolExecutor", CountingPool)
    return starts
