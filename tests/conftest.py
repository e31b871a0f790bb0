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
