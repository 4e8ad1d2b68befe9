import pytest

from wild11.analysis import analyze_charpoly
from wild11.cli import run_equivariant_pipeline


@pytest.fixture(scope="session")
def pipeline():
    """Memoized full pipeline runs at p = 11, shared across test modules.

    Returns a getter: (kind, param) -> (model, tally_p, tally_p2, tr_p,
    tr_p2, eigen_p, eigen_p2, charpoly_result).
    """
    cache = {}

    def get(kind, param):
        key = (kind, param)
        if key not in cache:
            cache[key] = run_equivariant_pipeline(kind, param, 11)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def analyzed(pipeline):
    """AnalysisReport per (kind, param) at p = 11; analyze_charpoly memoises it."""

    def get(kind, param):
        return analyze_charpoly(pipeline(kind, param)[-1].mu, 11)

    return get
