import pytest
from hypothesis import settings

from ccgraph import ColoredDigraph, SpgGraph, build_spg, sssp

# Tier-1 runs the same examples every time, in bounded time; a failure is
# found again by rerunning, so no example database is kept.
settings.register_profile("ccgraph", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("ccgraph")

# The diamond graph used throughout: s=0, a=1, b=2, t=3.
# Both s-t paths have weight 2; a is reachable only in color 1, b only in
# color 2, t in either.
DIAMOND_EDGES = [(0, 1, 1, 1), (0, 2, 2, 1), (1, 3, 1, 1), (2, 3, 2, 1)]

# Same shape, but the color-2 route into t costs 5 and is no longer tight.
DIAMOND_MIN_EDGES = [(0, 1, 1, 1), (0, 2, 2, 1), (1, 3, 1, 1), (2, 3, 2, 5)]


@pytest.fixture
def diamond() -> ColoredDigraph:
    return ColoredDigraph(4, 2, DIAMOND_EDGES)


@pytest.fixture
def diamond_min() -> ColoredDigraph:
    return ColoredDigraph(4, 2, DIAMOND_MIN_EDGES)


@pytest.fixture
def diamond_spg(diamond) -> SpgGraph:
    return build_spg(diamond, 0, sssp(diamond, 0))


@pytest.fixture
def diamond_min_dag(diamond_min) -> SpgGraph:
    # the DAG taken as its own tight subgraph, heavy edge included
    return SpgGraph.from_dag(diamond_min, 0)
