"""Every estimator the registry offers runs where the CLI runs it:
``repro estimate --method NAME`` is ``get_estimator(NAME).estimate(query,
build_representative(engine), T)``, so a name that cannot run on that
representative is not offered."""

import pytest

from repro.core import Usefulness, get_estimator
from repro.core.base import _REGISTRY


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_every_registered_estimator_runs_on_a_built_representative(
    name, small_representative, small_queries
):
    estimator = get_estimator(name)
    for query in small_queries[:5]:
        for threshold in (0.1, 0.3):
            estimate = estimator.estimate(query, small_representative, threshold)
            assert isinstance(estimate, Usefulness), (name, query, threshold)
