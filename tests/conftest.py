"""Suite-wide Hypothesis profiles.

``tier1`` (the default) derandomises every law: a run draws the same
examples as the last one, at each test's own ``max_examples``, so a
commit's verdict never depends on the draw.  ``explore``, selected with
``REPRO_HYPOTHESIS_PROFILE=explore``, draws from a fresh seed and runs
:data:`EXPLORE_FACTOR` times each test's examples (the Hypothesis
default of 100 for a test that sets none).  CI runs it over the
Hypothesis modules beside tier-1; a failure it finds is fixed and
pinned as an ``@example``, so tier-1 replays it from then on.
"""

import os

from hypothesis import settings

#: How many times each test's examples the ``explore`` profile runs.
EXPLORE_FACTOR = 10

settings.register_profile("tier1", derandomize=True)
settings.register_profile(
    "explore",
    derandomize=False,
    max_examples=EXPLORE_FACTOR * settings.default.max_examples,
)
PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under ``explore``, scale the tests that pin ``max_examples``.

    ``@given`` keeps a test's settings on the wrapped function and reads
    them at call time, so replacing them here scales the run.  The
    parametrised items of one test share that function: it is scaled
    once.
    """
    if PROFILE != "explore":
        return
    for test in {getattr(item, "function", None) for item in items}:
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is None or not hasattr(test, "hypothesis"):
            continue
        test._hypothesis_internal_use_settings = settings(
            pinned,
            max_examples=EXPLORE_FACTOR * pinned.max_examples,
            derandomize=False,
        )
