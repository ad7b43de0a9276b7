"""Session-wide test isolation.

The persistent caches default to ``~/.cache/vrm-repro``: a warm cache
there could answer a test without the engine ever running, and the
suite would fill the user's cache as a side effect.  Every test session
therefore gets its own empty cache directory, which also holds the
serve disk layer (``<cache_dir>/serve``).  Tests with their own
``isolated_cache`` fixtures still override it per test.  No other
``REPRO_*`` variable is touched, so CI jobs that set engine knobs keep
them.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_EXPLORE_CACHE_DIR",
            str(tmp_path_factory.mktemp("repro-cache")),
        )
        yield
