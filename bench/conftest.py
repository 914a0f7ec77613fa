"""Put ``src/`` and ``bench/`` on the path before pytest imports anything.

The repo's ``addopts`` carries ``--doctest-modules``, so pytest imports
every module here, and they import ``repro``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
