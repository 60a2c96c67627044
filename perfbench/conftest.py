"""pytest set-up for the benchmark's own tests: import ``repro`` from this
checkout's ``src`` and the benchmark modules by their bare names."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.use_repo_sources()
