"""``python -m bench``: put ``src/`` on the path, then run the CLI.

The driver's command carries no environment, so the entry point (and only
the entry point) adds the repository's ``src/`` itself; everything else in
``bench/`` imports ``repro`` like any other caller.
"""

import sys

from bench.spec import ROOT

sys.path.insert(0, str(ROOT / "src"))

from bench.cli import main  # noqa: E402 - needs src/ on the path

if __name__ == "__main__":
    sys.exit(main())
