"""Child process of the benchmark: times `import lambeksem` plus loading
the demo lexicon in a fresh interpreter and prints both, in seconds.

    python3 bench/setup_probe.py
"""

import os
import sys
import time

start = time.perf_counter()
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(root, "src"))
import lambeksem  # noqa: E402

imported = time.perf_counter()
lambeksem.load_lexicon_file(os.path.join(root, "data", "demo_lexicon.json"))
loaded = time.perf_counter()
print(f"{imported - start!r} {loaded - imported!r}")
