"""Entry point of the replay benchmark; see bench/README.md.

    python3 bench/run.py [--seed N] [--seconds S] [--out FILE]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is imported from
``src/`` next to this directory; without it the benchmark exits with
status 2 before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from harness import main
    sys.exit(main())
