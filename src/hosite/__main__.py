"""``python -m hosite``: the command-line harness, as ``hosite.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
