"""``python -m borrowoc``: the command line of :mod:`borrowoc.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
