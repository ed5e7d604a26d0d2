"""``python -m patchdesign``: the ``patchdesign`` command."""

from .cli import main

if __name__ == "__main__":
    main()
