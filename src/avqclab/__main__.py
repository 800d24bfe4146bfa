"""``python -m avqclab <command> ...`` runs the command line of :mod:`avqclab.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
