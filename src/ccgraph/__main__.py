"""Run the command-line interface: ``python -m ccgraph ...``."""

from .cli import main

if __name__ == "__main__":
    main()
