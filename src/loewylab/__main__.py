"""Entry point for `python -m loewylab`."""

from .cli import main

if __name__ == "__main__":
    main()
