"""``python -m hawkmix``: the command-line interface of ``hawkmix.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
