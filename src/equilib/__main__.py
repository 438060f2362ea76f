"""Run the command line as ``python -m equilib TASK [flags]``."""

from .cli import main

if __name__ == "__main__":
    main()
