"""``python -m warpgeo``: the command-line interface, as ``warpgeo``."""

from .cli import main

main()
