"""``python -m framecore``: the ``framecore`` command line."""

from .cli import main

main()
