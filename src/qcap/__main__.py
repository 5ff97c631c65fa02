"""``python -m qcap …``: the same command line as the ``qcap`` script."""

from qcap.cli import main

raise SystemExit(main())
