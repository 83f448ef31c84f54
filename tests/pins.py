"""The pinned outputs of ``tests/data/pins.txt`` by name, the values that the
``pins`` step of ``ci/checks.sh`` checks, so that a test reads each one from
there instead of restating it: an md5, an exact output line or a fixture path."""

import pathlib

from lorascale import controller

PINS = dict(line.split(None, 1) for _, line in
            controller.numbered_lines(pathlib.Path(__file__).parent / "data" / "pins.txt"))
