"""Exact computer algebra for T-singular I-surfaces.

Sparse rational polynomial arithmetic, lattice cones and Hilbert bases,
Hirzebruch-Jung combinatorics, toric blowups, canonical-ring relation
formats, and curve-configuration replay, behind a deterministic scenario
runner (``isurf`` on the command line).
"""

import json
from pathlib import Path

__version__ = "0.1.0"


def load_fixture(name: str):
    """The parsed contents of the bundled JSON file ``fixtures/<name>``."""
    return json.loads((Path(__file__).parent / "fixtures" / name).read_text())
