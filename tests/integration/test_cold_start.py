"""Cold start: a fresh interpreter that imports ``repro`` and takes a
virion geometry through ``OperatorSpec`` to a solve never loads
``scipy.spatial`` or ``scipy.special``.

Those two subpackages (and ``scipy.sparse``, which ``scipy.spatial``
drags in) were most of the import cost above numpy + ``scipy.linalg``;
only ``mesh_quality``'s Delaunay and the general-``nu`` Matérn kernel
import them, inside the one function that uses each.
"""

import json
import os
import subprocess
import sys

SCRIPT = """
import json, sys
import numpy as np
import repro
from repro.core import solve_cholesky
from repro.geometry import min_spacing, virus_population
from repro.service import OperatorSpec

pts = virus_population(2, points_per_virus=120, seed=0)
spec = OperatorSpec(
    points=pts, shape_parameter=15.0 * min_spacing(pts), tile_size=60, accuracy=1e-6
)
built = spec.build()
x = solve_cholesky(built.factor, np.ones(spec.n))
assert np.all(np.isfinite(x))
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.spatial", "scipy.special")))))
"""


def test_operator_path_loads_neither_spatial_nor_special():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
