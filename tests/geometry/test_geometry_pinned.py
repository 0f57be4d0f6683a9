"""Pinned virion geometry: the points of ``virus_population``, the
Hilbert keys of the unordered cloud and ``min_spacing``, bitwise.

Recorded for the four benchmark recipes (viruses, points per virus) x
geometry seeds 0-2, plus all 16 ``serve_mixed`` geometries ((4, 400) x
seeds 0-15), before the whole-array geometry passes and the grid
``min_spacing`` landed; they must not move a point, a key or a spacing.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry import min_spacing, virus_population
from repro.utils.hilbert import hilbert_index_3d

#: (viruses, points per virus, seed) -> (geometry digest, min_spacing hex)
PINNED = {
    (8, 400, 0): ('7bbd13785a3c7b014663166a', '0x1.f9937b2ab77e0p-8'),
    (8, 400, 1): ('382221020e307bfda86ec436', '0x1.f9937b2ab7875p-8'),
    (8, 400, 2): ('d3d9df198a0dd8116abced18', '0x1.f9937b2ab7836p-8'),
    (8, 300, 0): ('fab92ff48e030136f802a522', '0x1.f35c238c2c33bp-8'),
    (8, 300, 1): ('3f2145904a37d32cfa4a4ae8', '0x1.f35c238c2c349p-8'),
    (8, 300, 2): ('83588ca6fa6523b1469f62df', '0x1.f35c238c2c371p-8'),
    (8, 250, 0): ('e35589142e8de02b58cad9ce', '0x1.0147018e74de9p-7'),
    (8, 250, 1): ('742365593bb693252b178ba3', '0x1.0147018e74de3p-7'),
    (8, 250, 2): ('16aa3babc669b9d2c7008fc8', '0x1.0250b91e7d730p-7'),
    (4, 400, 0): ('05c5b8f78001cc3d13bc1d2d', '0x1.fb28f832a4f17p-8'),
    (4, 400, 1): ('89ba80cf788add527271774e', '0x1.f9937b2ab7875p-8'),
    (4, 400, 2): ('2afefdb1177b869c584715f5', '0x1.f9937b2ab7836p-8'),
    (4, 400, 3): ('1017d47e0593f0ddc466b0d1', '0x1.f9937b2ab7835p-8'),
    (4, 400, 4): ('2af6111fe6eba91a386982dd', '0x1.f9937b2ab77e9p-8'),
    (4, 400, 5): ('9e598eda6910de4b42289716', '0x1.046a97ca758d1p-7'),
    (4, 400, 6): ('1733d97b4957974bd1e3cf52', '0x1.046a97ca758dbp-7'),
    (4, 400, 7): ('d90621cc05d5c5f6d6edbe5d', '0x1.fad0651fdc9e7p-8'),
    (4, 400, 8): ('385002676ae136481a25540c', '0x1.fad0651fdc9e4p-8'),
    (4, 400, 9): ('7478fc8cc511817e4b76acf4', '0x1.f61f885b5bcb0p-8'),
    (4, 400, 10): ('4f401fdeeb6b1360655fc8c3', '0x1.f61f885b5bd01p-8'),
    (4, 400, 11): ('63ae96fe3020f4155d546665', '0x1.f61f885b5bd01p-8'),
    (4, 400, 12): ('d4cda0be9dfa7de510d0ab94', '0x1.f61f885b5bd28p-8'),
    (4, 400, 13): ('b64d080966dcb56131ae6443', '0x1.0206940055d72p-7'),
    (4, 400, 14): ('fa25bf1479f6d933bedc5dde', '0x1.0206940055d64p-7'),
    (4, 400, 15): ('e43b4f52fdc25349f03a2868', '0x1.0206940055d36p-7'),
}


def hilbert_grid(points: np.ndarray, bits: int = 16) -> np.ndarray:
    """``hilbert_order``'s quantization of a cloud with no flat axis."""
    lo = points.min(axis=0)
    scale = (1 << bits) - 1
    return np.clip(
        np.floor((points - lo) / (points.max(axis=0) - lo) * scale).astype(np.int64), 0, scale
    )


@pytest.mark.parametrize("case", sorted(PINNED))
def test_geometry_is_pinned(case):
    viruses, per_virus, seed = case
    raw = virus_population(viruses, points_per_virus=per_virus, seed=seed, reorder=False)
    ordered = virus_population(viruses, points_per_virus=per_virus, seed=seed)
    h = hashlib.sha256(raw.tobytes())
    h.update(ordered.tobytes())
    h.update(hilbert_index_3d(hilbert_grid(raw)).tobytes())
    assert (h.hexdigest()[:24], min_spacing(ordered).hex()) == PINNED[case]
