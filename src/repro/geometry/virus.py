"""Synthetic SARS-CoV-2-like virion surface geometry.

The paper extracts the virus envelope from PDB 6VXX (spike
glycoprotein) and meshes it with 44,932 boundary points per virion.
The PDB data is unavailable offline, so we build the closest synthetic
equivalent (see DESIGN.md, substitutions): a spherical capsid sampled
with a Fibonacci lattice plus a corona of protruding spike clusters —
mushroom-shaped stalks capped by a head, matching the coarse geometry
of the trimeric spike.

What matters for the reproduction is not the exact coordinates but the
*geometry statistics* that control the RBF operator's rank structure:
a compact body of diameter ~100 nm, local point spacing roughly
uniform, and small dense clusters (spike heads) separated by gaps.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pointclouds import fibonacci_sphere
from repro.utils.validation import check_positive

__all__ = ["synthetic_virus", "VIRUS_DIAMETER"]

#: Virion envelope diameter in micrometres (SARS-CoV-2: ~0.1 um).
VIRUS_DIAMETER = 0.1


def synthetic_virus(
    n_points: int = 44932,
    diameter: float = VIRUS_DIAMETER,
    n_spikes: int = 40,
    spike_height_frac: float = 0.25,
    spike_head_frac: float = 0.10,
    center: np.ndarray | None = None,
    seed: int | None = 0,
) -> np.ndarray:
    """Surface point cloud of one synthetic virion.

    Parameters
    ----------
    n_points:
        Total boundary points (paper resolution: 44,932 per virion).
    diameter:
        Capsid diameter (same length unit as the enclosing cube).
    n_spikes:
        Number of spike proteins (SARS-CoV-2 carries ~24-40 trimers).
    spike_height_frac:
        Spike stalk length as a fraction of the capsid radius.
    spike_head_frac:
        Spike head radius as a fraction of the capsid radius.
    center:
        Optional ``(3,)`` translation of the virion center.
    seed:
        Seed controlling spike placement.

    Returns
    -------
    ``(n_points, 3)`` float64 array.
    """
    check_positive("n_points", n_points)
    check_positive("diameter", diameter)
    if n_spikes < 0:
        raise ValueError(f"n_spikes must be >= 0, got {n_spikes}")
    radius = 0.5 * diameter
    rng = np.random.default_rng(seed)

    # Budget: ~75% of points on the capsid, ~25% across spike heads.
    n_spike_pts_total = (n_points // 4) if n_spikes > 0 else 0
    n_capsid = n_points - n_spike_pts_total
    capsid = fibonacci_sphere(n_capsid, radius=radius)

    parts = [capsid]
    if n_spikes > 0:
        # Spike anchor directions: quasi-uniform via Fibonacci + jitter.
        anchors = fibonacci_sphere(n_spikes, radius=1.0)
        anchors += 0.05 * rng.standard_normal(anchors.shape)
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)

        # the first ``extra`` spikes carry one point more; each head size's
        # lattice is built once and shifted to every tip in one broadcast
        per_spike, extra = divmod(n_spike_pts_total, n_spikes)
        head_r = spike_head_frac * radius
        tip = radius * (1.0 + spike_height_frac)
        for m, dirs in ((per_spike + 1, anchors[:extra]), (per_spike, anchors[extra:])):
            if m > 0:
                heads = fibonacci_sphere(m, radius=head_r) + tip * dirs[:, None, :]
                parts.append(heads.reshape(-1, 3))

    pts = np.vstack(parts)
    if center is not None:
        pts = pts + np.asarray(center, dtype=np.float64)
    return pts
