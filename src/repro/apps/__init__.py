"""End-user applications built on the TLR Cholesky framework."""

from repro.apps.deformation_field import radial_expansion, rigid_rotation
from repro.apps.mesh_deformation import MeshDeformationResult, RBFMeshDeformation
from repro.apps.mesh_quality import QualityReport, quality_report
from repro.apps.spatial_statistics import GaussianLogLikelihood, LikelihoodResult

__all__ = [
    "RBFMeshDeformation",
    "MeshDeformationResult",
    "rigid_rotation",
    "radial_expansion",
    "QualityReport",
    "quality_report",
    "GaussianLogLikelihood",
    "LikelihoodResult",
]
