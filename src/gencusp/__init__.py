"""gencusp: canonical matrix models, conjugacy invariants, and moduli
coordinates for marked torus cusps of real projective n-manifolds.

``import gencusp`` loads no submodule: each exported name is imported from
its submodule on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "BlownUpWeylPoint",
            "MarkedCusp",
            "PsiParameter",
            "build_marked_cusp",
            "hypersurface_F",
            "lie_algebra_phi",
            "lie_algebra_zeta",
            "orbit_point",
            "preferred_sqrt",
            "rho",
        ),
        "cusp_groups",
    ),
    **dict.fromkeys(
        (
            "CharacterData",
            "CompleteInvariant",
            "WeightData",
            "are_conjugate",
            "complete_invariant",
            "eta_distance",
            "horosphere_metric",
            "marked_psi_normal_form",
            "realize_weight_data",
            "recover_psi_from_invariant",
            "stratum_dim",
            "weight_data",
            "weights_of",
        ),
        "invariants",
    ),
    **dict.fromkeys(
        ("expm", "f_k", "newton_to_elementary", "unimodular"),
        "linalg",
    ),
    **dict.fromkeys(
        (
            "CubicPoly",
            "ShapeInvariant",
            "cubic_from_weights",
            "height_at",
            "is_affine_sphere",
            "radial_projection",
            "recover_cusp_from_shape",
            "shape_invariant",
            "sphere_local_maxima",
        ),
        "shape",
    ),
    **dict.fromkeys(
        (
            "Cubic2D",
            "CuspCoords3D",
            "classify_stratum_3d",
            "coords_from_shape",
            "decompose_cubic_2d",
            "shape_from_coords",
            "w_to_matrix",
        ),
        "dim3",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
