"""Two-level unitary compilation toolkit.

Exact Givens factorization of unitaries into two-level blocks, diagonal
synthesis from two-level phase rotations, Solovay-Kitaev approximation
over a finite SU(2) alphabet lifted through coordinate embeddings with a
certified operator-norm error, minimal-logarithm gate costs, and the
enumeration of embedding strata.
"""

from .compiler import (
    CompilationResult,
    LiftedLetter,
    LiftedWord,
    compile,
    compile_pure,
    lift_word,
    verify,
)
from .core import (
    DEFAULT_TOL,
    hs_norm,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
)
from .diagonal import (
    DiagonalUnitary,
    PhaseProgram,
    gamma_1j,
    phase_split,
    synth_full_diagonal,
    synth_special_diagonal,
)
from .embeddings import (
    TwoLevelFactor,
    embed_coordinate,
    embed_frame,
    tensor_place,
)
from .givens import Factorization, factor, reconstruct
from .sk import (
    BasicNet,
    GateSet,
    GateWord,
    build_net,
    evaluate_word,
    sk_approximate_with_error,
)
from .strata import (
    MultiplicityFamily,
    StratumInfo,
    enumerate_families,
    enumerate_strata,
    is_faithful,
    stratum_info,
    two_level_stratum_dim,
)
from .su2 import (
    MinLogResult,
    geodesic_energy,
    minlog_su2,
    minlog_u2,
    rot_x,
    rot_y,
    rot_z,
    rotation,
    split_phase_u2,
    su2_distance,
)

__version__ = "0.1.0"
