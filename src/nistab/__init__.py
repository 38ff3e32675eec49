"""nistab: stability analysis of negative-imaginary systems with free body
dynamics.

The package decides internal stability of positive-feedback loops between a
negative-imaginary plant (allowing single and double poles at the origin)
and a strictly-negative-imaginary controller, cross-checks every verdict
against a direct closed-loop eigenvalue test, and reproduces a slewing
flexible-arm benchmark end to end.
"""

__version__ = "0.1.0"

from .beamcase import (            # noqa: F401
    BeamParameters,
    beam_tf,
    d_of_s,
    emit_residue_scan,
    find_modal_roots,
    finite_dim_approx,
    modal_residue,
)
from .errors import NistabError    # noqa: F401
from .freebody import (            # noqa: F401
    Branch,
    LaurentCoefficients,
    MonteCarloReport,
    Outcome,
    StabilityVerdict,
    Theorem,
    VerdictOptions,
    build_f_matrix,
    direct_stability,
    laurent_coefficients,
    montecarlo_agreement,
    projector_p,
    random_ni_plant,
    random_sni_controller,
    stability_verdict,
    to_block_diagonal,
)
from .ircsynth import IrcController, make_irc  # noqa: F401
from .ltimodel import (            # noqa: F401
    ModalModel,
    SchurSplit,
    StateSpaceModel,
    closed_loop,
    eval_tf,
    freq_response,
    is_hurwitz,
    is_minimal,
    modal_to_ss,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    similarity_transform,
)
from .matrixcore import (          # noqa: F401
    Definiteness,
    DefinitenessKind,
    FullRankFactor,
    classify_definiteness,
    full_rank_factor,
)
from .niclass import (             # noqa: F401
    NiReport,
    SniReport,
    classify_ni,
    classify_sni,
    imaginary_axis_residue,
)
from .simcli import (              # noqa: F401
    AnalysisReport,
    SimulationResult,
    load_model,
    run_analysis,
    step_response,
)
