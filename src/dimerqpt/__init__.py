"""Process-tensor tomography of an excitonic dimer from simulated
fluorescence-detected four-pulse signals."""

from .bath import (BathParams, ProcessTensor, RedfieldGenerator,
                   bose_occupation, build_redfield_generator,
                   propagate_process_tensor, spectral_density)
from .config import (ExperimentConfig, config_from_dict, config_to_dict,
                     default_config, load_config, save_config)
from .ensemble import (EnsembleSpec, evaluate_ensemble, run_ensemble,
                       sample_members, synthesize_signal_table)
from .errors import (ConfigError, DegenerateDimerError, DimerQptError,
                     SingularGeometryError, SingularToolboxError)
from .isoaverage import (MBlocks, build_m_blocks, iso_average_four,
                         params_to_tensor, pathway_index, solve_chi_blocks,
                         tensor_to_params)
from .model import (DIPOLE_LABELS, EXCITON_LABELS, DimerParams, ExcitonBasis,
                    build_exciton_basis, transition_dipoles)
from .pulses import (CMatrix, PulseToolbox, base_coefficient_matrix,
                     build_c_matrix, pulse_coefficient)
from .reconstruct import (ReconstructionReport, TensorDiagnostics,
                          choi_matrix, invert_signals, reconstruct,
                          reconstruct_rows, reconstruct_single,
                          validate_tensor, validate_tensors)
from .response import (PATHWAY_ORDER, SignalTable, iso_pathway_vector,
                       pathway_terms)

__version__ = "0.1.0"
