"""Coupling analysis and information-content calculation for engineering
designs: classify design matrices (uncoupled / decoupled / coupled /
degenerate), measure how improbable it is that a realized design satisfies
its requirements (in bits), and propagate design-parameter uncertainty
forward through linear or simulated process models.
"""

from .coupling import (Coupled, Decoupled, Degenerate, Uncoupled, affected_frs,
                       binarize, classify, sequence)
from .distributions import Empirical, Normal, Pdf, RngState, Triangular, Uniform
from .errors import SimulationDivergence, SpecFormatError
from .info import (McConfig, SystemInfoReport, bits_from_probability,
                   conditional_chain_information, fr_information,
                   system_information_from_samples,
                   system_information_independent, system_information_joint)
from .model import (DesignParameter, DesignRange, DesignSpec, parse_spec,
                    validate_spec)
from .propagation import (LinearModel, SampleSet, ScenarioModel,
                          estimate_design_matrix, simulate_tank)
from .report import (classification_doc, info_doc, render_json, render_text,
                     spec_echo)
from .tank import TankConfig, tank_response

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Pdf", "Uniform", "Normal", "Triangular", "Empirical", "RngState",
    # spec model
    "DesignRange", "DesignParameter", "DesignSpec", "parse_spec",
    "validate_spec",
    # coupling
    "Uncoupled", "Decoupled", "Coupled", "Degenerate", "classify", "binarize",
    "sequence", "affected_frs",
    # information content
    "McConfig", "SystemInfoReport", "bits_from_probability", "fr_information",
    "system_information_independent", "system_information_joint",
    "system_information_from_samples", "conditional_chain_information",
    # propagation
    "SampleSet", "LinearModel", "ScenarioModel",
    "estimate_design_matrix", "simulate_tank",
    "TankConfig", "tank_response",
    # reports
    "render_json", "render_text", "classification_doc", "info_doc",
    "spec_echo",
    # errors
    "SpecFormatError", "SimulationDivergence",
]
