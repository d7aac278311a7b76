"""Pressure spectra of a geometric Lorenz semiflow model.

The package models the return dynamics of a singular hyperbolic
attractor as an expanding quotient map under a logarithmic roof, codes
it by kneading-admissible words, and computes: periodic orbits and SFT
horseshoes, invariant measures with exact-entropy representations,
topological pressure by transfer operator and separated sets,
equilibrium states, measures of any prescribed intermediate pressure,
and a singular bump potential whose pressure spectrum has a certified
gap with the Dirac measure at the singularity isolated on top.
"""

from .catalog import (CatalogRecipe, DEFAULT_RECIPE, GAP_CORE_RECIPE,
                      GAP_DEMONSTRATOR_RECIPE, HorseshoeSpec, build_catalog)
from .config import RunConfig, default_config, load_config, parse_config_text
from .errors import (BracketFailureError, ConfigError, DomainError,
                     EmptyHorseshoeError, EtaTooLargeError, GeolorenzError,
                     InadmissibleWordError, PreconditionError)
from .measures import (AtomicMeasure, ConvexMeasure, FlowMeasureStats,
                       MarkovMeasure, SingularDeltaMeasure, convex_combine,
                       entropy_map, integrate_many, integrate_map,
                       measure_from_payload, suspend)
from .model import (LorenzMap1D, ModelValidationReport, RoofFunction,
                    SkewProductReturnMap, evaluate_base, validate_model)
from .potentials import (ConstantPotential, CoordinatePotential,
                         SectionGridPotential, SingularBumpPotential,
                         parse_potential_spec)
from .pressure import (PressureEstimate, catalog_pressures,
                       equilibrium_measure, estimate_P_bounds, h_top_estimate,
                       pressure_measure, pressure_separated,
                       pressure_transfer)
from .spectrum import (GapReport, PressureSpectrumReport, TargetRequest,
                       build_gap_potential, gap_construction,
                       realize_intermediate, spectrum_scan, verify_gap)
from .symbolic import (KneadingPair, PeriodicOrbitRecord, SFTHorseshoe,
                       admissible_words, build_horseshoe, cylinder_levels,
                       enumerate_periodic, find_periodic_point, kneading,
                       lap_count, restrict_horseshoe, strongly_connected_components)

__version__ = "0.1.0"
