"""Exact-arithmetic laboratory for measure-preserving transformations
of the unit interval: interval-set algebra, splinter decompositions,
Caratheodory-style density/gap probes, and a batch experiment harness.
"""

from .errors import (ErgolabError, IncompatibleBasisError, InvalidInputError,
                     RepresentationOverflowError,
                     UnsupportedRepresentationError, ComponentBudgetError,
                     InvalidTowerSetError, ConfigError, InvariantViolation)
from .scalars import (GOLDEN, ONE, SQRT2M1, ZERO, IrrationalTag, Scalar,
                      get_tag, parse_scalar, render)
from .intervals import (AT_ONE, AT_ZERO, EMPTY, FULL, Interval, IntervalSet,
                        ParityTail, arc, doubling_preimage, from_text,
                        make_set, odometer_preimage)
from .dynamics import (A_SET, Doubling, KakutaniTower, Odometer,
                       PreservationReport, Rotation, SetLike, TOWER_EMPTY,
                       TOWER_FULL, TowerSet, Transformation, make_system,
                       tower_preimage, verify_measure_preserving)
from .splinter import (BUDGET_EXHAUSTED, CONVERGED, CheckReport,
                       DEFAULT_COMPONENT_BUDGET, STALLED,
                       SplinterDecomposition, StepRecord, additivity_check,
                       splinter, trace_rows, transport_check,
                       verify_decomposition, verify_orbit_decomposition)
from .caratheodory import (GapReport, MeasureBasis, RESTRICTION_NOTICE,
                           arcs_basis, correlation_average, density_pair,
                           density_search, dyadic_basis, gap_theta,
                           invariance_check, mixing_trace, reduction_check)
from .randomsets import (random_interval_set, random_offset_set,
                         random_tower_set)
from .harness import (ARTIFACT_VERSION, ExperimentConfig, RunTrace,
                      demo_kakutani, emit_plot_data, parse_config, run)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
