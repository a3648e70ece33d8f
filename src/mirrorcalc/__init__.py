"""Exact-arithmetic library for the closed-form invariants of the
quintic mirror family: mirror map and genus-one amplitude series,
Gromov-Witten bookkeeping, double-point torsion coefficients, lattice
covolumes, modular norms, and the explicit divisor factor on the
moduli line.
"""

from .series import (ExactSeries, SeriesError, TagMismatchError,
                     NonUnitError, CompositionError)
from .quintic import (MirrorChart, period_y0, mirror_map, f1_log_derivative,
                      picard_fuchs_check, DEFAULT_ORDER)
from .gw import (GWTable, lambert_series, eta_product_log_derivative,
                 extract_n1, extract_gv, instanton_numbers, genus0_pipeline,
                 ExtractionError)
from .schubert import count_lines
from .deltacoeff import delta, delta_row, lemma512_check
from .lattice import (CubicLattice, GramResult, PiScaled, l2_pairing,
                      covolume, fhsv_covolume, fhsv_volume,
                      fhsv_constant_check, rank1_update_det_check,
                      bareiss_det, enriques_invariant_gram, LatticeError)
from .modular import (eta_series, delta_series, petersson_delta,
                      fhsv_assemble, PeterssonValue)
from .divisor import (Point, FamilyData, WeightedDivisor, assemble_factor,
                      divisor_equal, quintic_normal_form, green_potential,
                      residue_balance_check, FamilyError)

__version__ = "0.1.0"
