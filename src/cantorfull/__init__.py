"""Exact computation in topological full groups of one-dimensional subshifts.

Language engines (SFT / primitive substitution / Sturmian, and the
higher-block recoding of any of them), clopen-set algebra, locally constant
cocycle elements with certified bijectivity, the classical constructions
(first returns, towers, transport, finite generating sets, lamplighters),
orbit actions with the index homomorphism and LEF certificates, and the
numerical almost-invariance reports.
"""

from .words import Alphabet
from .caps import Caps
from .language import (LanguageEngine, SFTEngine, SubstitutionEngine,
                       SturmianEngine, RecodedEngine,
                       build_engine, sft_engine, substitution_engine,
                       sturmian_engine, recurrence_bound, max_gap,
                       proper_recode, sft_approximation)
from .closets import CloSet
from .elements import (Element, make_element,
                       make_semigroup_element, identity, shift, compose,
                       inverse, power, commutator, is_identity, equal, order,
                       support, element_image, ball_sizes,
                       canonical_dump, parse_dump)
from .constructions import (is_good, sigma_U, cylinder, SymmetricEmbedding,
                            first_return, TowerPartition,
                            kr_towers, rokhlin_base, GWTransport, gw_transport,
                            MatuiSet, matui_generators, matui_cylinder_sigma,
                            matui_by_recursion, matui_recursion_word,
                            qeqz_check, is_proper,
                            LamplighterPair, lamplighter_pair,
                            van_douwen_involutions, van_douwen_witness,
                            van_douwen_walk, HoughtonProfile,
                            houghton_engine_y, houghton_engine_y3,
                            houghton_profile, houghton_orbit_map)
from .actions import (WindowedPermutation, orbit_permutation, index_mod,
                      stabilizer_check, PutnamBlocks, putnam_blocks,
                      block_orbits, clopen_orbit, FiniteQuotientCert,
                      lef_certificate)
from .jm import (theta, correlation, hn_lower_bound, CorrelationReport,
                 decay_report, EventuallyTranslation, ReflectedView,
                 identity_view, translation_view, transposition_view)
from .parsing import Session, parse_subshift, load_engine
