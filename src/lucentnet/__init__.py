"""Lucency, transparency, and home-cluster analysis for marked Petri nets,
with an emphasis on proper free-choice nets."""

from .errors import (BadIndices, CleanedNetInvalid, ClusterNotConnected,
                     ConstructionFailed, CorpusIntegrityError, GreedyCycle,
                     InvalidPath, LucentNetError, NetStructureError,
                     NodeNotFound, NotEnabled, NotEnabledAt, ParseError,
                     RequiresSafeMarking, TheoremViolation, UndecidedError)
from .net import (Cluster, Marking, PetriNet, connectivity,
                  enabled_transitions, fire, fire_sequence, is_enabled,
                  is_free_choice, is_proper, mrk, net_class,
                  sequence_enabled)
from .reachability import (BoundednessResult, ExplorationLimits,
                           ReachabilityGraph, UnboundednessWitness, Verdict,
                           bound_k, dead_places, dead_transitions, explore,
                           home_markings, is_deadlock_free,
                           is_live, is_live_and_bounded, is_perpetual,
                           is_safe)
from .lucency import (ConflictPair, LucencyVerdict, check_lucency,
                      check_no_dominating, check_pairwise_incomparable,
                      derive_conflict_pair, find_conflict_pairs,
                      is_fully_transparent, is_transparent_marking)
from .paths import (DisentangledPath, Path, RootedPathResult, disentangle,
                    expedite, expedited_member, find_rooted_path,
                    is_disentangled, is_path, verify_expedite_safe,
                    verify_path_safety)
from .homecluster import (ClusterDetail, HomeClusterReport, ShortCircuitResult,
                          check_detection_equivalence, classify_dead_end, clean,
                          extended_cluster, find_home_clusters, is_home_cluster_direct,
                          short_circuit, support_closure)
from .corpus import (GeneratorParams, ReferenceNet, SuiteReport,
                     all_reference_nets, generate, run_theorem_suite,
                     suite_nets, verify_reference_net)
from .textio import NetDocument, document_of, parse_net, serialize_net
from .report import build_report, emit_report

__version__ = "0.1.0"
