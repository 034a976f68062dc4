"""The public names of ``lucentnet``, written out: adding or removing one
changes this list, so it shows in review."""

import types

import lucentnet

PUBLIC = [
    "BadIndices", "BoundednessResult", "CleanedNetInvalid", "Cluster", "ClusterDetail",
    "ClusterNotConnected", "ConflictPair", "ConstructionFailed", "CorpusIntegrityError",
    "DisentangledPath", "ExplorationLimits", "GeneratorParams", "GreedyCycle",
    "HomeClusterReport", "InvalidPath", "LucencyVerdict", "LucentNetError", "Marking",
    "NetDocument", "NetStructureError", "NodeNotFound", "NotEnabled", "NotEnabledAt",
    "ParseError", "Path", "PetriNet", "ReachabilityGraph", "ReferenceNet",
    "RequiresSafeMarking", "RootedPathResult", "ShortCircuitResult", "SuiteReport",
    "TheoremViolation", "UnboundednessWitness", "UndecidedError", "Verdict",
    "all_reference_nets", "bound_k", "build_report", "check_detection_equivalence",
    "check_lucency", "check_no_dominating", "check_pairwise_incomparable",
    "classify_dead_end", "clean",
    "connectivity", "dead_places", "dead_transitions", "derive_conflict_pair",
    "disentangle", "document_of", "emit_report", "enabled_transitions", "expedite",
    "expedited_member", "explore", "extended_cluster", "find_conflict_pairs",
    "find_home_clusters", "find_rooted_path", "fire", "fire_sequence", "generate",
    "home_markings", "is_deadlock_free", "is_disentangled", "is_enabled",
    "is_free_choice", "is_fully_transparent", "is_home_cluster_direct", "is_live",
    "is_live_and_bounded", "is_path", "is_perpetual", "is_proper", "is_safe",
    "is_transparent_marking", "mrk", "net_class", "parse_net", "run_theorem_suite",
    "sequence_enabled", "serialize_net", "short_circuit", "suite_nets",
    "support_closure", "verify_expedite_safe", "verify_path_safety",
    "verify_reference_net",
]


def test_public_names_are_the_listed_ones():
    # submodules are bound on the package as they get imported, so they are
    # not part of the list
    names = sorted(name for name, value in vars(lucentnet).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
