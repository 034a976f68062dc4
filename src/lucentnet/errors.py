"""Exception types shared across the package."""


class LucentNetError(Exception):
    """Base class for every error raised by this package."""


class NetStructureError(LucentNetError):
    """The net definition violates a structural invariant (bad identifiers,
    dangling or duplicate arcs, overlapping node sets, disconnected graph).
    ``nodes`` holds the nodes a disconnected graph leaves out, sorted."""

    def __init__(self, message, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class NodeNotFound(LucentNetError):
    """An operation referenced a place or transition the net does not have."""


class NotEnabled(LucentNetError):
    """A transition was fired (or required enabled) while disabled."""


class NotEnabledAt(NotEnabled):
    """A firing sequence hit a disabled transition; carries the 0-based index."""

    def __init__(self, index, transition, message=None):
        self.index = index
        self.transition = transition
        super().__init__(message or f"step {index} ({transition}) is not enabled")


class BadIndices(LucentNetError):
    """Positions passed to a sequence-rewriting operation are out of range
    or not strictly increasing."""


class InvalidPath(LucentNetError):
    """A node sequence is not a path of the net, or violates a path
    operation's preconditions."""


class RequiresSafeMarking(LucentNetError):
    """The operation is only defined for safe (set-like) markings."""


class GreedyCycle(LucentNetError):
    """The greedy conflict-pair construction revisited a marking pair."""


class ConstructionFailed(LucentNetError):
    """A derived object failed its independent verification; usually means
    an input net violates the assumptions the construction relies on."""


class ClusterNotConnected(LucentNetError):
    """The cluster is not fully reachable from the initially marked places,
    so it does not survive cleaning and cannot be short-circuited."""


class CleanedNetInvalid(LucentNetError):
    """Restricting the net to the reachable nodes left no valid net."""


class TheoremViolation(LucentNetError):
    """Two analyses that are provably equivalent disagreed.  This is never
    resolved silently; it indicates a bug or a violated assumption."""


class UndecidedError(LucentNetError):
    """The answer requires a complete state-space exploration and the
    exploration was truncated (or detected unboundedness)."""


class CorpusIntegrityError(LucentNetError):
    """A bundled reference net failed one of its load-time checkpoints."""


class ParseError(LucentNetError):
    """A net document failed to parse; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
