"""Exact-arithmetic laboratory for threshold networks with one analog unit.

Every number is an exact rational, held as a Fraction or as an integer pair,
never a float: network simulation, the online word protocol, the
threshold-reversal acceptors, analog-state interval partitions, quotient
networks, compiled transition tables, and the two-letter reduction front end.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AnetError,
    DigitLimitError,
    QueryGapError,
    ResourceBudgetError,
    UsageError,
    ValidationError,
)
from .rationals import (
    HalfLinePair,
    Interval,
    IntervalPartition,
    format_rational,
    parse_rational,
    partition_from_pairs,
    rational,
)
from .network import (
    Configuration,
    Network,
    load_network,
    load_network_path,
    make_network,
    network_from_text,
    network_to_text,
    save_network,
    save_network_path,
)
from .protocol import (
    Alphabet,
    RunTrace,
    accepts,
    compare_languages,
    enumerate_language,
    run_online,
    trace_tsv,
)
from .cutlang import (
    CutParams,
    QpOutcome,
    build_cut_acceptor,
    cut_member,
    cut_params,
    qp_explore,
    rational_cbrt,
    reversal_member,
)
from .partition import (
    ExtrapolationTable,
    PartitionResult,
    build_partition_exhaustive,
    build_partition_refined,
    endpoint_bound,
    extrapolation_table,
)
from .quotient import (
    FIRST_MINUS_SECOND,
    SECOND_MINUS_FIRST,
    QuotientBuild,
    QuotientSpec,
    build_quotient_network,
    quotient_difference_language,
)
from .mealy import (
    CompiledLayout,
    MealyMachine,
    accepts_word,
    compile_mealy,
    load_machine_path,
    machine_from_tsv,
    run_mealy,
)
from .reduction import (
    ReductionBuild,
    ReductionSpec,
    build_reduction,
    load_reduction_spec,
    pad_words,
    word_scheme,
)

__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
