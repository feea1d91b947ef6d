"""Logic-network kernel: the mockturtle replacement.

Public surface:

* :class:`~repro.network.logic_network.LogicNetwork` — mutable DAG.
* :class:`~repro.network.gates.Gate` — gate alphabet (incl. T1 blocks).
* :class:`~repro.network.truth_table.TruthTable` — small function tables.
* cut enumeration, MFFC, NPN canonisation, simulation, CEC, cleanup.
"""

from repro.network.gates import CLOCKED_GATES, Gate, T1_TAPS, eval_gate, is_t1_tap
from repro.network.logic_network import CONST0, CONST1, LogicNetwork, fold_gate
from repro.network.nodemap import NodeMap
from repro.network.truth_table import (
    TruthTable,
    and3_tt,
    maj3_tt,
    or3_tt,
    xor3_tt,
)
from repro.network.traversal import (
    depth,
    levels,
    live_nodes,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from repro.network.simulation import (
    eval_int,
    exhaustive_pi_patterns,
    exhaustive_pi_patterns_chunk,
    random_patterns,
    simulate,
    simulate_exhaustive,
    simulate_pos,
    simulate_words,
)
from repro.network.cuts import (
    Cut,
    CutDatabase,
    cached_cut_database,
    enumerate_cuts,
)
from repro.network.mffc import MffcComputer, mffc
from repro.network.npn import (
    NpnTransform,
    match_against,
    npn_canon,
    npn_class_members,
    npn_equivalent,
    warm_tables,
)
from repro.network.balance import balance
from repro.network.cleanup import strash, sweep
from repro.network.isop import (
    Cube,
    cached_sop,
    clear_sop_cache,
    cover_table,
    isop,
    isop_interval,
    sop_cache_info,
    sop_gate_count,
    synthesize_sop,
)
from repro.network.transforms import refactor, to_aig_form
from repro.network.equivalence import (
    CecResult,
    assert_equivalent,
    check_equivalence,
    exhaustive_equivalence,
    sat_equivalence,
    signature_equivalence,
)

__all__ = [
    "CLOCKED_GATES",
    "CONST0",
    "CONST1",
    "CecResult",
    "Cube",
    "Cut",
    "balance",
    "cached_sop",
    "clear_sop_cache",
    "cover_table",
    "isop",
    "isop_interval",
    "refactor",
    "sop_cache_info",
    "sop_gate_count",
    "synthesize_sop",
    "to_aig_form",
    "CutDatabase",
    "Gate",
    "LogicNetwork",
    "MffcComputer",
    "NodeMap",
    "NpnTransform",
    "T1_TAPS",
    "TruthTable",
    "and3_tt",
    "assert_equivalent",
    "check_equivalence",
    "depth",
    "enumerate_cuts",
    "eval_gate",
    "eval_int",
    "fold_gate",
    "cached_cut_database",
    "exhaustive_equivalence",
    "exhaustive_pi_patterns",
    "exhaustive_pi_patterns_chunk",
    "is_t1_tap",
    "levels",
    "live_nodes",
    "maj3_tt",
    "match_against",
    "mffc",
    "npn_canon",
    "npn_equivalent",
    "or3_tt",
    "random_patterns",
    "npn_class_members",
    "warm_tables",
    "sat_equivalence",
    "signature_equivalence",
    "simulate",
    "simulate_exhaustive",
    "simulate_pos",
    "simulate_words",
    "strash",
    "sweep",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
    "xor3_tt",
]
