"""Library decomposition + structural cleanup (flow stage 1)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.network.cleanup import strash
from repro.network.logic_network import LogicNetwork
from repro.pipeline.context import FlowContext
from repro.sfq.cell_library import CellLibrary
from repro.sfq.mapping import decompose_to_library

#: source network -> (key, weak reference to its decomposition, snapshot
#: of that decomposition when built).  Several pipelines over one network
#: object (the three Table-I flows) share one decomposition.  Both ends
#: are weak, so the memo keeps nothing alive; and it lives here, not on
#: the network, so pickling a network for a worker carries nothing extra.
_SHARED: "weakref.WeakKeyDictionary[LogicNetwork, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _snapshot(net: LogicNetwork) -> tuple:
    """What :func:`decompose_to_library` reads of *net*.

    ``epoch`` covers the structure; PO bindings and names do not bump it,
    so they are compared directly (O(#PI + #PO)).
    """
    return (
        net.epoch,
        net.name,
        net.pos,
        net.po_names,
        tuple(net.get_name(pi) for pi in net.pis),
    )


def _decomposed(source: LogicNetwork, library: CellLibrary) -> LogicNetwork:
    """``strash(decompose_to_library(source))``, shared while unchanged.

    The result depends on the library only through its ``(gate, arity)``
    cell set.  It is reused while the source is unchanged, some flow
    still holds it and nothing has mutated it since it was built.
    """
    key = (_snapshot(source), frozenset(library.gate_cells))
    entry = _SHARED.get(source)
    if entry is not None and entry[0] == key:
        shared = entry[1]()
        if shared is not None and _snapshot(shared) == entry[2]:
            return shared
    work, _ = strash(decompose_to_library(source, library))
    _SHARED[source] = (key, weakref.ref(work), _snapshot(work))
    return work


@dataclass
class DecomposePass:
    """Normalise the network to the cell library and structurally hash it.

    Pipelines run over one network object share the result (see
    :func:`_decomposed`), so ``ctx.network`` after this pass may be the
    very object another flow's context holds: treat it as read-only.
    """

    name: str = "decompose"

    def run(self, ctx: FlowContext) -> FlowContext:
        work = _decomposed(ctx.network, ctx.library)
        ctx.network = work
        ctx.log(f"decompose: {work.num_gates()} gates after strash")
        return ctx


@dataclass
class BalancePass:
    """Depth-rebalance associative trees (optional, before detection).

    Depth equals DFFs in gate-level-pipelined SFQ, so rebalancing is an
    area optimisation here; insert it after ``decompose``, as
    ``Pipeline.standard(balance_network=True)`` does.
    """

    name: str = "balance"

    def run(self, ctx: FlowContext) -> FlowContext:
        from repro.network.balance import balance

        work, _ = balance(ctx.network)
        work, _ = strash(work)
        ctx.network = work
        ctx.log(f"balance: {work.num_gates()} gates after rebalancing")
        return ctx


@dataclass
class RefactorPass:
    """Cut-based MFFC refactoring (optional, before detection).

    Runs the :func:`~repro.network.transforms.refactor` rewrite kernel —
    resynthesise each node's best cut as an ISOP and accept rewrites
    that shrink the MFFC.  Area-reducing and equivalence-preserving;
    insert it after ``decompose`` (or ``balance``) with
    ``Pipeline.with_pass(RefactorPass(), after="decompose")``.
    """

    name: str = "refactor"
    cut_size: int = 4
    cuts_per_node: int = 8

    def run(self, ctx: FlowContext) -> FlowContext:
        from repro.network.transforms import refactor

        work, accepted = refactor(
            ctx.network,
            cut_size=self.cut_size,
            cuts_per_node=self.cuts_per_node,
        )
        ctx.network = work
        ctx.log(
            f"refactor: {accepted} rewrites accepted, "
            f"{work.num_gates()} gates"
        )
        return ctx
