"""The top-level SMT out-of-order pipeline.

An execution-driven, cycle-level model of the Table 2 machine: per
cycle it commits (in order, per thread), writes back completed
operations (waking IQ consumers and resolving branches), issues from
the shared IQ through the configured scheduler, dispatches renamed
instructions under the configured resource-allocation/DVM constraints,
and fetches down (possibly wrong) predicted paths under the configured
SMT fetch policy.

Stage order within a cycle is reverse-pipeline (commit → writeback →
issue → dispatch → fetch) so instructions take at least one cycle per
stage and wakeup enables back-to-back dependent issue.

The pipeline implements the ``CoreView`` protocol consumed by fetch
policies and is the integration point of the paper's mechanisms: the
VISA scheduler (Section 2.1), dynamic IQ resource allocation
(Section 2.2, Figures 3–4) and DVM (Section 5, Figure 7).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import astuple, dataclass, field, fields
from operator import attrgetter
from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.config import MachineConfig, SimulationConfig
from repro.core.functional_units import FunctionalUnitPool, op_latency
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LoadStoreQueue
from repro.core.rename import RenameTable
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import IssueScheduler, make_scheduler
from repro.frontend.branch_predictor import BranchPredictor, PredictorState
from repro.frontend.fetch_policy import FetchPolicy, FlushPolicy, make_fetch_policy
from repro.isa.instruction import (
    BranchBehavior,
    DynInst,
    DynState,
    MemBehavior,
    OpClass,
)
from repro.isa.program import SyntheticProgram, ThreadContext
from repro.memory.hierarchy import MemoryHierarchy
from repro.reliability.ace import ACEAnalyzer
from repro.reliability.avf import AVFAccount, AVFBitLayout, Structure
from repro.reliability.dvm import DVMController
from repro.reliability.resource_alloc import (
    DispatchPolicy,
    IntervalSnapshot,
    UnlimitedDispatch,
)
from repro.telemetry.bus import EventBus
from repro.telemetry.metrics import MetricsRegistry, SnapshotValue
from repro.telemetry.profiler import StageProfiler
from repro.telemetry.provenance import RunManifest, collect_manifest
from repro.telemetry.topics import (
    TOPIC_COMMIT,
    TOPIC_DVM_RESTORE,
    TOPIC_DVM_THROTTLE,
    TOPIC_INTERVAL_CLOSE,
    TOPIC_RELIABILITY_DIVERGENCE,
    TOPIC_SQUASH,
)

#: Max threads fetched per cycle (ICOUNT.2.8-style front end).
_FETCH_THREADS_PER_CYCLE = 2

#: Opclass sets the functional warm-up tests by membership.
_MEM_OPS = frozenset(op for op in OpClass if op.is_mem)
_CONTROL_OPS = frozenset(op for op in OpClass if op.is_control)

#: Every ``self.*`` path ``_functional_warmup`` reads, mapped to the part
#: of :meth:`SMTPipeline.warm_key` that fixes it.  The memory hierarchy
#: and the predictor start empty, so their configs fix them.  A test
#: checks the effect analysis's read set of the walk against this
#: table: a new read fails it until the key has been reviewed.
WARM_KEY_READS: dict[str, str] = {
    "sim.bp_warmup_instructions": "bp_warmup_instructions",
    "contexts": "each thread's program content, seed and start point",
    "_iline_shift": "the l1i config",
    "mem": "the l1i/l1d/l2/itlb/dtlb configs",
    "bp": "the branch_predictor config and num_threads",
}

_MEM_FIELDS = attrgetter(*(f.name for f in fields(MemBehavior)))
_BRANCH_FIELDS = attrgetter(*(f.name for f in fields(BranchBehavior)))


def _walk_content(program: SyntheticProgram) -> tuple[object, ...]:
    """What the warm-up walk reads of a program image: its entry block
    and, per block, the fall-through and each instruction's pc, opclass,
    successors and memory/branch behaviour (not the profiled ACE hint)."""
    return (
        program.entry,
        tuple(
            (
                block.fall_block,
                tuple(
                    (
                        st.pc,
                        st.opclass,
                        st.taken_block,
                        st.fall_block,
                        None if st.mem is None else _MEM_FIELDS(st.mem),
                        None if st.branch is None else _BRANCH_FIELDS(st.branch),
                    )
                    for st in block.insts
                ),
            )
            for block in program.blocks
        ),
    )


WarmKey = tuple[object, ...]


@dataclass(frozen=True)
class WarmState:
    """The state the functional warm-up leaves, as immutable copies.

    ``contexts`` holds one ``ThreadContext.checkpoint()`` per thread,
    ``tags`` the L1I/L1D/L2/ITLB/DTLB tag arrays and ``predictor`` the
    PHT, histories, BTB and RASes.  Statistics are not kept: the
    warm-up's are discarded either way.
    """

    contexts: tuple[tuple[int, int, int, tuple[int, ...]], ...]
    tags: tuple[tuple[tuple[int, ...], ...], ...]
    predictor: PredictorState


class WarmMemo:
    """Post-warm-up states by :meth:`SMTPipeline.warm_key`, at most
    ``limit`` of them; the least recently used is evicted first."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.states: OrderedDict[WarmKey, WarmState] = OrderedDict()

    def get(self, key: WarmKey) -> WarmState | None:
        state = self.states.get(key)
        if state is not None:
            self.states.move_to_end(key)
        return state

    def put(self, key: WarmKey, state: WarmState) -> None:
        """Store the state of a key ``get`` missed."""
        self.states[key] = state
        if len(self.states) > self.limit:
            self.states.popitem(last=False)


@dataclass
class IntervalRecord:
    """Per-interval runtime statistics (one adaptation interval)."""

    index: int
    end_cycle: int
    committed: int
    per_thread_committed: tuple[int, ...]
    avg_ready_queue_len: float
    avg_waiting_queue_len: float
    l2_misses: int
    online_avf_estimate: float
    iq_limit: int
    online_rob_estimate: float = 0.0

    @property
    def ipc(self) -> float:
        return self.committed / max(1, self.cycles)

    cycles: int = 0


@dataclass
class SimulationResult:
    """Everything a run produced; the harness layers metrics on top."""

    cycles: int
    warmup_cycles: int
    interval_cycles: int
    committed: int
    per_thread_committed: tuple[int, ...]
    warm_committed: int
    warm_per_thread_committed: tuple[int, ...]
    intervals: list[IntervalRecord]
    iq_interval_avf: list[float]
    rob_interval_avf: list[float]
    overall_avf: dict[Structure, float]
    squashed: int
    flushes: int
    bp_accuracy: float
    l1d_miss_rate: float
    l2_miss_rate: float
    l2_misses: int
    ace_fraction: float
    ready_hist: npt.NDArray[np.int64] | None = None
    ready_hist_ace: npt.NDArray[np.float64] | None = None
    dvm_mean_ratio: float | None = None
    #: Run provenance (config hash, seed, git SHA, ...); excluded from
    #: comparison so results stay value-comparable across hosts/times.
    manifest: RunManifest | None = field(default=None, compare=False, repr=False)
    #: Flattened metrics-registry snapshot of the run.
    metrics: dict[str, SnapshotValue] | None = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def warm_cycles(self) -> int:
        return self.cycles - self.warmup_cycles

    @property
    def ipc(self) -> float:
        """Throughput IPC over the post-warm-up region."""
        return self.warm_committed / max(1, self.warm_cycles)

    @property
    def per_thread_ipc(self) -> tuple[float, ...]:
        return tuple(c / max(1, self.warm_cycles) for c in self.warm_per_thread_committed)

    @property
    def _warm_interval_start(self) -> int:
        return self.warmup_cycles // self.interval_cycles

    @property
    def warm_iq_interval_avf(self) -> list[float]:
        return self.iq_interval_avf[self._warm_interval_start:]

    @property
    def iq_avf(self) -> float:
        """Oracle IQ AVF averaged over post-warm-up intervals."""
        warm = self.warm_iq_interval_avf
        return float(np.mean(warm)) if warm else 0.0

    @property
    def max_iq_avf(self) -> float:
        warm = self.warm_iq_interval_avf
        return float(np.max(warm)) if warm else 0.0

    @property
    def max_online_estimate(self) -> float:
        """Maximum per-interval *online* (predicted-ACE-bit) AVF
        estimate — the hardware-observable counterpart of
        ``max_iq_avf``, used to express DVM targets in the units the
        controller actually measures."""
        start = self._warm_interval_start
        vals = [r.online_avf_estimate for r in self.intervals[start:]]
        return float(np.max(vals)) if vals else 0.0

    def pve(self, target_avf: float) -> float:
        """Percentage of vulnerability emergencies: the fraction of
        post-warm-up intervals whose oracle IQ AVF exceeds the target
        (Section 5.2)."""
        warm = self.warm_iq_interval_avf
        if not warm:
            return 0.0
        return float(np.mean([a > target_avf for a in warm]))

    # ------------------------------------------------------------------
    # ROB-DVM extension (the paper's suggested generalization)
    # ------------------------------------------------------------------
    @property
    def warm_rob_interval_avf(self) -> list[float]:
        return self.rob_interval_avf[self._warm_interval_start:]

    @property
    def rob_avf(self) -> float:
        warm = self.warm_rob_interval_avf
        return float(np.mean(warm)) if warm else 0.0

    @property
    def max_rob_avf(self) -> float:
        warm = self.warm_rob_interval_avf
        return float(np.max(warm)) if warm else 0.0

    @property
    def max_online_rob_estimate(self) -> float:
        start = self._warm_interval_start
        vals = [r.online_rob_estimate for r in self.intervals[start:]]
        return float(np.max(vals)) if vals else 0.0

    def pve_rob(self, target_avf: float) -> float:
        """PVE measured on the ROB's oracle interval AVF."""
        warm = self.warm_rob_interval_avf
        if not warm:
            return 0.0
        return float(np.mean([a > target_avf for a in warm]))


class _LapStamp:
    """Stamp of a profiled run: a new label laps the stage that just
    ran on the profiler, then stamps the bus."""

    __slots__ = ("_bus", "_profiler", "_running")

    def __init__(self, bus: EventBus, profiler: StageProfiler) -> None:
        self._bus = bus
        self._profiler = profiler
        self._running = ""

    @property
    def stage(self) -> str:
        return self._running

    @stage.setter
    def stage(self, label: str) -> None:
        if self._running:
            self._profiler.lap(self._running)
        self._running = label
        self._bus.stage = label


class SMTPipeline:
    """Cycle-level SMT processor simulation of one workload mix."""

    def __init__(
        self,
        programs: list[SyntheticProgram],
        machine: MachineConfig | None = None,
        sim: SimulationConfig | None = None,
        fetch_policy: str | FetchPolicy = "icount",
        scheduler: str | IssueScheduler = "oldest",
        dispatch_policy: DispatchPolicy | None = None,
        dvm: DVMController | None = None,
        dvm_structure: Structure = Structure.IQ,
        avf_layout: AVFBitLayout | None = None,
        bus: EventBus | None = None,
        profiler: StageProfiler | None = None,
        warm_memo: WarmMemo | None = None,
    ):
        if not programs:
            raise ValueError("at least one program (thread) is required")
        self.machine = (machine or MachineConfig()).replace(num_threads=len(programs))
        self.machine.validate()
        self.sim = sim or SimulationConfig()
        self.sim.validate()
        n = self.machine.num_threads
        rel = self.sim.reliability

        self.programs = programs
        self.contexts = [
            ThreadContext(p, seed=self.sim.seed * 7919 + t) for t, p in enumerate(programs)
        ]
        self.mem = MemoryHierarchy(self.machine)
        self.bp = BranchPredictor(self.machine.branch_predictor, n)
        self.fus = FunctionalUnitPool(self.machine)
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.base_fetch_policy = (
            make_fetch_policy(fetch_policy) if isinstance(fetch_policy, str) else fetch_policy
        )
        self._flush_policy = (
            self.base_fetch_policy
            if isinstance(self.base_fetch_policy, FlushPolicy)
            else FlushPolicy()
        )
        self.dispatch_policy = dispatch_policy or UnlimitedDispatch(self.machine.iq_size)
        self.dvm = dvm
        if dvm_structure not in (Structure.IQ, Structure.ROB):
            raise ValueError("DVM can govern the IQ or the ROB")
        self.dvm_structure = dvm_structure

        self.avf = AVFAccount(self.machine, rel.interval_cycles, avf_layout)
        self.analyzer = ACEAnalyzer(
            n,
            window_size=rel.ace_window,
            resolve_cb=self.avf.on_resolved,
            rf_cb=self.avf.on_rf_lifetime,
        )
        self.iq = IssueQueue(self.machine.iq_size, n, bits_of=self.avf.iq_bits_pred)
        self.robs = [ReorderBuffer(self.machine.rob_size_per_thread, t) for t in range(n)]
        self.lsqs = [LoadStoreQueue(self.machine.lsq_size_per_thread, t) for t in range(n)]
        self.rename = [RenameTable(t) for t in range(n)]
        self.fetch_q: list[deque[DynInst]] = [deque() for _ in range(n)]

        # Per-thread dynamic state.
        self.fetch_stall_until = [0] * n
        self._last_fetch_line = [-1] * n
        self._outstanding_l2 = [0] * n
        self._outstanding_l1d = [0] * n
        self.committed_per_thread = [0] * n

        # Global dynamic state.
        self.cycle = 0
        self._next_tag = 1
        self._wheel: dict[int, list[DynInst]] = {}
        self._pending_flushes: list[tuple[int, int]] = []
        self.total_committed = 0
        self.total_squashed = 0
        self.flush_count = 0
        self._iline_shift = self.machine.l1i.line_size.bit_length() - 1

        # Interval accumulators.
        self._int_committed = 0
        self._int_committed_pt = [0] * n
        self._int_rql_sum = 0
        self._int_wql_sum = 0
        self._int_l2_base = 0
        self._int_online_bit_cycles = 0
        self._sample_bit_cycles = 0
        self._sample_cycles = 0
        self.intervals: list[IntervalRecord] = []
        # ROB-DVM extension: running predicted-ACE bits resident in the
        # ROBs (maintained at dispatch/commit/squash).
        self.rob_pred_ace_bits = 0
        self._int_online_rob_bit_cycles = 0

        # Warm-up bookkeeping.
        self._warm_committed_pt = [0] * n

        # Optional ready-queue histogram (Figure 2).
        self._hist: npt.NDArray[np.int64] | None = None
        self._hist_ace: npt.NDArray[np.float64] | None = None
        if self.sim.collect_ready_queue_histogram:
            self._hist = np.zeros(self.machine.iq_size + 1, dtype=np.int64)
            self._hist_ace = np.zeros(self.machine.iq_size + 1, dtype=np.float64)

        self._sample_period = max(
            1, rel.interval_cycles // rel.dvm_samples_per_interval
        )

        # Telemetry: the event bus is shared with every controller so
        # their decisions carry the pipeline's cycle/stage stamps.
        self.bus = bus if bus is not None else EventBus()
        self.profiler = profiler
        # Where run() looks up and stores its post-warm-up state; None
        # walks every time.
        self.warm_memo = warm_memo
        self.warm_restored = False
        self.metrics = MetricsRegistry()
        if self.dvm is not None:
            self.dvm.bus = self.bus
            self.dvm.structure = "rob" if dvm_structure == Structure.ROB else "iq"
        self.dispatch_policy.bus = self.bus
        self.base_fetch_policy.bus = self.bus
        self._flush_policy.bus = self.bus
        self.avf.bus = self.bus
        self.analyzer.bus = self.bus
        # Hot-topic wants() flags, re-read only when the bus's
        # subscription version changes (zero-subscriber fast path).
        self._bus_version = -1
        self._want_commit = False
        self._want_squash = False
        self._want_throttle = False

    # ------------------------------------------------------------------
    # CoreView protocol (fetch policies observe the pipeline through it)
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return self.machine.num_threads

    def in_flight(self, tid: int) -> int:
        """ICOUNT metric: instructions in the front-end and the IQ."""
        return len(self.fetch_q[tid]) + self.iq.per_thread[tid]

    def outstanding_l2(self, tid: int) -> int:
        return self._outstanding_l2[tid]

    def outstanding_l1d(self, tid: int) -> int:
        return self._outstanding_l1d[tid]

    def request_flush(self, tid: int, after_tag: int) -> None:
        """FLUSH policy callback: flush ``tid``'s instructions younger
        than ``after_tag`` (deferred to the end of the issue stage)."""
        self._pending_flushes.append((tid, after_tag))

    # ------------------------------------------------------------------
    def active_fetch_policy(self) -> FetchPolicy:
        """Opt2 swaps in FLUSH while its miss trigger is armed."""
        if self.dispatch_policy.flush_mode:
            return self._flush_policy
        return self.base_fetch_policy

    # ==================================================================
    # Cycle stages
    # ==================================================================
    def _commit(self) -> None:
        budget = self.machine.commit_width
        n = self.num_threads
        start = self.cycle % n
        cycle = self.cycle
        emit_commit = self._want_commit
        bus = self.bus
        for i in range(n):
            t = (start + i) % n
            rob = self.robs[t]
            while budget > 0:
                head = rob.head()
                if head is None or head.state != DynState.COMPLETED:
                    break
                rob.commit_head()
                head.commit_cycle = cycle
                self.rob_pred_ace_bits -= self.avf.rob_bits_pred(head)
                op = head.opclass
                if op.is_mem:
                    self.lsqs[t].remove(head)
                    if op == OpClass.STORE and head.mem_addr >= 0:
                        self.mem.access_data(head.mem_addr, t, is_write=True)
                elif op == OpClass.BRANCH:
                    self.bp.update_direction(
                        head.pc, t, head.actual_taken, head.pred_taken,
                        idx=head.bp_index if head.bp_index >= 0 else None,
                    )
                    if head.actual_taken:
                        self.bp.btb_update(head.pc, head.static.taken_block)
                self.committed_per_thread[t] += 1
                self.total_committed += 1
                self._int_committed += 1
                self._int_committed_pt[t] += 1
                self.analyzer.commit(head, cycle)
                if emit_commit:
                    bus.emit(TOPIC_COMMIT, inst=head)
                budget -= 1

    def _writeback(self) -> None:
        events = self._wheel.pop(self.cycle, None)
        if not events:
            return
        events.sort(key=lambda i: i.tag)  # resolve older branches first
        policy = self.active_fetch_policy()
        for inst in events:
            if inst.state == DynState.SQUASHED:
                continue
            inst.state = DynState.COMPLETED
            inst.complete_cycle = self.cycle
            self.iq.wakeup(inst.tag, self.cycle)
            if inst.opclass == OpClass.LOAD:
                t = inst.thread
                if inst.l1_miss:
                    self._outstanding_l1d[t] -= 1
                if inst.l2_miss:
                    self._outstanding_l2[t] -= 1
                    if self._outstanding_l2[t] == 0:
                        policy.on_l2_return(self, t)
                policy.on_load_left(self, inst)
            if inst.mispredicted and inst.state != DynState.SQUASHED:
                self._recover_branch(inst)

    def _recover_branch(self, branch: DynInst) -> None:
        t = branch.thread
        self._squash_thread(t, branch.tag)
        ctx = self.contexts[t]
        assert branch.checkpoint is not None  # set at fetch for control insts
        ctx.restore(branch.checkpoint)
        ctx.advance_control(branch.static, branch.actual_taken, branch.actual_target)
        self._last_fetch_line[t] = -1
        self.fetch_stall_until[t] = max(
            self.fetch_stall_until[t],
            self.cycle + self.machine.branch_mispredict_penalty,
        )

    def _squash_thread(self, tid: int, after_tag: int) -> list[DynInst]:
        """Remove every in-flight instruction of ``tid`` younger than
        ``after_tag`` from the whole pipeline."""
        squashed: list[DynInst] = []
        policy = self.active_fetch_policy()
        fq = self.fetch_q[tid]
        while fq and fq[-1].tag > after_tag:
            inst = fq.pop()
            inst.state = DynState.SQUASHED
            squashed.append(inst)
        for inst in self.iq.squash_thread(tid, after_tag):
            inst.state = DynState.SQUASHED
            inst.iq_leave_cycle = self.cycle
            squashed.append(inst)
        # ROB walk (young-first) covers every dispatched instruction:
        # rename unwind, in-flight-load bookkeeping, consumer cleanup.
        for inst in self.robs[tid].squash_after(after_tag):
            if inst.state == DynState.ISSUED:
                if inst.opclass == OpClass.LOAD:
                    if inst.l1_miss:
                        self._outstanding_l1d[tid] -= 1
                    if inst.l2_miss:
                        self._outstanding_l2[tid] -= 1
                        if self._outstanding_l2[tid] == 0:
                            policy.on_l2_return(self, tid)
                    policy.on_load_left(self, inst)
                self.iq.drop_consumers(inst.tag)
            elif inst.state == DynState.COMPLETED:
                self.iq.drop_consumers(inst.tag)
            elif inst.state == DynState.DISPATCHED and inst.opclass == OpClass.LOAD:
                # Never issued, but PDG counted it at dispatch: release
                # its predicted-miss slot or the thread gates forever.
                policy.on_load_left(self, inst)
            # Every ROB-resident entry carried ROB counter bits.
            self.rob_pred_ace_bits -= self.avf.rob_bits_pred(inst)
            self.rename[tid].unwind(inst)
            if inst.state != DynState.SQUASHED:
                inst.state = DynState.SQUASHED
                squashed.append(inst)
        self.lsqs[tid].squash_after(after_tag)
        self.total_squashed += len(squashed)
        if self._want_squash:
            self.bus.emit(TOPIC_SQUASH, thread=tid, after_tag=after_tag, insts=squashed)
        return squashed

    def _do_flush(self, tid: int, after_tag: int) -> None:
        """FLUSH fetch policy: flush ``tid`` after the missing load and
        rewind the fetch point so the flushed instructions refetch."""
        squashed = self._squash_thread(tid, after_tag)
        if not squashed:
            return
        oldest = min(squashed, key=lambda i: i.tag)
        assert oldest.checkpoint is not None  # set at fetch for every inst
        self.contexts[tid].restore(oldest.checkpoint)
        self._last_fetch_line[tid] = -1
        self.flush_count += 1

    def _issue(self) -> None:
        self.fus.new_cycle()
        width = self.machine.issue_width
        if self.iq.ready:
            # Walk the full ready order lazily: instructions blocked on
            # a dry FU pool are skipped over until the issue width fills
            # or candidates exhaust.  A fixed over-selection window
            # (formerly width * 2) starves eligible younger entries
            # whenever more than the window is blocked on one FU kind.
            issued = 0
            try_issue = self.fus.try_issue
            for inst in self.scheduler.ready_order(self.iq):
                if inst.state != DynState.DISPATCHED:
                    continue
                if not try_issue(inst.opclass):
                    continue
                self._issue_one(inst)
                issued += 1
                if issued >= width:
                    break
        if self._pending_flushes:
            for tid, after_tag in self._pending_flushes:
                self._do_flush(tid, after_tag)
            self._pending_flushes.clear()

    def _issue_one(self, inst: DynInst) -> None:
        cycle = self.cycle
        self.iq.remove_issued(inst)
        inst.state = DynState.ISSUED
        inst.issue_cycle = cycle
        inst.iq_leave_cycle = cycle
        t = inst.thread
        op = inst.opclass
        policy = self.active_fetch_policy()
        if op == OpClass.LOAD:
            addr = self.contexts[t].mem_address(inst.static, inst.stream_pos)
            inst.mem_addr = addr
            if self.lsqs[t].can_forward(addr):
                latency = 1
            else:
                res = self.mem.access_data(addr, t)
                latency = res.latency
                if res.l1_miss:
                    inst.l1_miss = True
                    self._outstanding_l1d[t] += 1
                if res.l2_miss:
                    inst.l2_miss = True
                    self._outstanding_l2[t] += 1
                    policy.on_l2_miss(self, inst)
                    if self.dvm is not None:
                        self.dvm.on_l2_miss()
                policy.on_load_resolved(self, inst, res.l1_miss)
        elif op == OpClass.PREFETCH:
            addr = self.contexts[t].mem_address(inst.static, inst.stream_pos)
            inst.mem_addr = addr
            self.mem.access_data(addr, t)  # warms the caches, non-blocking
            latency = 1
        elif op == OpClass.STORE:
            addr = self.contexts[t].mem_address(inst.static, inst.stream_pos)
            inst.mem_addr = addr
            self.lsqs[t].note_store_address(inst)
            latency = 1  # address generation; data written at commit
        else:
            latency = op_latency(self.machine, op)
        inst.exec_latency = latency
        self._wheel.setdefault(cycle + latency, []).append(inst)

    def _dispatch(self) -> None:
        budget = self.machine.decode_width
        iql = self.dispatch_policy.iq_limit
        dvm = self.dvm
        if dvm is not None:
            self._update_dvm_restore()
        # ICOUNT-ordered dispatch.
        order = sorted(range(self.num_threads), key=lambda t: (self.in_flight(t), t))
        for t in order:
            fq = self.fetch_q[t]
            if not fq:
                continue
            if dvm is not None:
                if not dvm.allow_dispatch(t):
                    continue
                # While the response mechanism is armed, threads with an
                # outstanding L2 miss stop dispatching: their dependent
                # ACE bits would sit in the IQ for hundreds of cycles
                # (Section 5.1); the freed slots go to other threads.
                if dvm.triggered and self._outstanding_l2[t] > 0 and t != dvm.restore_thread:
                    if self._want_throttle:
                        self.bus.emit(
                            TOPIC_DVM_THROTTLE,
                            thread=t,
                            outstanding_l2=self._outstanding_l2[t],
                        )
                    continue
            rob = self.robs[t]
            lsq = self.lsqs[t]
            rename = self.rename[t]
            while budget > 0 and fq:
                if len(self.iq) >= iql or self.iq.free_entries <= 0:
                    return  # the shared IQ is the limit: nobody dispatches
                inst = fq[0]
                if rob.full:
                    break
                is_mem = inst.opclass.is_mem
                if is_mem and lsq.full:
                    break
                fq.popleft()
                rename.resolve_sources(inst)
                rename.set_dest(inst)
                rob.push(inst)
                self.rob_pred_ace_bits += self.avf.rob_bits_pred(inst)
                if is_mem:
                    lsq.push(inst)
                self.iq.insert(inst, self.cycle)
                if inst.opclass == OpClass.LOAD:
                    self.active_fetch_policy().on_load_dispatch(self, inst)
                budget -= 1

    def _update_dvm_restore(self) -> None:
        """Section 5.1: when all threads are stalled on L2 misses and
        the online AVF is back under the trigger threshold, restore
        dispatch for the thread with the fewest predicted-ACE
        instructions in its fetch queue."""
        dvm = self.dvm
        if dvm is None:
            return
        all_stalled = all(self._outstanding_l2[t] > 0 for t in range(self.num_threads))
        if all_stalled and dvm.restore_eligible:
            best_t: int | None = None
            best_ace: int | None = None
            for t in range(self.num_threads):
                ace = 0
                for inst in self.fetch_q[t]:
                    if inst.ace_pred:
                        ace += 1
                if best_ace is None or ace < best_ace:
                    best_t, best_ace = t, ace
            if best_t != dvm.restore_thread and self.bus.wants(TOPIC_DVM_RESTORE):
                self.bus.emit(TOPIC_DVM_RESTORE, thread=best_t, ace_count=best_ace)
            dvm.set_restore_thread(best_t)
        else:
            dvm.set_restore_thread(None)

    def _fetch(self) -> None:
        policy = self.active_fetch_policy()
        allowed = policy.select(self)
        budget = self.machine.fetch_width
        fq_cap = self.machine.fetch_queue_size
        threads_used = 0
        cycle = self.cycle
        for t in allowed:
            if budget <= 0 or threads_used >= _FETCH_THREADS_PER_CYCLE:
                break
            if cycle < self.fetch_stall_until[t]:
                continue
            fq = self.fetch_q[t]
            if len(fq) >= fq_cap:
                continue
            threads_used += 1
            ctx = self.contexts[t]
            taken_budget = 2  # fetch through up to two taken transfers
            while budget > 0 and len(fq) < fq_cap:
                st = ctx.peek()
                line = st.pc >> self._iline_shift
                if line != self._last_fetch_line[t]:
                    res = self.mem.access_instr(st.pc, t)
                    self._last_fetch_line[t] = line
                    if res.latency > self.machine.l1i.latency:
                        self.fetch_stall_until[t] = cycle + res.latency
                        break
                inst = DynInst(
                    tag=self._next_tag,
                    thread=t,
                    static=st,
                    stream_pos=ctx.stream_pos,
                )
                self._next_tag += 1
                inst.fetch_cycle = cycle
                inst.ace_pred = st.ace_hint
                inst.checkpoint = ctx.checkpoint()
                took_transfer = False
                if st.opclass.is_control:
                    took_transfer = self._fetch_control(inst, ctx, t)
                else:
                    ctx.advance()
                fq.append(inst)
                budget -= 1
                if took_transfer:
                    taken_budget -= 1
                    if taken_budget <= 0:
                        break

    def _fetch_control(self, inst: DynInst, ctx: ThreadContext, t: int) -> bool:
        """Predict and speculatively follow a control instruction.
        Returns True if fetch for this thread stops this cycle (a taken
        control transfer)."""
        st = inst.static
        op = st.opclass
        actual_taken, actual_target = ctx.resolve_control(st)
        inst.actual_taken = actual_taken
        inst.actual_target = actual_target
        if op == OpClass.BRANCH:
            pred_taken, inst.bp_index = self.bp.predict_direction(st.pc, t)
            # Direct branches: the target is available from decode, so a
            # BTB miss costs target-prediction stats but not direction
            # (Alpha-style decode repair; all synthetic branches are
            # direct).  The BTB is still exercised for its statistics.
            self.bp.btb_lookup(st.pc)
            pred_target = st.taken_block if pred_taken else st.fall_block
        elif op in (OpClass.JUMP, OpClass.CALL):
            pred_taken, pred_target = True, st.taken_block
            if op == OpClass.CALL:
                ret_block = st.fall_block
                self.bp.ras_push(t, ret_block if ret_block >= 0 else 0)
        else:  # RET
            pred_taken = True
            popped = self.bp.ras_pop(t)
            pred_target = popped if popped is not None else ctx.program.entry
        inst.pred_taken = pred_taken
        inst.pred_target = pred_target
        inst.mispredicted = (pred_taken != actual_taken) or (
            pred_taken and pred_target != actual_target
        )
        followed_target = pred_target if pred_taken else st.fall_block
        ctx.advance_control(st, pred_taken, followed_target)
        if pred_taken:
            self._last_fetch_line[t] = -1  # redirect: new fetch line
            return True
        return False

    # ==================================================================
    # Per-cycle bookkeeping
    # ==================================================================
    def _tick_stats(self) -> None:
        cycle = self.cycle
        rel = self.sim.reliability
        iq = self.iq
        rql = iq.ready_count
        self._int_rql_sum += rql
        self._int_wql_sum += iq.waiting_count
        self._int_online_bit_cycles += iq.pred_ace_bits
        self._int_online_rob_bit_cycles += self.rob_pred_ace_bits
        if self.dvm_structure == Structure.ROB:
            self._sample_bit_cycles += self.rob_pred_ace_bits
        else:
            self._sample_bit_cycles += iq.pred_ace_bits
        self._sample_cycles += 1
        if self._hist is not None and cycle >= self.sim.warmup_cycles:
            self._hist[rql] += 1
            self._hist_ace[rql] += iq.ready_pred_ace

        dvm = self.dvm
        if dvm is not None and cycle % rel.dvm_ratio_period == 0:
            dvm.recompute_ratio_gate(iq.waiting_count, iq.ready_count)
        if (cycle + 1) % self._sample_period == 0:
            est = self._sample_bit_cycles / (
                self._sample_cycles * self.avf.capacity_bits(self.dvm_structure)
            )
            if dvm is not None:
                dvm.on_sample(est)
            self._sample_bit_cycles = 0
            self._sample_cycles = 0
        if (cycle + 1) % rel.interval_cycles == 0:
            self._close_interval()

    def _close_interval(self) -> None:
        rel = self.sim.reliability
        cycles = rel.interval_cycles
        l2_now = self.mem.l2_miss_count
        snap = IntervalSnapshot(
            cycle=self.cycle + 1,
            committed=self._int_committed,
            cycles=cycles,
            avg_ready_queue_len=self._int_rql_sum / cycles,
            l2_misses=l2_now - self._int_l2_base,
        )
        self.dispatch_policy.on_interval(snap)
        capacity = self.avf.capacity_bits(Structure.IQ)
        rec = IntervalRecord(
            index=len(self.intervals),
            end_cycle=self.cycle + 1,
            cycles=cycles,
            committed=self._int_committed,
            per_thread_committed=tuple(self._int_committed_pt),
            avg_ready_queue_len=snap.avg_ready_queue_len,
            avg_waiting_queue_len=self._int_wql_sum / cycles,
            l2_misses=snap.l2_misses,
            online_avf_estimate=self._int_online_bit_cycles / (cycles * capacity),
            iq_limit=self.dispatch_policy.iq_limit,
            online_rob_estimate=(
                self._int_online_rob_bit_cycles
                / (cycles * self.avf.capacity_bits(Structure.ROB))
            ),
        )
        self.intervals.append(rec)
        self.metrics.histogram("interval.online_avf").observe(rec.online_avf_estimate)
        bus = self.bus
        if bus.wants(TOPIC_INTERVAL_CLOSE):
            bus.emit(
                TOPIC_INTERVAL_CLOSE,
                index=rec.index,
                end_cycle=rec.end_cycle,
                committed=rec.committed,
                ipc=rec.ipc,
                avg_ready_queue_len=rec.avg_ready_queue_len,
                avg_waiting_queue_len=rec.avg_waiting_queue_len,
                l2_misses=rec.l2_misses,
                online_avf_estimate=rec.online_avf_estimate,
                online_rob_estimate=rec.online_rob_estimate,
                iq_limit=rec.iq_limit,
            )
        self._int_committed = 0
        self._int_committed_pt = [0] * self.num_threads
        self._int_rql_sum = 0
        self._int_wql_sum = 0
        self._int_online_bit_cycles = 0
        self._int_online_rob_bit_cycles = 0
        self._int_l2_base = l2_now

    # ==================================================================
    def _functional_warmup(self) -> None:
        """Functionally fast-forward each thread through the branch
        predictor, caches and TLBs before timing begins — SimPoint
        semantics: the detailed simulation *continues from* the
        fast-forwarded point (the timed region is preceded, not
        pre-touched, by the warm-up region).

        Each thread is walked a basic block at a time: the straight-line
        body steps the context inline, and only a block's control
        terminator goes through ``resolve_control``/``advance_control``
        and the predictor.  The cache, TLB and predictor operations are
        the same, in the same order, as one ``peek``/``advance`` per
        instruction.  :meth:`_warm_up` then discards the statistics.
        """
        n_insts = self.sim.bp_warmup_instructions
        if n_insts <= 0:
            return
        iline_shift = self._iline_shift
        access_instr = self.mem.access_instr
        access_data = self.mem.access_data
        bp = self.bp
        store, branch, call, ret = OpClass.STORE, OpClass.BRANCH, OpClass.CALL, OpClass.RET
        for t, ctx in enumerate(self.contexts):  # advanced in place: timing continues here
            blocks = ctx.program.blocks
            mem_address = ctx.mem_address
            last_line = -1
            left = n_insts
            while left:
                block = blocks[ctx.block]
                insts = block.insts
                index = ctx.index
                pos = ctx.stream_pos
                term = insts[-1]
                body_end = len(insts)
                if term.opclass in _CONTROL_OPS:
                    body_end -= 1
                stop = min(body_end, index + left)
                for st in insts[index:stop]:
                    pc = st.pc
                    line = pc >> iline_shift
                    if line != last_line:
                        access_instr(pc, t)
                        last_line = line
                    op = st.opclass
                    if op in _MEM_OPS:
                        access_data(mem_address(st, pos), t, is_write=op is store)
                    pos += 1
                left -= stop - index
                ctx.stream_pos = pos
                if stop < body_end:  # the budget ends inside the body
                    ctx.index = stop
                    break
                if body_end == len(insts):  # no terminator: fall through
                    ctx.block = block.fall_block
                    ctx.index = 0
                    continue
                ctx.index = body_end
                if not left:
                    break
                pc = term.pc
                line = pc >> iline_shift
                if line != last_line:
                    access_instr(pc, t)
                    last_line = line
                op = term.opclass
                taken, target = ctx.resolve_control(term)
                if op is branch:
                    pred, idx = bp.predict_direction(pc, t)
                    bp.update_direction(pc, t, taken, pred, idx)
                    if taken:
                        bp.btb_update(pc, term.taken_block)
                elif op is call:
                    bp.ras_push(t, term.fall_block if term.fall_block >= 0 else 0)
                elif op is ret:
                    bp.ras_pop(t)
                ctx.advance_control(term, taken, target)
                left -= 1

    def warm_key(self) -> WarmKey:
        """Everything ``_functional_warmup`` reads (see
        :data:`WARM_KEY_READS`): equal keys walk to equal states."""
        m = self.machine
        return (
            tuple(
                (_walk_content(ctx.program), ctx.seed, ctx.checkpoint())
                for ctx in self.contexts
            ),
            self.sim.bp_warmup_instructions,
            m.num_threads,
            tuple(
                astuple(c)
                for c in (m.l1i, m.l1d, m.l2, m.itlb, m.dtlb, m.branch_predictor)
            ),
        )

    def warm_snapshot(self) -> WarmState:
        """Copy out the state the warm-up leaves."""
        return WarmState(
            contexts=tuple(ctx.checkpoint() for ctx in self.contexts),
            tags=self.mem.tag_state(),
            predictor=self.bp.state(),
        )

    def restore_warm(self, state: WarmState) -> None:
        """Copy ``state`` in, in place of a walk; no list is shared with it."""
        for ctx, cp in zip(self.contexts, state.contexts):
            ctx.restore(cp)
        self.mem.load_tag_state(state.tags)
        self.bp.load_state(state.predictor)
        self.warm_restored = True

    def _warm_up(self) -> None:
        """The warm-up phase of :meth:`run`: restore the memoized state
        of an equal :meth:`warm_key`, or walk and memoize it.  Without
        a memo it always walks."""
        memo = self.warm_memo
        if memo is None:
            self._functional_warmup()
        else:
            key = self.warm_key()
            state = memo.get(key)
            if state is None:
                self._functional_warmup()
                memo.put(key, self.warm_snapshot())
            else:
                self.restore_warm(state)
        self.bp.reset_stats()  # warm-up predictions don't count
        self.mem.reset_stats()  # warm-up accesses don't count

    def _stage_hooks(
        self,
    ) -> tuple[EventBus | _LapStamp, Callable[[int], None], Callable[[], None]]:
        """Choose, once per run, what the loop's stage stamps do.

        Returns ``(stamp, begin_cycle, end_loop)``: :meth:`run` sets
        ``stamp.stage`` before each stage, calls ``begin_cycle(cycle)``
        at the top of every cycle and ``end_loop()`` after the last.
        The default run labels the bus, stamps the cycle and re-reads
        the hot-topic flags when subscriptions change (so the
        zero-subscriber loop never rechecks them); a profiled run also
        laps the profiler on every label.
        """
        bus = self.bus
        profiler = self.profiler

        def stamp_cycle(cycle: int) -> None:
            bus.cycle = cycle
            if bus.version != self._bus_version:
                self._bus_version = bus.version
                self._want_commit = bus.wants(TOPIC_COMMIT)
                self._want_squash = bus.wants(TOPIC_SQUASH)
                self._want_throttle = bus.wants(TOPIC_DVM_THROTTLE)

        def clear_stage() -> None:
            bus.stage = ""

        if profiler is None:
            return bus, stamp_cycle, clear_stage
        laps = _LapStamp(bus, profiler)

        def lap_cycle(cycle: int) -> None:
            laps.stage = ""  # laps the previous cycle's last stage
            stamp_cycle(cycle)
            profiler.cycle_start()

        def lap_end() -> None:
            laps.stage = ""
            profiler.end_run()

        profiler.start_run()
        return laps, lap_cycle, lap_end

    def run(self) -> SimulationResult:
        """Simulate ``sim.max_cycles`` cycles and return the results.

        The loop body is the normative statement of per-cycle stage
        order (reverse-pipeline, see the module docstring) that
        ``backend-contract.json`` is extracted from: each
        ``stamp.stage = "<label>"`` is followed by the stage it labels.
        """
        self._warm_up()
        max_insts = self.sim.max_instructions
        warmup_cycles = self.sim.warmup_cycles
        stamp, begin_cycle, end_loop = self._stage_hooks()
        for cycle in range(self.sim.max_cycles):
            self.cycle = cycle
            if cycle == warmup_cycles:
                self._warm_committed_pt = list(self.committed_per_thread)
            begin_cycle(cycle)
            stamp.stage = "commit"
            self._commit()
            stamp.stage = "writeback"
            self._writeback()
            stamp.stage = "issue"
            self._issue()
            stamp.stage = "dispatch"
            self._dispatch()
            stamp.stage = "fetch"
            self._fetch()
            stamp.stage = "tick"
            self._tick_stats()
            if max_insts is not None and self.total_committed >= max_insts:
                break
        end_loop()
        final_cycle = self.cycle + 1
        if self.sim.warmup_cycles == 0:
            self._warm_committed_pt = [0] * self.num_threads
        self.analyzer.flush(final_cycle)
        self.avf.close(final_cycle)
        self._emit_divergence()
        return self._build_result(final_cycle)

    def _emit_divergence(self) -> None:
        """Publish the end-of-run online-vs-oracle comparison.

        One ``reliability.divergence`` event per closed interval per
        DVM-governable structure, once the oracle interval AVF is final
        (the oracle attributes retroactively, so this cannot stream).
        """
        bus = self.bus
        if not bus.wants(TOPIC_RELIABILITY_DIVERGENCE):
            return
        for structure, name in ((Structure.IQ, "iq"), (Structure.ROB, "rob")):
            oracle = self.avf.interval_avf(structure)
            for i, rec in enumerate(self.intervals):
                if i >= len(oracle):
                    break
                online = (
                    rec.online_avf_estimate
                    if structure is Structure.IQ
                    else rec.online_rob_estimate
                )
                bus.emit(
                    TOPIC_RELIABILITY_DIVERGENCE,
                    structure=name,
                    index=i,
                    end_cycle=rec.end_cycle,
                    oracle_avf=oracle[i],
                    online_estimate=online,
                    divergence=oracle[i] - online,
                )

    def _publish_metrics(self, final_cycle: int) -> None:
        """Publish every component's stats into the hierarchical
        registry — the single export surface replacing ad-hoc stat
        attribute spelunking across pipeline components."""
        m = self.metrics
        core = m.child("pipeline")
        core.counter("cycles").inc(final_cycle)
        core.counter("commit.total").inc(self.total_committed)
        for t, c in enumerate(self.committed_per_thread):
            core.counter(f"commit.thread{t}").inc(c)
        core.counter("squash.total").inc(self.total_squashed)
        core.counter("flush.count").inc(self.flush_count)
        core.counter("warmup.restored").inc(int(self.warm_restored))
        m.gauge("frontend.bp.accuracy").set(self.bp.stats.direction_accuracy)
        m.gauge("mem.l1d.miss_rate").set(self.mem.l1d.stats.miss_rate)
        m.gauge("mem.l2.miss_rate").set(self.mem.l2.stats.miss_rate)
        m.counter("mem.l2.misses").inc(self.mem.l2_miss_count)
        m.gauge("reliability.ace_fraction").set(self.analyzer.stats.ace_fraction)
        for s in Structure:
            m.gauge(f"reliability.avf.{s.name.lower()}").set(self.avf.overall_avf(s))
        m.gauge("dispatch.iq_limit").set(self.dispatch_policy.iq_limit)
        if self.dvm is not None:
            dvm = m.child("dvm")
            stats = self.dvm.stats
            dvm.counter("samples").inc(stats.samples)
            dvm.counter("triggered_samples").inc(stats.triggered_samples)
            dvm.counter("l2_triggers").inc(stats.l2_triggers)
            dvm.counter("throttled_dispatch_checks").inc(stats.throttled_dispatch_checks)
            dvm.counter("restore_grants").inc(stats.restore_grants)
            dvm.gauge("mean_ratio").set(stats.mean_ratio)
            dvm.gauge("wq_ratio").set(self.dvm.wq_ratio)
        if self.profiler is not None:
            prof = self.profiler.report()
            m.gauge("telemetry.cycles_per_sec").set(prof.cycles_per_sec)
            for stage, share in prof.shares().items():
                m.gauge(f"telemetry.stage_share.{stage}").set(share)

    def _build_result(self, final_cycle: int) -> SimulationResult:
        warm_pt = tuple(
            c - w for c, w in zip(self.committed_per_thread, self._warm_committed_pt)
        )
        bp_acc = self.bp.stats.direction_accuracy
        hist = self._hist.copy() if self._hist is not None else None
        hist_ace = self._hist_ace.copy() if self._hist_ace is not None else None
        self._publish_metrics(final_cycle)
        return SimulationResult(
            cycles=final_cycle,
            warmup_cycles=min(self.sim.warmup_cycles, final_cycle),
            interval_cycles=self.sim.reliability.interval_cycles,
            committed=self.total_committed,
            per_thread_committed=tuple(self.committed_per_thread),
            warm_committed=sum(warm_pt),
            warm_per_thread_committed=warm_pt,
            intervals=self.intervals,
            iq_interval_avf=self.avf.interval_avf(Structure.IQ),
            rob_interval_avf=self.avf.interval_avf(Structure.ROB),
            overall_avf={s: self.avf.overall_avf(s) for s in Structure},
            squashed=self.total_squashed,
            flushes=self.flush_count,
            bp_accuracy=bp_acc,
            l1d_miss_rate=self.mem.l1d.stats.miss_rate,
            l2_miss_rate=self.mem.l2.stats.miss_rate,
            l2_misses=self.mem.l2_miss_count,
            ace_fraction=self.analyzer.stats.ace_fraction,
            ready_hist=hist,
            ready_hist_ace=hist_ace,
            dvm_mean_ratio=(
                self.dvm.stats.mean_ratio if self.dvm is not None else None
            ),
            manifest=collect_manifest(self.machine, self.sim),
            metrics=self.metrics.snapshot(),
        )
