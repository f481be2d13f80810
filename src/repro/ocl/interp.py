"""Functional (work-item level) interpreter for the kernel IR.

This is the reference executor: it runs a kernel over an NDRange with
OpenCL semantics and bit-faithful arithmetic (int32 wraparound, float32
rounding after every operation), so its outputs can be compared both
against each benchmark's numpy reference *and* against the Vortex
cycle-level simulator, which executes the same kernels from machine code.

Each call decodes the kernel once before running it (:class:`_Program`):

* every value gets an index into one per-item slot list; constants,
  scalar parameters and buffers are preloaded, LOCAL arrays are
  allocated per work-group and PRIVATE arrays per work item;
* every non-terminator becomes a closure specialised by opcode and
  operand slots;
* every block becomes a :class:`_BlockCode` holding its closures split
  at barriers, its terminator's condition slot and targets, and the phi
  moves of each outgoing edge, resolved against that edge (phis still
  evaluate in parallel against the edge taken).

Dynamic op counts are kept per block visit, one list cell per block, and
multiplied by each block's static opcode histogram at the end.

Work-group barriers are honoured by running each work item as a Python
generator that yields at BARRIER; the group scheduler advances all items
in lock-step between barriers and raises on barrier divergence (which is
undefined behaviour in OpenCL, and a real bug in a benchmark).
"""

from __future__ import annotations

import math
import operator
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import InterpreterError, RuntimeLaunchError
from ..profiling import Profiler, ensure_profiler
from .ir import Block, Const, Instr, Kernel, LocalArray, Opcode, Value
from .ndrange import NDRange
from .types import BOOL, FLOAT32, INT32, AddressSpace, is_pointer

_UINT_MASK = 0xFFFFFFFF
_F32 = struct.Struct("f")
_f32_pack = _F32.pack
_f32_unpack = _F32.unpack


def wrap32(x: int) -> int:
    """Wrap a Python int to signed 32-bit two's complement."""
    return ((int(x) + 2**31) & _UINT_MASK) - 2**31


def f32(x: float) -> float:
    """Round a Python float to IEEE-754 binary32 (as Python float)."""
    try:
        return _f32_unpack(_f32_pack(x))[0]
    except OverflowError:  # rounds to +-inf; struct refuses, numpy does not
        return float(np.float32(x))


@dataclass
class RunResult:
    """Output of an interpreter run (buffers are mutated in place)."""

    printf_output: list[str] = field(default_factory=list)
    op_counts: Counter = field(default_factory=Counter)
    items_executed: int = 0
    barriers_executed: int = 0

    @property
    def dynamic_instructions(self) -> int:
        return sum(self.op_counts.values())


def _check_args(kernel: Kernel, args: list[Any]) -> None:
    if len(args) != len(kernel.params):
        raise RuntimeLaunchError(
            f"kernel {kernel.name} expects {len(kernel.params)} args, "
            f"got {len(args)}"
        )
    for param, arg in zip(kernel.params, args):
        if is_pointer(param.ty):
            if not isinstance(arg, np.ndarray) or arg.ndim != 1:
                raise RuntimeLaunchError(
                    f"arg {param.name!r} must be a 1-D numpy array"
                )
            want = np.int32 if param.ty.element is INT32 else np.float32
            if arg.dtype != want:
                raise RuntimeLaunchError(
                    f"arg {param.name!r}: dtype {arg.dtype} != {np.dtype(want)}"
                )
        else:
            if isinstance(arg, np.ndarray):
                raise RuntimeLaunchError(
                    f"arg {param.name!r} is scalar but got an array"
                )


def interpret(
    kernel: Kernel,
    args: list[Any],
    ndrange: NDRange,
    max_steps_per_item: int = 2_000_000,
    profiler: Profiler | None = None,
) -> RunResult:
    """Execute ``kernel`` over ``ndrange``; mutates buffer args in place.

    When ``profiler`` is enabled, records the kernel's dynamic op mix,
    barrier counts and per-work-group spans on a timeline measured in
    dynamic instruction steps (the interpreter has no cycle clock).
    """
    _check_args(kernel, args)
    result = RunResult()
    prof = ensure_profiler(profiler)
    program = _Program(kernel, args, ndrange, result.printf_output)

    for group in ndrange.groups():
        if prof.enabled:
            steps_before = program.steps_executed()
            barriers_before = result.barriers_executed
        _run_group(program, ndrange, group, result, max_steps_per_item)
        if prof.enabled:
            steps_after = program.steps_executed()
            prof.complete(
                f"group {group}", "interp.group",
                ts=steps_before, dur=steps_after - steps_before,
                pid=0, tid=0,
                args={"barriers": result.barriers_executed - barriers_before},
            )
    result.op_counts = program.op_counts()
    if prof.enabled:
        _record_run(prof, kernel, ndrange, result)
    return result


def _record_run(prof: Profiler, kernel: Kernel, ndr: NDRange,
                result: RunResult) -> None:
    """Fold one interpreter run into profiler counters."""
    prof.name_process(0, f"interpreter: {kernel.name}")
    prof.name_thread(0, 0, "work-groups (timeline = dynamic instructions)")
    prof.count("interp.items_executed", result.items_executed)
    prof.count("interp.barriers_executed", result.barriers_executed)
    prof.count("interp.dynamic_instructions", result.dynamic_instructions)
    prof.count("interp.groups", len(list(ndr.groups())))
    if result.items_executed:
        prof.count("interp.steps_per_item",
                   result.dynamic_instructions / result.items_executed)
    for op, n in result.op_counts.items():
        prof.count(f"interp.op.{op.value}", n)


def _run_group(
    program: "_Program",
    ndr: NDRange,
    group: tuple[int, int, int],
    result: RunResult,
    max_steps: int,
) -> None:
    template = program.template
    for slot, size, dtype in program.local_arrays:
        template[slot] = np.zeros(size, dtype=dtype)

    gens: list[Iterator[None]] = []
    for local in ndr.local_items():
        gid = ndr.global_id(group, local)
        regs = template.copy()
        regs[:_FIRST_FREE_SLOT] = gid + local + group
        for slot, size, dtype in program.private_arrays:
            regs[slot] = np.zeros(size, dtype=dtype)
        gens.append(program.run_item(regs, gid, max_steps))
        result.items_executed += 1

    # Lock-step between barriers.
    active = list(range(len(gens)))
    while active:
        at_barrier: list[int] = []
        done: list[int] = []
        for idx in active:
            try:
                next(gens[idx])
                at_barrier.append(idx)
            except StopIteration:
                done.append(idx)
        if at_barrier and done:
            raise InterpreterError(
                f"kernel {program.kernel.name}: barrier divergence in group "
                f"{group} ({len(at_barrier)} items at a barrier, "
                f"{len(done)} returned)"
            )
        if at_barrier:
            result.barriers_executed += 1
        active = at_barrier


# ---------------------------------------------------------------------------
# Decoding.
# ---------------------------------------------------------------------------

#: Slots 0-8 of every item hold its global id, local id and group id.
_GID_SLOT, _LID_SLOT, _GROUP_SLOT, _FIRST_FREE_SLOT = 0, 3, 6, 9

_Op = Callable[[list], None]
_Edge = tuple["_BlockCode", "_Op | None"]


class _BlockCode:
    """One decoded basic block.

    ``segments`` are the block's non-phi, non-terminator closures split at
    its barriers (one segment when it has none); ``segment_ops`` the
    opcodes each segment counts, in program order (the first also counts
    the phis, the last the terminator). ``steps`` is the number of steps
    one visit takes: every non-phi instruction, barriers and the
    terminator included. A CBR tests slot ``cond`` and takes
    ``edges[0]`` or ``edges[1]``; a BR has one edge; RET has none. Each
    edge pairs the successor with the closure that runs its phi moves.
    """

    __slots__ = ("index", "name", "segments", "segment_ops", "seen",
                 "steps", "size", "histogram", "cond", "edges", "returns")

    def __init__(self, index: int, block: Block):
        self.index = index
        self.name = block.name
        self.cond: int | None = None
        self.edges: tuple[_Edge, ...] = ()
        self.returns = False


class _Program:
    """A kernel lowered for one :func:`interpret` call."""

    def __init__(self, kernel: Kernel, args: list[Any], ndr: NDRange,
                 printf_output: list[str]):
        self.kernel = kernel
        self.ndr = ndr
        self.printf_output = printf_output
        self.template: list[Any] = [None] * _FIRST_FREE_SLOT
        self.slots: dict[int, int] = {}
        self.local_arrays: list[tuple[int, int, type]] = []
        self.private_arrays: list[tuple[int, int, type]] = []
        for param, arg in zip(kernel.params, args):
            if is_pointer(param.ty):
                value = arg
            elif param.ty is FLOAT32:
                value = f32(arg)
            elif param.ty is BOOL:
                value = bool(arg)
            else:
                value = wrap32(arg)
            self.template.append(value)
            self.slots[id(param)] = len(self.template) - 1
        for arr in kernel.arrays:
            dtype = np.int32 if arr.ty.element is INT32 else np.float32
            owner = (self.private_arrays if arr.space is AddressSpace.PRIVATE
                     else self.local_arrays)
            owner.append((self.slot(arr), arr.size, dtype))

        self.blocks: list[_BlockCode] = []
        self._code: dict[int, _BlockCode] = {}
        entry = self._block(kernel.entry)
        self.entry: _Edge = (entry, self._phi_moves(None, kernel.entry))
        # Decode every block reachable from the entry.
        decoded = {id(kernel.entry)}
        pending = [kernel.entry]
        while pending:
            for succ in self._decode_block(pending.pop()):
                if id(succ) not in decoded:
                    decoded.add(id(succ))
                    pending.append(succ)
        self.visits = [0] * len(self.blocks)
        #: segment opcode lists in the order they first ran, so the final
        #: Counter lists opcodes in the order they were first executed.
        self.first_seen: list[list[Opcode]] = []

    # -- slots -------------------------------------------------------------

    def slot(self, v: Value) -> int:
        """The slot holding ``v``, allocated (and preloaded) on first use."""
        key = id(v)
        slot = self.slots.get(key)
        if slot is not None:
            return slot
        if isinstance(v, Const):
            init = f32(v.value) if v.ty is FLOAT32 else v.value
        elif isinstance(v, (Instr, LocalArray)):
            init = None  # defined when run / allocated per group or item
        else:  # pragma: no cover - params are preloaded
            raise InterpreterError(f"unknown value kind: {v!r}")
        self.template.append(init)
        slot = self.slots[key] = len(self.template) - 1
        return slot

    # -- blocks ------------------------------------------------------------

    def _block(self, block: Block) -> _BlockCode:
        code = self._code.get(id(block))
        if code is None:
            code = self._code[id(block)] = _BlockCode(len(self.blocks), block)
            self.blocks.append(code)
        return code

    def _decode_block(self, block: Block) -> list[Block]:
        """Fill ``block``'s record; return its successors."""
        code = self._block(block)
        nphis = sum(1 for _ in block.phis())
        segments: list[list[_Op]] = [[]]
        segment_ops: list[list[Opcode]] = [[Opcode.PHI] * nphis]
        term: Instr | None = None
        for ins in block.non_phis():
            segment_ops[-1].append(ins.op)
            if ins.op is Opcode.BARRIER:
                segments.append([])
                segment_ops.append([])
            elif ins.is_terminator:
                term = ins
                break
            else:
                segments[-1].append(_compile(self, ins))
        code.segments = [tuple(seg) for seg in segments]
        code.segment_ops = segment_ops
        code.seen = [False] * len(segments)
        code.steps = sum(len(ops) for ops in segment_ops) - nphis
        code.size = code.steps + nphis
        code.histogram = list(Counter(
            op for ops in segment_ops for op in ops).items())
        if term is None:
            return []
        if term.op is Opcode.RET:
            code.returns = True
            return []
        if term.op is Opcode.CBR:
            code.cond = self.slot(term.args[0])
        code.edges = tuple((self._block(t), self._phi_moves(block, t))
                           for t in term.targets)
        return term.targets

    def _phi_moves(self, pred: Block | None, block: Block) -> _Op | None:
        """The closure running ``block``'s phis for the edge from ``pred``
        (None: the kernel entry), or None when ``block`` has no phis."""
        dsts: list[int] = []
        srcs: list[int] = []
        for phi in block.phis():
            for incoming, val in phi.attrs["incomings"]:
                if incoming is pred:
                    dsts.append(self.slot(phi))
                    srcs.append(self.slot(val))
                    break
            else:
                message = (
                    f"{self.kernel.name}/{block.name}: phi %{phi.name} has "
                    f"no incoming for predecessor "
                    f"{pred.name if pred else '<entry>'}"
                )

                def missing(r):
                    raise InterpreterError(message)
                return missing
        if not dsts:
            return None
        if len(dsts) == 1:
            (d,), (s,) = dsts, srcs

            def move(r):
                r[d] = r[s]
            return move

        def moves(r):
            vals = [r[s] for s in srcs]
            for d, v in zip(dsts, vals):
                r[d] = v
        return moves

    # -- execution -----------------------------------------------------------

    def run_item(self, r: list[Any], gid: tuple[int, int, int],
                 max_steps: int) -> Iterator[None]:
        """Run one work item over its slot list ``r``, yielding at each
        barrier. A block visit that fits under ``max_steps`` runs whole;
        one that would cross it steps instruction by instruction so the
        limit raises at the same instruction."""
        visits = self.visits
        first_seen = self.first_seen
        steps = 0
        blk, move = self.entry
        while True:
            if move is not None:
                move(r)
            b = blk.index
            if not visits[b]:
                first_seen.append(blk.segment_ops[0])
            visits[b] += 1
            segments = blk.segments
            if steps + blk.steps <= max_steps:
                steps += blk.steps
                for f in segments[0]:
                    f(r)
                for k in range(1, len(segments)):
                    yield
                    self._mark_seen(blk, k)
                    for f in segments[k]:
                        f(r)
            else:
                for k, segment in enumerate(segments):
                    if k:
                        steps += 1  # the barrier ending segment k - 1
                        if steps > max_steps:
                            self._step_limit(gid, max_steps)
                        yield
                        self._mark_seen(blk, k)
                    for f in segment:
                        steps += 1
                        if steps > max_steps:
                            self._step_limit(gid, max_steps)
                        f(r)
                steps += 1  # the terminator
                if steps > max_steps:
                    self._step_limit(gid, max_steps)
            cond = blk.cond
            if cond is not None:
                blk, move = blk.edges[0] if r[cond] else blk.edges[1]
            elif blk.edges:
                blk, move = blk.edges[0]
            elif blk.returns:
                return
            else:  # pragma: no cover - validator guarantees a terminator
                raise InterpreterError(f"block {blk.name} fell through")

    def _mark_seen(self, blk: _BlockCode, k: int) -> None:
        if not blk.seen[k]:
            blk.seen[k] = True
            self.first_seen.append(blk.segment_ops[k])

    def _step_limit(self, gid: tuple[int, int, int], max_steps: int):
        raise InterpreterError(
            f"kernel {self.kernel.name}: work item {gid} exceeded "
            f"{max_steps} steps (runaway loop?)"
        )

    # -- counts ------------------------------------------------------------

    def steps_executed(self) -> int:
        """Dynamic instructions (phis included) of all finished visits."""
        return sum(v * blk.size for v, blk in zip(self.visits, self.blocks))

    def op_counts(self) -> Counter:
        """Per-opcode dynamic counts: visits times static histograms, keyed
        in the order each opcode first ran."""
        totals: Counter = Counter()
        for v, blk in zip(self.visits, self.blocks):
            if v:
                for op, n in blk.histogram:
                    totals[op] += v * n
        counts: Counter = Counter()
        for ops in self.first_seen:
            for op in ops:
                if op not in counts:
                    counts[op] = totals[op]
        return counts


# ---------------------------------------------------------------------------
# Instruction closures. Each takes the item's slot list and stores its
# result into the instruction's slot. The hottest opcodes get closures of
# their own; the rest apply a plain function of the operand values
# (``_PURE``, ``_LOGICAL`` / ``_BITWISE``, ``_COMPARE``).
# ---------------------------------------------------------------------------

def _fdiv(x, y):
    if y == 0.0:
        return f32(math.inf if x > 0 else -math.inf) if x != 0 \
            else f32(math.nan)
    return f32(x / y)


def _exp(x):
    try:
        return f32(math.exp(x))
    except OverflowError:
        return f32(math.inf)


def _log(x):
    if x < 0:
        return f32(math.nan)
    if x == 0:
        return f32(-math.inf)
    return f32(math.log(x))


def _pow(x, y):
    try:
        return f32(math.pow(x, y))
    except (ValueError, OverflowError):
        return f32(math.nan)


_PURE: dict[Opcode, Callable[..., Any]] = {
    Opcode.SHL: lambda x, y: wrap32(x << (y & 31)),
    Opcode.ASHR: lambda x, y: wrap32(x >> (y & 31)),
    Opcode.LSHR: lambda x, y: wrap32((x & _UINT_MASK) >> (y & 31)),
    Opcode.IMIN: min,
    Opcode.IMAX: max,
    Opcode.IABS: lambda x: wrap32(abs(x)),
    Opcode.FDIV: _fdiv,
    Opcode.FNEG: lambda x: f32(-x),
    Opcode.SQRT: lambda x: f32(math.nan) if x < 0 else f32(math.sqrt(x)),
    Opcode.EXP: _exp,
    Opcode.LOG: _log,
    Opcode.SIN: lambda x: f32(math.sin(x)),
    Opcode.COS: lambda x: f32(math.cos(x)),
    Opcode.FABS: lambda x: f32(abs(x)),
    Opcode.FLOOR: lambda x: f32(math.floor(x)),
    Opcode.POW: _pow,
    Opcode.FMIN: lambda x, y: f32(min(x, y)),
    Opcode.FMAX: lambda x, y: f32(max(x, y)),
    Opcode.SELECT: lambda c, x, y: x if bool(c) else y,
    Opcode.SITOFP: lambda x: f32(float(x)),
    Opcode.FPTOSI: lambda x: 0 if math.isnan(x) else wrap32(int(math.trunc(x))),
    Opcode.ZEXT: lambda x: 1 if x else 0,
}

#: AND / OR / XOR on bools (logical) and on ints (bitwise, wrapped).
_LOGICAL = {
    Opcode.AND: lambda x, y: bool(x) and bool(y),
    Opcode.OR: lambda x, y: bool(x) or bool(y),
    Opcode.XOR: lambda x, y: bool(x) != bool(y),
}
_BITWISE = {
    Opcode.AND: lambda x, y: wrap32(x & y),
    Opcode.OR: lambda x, y: wrap32(x | y),
    Opcode.XOR: lambda x, y: wrap32(x ^ y),
}

_COMPARE = {
    "eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
    "sle": operator.le, "sgt": operator.gt, "sge": operator.ge,
    "oeq": operator.eq, "one": operator.ne, "olt": operator.lt,
    "ole": operator.le, "ogt": operator.gt, "oge": operator.ge,
}


def _apply(fn: Callable[..., Any], d: int, s: list[int]) -> _Op:
    if len(s) == 1:
        (a,) = s

        def run(r):
            r[d] = fn(r[a])
    elif len(s) == 2:
        a, b = s

        def run(r):
            r[d] = fn(r[a], r[b])
    else:
        def run(r):
            r[d] = fn(*[r[i] for i in s])
    return run


def _compile(program: _Program, ins: Instr) -> _Op:
    op = ins.op
    d = program.slot(ins) if ins.ty is not None else None
    s = [program.slot(a) for a in ins.args]
    if op in _SPECIALISED:
        return _SPECIALISED[op](program, ins, d, s)
    if op in _PURE:
        return _apply(_PURE[op], d, s)
    if op in _BITWISE:
        return _apply((_LOGICAL if ins.ty is BOOL else _BITWISE)[op], d, s)
    if op is Opcode.ICMP or op is Opcode.FCMP:
        return _apply(_COMPARE[ins.attrs["pred"]], d, s)

    def unsupported(r):
        raise InterpreterError(f"interpreter cannot execute {op}")
    return unsupported


def _arith(program, ins, d, s):
    a, b = s
    op = ins.op
    if op is Opcode.ADD:
        def run(r):
            r[d] = ((r[a] + r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.SUB:
        def run(r):
            r[d] = ((r[a] - r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.MUL:
        def run(r):
            r[d] = ((r[a] * r[b] + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    elif op is Opcode.FADD:
        def run(r):
            r[d] = f32(r[a] + r[b])
    elif op is Opcode.FSUB:
        def run(r):
            r[d] = f32(r[a] - r[b])
    else:  # FMUL
        def run(r):
            r[d] = f32(r[a] * r[b])
    return run


def _int_divide(program, ins, d, s):
    a, b = s
    name = program.kernel.name
    is_rem = ins.op is Opcode.REM

    def run(r):
        x = r[a]
        y = r[b]
        if y == 0:
            raise InterpreterError(
                f"{name}: integer {'remainder' if is_rem else 'division'} "
                f"by zero")
        q = int(math.trunc(x / y)) if (x < 0) != (y < 0) else x // y
        r[d] = wrap32(x - q * y if is_rem else q)
    return run


def _work_item(program, ins, d, s):
    dim = ins.attrs["dim"]
    src = {Opcode.GID: _GID_SLOT, Opcode.LID: _LID_SLOT,
           Opcode.GROUP_ID: _GROUP_SLOT}.get(ins.op)
    if src is not None:
        src += dim

        def run(r):
            r[d] = r[src]
        return run
    ndr = program.ndr
    value = {Opcode.LOCAL_SIZE: ndr.local_size,
             Opcode.GLOBAL_SIZE: ndr.global_size,
             Opcode.NUM_GROUPS: ndr.num_groups}[ins.op][dim]

    def run(r):
        r[d] = value
    return run


def _out_of_bounds(program: _Program, ins: Instr, idx: int,
                   arr: np.ndarray) -> InterpreterError:
    return InterpreterError(
        f"kernel {program.kernel.name}: out-of-bounds access index {idx} "
        f"(size {arr.shape[0]}) at '{ins.format()}'"
    )


def _load(program, ins, d, s):
    p, x = s

    def run(r):
        arr = r[p]
        i = r[x]
        if not 0 <= i < arr.shape[0]:
            raise _out_of_bounds(program, ins, i, arr)
        r[d] = arr.item(i)
    return run


def _store(program, ins, d, s):
    p, x, v = s
    # Buffers are checked against their parameter's element type at launch.
    convert = wrap32 if ins.args[0].ty.element is INT32 else f32

    def run(r):
        arr = r[p]
        i = r[x]
        if not 0 <= i < arr.shape[0]:
            raise _out_of_bounds(program, ins, i, arr)
        arr[i] = convert(r[v])
    return run


_ATOMIC_UPDATE = {
    Opcode.ATOMIC_ADD: operator.add,
    Opcode.ATOMIC_MIN: min,
    Opcode.ATOMIC_MAX: max,
    Opcode.ATOMIC_XCHG: lambda old, val: val,
}


def _atomic(program, ins, d, s):
    p, x, *vals = s
    convert = wrap32 if ins.args[0].ty.element is INT32 else f32
    if ins.op is Opcode.ATOMIC_CAS:
        expected, desired = vals

        def run(r):
            arr = r[p]
            i = r[x]
            if not 0 <= i < arr.shape[0]:
                raise _out_of_bounds(program, ins, i, arr)
            old = r[d] = arr.item(i)
            if old == r[expected]:
                arr[i] = convert(r[desired])
        return run
    update = _ATOMIC_UPDATE[ins.op]
    (v,) = vals

    def run(r):
        arr = r[p]
        i = r[x]
        if not 0 <= i < arr.shape[0]:
            raise _out_of_bounds(program, ins, i, arr)
        old = r[d] = arr.item(i)
        arr[i] = convert(update(old, r[v]))
    return run


def _printf(program, ins, d, s):
    fmt = ins.attrs["fmt"]
    name = program.kernel.name
    out = program.printf_output

    def run(r):
        try:
            text = fmt % tuple([r[i] for i in s])
        except (TypeError, ValueError) as exc:
            raise InterpreterError(
                f"{name}: bad printf format {fmt!r}: {exc}"
            ) from exc
        out.append(text)
    return run


_SPECIALISED: dict[Opcode, Callable[..., _Op]] = {
    **dict.fromkeys((Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.FADD,
                     Opcode.FSUB, Opcode.FMUL), _arith),
    **dict.fromkeys((Opcode.DIV, Opcode.REM), _int_divide),
    **dict.fromkeys((Opcode.GID, Opcode.LID, Opcode.GROUP_ID,
                     Opcode.LOCAL_SIZE, Opcode.GLOBAL_SIZE,
                     Opcode.NUM_GROUPS), _work_item),
    Opcode.LOAD: _load,
    Opcode.STORE: _store,
    **dict.fromkeys((Opcode.ATOMIC_ADD, Opcode.ATOMIC_MIN, Opcode.ATOMIC_MAX,
                     Opcode.ATOMIC_XCHG, Opcode.ATOMIC_CAS), _atomic),
    Opcode.PRINTF: _printf,
}
