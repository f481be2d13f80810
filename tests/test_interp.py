"""Tests for the functional interpreter: arithmetic semantics, barriers,
atomics, printf, and error detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError, RuntimeLaunchError
from repro.ocl import (
    FLOAT32,
    GLOBAL_FLOAT32,
    GLOBAL_INT32,
    INT32,
    KernelBuilder,
    NDRange,
    interpret,
)
from repro.ocl.interp import f32, wrap32
from repro.ocl.ir import Opcode

i32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestWrap32:
    @given(i32s)
    def test_identity_in_range(self, x):
        assert wrap32(x) == x

    @given(st.integers())
    def test_always_in_range(self, x):
        assert -(2**31) <= wrap32(x) <= 2**31 - 1

    @given(i32s, i32s)
    def test_matches_numpy_add(self, a, b):
        with np.errstate(over="ignore"):
            expected = int(np.int32(a) + np.int32(b))
        assert wrap32(a + b) == expected

    @given(i32s, i32s)
    def test_matches_numpy_mul(self, a, b):
        with np.errstate(over="ignore"):
            expected = int(np.int32(a) * np.int32(b))
        assert wrap32(a * b) == expected


def _binop_kernel(name, op_name, ty):
    b = KernelBuilder(name)
    x = b.param("x", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    y = b.param("y", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    out = b.param("out", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    gid = b.global_id(0)
    res = getattr(b, op_name)(b.load(x, gid), b.load(y, gid))
    b.store(out, gid, res)
    return b.finish()


class TestIntSemantics:
    def test_division_truncates_toward_zero(self):
        kernel = _binop_kernel("divk", "div", INT32)
        x = np.array([7, -7, 7, -7], dtype=np.int32)
        y = np.array([2, 2, -2, -2], dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(4))
        np.testing.assert_array_equal(out, [3, -3, -3, 3])

    def test_remainder_sign_follows_dividend(self):
        kernel = _binop_kernel("remk", "rem", INT32)
        x = np.array([7, -7, 7, -7], dtype=np.int32)
        y = np.array([3, 3, -3, -3], dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(4))
        np.testing.assert_array_equal(out, [1, -1, 1, -1])

    def test_division_by_zero_raises(self):
        kernel = _binop_kernel("divz", "div", INT32)
        x = np.ones(1, dtype=np.int32)
        y = np.zeros(1, dtype=np.int32)
        out = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError):
            interpret(kernel, [x, y, out], NDRange.create(1))

    def test_add_overflow_wraps(self):
        kernel = _binop_kernel("addk", "add", INT32)
        x = np.array([2**31 - 1], dtype=np.int32)
        y = np.array([1], dtype=np.int32)
        out = np.zeros(1, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(1))
        assert out[0] == -(2**31)

    def test_shifts(self):
        b = KernelBuilder("shifts")
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.shl(1, 4))
        b.store(out, 1, b.ashr(-16, 2))
        b.store(out, 2, b.lshr(-16, 28))
        kernel = b.finish()
        out_arr = np.zeros(3, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create(1))
        np.testing.assert_array_equal(out_arr, [16, -4, 15])


class TestFloatSemantics:
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_fadd_matches_float32(self, a, b):
        assert f32(f32(a) + f32(b)) == float(np.float32(a) + np.float32(b))

    def test_sqrt_of_negative_is_nan(self):
        b = KernelBuilder("sq")
        x = b.param("x", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_FLOAT32)
        b.store(out, 0, b.sqrt(b.load(x, 0)))
        kernel = b.finish()
        x_arr = np.array([-1.0], dtype=np.float32)
        out_arr = np.zeros(1, dtype=np.float32)
        interpret(kernel, [x_arr, out_arr], NDRange.create(1))
        assert math.isnan(out_arr[0])

    def test_math_builtins(self):
        b = KernelBuilder("m")
        x = b.param("x", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_FLOAT32)
        v = b.load(x, 0)
        b.store(out, 0, b.exp(v))
        b.store(out, 1, b.log(v))
        b.store(out, 2, b.sin(v))
        b.store(out, 3, b.cos(v))
        b.store(out, 4, b.floor(v))
        b.store(out, 5, b.pow(v, b.const(2.0)))
        kernel = b.finish()
        x_arr = np.array([1.5], dtype=np.float32)
        out_arr = np.zeros(6, dtype=np.float32)
        interpret(kernel, [x_arr, out_arr], NDRange.create(1))
        expected = [math.exp(1.5), math.log(1.5), math.sin(1.5),
                    math.cos(1.5), 1.0, 2.25]
        np.testing.assert_allclose(out_arr, np.float32(expected), rtol=1e-6)


class TestAtomics:
    def test_atomic_add_histogram(self):
        b = KernelBuilder("hist")
        data = b.param("data", GLOBAL_INT32)
        bins = b.param("bins", GLOBAL_INT32)
        gid = b.global_id(0)
        b.atomic_add(bins, b.load(data, gid), 1)
        kernel = b.finish()
        rng = np.random.default_rng(0)
        data_arr = rng.integers(0, 4, 64).astype(np.int32)
        bins_arr = np.zeros(4, dtype=np.int32)
        interpret(kernel, [data_arr, bins_arr], NDRange.create(64, 8))
        np.testing.assert_array_equal(bins_arr, np.bincount(data_arr, minlength=4))

    def test_atomic_returns_old_value(self):
        b = KernelBuilder("old")
        cell = b.param("cell", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        old = b.atomic_add(cell, 0, 5)
        b.store(out, 0, old)
        kernel = b.finish()
        cell_arr = np.array([100], dtype=np.int32)
        out_arr = np.zeros(1, dtype=np.int32)
        interpret(kernel, [cell_arr, out_arr], NDRange.create(1))
        assert out_arr[0] == 100 and cell_arr[0] == 105

    def test_atomic_min_max(self):
        b = KernelBuilder("mm")
        data = b.param("data", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        gid = b.global_id(0)
        v = b.load(data, gid)
        b.atomic_min(out, 0, v)
        b.atomic_max(out, 1, v)
        kernel = b.finish()
        data_arr = np.array([5, -3, 9, 2], dtype=np.int32)
        out_arr = np.array([2**31 - 1, -(2**31)], dtype=np.int32)
        interpret(kernel, [data_arr, out_arr], NDRange.create(4))
        assert out_arr[0] == -3 and out_arr[1] == 9

    def test_atomic_cas(self):
        b = KernelBuilder("cas")
        cell = b.param("cell", GLOBAL_INT32)
        b.atomic_cas(cell, 0, 7, 99)
        kernel = b.finish()
        cell_arr = np.array([7], dtype=np.int32)
        interpret(kernel, [cell_arr], NDRange.create(1))
        assert cell_arr[0] == 99
        cell_arr = np.array([8], dtype=np.int32)
        interpret(kernel, [cell_arr], NDRange.create(1))
        assert cell_arr[0] == 8


def _barrier_loop_kernel():
    b = KernelBuilder("bloop")
    out = b.param("out", GLOBAL_INT32)
    tile = b.local_array("tile", INT32, 4)
    lid = b.local_id(0)
    gid = b.global_id(0)
    acc = b.var("acc", INT32, init=0)
    with b.for_range(0, 3) as k:
        b.store(tile, lid, b.add(gid, k))
        b.barrier()
        acc.set(b.add(acc, b.load(tile, b.rem(b.add(lid, 1), 4))))
        b.barrier()
    b.store(out, gid, acc)
    return b.finish()


# Dynamic op mix of _barrier_loop_kernel over NDRange(8, 4), in the order
# each opcode was first executed.
_BARRIER_LOOP_OP_COUNTS = [
    (Opcode.LID, 8), (Opcode.GID, 8), (Opcode.BR, 56), (Opcode.PHI, 64),
    (Opcode.ICMP, 32), (Opcode.CBR, 32), (Opcode.ADD, 96),
    (Opcode.STORE, 32), (Opcode.BARRIER, 48), (Opcode.REM, 24),
    (Opcode.LOAD, 24), (Opcode.RET, 8),
]


class TestBarriers:
    def test_barrier_divergence_detected(self):
        b = KernelBuilder("diverge")
        lid = b.local_id(0)
        with b.if_(b.lt(lid, 2)):
            b.barrier()
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="barrier divergence"):
            interpret(kernel, [], NDRange.create(4, 4))

    def test_barrier_inside_loop_body(self):
        # The loop body holds two barriers, so it runs as three segments
        # with the whole group in lock-step between them.
        kernel = _barrier_loop_kernel()
        out = np.zeros(8, dtype=np.int32)
        result = interpret(kernel, [out], NDRange.create(8, 4))
        gid = np.arange(8)
        expected = 3 * (gid - gid % 4 + (gid + 1) % 4) + 3
        np.testing.assert_array_equal(out, expected)
        assert result.barriers_executed == 12  # 2 groups x 3 trips x 2
        assert result.items_executed == 8
        assert list(result.op_counts.items()) == _BARRIER_LOOP_OP_COUNTS

    def test_barrier_counts(self):
        b = KernelBuilder("bk")
        b.barrier()
        b.barrier()
        kernel = b.finish()
        result = interpret(kernel, [], NDRange.create(8, 4))
        assert result.barriers_executed == 4  # 2 groups x 2 barriers


def _counter_kernel():
    """``for (i = 0;; i++) out[0] = i;`` -- never terminates."""
    b = KernelBuilder("count")
    out = b.param("out", GLOBAL_INT32)
    i = b.var("i", INT32, init=0)
    with b.while_(lambda: b.const(True)):
        b.store(out, 0, i)
        i.set(b.add(i, 1))
    return b.finish()


class TestErrors:
    def test_out_of_bounds_load(self):
        b = KernelBuilder("oob")
        data = b.param("data", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.load(data, 100))
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            interpret(kernel, [np.zeros(4, dtype=np.int32),
                               np.zeros(1, dtype=np.int32)], NDRange.create(1))

    def test_runaway_loop_detected(self):
        b = KernelBuilder("spin")
        with b.while_(lambda: b.const(True)):
            pass
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="exceeded"):
            interpret(kernel, [], NDRange.create(1), max_steps_per_item=1000)

    @pytest.mark.parametrize("limit, stored", [
        (1002, 199),  # stops at the store of trip 200: not yet written
        (1003, 200),  # stops at the add after trip 200's store
        (1001, 199),  # stops at the loop header's cbr
        (1004, 200),  # stops at the loop body's br
        (1005, 200),  # stops at the one-instruction latch's br
    ])
    def test_step_limit_stops_at_the_same_instruction(self, limit, stored):
        # One step for entry's br, then five per trip: cbr, store, add,
        # br, br. Phis take no step.
        kernel = _counter_kernel()
        out = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError) as err:
            interpret(kernel, [out], NDRange.create(1),
                      max_steps_per_item=limit)
        assert str(err.value) == (
            f"kernel count: work item (0, 0, 0) exceeded {limit} steps "
            f"(runaway loop?)"
        )
        assert out[0] == stored

    @pytest.mark.parametrize("limit, expected", [
        (2, [1, 0, 0, 0]),  # item 0 stops at the barrier itself
        (3, [1, 1, 1, 1]),  # all reach the barrier; item 0 stops after
        (4, [2, 1, 1, 1]),  # item 0 stops at the ret
        (5, [2, 2, 2, 2]),
    ])
    def test_step_limit_across_a_barrier(self, limit, expected):
        b = KernelBuilder("phases")
        out = b.param("out", GLOBAL_INT32)
        gid = b.global_id(0)
        b.store(out, gid, 1)
        b.barrier()
        b.store(out, gid, 2)
        kernel = b.finish()
        out_arr = np.zeros(4, dtype=np.int32)

        def run():
            interpret(kernel, [out_arr], NDRange.create(4, 4),
                      max_steps_per_item=limit)
        if limit < 5:  # five steps per item: gid, store, barrier, store, ret
            with pytest.raises(InterpreterError, match="exceeded"):
                run()
        else:
            run()
        assert out_arr.tolist() == expected

    def test_step_limit_counts_the_return(self):
        b = KernelBuilder("two")
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, 7)  # step 1; the ret is step 2
        kernel = b.finish()
        out_arr = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError, match="exceeded 1 steps"):
            interpret(kernel, [out_arr], NDRange.create(1),
                      max_steps_per_item=1)
        assert out_arr[0] == 7
        result = interpret(kernel, [out_arr], NDRange.create(1),
                           max_steps_per_item=2)
        assert result.dynamic_instructions == 2

    def test_missing_phi_incoming(self):
        kernel = _counter_kernel()
        header = kernel.blocks[1]
        phi = next(header.phis())
        phi.attrs["incomings"] = [
            (blk, v) for blk, v in phi.attrs["incomings"]
            if blk is kernel.entry
        ]
        out = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError) as err:
            interpret(kernel, [out], NDRange.create(1))
        assert str(err.value) == (
            "count/while1: phi %phi1 has no incoming for predecessor latch3"
        )
        assert out[0] == 0  # the first trip ran before the back edge

    def test_remainder_by_zero_raises(self):
        kernel = _binop_kernel("remz", "rem", INT32)
        x = np.ones(1, dtype=np.int32)
        y = np.zeros(1, dtype=np.int32)
        out = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError,
                           match="remz: integer remainder by zero"):
            interpret(kernel, [x, y, out], NDRange.create(1))

    def test_wrong_arg_count(self):
        b = KernelBuilder("k")
        b.param("x", GLOBAL_INT32)
        kernel = b.finish()
        with pytest.raises(RuntimeLaunchError):
            interpret(kernel, [], NDRange.create(1))

    def test_wrong_dtype(self):
        b = KernelBuilder("k")
        b.param("x", GLOBAL_INT32)
        kernel = b.finish()
        with pytest.raises(RuntimeLaunchError, match="dtype"):
            interpret(kernel, [np.zeros(4, dtype=np.float32)], NDRange.create(1))


class TestPrintf:
    def test_printf_collects_output(self):
        b = KernelBuilder("hello")
        gid = b.global_id(0)
        b.printf("item %d", gid)
        kernel = b.finish()
        result = interpret(kernel, [], NDRange.create(3))
        assert result.printf_output == ["item 0", "item 1", "item 2"]

    def test_bad_format_raises(self):
        b = KernelBuilder("bad")
        b.printf("%d %d", b.global_id(0))
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="printf"):
            interpret(kernel, [], NDRange.create(1))


class TestWorkItemQueries:
    def test_2d_ids(self):
        b = KernelBuilder("ids2d")
        out = b.param("out", GLOBAL_INT32)
        gx = b.global_id(0)
        gy = b.global_id(1)
        w = b.global_size(0)
        idx = b.add(b.mul(gy, w), gx)
        packed = b.add(b.mul(b.group_id(1), 100), b.local_id(0))
        b.store(out, idx, packed)
        kernel = b.finish()
        out_arr = np.zeros(16, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create((4, 4), (2, 2)))
        # Row 0: groups (0..1, 0): group_id(1)=0, local ids 0,1,0,1
        np.testing.assert_array_equal(out_arr[:4], [0, 1, 0, 1])
        # Row 2: group_id(1)=1 → +100
        np.testing.assert_array_equal(out_arr[8:12], [100, 101, 100, 101])

    def test_num_groups_and_sizes(self):
        b = KernelBuilder("q")
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.num_groups(0))
        b.store(out, 1, b.local_size(0))
        b.store(out, 2, b.global_size(0))
        kernel = b.finish()
        out_arr = np.zeros(3, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create(12, 4))
        np.testing.assert_array_equal(out_arr, [3, 4, 12])
