"""Unit tests for the simulated memory and pointers."""

import copy
import pickle

import pytest

from repro.errors import MemoryFault
from repro.ir import types as ty
from repro.vm.memory import NULL, Memory, Pointer


class TestPointer:
    def test_encode_decode_roundtrip(self):
        p = Pointer(12, 345)
        assert Pointer.decode(p.encode()) == p

    def test_null(self):
        assert NULL.is_null()
        assert NULL.encode() == 0
        assert Pointer.decode(0) == NULL

    def test_moved(self):
        assert Pointer(1, 8).moved(8) == Pointer(1, 16)

    def test_encode_limits(self):
        with pytest.raises(MemoryFault):
            Pointer(1 << 25, 0).encode()

    @pytest.mark.parametrize("fields", [(0, 0), (3, 16), (7, -8),
                                        ((1 << 24) - 1, (1 << 40) - 1)])
    def test_value_semantics_follow_the_field_tuple(self, fields):
        p = Pointer(*fields)
        assert p == Pointer(*fields) and not p != Pointer(*fields)
        assert hash(p) == hash(fields)
        assert (p.alloc_id, p.offset) == fields
        assert p != fields  # a pointer equals only pointers
        assert p != Pointer(fields[0] + 1, fields[1])
        assert p != Pointer(fields[0], fields[1] + 1)

    def test_repr_and_str(self):
        assert repr(Pointer(3, 16)) == "Pointer(alloc_id=3, offset=16)"
        assert str(Pointer(3, 16)) == "&3+16"
        assert Pointer(alloc_id=3, offset=16) == Pointer(3, 16)

    def test_dict_key(self):
        seen = {Pointer(1, 8): "a", NULL: "null"}
        assert seen[Pointer(1, 8)] == "a"
        assert seen[Pointer.decode(0)] == "null"
        assert Pointer(1, 16) not in seen
        assert len({Pointer(2, 0), Pointer(2, 0), Pointer(2, 8)}) == 2

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        p = Pointer(5, 40)
        back = pickle.loads(pickle.dumps(p, protocol))
        assert back == p and back.__class__ is Pointer
        assert hash(back) == hash(p)
        assert copy.deepcopy(p) == p


class TestMemory:
    def test_alloc_zeroed(self):
        mem = Memory()
        p = mem.alloc(16)
        assert mem.read_bytes(p, 16) == bytes(16)

    def test_rw_bytes(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.write_bytes(p, b"abcd")
        assert mem.read_bytes(p, 4) == b"abcd"

    def test_int_roundtrip_signed(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.write_int(p, -5, 8)
        assert mem.read_int(p, 8) == -5
        mem.write_int(p, -1, 4)
        assert mem.read_int(p, 4) == -1

    def test_float_roundtrip(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.write_f64(p, 3.25)
        assert mem.read_f64(p) == 3.25

    def test_pointer_storage(self):
        mem = Memory()
        a = mem.alloc(8)
        b = mem.alloc(8)
        mem.write_ptr(a, b.moved(4))
        assert mem.read_ptr(a) == b.moved(4)

    def test_typed_access(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.write_typed(p, 7, ty.I32)
        assert mem.read_typed(p, ty.I32) == 7
        mem.write_typed(p, None, ty.PTR)
        assert mem.read_typed(p, ty.PTR) == NULL

    def test_aggregate_load_rejected(self):
        mem = Memory()
        st = ty.StructType("s", [("a", ty.I64)])
        p = mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.read_typed(p, st)

    def test_out_of_bounds(self):
        mem = Memory()
        p = mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.read_bytes(p.moved(4), 8)
        with pytest.raises(MemoryFault):
            mem.read_bytes(p.moved(-1), 1)

    def test_use_after_free(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.free(p)
        with pytest.raises(MemoryFault):
            mem.read_bytes(p, 1)

    def test_double_free(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.free(p)
        with pytest.raises(MemoryFault):
            mem.free(p)

    def test_free_interior_pointer_rejected(self):
        mem = Memory()
        p = mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.free(p.moved(4))

    def test_null_deref(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read_bytes(NULL, 1)

    def test_persistent_flagging(self):
        mem = Memory()
        v = mem.alloc(8)
        p = mem.alloc(8, persistent=True)
        assert not mem.is_persistent(v.alloc_id)
        assert mem.is_persistent(p.alloc_id)
        mem.free(p)
        assert not mem.is_persistent(p.alloc_id)

    def test_ids_never_reused(self):
        mem = Memory()
        p = mem.alloc(8)
        mem.free(p)
        q = mem.alloc(8)
        assert q.alloc_id != p.alloc_id

    def test_live_allocation_count(self):
        mem = Memory()
        a = mem.alloc(8)
        mem.alloc(8)
        assert mem.live_allocations() == 2
        mem.free(a)
        assert mem.live_allocations() == 1
