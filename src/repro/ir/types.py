"""Type system for the SSA intermediate representation.

The type system is deliberately close to LLVM's: integer types of
arbitrary bit width, IEEE floats, typed pointers, fixed-size arrays,
named or literal structs, functions, and void.  Types are interned so
that structural equality coincides with identity (``is``), which keeps
type checks throughout the compiler cheap.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Sequence, Tuple


class Type:
    """Base class of all IR types.

    Instances are interned: constructing the same type twice returns the
    same object, so types compare with ``is`` / ``==`` interchangeably.
    """

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    def __repr__(self) -> str:
        return str(self)

    @property
    def is_void(self) -> bool:
        """Whether this is the void type."""
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        """Whether this is an integer type."""
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        """Whether this is a float type."""
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        """Whether this is a pointer type."""
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        """Whether this is an array type."""
        return isinstance(self, ArrayType)

    @property
    def is_struct(self) -> bool:
        """Whether this is a struct type."""
        return isinstance(self, StructType)

    @property
    def is_function(self) -> bool:
        """Whether this is a function type."""
        return isinstance(self, FunctionType)

    @property
    def is_label(self) -> bool:
        """Whether this is the label type."""
        return isinstance(self, LabelType)

    @property
    def is_first_class(self) -> bool:
        """Whether values of this type may appear as instruction operands."""
        return not (self.is_void or self.is_function or self.is_label)


class VoidType(Type):
    """The type of instructions that produce no value."""

    _instance: Optional["VoidType"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"


class LabelType(Type):
    """The type of basic blocks when used as branch targets."""

    _instance: Optional["LabelType"] = None

    def __new__(cls) -> "LabelType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "label"


class IntType(Type):
    """An integer type of a fixed bit width (``i1``, ``i8``, ... ).

    ``bits`` is a plain attribute rather than a property: the
    evaluators read it on every executed cast and compare.
    """

    _cache: Dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        cached = cls._cache.get(bits)
        if cached is not None:
            return cached
        if bits < 1 or bits > 128:
            raise ValueError(f"unsupported integer width: {bits}")
        obj = super().__new__(cls)
        obj.bits = bits
        cls._cache[bits] = obj
        return obj

    def __str__(self) -> str:
        return f"i{self.bits}"

    @property
    def mask(self) -> int:
        """Bit mask covering the full width (e.g. 0xff for i8)."""
        return (1 << self.bits) - 1

    @property
    def signed_min(self) -> int:
        """Smallest representable signed value."""
        return -(1 << (self.bits - 1))

    @property
    def signed_max(self) -> int:
        """Largest representable signed value."""
        return (1 << (self.bits - 1)) - 1


class FloatType(Type):
    """An IEEE floating point type: ``float`` (32) or ``double`` (64).

    ``bits`` is a plain attribute, as on :class:`IntType`.
    """

    _cache: Dict[int, "FloatType"] = {}

    def __new__(cls, bits: int) -> "FloatType":
        cached = cls._cache.get(bits)
        if cached is not None:
            return cached
        if bits not in (32, 64):
            raise ValueError(f"unsupported float width: {bits}")
        obj = super().__new__(cls)
        obj.bits = bits
        cls._cache[bits] = obj
        return obj

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


_F32 = struct.Struct("<f")
_F32_PACK = _F32.pack
_F32_UNPACK = _F32.unpack


def round_float(value: float, bits: int) -> float:
    """``value`` as a float type of ``bits`` holds it: 32 bits rounds to
    the nearest single (past its range, to a signed infinity), 64 bits
    keeps the double.  Execution and every float constant round here."""
    if bits == 32:
        try:
            return _F32_UNPACK(_F32_PACK(value))[0]
        except (OverflowError, ValueError):
            return float("inf") if value > 0 else float("-inf")
    return value


class PointerType(Type):
    """A typed pointer (``<pointee>*``)."""

    _cache: Dict[Type, "PointerType"] = {}

    def __new__(cls, pointee: Type) -> "PointerType":
        cached = cls._cache.get(pointee)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        obj._pointee = pointee
        cls._cache[pointee] = obj
        return obj

    @property
    def pointee(self) -> Type:
        """The pointed-to type."""
        return self._pointee

    def __str__(self) -> str:
        return f"{self._pointee}*"


class ArrayType(Type):
    """A fixed-length homogeneous array (``[N x elem]``)."""

    _cache: Dict[Tuple[Type, int], "ArrayType"] = {}

    def __new__(cls, element: Type, count: int) -> "ArrayType":
        key = (element, count)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        if count < 0:
            raise ValueError("array count must be non-negative")
        obj = super().__new__(cls)
        obj._element = element
        obj._count = count
        cls._cache[key] = obj
        return obj

    @property
    def element(self) -> Type:
        """The element type."""
        return self._element

    @property
    def count(self) -> int:
        """Number of elements."""
        return self._count

    def __str__(self) -> str:
        return f"[{self._count} x {self._element}]"


class StructType(Type):
    """A struct with an ordered field list.

    Structs may be *named* (``%struct.foo``), in which case the name is
    part of the identity, or *literal*, in which case the field list is.
    """

    _literal_cache: Dict[Tuple[Type, ...], "StructType"] = {}
    _named_cache: Dict[str, "StructType"] = {}

    def __new__(cls, fields: Sequence[Type], name: Optional[str] = None) -> "StructType":
        fields_t = tuple(fields)
        if name is None:
            cached = cls._literal_cache.get(fields_t)
            if cached is not None:
                return cached
        else:
            cached = cls._named_cache.get(name)
            if cached is not None:
                if not cached._fields and fields_t:
                    # Forward-declared struct receiving its body.
                    cached._fields = fields_t
                elif tuple(cached.fields) != fields_t and fields_t:
                    raise ValueError(f"struct %{name} redefined with different fields")
                return cached
        obj = super().__new__(cls)
        obj._fields = fields_t
        obj._name = name
        if name is None:
            cls._literal_cache[fields_t] = obj
        else:
            cls._named_cache[name] = obj
        return obj

    @classmethod
    def get_named(cls, name: str) -> Optional["StructType"]:
        """Look up a previously created named struct, if any."""
        return cls._named_cache.get(name)

    @property
    def fields(self) -> Tuple[Type, ...]:
        """Ordered field types."""
        return self._fields

    @property
    def name(self) -> Optional[str]:
        """The struct's name, or None for literal structs."""
        return self._name

    def __str__(self) -> str:
        if self._name is not None:
            return f"%struct.{self._name}"
        body = ", ".join(str(f) for f in self._fields)
        return "{ " + body + " }" if body else "{}"

    def body_str(self) -> str:
        """The literal body, used when printing named struct definitions."""
        body = ", ".join(str(f) for f in self._fields)
        return "{ " + body + " }" if body else "{}"


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    _cache: Dict[Tuple[Type, Tuple[Type, ...], bool], "FunctionType"] = {}

    def __new__(
        cls,
        return_type: Type,
        params: Sequence[Type],
        vararg: bool = False,
    ) -> "FunctionType":
        key = (return_type, tuple(params), vararg)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        obj._return_type = return_type
        obj._params = tuple(params)
        obj._vararg = vararg
        cls._cache[key] = obj
        return obj

    @property
    def return_type(self) -> Type:
        """The return type."""
        return self._return_type

    @property
    def params(self) -> Tuple[Type, ...]:
        """Parameter types, in order."""
        return self._params

    @property
    def vararg(self) -> bool:
        """Whether extra arguments are accepted."""
        return self._vararg

    def __str__(self) -> str:
        parts = [str(p) for p in self._params]
        if self._vararg:
            parts.append("...")
        return f"{self._return_type} ({', '.join(parts)})"


# Convenient singletons used throughout the code base.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)


def ptr(pointee: Type) -> PointerType:
    """Shorthand for :class:`PointerType`."""
    return PointerType(pointee)


class DataLayout:
    """Target data layout: sizes and alignments of types in bytes.

    Models an LP64 target (x86-64): 8-byte pointers, natural alignment
    for scalars, structs padded to field alignment.
    """

    POINTER_SIZE = 8

    def __init__(self) -> None:
        # Layout queries are hot (every alias/dependence check, every
        # machine's global allocation); cache struct layouts keyed on
        # identity + field count (field count changes when a
        # forward-declared struct receives its body), and size/align
        # for struct-free types keyed on identity alone -- those are
        # interned and immutable, so the answer never changes.  The
        # intern table keeps the keyed objects alive, so ids are
        # never reused.
        self._struct_cache: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
        self._size_cache: Dict[int, int] = {}
        self._align_cache: Dict[int, int] = {}

    @staticmethod
    def _contains_struct(ty: Type) -> bool:
        while ty.is_array:
            ty = ty.element
        return ty.is_struct

    def size_of(self, ty: Type) -> int:
        """Allocated size of ``ty`` in bytes (including padding)."""
        cached = self._size_cache.get(id(ty))
        if cached is not None:
            return cached
        if ty.is_integer:
            size = max(1, (ty.bits + 7) // 8)
        elif ty.is_float:
            size = ty.bits // 8
        elif ty.is_pointer:
            size = self.POINTER_SIZE
        elif ty.is_array:
            size = ty.count * self.size_of(ty.element)
        elif ty.is_struct:
            size, _ = self._struct_layout(ty)
        else:
            raise ValueError(f"type {ty} has no size")
        if not self._contains_struct(ty):
            self._size_cache[id(ty)] = size
        return size

    def align_of(self, ty: Type) -> int:
        """ABI alignment of ``ty`` in bytes."""
        cached = self._align_cache.get(id(ty))
        if cached is not None:
            return cached
        if ty.is_integer or ty.is_float:
            align = min(8, self.size_of(ty))
        elif ty.is_pointer:
            align = self.POINTER_SIZE
        elif ty.is_array:
            align = self.align_of(ty.element)
        elif ty.is_struct:
            align = max((self.align_of(f) for f in ty.fields), default=1)
        else:
            raise ValueError(f"type {ty} has no alignment")
        if not self._contains_struct(ty):
            self._align_cache[id(ty)] = align
        return align

    def _struct_layout(self, ty: StructType) -> Tuple[int, Tuple[int, ...]]:
        key = (id(ty), len(ty.fields))
        cached = self._struct_cache.get(key)
        if cached is not None:
            return cached
        offset = 0
        offsets = []
        for field in ty.fields:
            align = self.align_of(field)
            offset = (offset + align - 1) // align * align
            offsets.append(offset)
            offset += self.size_of(field)
        align = self.align_of(ty) if ty.fields else 1
        offset = (offset + align - 1) // align * align
        result = (offset, tuple(offsets))
        self._struct_cache[key] = result
        return result

    def field_offset(self, ty: StructType, index: int) -> int:
        """Byte offset of field ``index`` within struct ``ty``."""
        _, offsets = self._struct_layout(ty)
        return offsets[index]


DEFAULT_LAYOUT = DataLayout()


def types_equivalent(a: Type, b: Type, layout: DataLayout = DEFAULT_LAYOUT) -> bool:
    """Whether two types can be bitcast losslessly into each other.

    This is the type-equivalence relation used by RoLAG's matching rules
    (Section IV-B of the paper): identical types, or first-class types of
    the same bit size (e.g. ``i32`` and ``float``, or any two pointers).
    """
    if a is b:
        return True
    if a.is_pointer and b.is_pointer:
        return True
    if not (a.is_first_class and b.is_first_class):
        return False
    if a.is_struct or b.is_struct or a.is_array or b.is_array:
        return False
    try:
        return layout.size_of(a) == layout.size_of(b)
    except ValueError:
        return False
