"""Fresh names derive from the live IR and never forge an input name.

Passes draw every new local through ``Function.next_name`` and every
new global through ``Module.unique_global_name``: ``prefix.N`` with
``N`` the next number no live name holds.  The input below already
holds names shaped like derived ones (``%t.3``, ``%rolag.loop.1``, a
``%t1022`` next to ``%t10226``), so RoLAG's derived names must step
around them, and the printed output must need no respelling.
"""

from repro.frontend import compile_c
from repro.ir import (
    FunctionSnapshot,
    parse_module,
    print_module,
    verify_module,
)
from repro.rolag import roll_loops_in_module

#: Per-lane load names, all shaped like names a pass might derive.
LANE_NAMES = ["t1022", "t10226", "t.3", "rolag.loop.1", "t1022.1", "t.1"]
#: Unrelated per-lane constants, so RoLAG emits a mismatch table.
LANE_CONSTANTS = [3, 9, 1, 17, 4, 11]


def _forging_ir():
    lanes = [
        f"  %a{i} = getelementptr i32, i32* %a, i64 {i}\n"
        f"  %{name} = load i32, i32* %a{i}\n"
        f"  %m{i} = mul i32 %{name}, 3\n"
        f"  %s{i} = add i32 %m{i}, {constant}\n"
        f"  %b{i} = getelementptr i32, i32* %b, i64 {i}\n"
        f"  store i32 %s{i}, i32* %b{i}\n"
        for i, (name, constant) in enumerate(zip(LANE_NAMES, LANE_CONSTANTS))
    ]
    return (
        "@__rolag.vals = global i32 0\n"
        "@__rolag.vals.1 = global i32 0\n"
        "define void @f(i32* %a, i32* %b) {\n"
        "rolag.exit.1:\n" + "".join(lanes) + "  ret void\n}\n"
    )


def _named_values(fn):
    """Every value holding a local name, in definition order: the
    arguments, then each block followed by its non-void instructions."""
    yield from fn.arguments
    for block in fn.blocks:
        yield block
        yield from (i for i in block.instructions if not i.type.is_void)


def _local_names(fn):
    return [value.name for value in _named_values(fn)]


def _rolled():
    module = parse_module(_forging_ir())
    fn = module.get_function("f")
    before = {id(value): value.name for value in _named_values(fn)}
    assert roll_loops_in_module(module) == 1
    verify_module(module)
    return module, fn, before


class TestRolagOnForgingInput:
    def test_derived_names_never_equal_an_input_name(self):
        module, fn, before = _rolled()
        derived = [
            value.name for value in _named_values(fn)
            if id(value) not in before
        ]
        assert derived
        assert not set(derived) & set(before.values())
        assert "t10226" not in derived
        assert {"rolag.loop.2", "rolag.exit.2", "t1022.2"} <= set(derived)
        assert "__rolag.vals.2" in {g.name for g in module.globals}

    def test_printed_output_keeps_every_name(self):
        module, fn, _ = _rolled()
        names = _local_names(fn)
        assert len(set(names)) == len(names)
        reparsed = parse_module(print_module(module))
        assert _local_names(reparsed.get_function("f")) == names
        assert [g.name for g in reparsed.globals] == [
            g.name for g in module.globals
        ]

    def test_optimizing_the_output_again_is_a_fixpoint(self):
        module, _, _ = _rolled()
        text = print_module(module)
        again = parse_module(text)
        roll_loops_in_module(again)
        assert print_module(again) == text


class TestNamingRule:
    SOURCE = (
        "@g = global i32 0\n@g.1 = global i32 0\n"
        "define i32 @f(i32 %t.1) {\nx.1:\n  %t.3 = add i32 %t.1, 1\n"
        "  ret i32 %t.3\n}\n"
    )

    def test_draws_skip_live_and_drawn_names(self):
        module = parse_module(self.SOURCE)
        fn = module.get_function("f")
        assert [fn.next_name() for _ in range(3)] == ["t.2", "t.4", "t.5"]
        assert fn.next_name("x") == "x.2"
        assert fn.next_name("y") == "y.1"
        assert module.unique_global_name("g") == "g.2"
        assert module.unique_global_name("h") == "h"
        assert module.unique_global_name("f") == "f.1"

    def test_a_compiled_function_draws_like_its_parsed_copy(self):
        module = compile_c(
            "int f(int *p, int n) { int s = 0;"
            " for (int i = 0; i < n; i++) s += p[i]; return s; }"
        )
        fn = module.get_function("f")
        copy = parse_module(print_module(module)).get_function("f")
        prefixes = ["t", "m2r", "for.body", "rolag.loop", "t"]
        drawn = [fn.next_name(prefix) for prefix in prefixes]
        assert drawn == [copy.next_name(prefix) for prefix in prefixes]
        assert drawn[:3] == ["t.1", "m2r.4", "for.body.2"]

    def test_rollback_forgets_the_names_it_undid(self):
        fn = parse_module(self.SOURCE).get_function("f")
        snapshot = FunctionSnapshot(fn)
        first = fn.next_name()
        fn.add_block(fn.next_name("bb"))
        snapshot.restore()
        assert fn.next_name() == first
        assert fn.next_name("bb") == "bb.1"
