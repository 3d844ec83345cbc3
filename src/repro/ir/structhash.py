"""Alpha-invariant structural hashing of verified IR.

Two functions that differ only in *names* -- value names, argument
names, block labels, even the names of the defined functions
themselves -- or in the textual order of reachable blocks are the same
function to every consumer in this repository: the optimizer, the
evaluators, and the cost model all work on the use-def graph, not on
the spelling.  This module assigns each module a **structural
fingerprint** that is invariant under exactly those changes, by
printing every function in a canonical form:

* blocks are visited in reverse post order (entry first, successor
  edges in terminator operand order), so the fingerprint does not
  depend on the textual order of reachable blocks;
* arguments, blocks, and value-producing instructions are renamed
  ``a0, a1, ...``, ``b0, b1, ...``, ``v0, v1, ...`` in that traversal
  order, and defined functions are renamed ``f$0, f$1, ...`` in
  definition order, erasing the original names;
* everything *observable* hashes by content: constants, types, extern
  (declaration-only) names -- an extern trace distinguishes ``@f``
  from ``@g`` -- global-variable names and initializers, struct
  layouts, and function attributes (which the definition syntax does
  not print, so they are folded in as an explicit line).

The canonical text is a digest-stable print of the module, which
yields the central guarantee for free: **hash-equal implies
print-equal after canonical renaming** (the hash *is* a digest of that
canonical print; ``tests/test_structhash.py`` fuzzes the property).

Alongside the fingerprint, :class:`StructuralSummary` records the
renaming **witnesses**: per defined function (keyed by its *canonical*
name) the original-local -> canonical-local map, and module-wide the
original-function-name -> canonical map.  Composing a leader's witness
with an inverted follower witness (:func:`compose_witness_renames`)
produces the exact rename that rewrites one job's output into another
structurally equal job's namespace -- this is what lets the driver's
in-batch dedupe and its structural memo cache fan a single computed
result out to every alpha-variant duplicate (see
``repro.driver.core``).

Unreachable blocks sit outside the RPO and are appended in their list
order, so only *reachable*-block reordering is guaranteed invariant.
Names beginning with ``struct.`` are excluded from witnesses: the
``%struct.name`` spelling is how the IR syntax references named struct
types, so a textual renamer could not tell such a local from a type.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .module import BasicBlock, Function, Module, reverse_postorder
from .printer import module_header_chunks, print_function

#: Bump when the canonical form changes meaning (new invariances,
#: different material layout): every fingerprint changes with it.
STRUCTHASH_VERSION = 1


@dataclass
class StructuralSummary:
    """A module's structural fingerprint plus its renaming witnesses.

    ``fn_renames`` maps *canonical* function name (``f$0``, ...) ->
    {original local name -> canonical name} for every defined
    function; locals that are anonymous, duplicated, or shaped like
    struct-type references are omitted (they cannot be renamed
    textually without ambiguity).  ``global_renames`` maps original
    defined-function name -> canonical name (externs and global
    variables hash by content and never appear here).
    """

    fingerprint: str
    fn_renames: Dict[str, Dict[str, str]] = field(default_factory=dict)
    global_renames: Dict[str, str] = field(default_factory=dict)

    def canonical_target(self, name: Optional[str]) -> Optional[str]:
        """``name`` as the canonical form spells it (identity for
        externs, globals, and ``None``)."""
        if name is None:
            return None
        return self.global_renames.get(name, name)


def rpo_blocks(fn: Function) -> List[BasicBlock]:
    """Reverse post order over the CFG
    (:func:`~repro.ir.module.reverse_postorder`), unreachable blocks
    appended in list order."""
    order = reverse_postorder(fn)
    seen = {id(block) for block in order}
    order.extend(block for block in fn.blocks if id(block) not in seen)
    return order


def _canonical_names(
    fn: Function, order: List[BasicBlock]
) -> Tuple[Dict[int, str], Dict[str, str]]:
    """(id -> canonical name) map plus the (orig -> canonical) witness."""
    name_map: Dict[int, str] = {}
    pairs: List[Tuple[str, str]] = []
    counts: Dict[str, int] = {}

    def assign(value, canonical: str) -> None:
        name_map[id(value)] = canonical
        original = value.name
        if original:
            counts[original] = counts.get(original, 0) + 1
            pairs.append((original, canonical))

    for i, arg in enumerate(fn.arguments):
        assign(arg, f"a{i}")
    for i, block in enumerate(order):
        assign(block, f"b{i}")
    n = 0
    for block in order:
        for inst in block.instructions:
            if not inst.type.is_void:
                assign(inst, f"v{n}")
                n += 1
    witness = {
        orig: canon
        for orig, canon in pairs
        if counts[orig] == 1 and not orig.startswith("struct.")
    }
    return name_map, witness


def _summarize(
    module: Module,
) -> Tuple[str, Dict[str, Dict[str, str]], Dict[str, str]]:
    global_map: Dict[int, str] = {}
    global_renames: Dict[str, str] = {}
    index = 0
    for fn in module.functions:
        if fn.is_declaration:
            continue
        # ``$`` keeps canonical names out of the namespace C-derived
        # and fuzzer-generated symbols use, so the canonical print
        # cannot capture a real name.
        canonical = f"f${index}"
        index += 1
        global_map[id(fn)] = canonical
        global_renames[fn.name] = canonical
    chunks: List[str] = [f"; structhash:{STRUCTHASH_VERSION}"]
    chunks.extend(module_header_chunks(module))
    fn_renames: Dict[str, Dict[str, str]] = {}
    for fn in module.functions:
        if fn.is_declaration:
            chunks.append(print_function(fn))
            continue
        order = rpo_blocks(fn)
        name_map, witness = _canonical_names(fn, order)
        canonical = global_renames[fn.name]
        fn_renames[canonical] = witness
        if fn.attributes:
            # Definitions do not print their attributes, but attributes
            # are observable (readnone/readonly steer the transforms),
            # so they fold into the material explicitly.
            chunks.append(f"; attributes @{canonical}: "
                          + " ".join(sorted(fn.attributes)))
        chunks.append(
            print_function(
                fn, name_map=name_map, block_order=order,
                global_map=global_map,
            )
        )
    return "\n\n".join(chunks) + "\n", fn_renames, global_renames


def canonical_function_text(fn: Function) -> str:
    """One function printed under its canonical local renaming and RPO
    block order (its own name is kept; see :func:`canonical_module_text`
    for the form the fingerprint digests)."""
    if fn.is_declaration:
        return print_function(fn)
    order = rpo_blocks(fn)
    name_map, _ = _canonical_names(fn, order)
    return print_function(fn, name_map=name_map, block_order=order)


def canonical_module_text(module: Module) -> str:
    """The exact material the structural fingerprint digests."""
    return _summarize(module)[0]


def structural_summary(module: Module) -> StructuralSummary:
    """Fingerprint ``module`` and record the renaming witnesses."""
    material, fn_renames, global_renames = _summarize(module)
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return StructuralSummary(
        fingerprint=digest,
        fn_renames=fn_renames,
        global_renames=global_renames,
    )


def structural_fingerprint(module: Module) -> str:
    """Just the fingerprint, when no witness is needed."""
    return structural_summary(module).fingerprint


def structural_eq(a: Module, b: Module) -> bool:
    """Whether two modules are structurally (alpha-)equivalent.

    This is the witness check behind the fingerprint: it compares the
    full canonical material, so it holds exactly when the fingerprints
    collide for the right reason.
    """
    return canonical_module_text(a) == canonical_module_text(b)


def compose_witness_renames(
    leader: StructuralSummary, follower: StructuralSummary
) -> Tuple[Dict[str, Dict[str, str]], Dict[str, str]]:
    """The renames taking leader-namespace text into the follower's.

    Returns ``(locals, globals)``: ``locals`` maps *leader* function
    name -> {leader local -> follower local} (apply it first, with
    :func:`repro.ir.parser.rename_function_locals`, while the text
    still carries the leader's function names), and ``globals`` maps
    leader defined-function name -> follower name (apply second, with
    :func:`repro.ir.parser.rename_globals`).

    For structurally equal modules the leader's ``x`` and the
    follower's ``y`` denote the same value exactly when both map to
    the same canonical name, so composing leader->canonical with
    canonical->follower is exact.  Identity pairs are dropped.
    """
    follower_globals_inv = {
        canon: orig for orig, canon in follower.global_renames.items()
    }
    leader_globals_inv = {
        canon: orig for orig, canon in leader.global_renames.items()
    }
    globals_map: Dict[str, str] = {}
    for orig, canon in leader.global_renames.items():
        target = follower_globals_inv.get(canon)
        if target is not None and target != orig:
            globals_map[orig] = target
    locals_map: Dict[str, Dict[str, str]] = {}
    for canon_fn, leader_locals in leader.fn_renames.items():
        follower_locals = follower.fn_renames.get(canon_fn)
        leader_name = leader_globals_inv.get(canon_fn)
        if not follower_locals or leader_name is None:
            continue
        inverted = {c: o for o, c in follower_locals.items()}
        renames = {}
        for orig, canon in leader_locals.items():
            target = inverted.get(canon)
            if target is not None and target != orig:
                renames[orig] = target
        if renames:
            locals_map[leader_name] = renames
    return locals_map, globals_map
