"""Synthetic AnghaBench-style corpus (paper Section V-A).

AnghaBench is one million compilable functions mined from popular
GitHub repositories; we cannot ship it, so this module generates a
corpus with the same *pattern families* the paper reports finding in
it -- each family modelled directly on the paper's own examples:

``field_copy``      the kvm ``copy_vmcs12_to_enlightened`` case: dozens
                    of struct-field copies (best case, ~90 % reduction);
``call_sequence``   the aegis128 case (Fig. 3): repeated calls over
                    strided pointers;
``chained_calls``   the hdmi FLD_MOD case (Fig. 4): a call chain with a
                    loop-carried value over reversed struct fields;
``dot_product``     straight-line reduction trees (Fig. 11);
``array_init``      runs of constant stores (identical or strided);
``alternating``     interleaved store/call groups (Fig. 12);
``elementwise``     unrolled saxpy-style load-compute-store runs;
``padded``          rollable groups with an odd lane (neutral-element
                    and mismatch-array cases);
``irregular``       dissimilar statements -- not rollable;
``tiny``            small arithmetic helpers -- not rollable.

Every function is generated from a seeded RNG, compiles through the
mini-C frontend on its own, and is tagged with its family so the
harness can sanity-check what fired where.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..frontend import compile_c
from ..ir.module import Module


@dataclass
class CorpusSource:
    """One generated function before compilation: source + family tag.

    The parallel driver takes these as text and runs the
    (comparatively expensive) frontend once per function: in its own
    process when it fingerprints the job for the cache, else in the
    worker.
    """

    name: str
    family: str
    source: str


@dataclass
class CorpusFunction:
    """One generated function: source, compiled module, family tag."""

    name: str
    family: str
    source: str
    module: Module


# --- family generators -------------------------------------------------------
#
# Each generator returns (source, function_name).  ``uid`` keeps struct
# names globally unique (named struct types are interned process-wide).
#
# Real GitHub functions rarely consist *only* of a rollable pattern:
# the pattern sits inside other logic.  ``_noise`` emits a live scalar
# computation (kept alive through the return value) that dilutes the
# per-function reduction, reproducing the long flat tail of Fig. 15.


def _noise(rng: random.Random, amount: int) -> Tuple[str, str]:
    """(statements, final expression) of non-rollable live arithmetic."""
    if amount <= 0:
        return "", "0"
    ops = ["+", "^", "|", "*", "-"]
    lines = ["  int h = n * 31;"]
    for k in range(amount):
        op = rng.choice(ops)
        shift = rng.randrange(1, 5)
        const = rng.randrange(1, 97)
        if k % 3 == 0:
            lines.append(f"  h = (h << {shift}) {op} {const};")
        elif k % 3 == 1:
            lines.append(f"  h = h {op} (n >> {shift});")
        else:
            lines.append(f"  h = h {op} {const} * n;")
    return "\n".join(lines), "h"


def _noise_amount(rng: random.Random) -> int:
    """Most functions carry noise; a few are pure patterns."""
    roll = rng.random()
    if roll < 0.08:
        return 0
    if roll < 0.28:
        return rng.randrange(4, 16)
    if roll < 0.50:
        return rng.randrange(16, 64)
    return rng.randrange(64, 320)


def _gen_field_copy(rng: random.Random, uid: str) -> Tuple[str, str]:
    fields = rng.choice([8, 12, 16, 24, 32, 48, 72])
    decl_fields = " ".join(f"int f{i};" for i in range(fields))
    body = "\n".join(
        f"  dst->f{i} = src->f{i};" for i in range(fields)
    )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"copy_state_{uid}"
    source = f"""
struct dst_{uid} {{ {decl_fields} }};
struct src_{uid} {{ {decl_fields} }};
int {name}(struct dst_{uid} *dst, struct src_{uid} *src, int n) {{
{noise}
{body}
  return {tail};
}}
"""
    return source, name


def _gen_call_sequence(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([4, 5, 6, 8])
    stride = rng.choice([8, 16, 32])
    calls = "\n".join(
        f"  store_vec_{uid}(state + {i * stride}, st + {i * stride});"
        for i in range(lanes)
    )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"save_state_{uid}"
    source = f"""
extern void store_vec_{uid}(char *p, char *q);
int {name}(char *st, char *state, int n) {{
{noise}
{calls}
  return {tail};
}}
"""
    return source, name


def _gen_chained_calls(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([5, 6, 8])
    fields = " ".join(f"int f{i};" for i in range(lanes))
    chain = "\n".join(
        f"  r = fld_mod_{uid}(r, fmt->f{lanes - 1 - i}, {lanes - 1 - i});"
        for i in range(lanes)
    )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"config_format_{uid}"
    source = f"""
struct fmt_{uid} {{ {fields} }};
extern int fld_mod_{uid}(int r, int v, int pos);
int {name}(int r0, struct fmt_{uid} *fmt, int n) {{
{noise}
  int r = r0;
{chain}
  return r ^ {tail};
}}
"""
    return source, name


def _gen_dot_product(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([3, 4, 6, 8])
    terms = " + ".join(f"x[{i}] * y[{i}]" for i in range(lanes))
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"dot{lanes}_{uid}"
    source = f"""
int {name}(int *x, int *y, int n) {{
{noise}
  int d = {terms};
  return d ^ {tail};
}}
"""
    return source, name


def _gen_array_init(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([6, 8, 12, 16])
    mode = rng.choice(["same", "stride", "random"])
    if mode == "same":
        value = rng.randrange(0, 100)
        values = [value] * lanes
    elif mode == "stride":
        start = rng.randrange(0, 50)
        step = rng.choice([1, 2, 4, 10])
        values = [start + i * step for i in range(lanes)]
    else:
        values = [rng.randrange(-100, 100) for _ in range(lanes)]
    stores = "\n".join(f"  buf[{i}] = {v};" for i, v in enumerate(values))
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"init_table_{uid}"
    source = f"""
int {name}(int *buf, int n) {{
{noise}
{stores}
  return {tail};
}}
"""
    return source, name


def _gen_alternating(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([4, 5, 6])
    pairs = "\n".join(
        f"  buf[{i}] = {i * 3};\n  notify_{uid}({i});" for i in range(lanes)
    )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"emit_all_{uid}"
    source = f"""
extern void notify_{uid}(int idx);
int {name}(int *buf, int n) {{
{noise}
{pairs}
  return {tail};
}}
"""
    return source, name


def _gen_elementwise(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([4, 6, 8, 10])
    op = rng.choice(["+", "-", "*"])
    scale = rng.randrange(2, 9)
    body = "\n".join(
        f"  out[{i}] = x[{i}] {op} y[{i}] * {scale};" for i in range(lanes)
    )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"blend_{uid}"
    source = f"""
int {name}(int *out, int *x, int *y, int n) {{
{noise}
{body}
  return {tail};
}}
"""
    return source, name


def _gen_padded(rng: random.Random, uid: str) -> Tuple[str, str]:
    lanes = rng.choice([6, 8, 10])
    skip = rng.randrange(1, lanes)
    lines = []
    for i in range(lanes):
        if i == skip:
            lines.append(f"  out[{i}] = x[{i}];")
        else:
            lines.append(f"  out[{i}] = x[{i}] + 7;")
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"shift_most_{uid}"
    source = f"""
int {name}(int *out, int *x, int n) {{
{noise}
{chr(10).join(lines)}
  return {tail};
}}
"""
    return source, name


def _gen_memset_bytes(rng: random.Random, uid: str) -> Tuple[str, str]:
    """A hand-written memset: byte stores of one value (very common)."""
    lanes = rng.choice([8, 12, 16, 24])
    value = rng.randrange(0, 256)
    stores = "\n".join(f"  p[{i}] = {value};" for i in range(lanes))
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"clear_block_{uid}"
    source = f"""
int {name}(char *p, int n) {{
{noise}
{stores}
  return {tail};
}}
"""
    return source, name


def _gen_struct_init(rng: random.Random, uid: str) -> Tuple[str, str]:
    """Zero/const-initialising every field of a config struct."""
    fields = rng.choice([6, 8, 12, 16])
    mode = rng.choice(["zero", "stride"])
    decl_fields = " ".join(f"int f{i};" for i in range(fields))
    if mode == "zero":
        body = "\n".join(f"  cfg->f{i} = 0;" for i in range(fields))
    else:
        base = rng.randrange(1, 20)
        body = "\n".join(
            f"  cfg->f{i} = {base * (i + 1)};" for i in range(fields)
        )
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"reset_config_{uid}"
    source = f"""
struct cfg_{uid} {{ {decl_fields} }};
int {name}(struct cfg_{uid} *cfg, int n) {{
{noise}
{body}
  return {tail};
}}
"""
    return source, name


def _gen_checksum(rng: random.Random, uid: str) -> Tuple[str, str]:
    """An unrolled xor/add checksum over a small buffer."""
    lanes = rng.choice([4, 6, 8])
    op = rng.choice(["^", "+"])
    terms = f" {op} ".join(f"buf[{i}]" for i in range(lanes))
    noise, tail = _noise(rng, _noise_amount(rng))
    name = f"checksum{lanes}_{uid}"
    source = f"""
int {name}(int *buf, int n) {{
{noise}
  int acc = {terms};
  return acc ^ {tail};
}}
"""
    return source, name


def _gen_irregular(rng: random.Random, uid: str) -> Tuple[str, str]:
    name = f"mixed_work_{uid}"
    k1 = rng.randrange(1, 50)
    k2 = rng.randrange(1, 50)
    source = f"""
int {name}(int *p, int n) {{
  p[0] = n * {k1};
  p[1] = p[0] / {k2 + 1};
  int t = p[1] << 2;
  p[3] = t ^ n;
  return t - n;
}}
"""
    return source, name


def _gen_tiny(rng: random.Random, uid: str) -> Tuple[str, str]:
    name = f"helper_{uid}"
    op = rng.choice(["+", "-", "*", "^", "&", "|"])
    source = f"""
int {name}(int a, int b) {{
  return (a {op} b) + {rng.randrange(0, 16)};
}}
"""
    return source, name


#: family name -> (generator, default weight in the corpus mix)
FAMILIES: Dict[str, Tuple[Callable, float]] = {
    "field_copy": (_gen_field_copy, 0.08),
    "call_sequence": (_gen_call_sequence, 0.08),
    "chained_calls": (_gen_chained_calls, 0.07),
    "dot_product": (_gen_dot_product, 0.07),
    "array_init": (_gen_array_init, 0.10),
    "alternating": (_gen_alternating, 0.06),
    "elementwise": (_gen_elementwise, 0.10),
    "padded": (_gen_padded, 0.07),
    "memset_bytes": (_gen_memset_bytes, 0.06),
    "struct_init": (_gen_struct_init, 0.06),
    "checksum": (_gen_checksum, 0.05),
    "irregular": (_gen_irregular, 0.10),
    "tiny": (_gen_tiny, 0.10),
}


def generate_sources(
    count: int = 300,
    seed: int = 2022,
    weights: Optional[Dict[str, float]] = None,
) -> List[CorpusSource]:
    """Generate ``count`` function sources with a deterministic seed.

    Pure string work -- no frontend runs -- so the corpus definition is
    cheap to produce before the driver compiles anything.
    """
    rng = random.Random(seed)
    names = list(FAMILIES)
    family_weights = [
        (weights or {}).get(name, FAMILIES[name][1]) for name in names
    ]
    sources: List[CorpusSource] = []
    for index in range(count):
        family = rng.choices(names, weights=family_weights)[0]
        generator = FAMILIES[family][0]
        uid = f"{seed}_{index}"
        source, fn_name = generator(rng, uid)
        sources.append(CorpusSource(fn_name, family, source))
    return sources


def generate_corpus(
    count: int = 300,
    seed: int = 2022,
    weights: Optional[Dict[str, float]] = None,
) -> List[CorpusFunction]:
    """Generate ``count`` compiled functions with a deterministic seed."""
    return [
        CorpusFunction(
            cs.name,
            cs.family,
            cs.source,
            compile_c(cs.source, module_name=f"angha.{cs.name}"),
        )
        for cs in generate_sources(count=count, seed=seed, weights=weights)
    ]
