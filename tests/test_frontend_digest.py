"""Pinned frontend output: the printed IR of the benchmark corpora.

The frontend's speed work (parser, verifier, mem2reg) must not change
what it emits: every cache key, exhibit and benchmark digest rests on
these bytes.  The digests below are sha256 over the concatenated
``print_module`` output, in a fixed order, of

* the first 40 Angha sources of the seed-2022 draw (the campaign
  benchmark's corpus) compiled by :func:`compile_c`, and
* every TSVC kernel compiled and unrolled by a factor.

A change that moves one is a change to the frontend's output, not a
refactor: find which input moved before re-pinning.
"""

import hashlib

import pytest

from repro.bench import angha, tsvc
from repro.frontend import compile_c
from repro.ir import print_module


def angha_digest(count):
    digest = hashlib.sha256()
    for source in angha.generate_sources(count=count, seed=2022):
        digest.update(print_module(compile_c(source.source)).encode())
    return digest.hexdigest()


def tsvc_digest(factor):
    digest = hashlib.sha256()
    for name in tsvc.kernel_names():
        digest.update(
            print_module(tsvc.build_unrolled_kernel(name, factor)).encode()
        )
    return digest.hexdigest()


ANGHA_40 = "aaba5e3b81239169a3c06a6d7508d4db3d4acd10734fda8f1c441f826c425e18"
ANGHA_400 = "5d503ef4fb947ed13037e60bef7c809b43d8a2c2cd005cfc1fbaf054953cd20b"
TSVC = {
    1: "c8807a5b15496a207f033a97f8a21c7f5e38d373dc4a2503aae6f2239afc97fa",
    4: "879bcfbfb0ffd0a691145c454b87deb248b1f981401edfd4dbbe3833c0fa32f5",
    8: "4aacedfe9c6e4cbc8df11ed7610a6bd227b047de2fc7ed3f7ca5e81c052fe47e",
    16: "8cee0d1a3bf388ff71b3bfe9c6675928590fd5f578c9f0d9aa0583c2bc02715e",
}


def test_campaign_angha_draw_prints_pinned_ir():
    assert angha_digest(40) == ANGHA_40


def test_tsvc_kernels_unrolled_by_8_print_pinned_ir():
    assert tsvc_digest(8) == TSVC[8]


@pytest.mark.slow
def test_wide_angha_draw_prints_pinned_ir():
    assert angha_digest(400) == ANGHA_400


@pytest.mark.slow
@pytest.mark.parametrize("factor", [1, 4, 16])
def test_tsvc_kernels_print_pinned_ir_at_every_factor(factor):
    assert tsvc_digest(factor) == TSVC[factor]
