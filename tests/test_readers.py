"""The readers meet malformed input with their own error only.

`read_planar_code` and `read_deco` are fed records of the catalog seeds
and operations with one to three tokens replaced, deleted or inserted
(bytes for planar_code, space-separated words for .deco); any exception
other than `MapError` from the first or `DecoFormatError` from the
second fails.  Set LSPGEN_STRETCH=1 for 10,000 examples per reader.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lspgen.catalog import OPERATION_NAMES, SEED_NAMES, lookup, seed
from lspgen.decorations import DecoFormatError, read_deco, write_deco
from lspgen.maps import MapError, read_planar_code, write_planar_code

PC_RECORDS = [tuple(write_planar_code([seed(name)], header=False))
              for name in SEED_NAMES]
DECO_RECORDS = [tuple(write_deco(lookup(name)).split(" "))
                for name in OPERATION_NAMES]
PC_VALUES = st.one_of(st.integers(0, 12), st.integers(0, 255))
DECO_VALUES = st.one_of(st.integers(-1, 12).map(str),
                        st.sampled_from(("", "x", ":", "\n", "rot", "et",
                                         "1:", "0\nrot", "9\net")))


@st.composite
def _mutated(draw, records, values):
    # the record and the positions come from a drawn Random, since drawn
    # integers favour the ends of their range
    rng = draw(st.randoms(use_true_random=True))
    toks = list(rng.choice(records))
    for _ in range(draw(st.integers(1, 3))):
        i = rng.randint(0, len(toks))
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        if op == "insert" or i == len(toks):
            toks.insert(i, draw(values))
        elif op == "replace":
            toks[i] = draw(values)
        else:
            del toks[i]
    return toks


def _raises_only(read, error, strategy, examples):
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=examples)
    @given(strategy)
    def check(toks):
        try:
            read(toks)
        except error:
            pass
    return check


def _read_pc(toks):
    read_planar_code(bytes(toks))


def _read_deco(toks):
    read_deco(" ".join(toks))


PC_MUTATIONS = _mutated(PC_RECORDS, PC_VALUES)
DECO_MUTATIONS = _mutated(DECO_RECORDS, DECO_VALUES)
stretch = pytest.mark.skipif(not os.environ.get("LSPGEN_STRETCH"),
                             reason="set LSPGEN_STRETCH=1 for 10,000 "
                                    "examples per reader")

test_planar_code_mutations_raise_only_map_errors = _raises_only(
    _read_pc, MapError, PC_MUTATIONS, 200)
test_deco_mutations_raise_only_format_errors = _raises_only(
    _read_deco, DecoFormatError, DECO_MUTATIONS, 200)
test_planar_code_mutations_stretch = stretch(_raises_only(
    _read_pc, MapError, PC_MUTATIONS, 10_000))
test_deco_mutations_stretch = stretch(_raises_only(
    _read_deco, DecoFormatError, DECO_MUTATIONS, 10_000))
