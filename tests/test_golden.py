"""Byte-identity of `lspgen generate` output against recorded digests.

`tests/data/golden.sha256` holds `sha256sum` lines for the outputs of

    lspgen generate --rate 1-10 -k K --format deco [--sorted]
    lspgen generate --rate 1-10 -k K --format pc [--sorted] --sidecar FILE
    lspgen generate --rate 1-10 -k K --predecorations [--sorted]
    lspgen generate --rate 1-14 -k K --count

for K = 1, 2, 3 (the sidecar files are digested too).  Unsorted output
is in generation order, so a change to the search that reorders, drops
or adds a record shows up here even where the counts stay the same.

It also holds the output of

    lspgen apply --op OP --seed SEED

for every catalog operation and seed, except the pairs in APPLY_ERRORS,
which exit with code 2 and the one-line error given there.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from lspgen.catalog import OPERATION_NAMES, SEED_NAMES
from lspgen.cli import main

DIGESTS = dict(
    reversed(line.split())
    for line in (Path(__file__).parent / "data" / "golden.sha256")
    .read_text().splitlines())

CASES = {
    "deco": ["--rate", "1-10", "--format", "deco"],
    "deco_sorted": ["--rate", "1-10", "--format", "deco", "--sorted"],
    "pc": ["--rate", "1-10", "--format", "pc"],
    "pc_sorted": ["--rate", "1-10", "--format", "pc", "--sorted"],
    "pre": ["--rate", "1-10", "--predecorations"],
    "pre_sorted": ["--rate", "1-10", "--predecorations", "--sorted"],
    "count": ["--rate", "1-14", "--count"],
}


APPLY_ERRORS = {
    (op, "k2"): "error: extraction would create a loop\n"
    for op in ("ambo", "dual", "needle", "subdivide", "truncate")
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_generate_output_matches_digest(case, k, tmp_path, monkeypatch):
    name = f"{case}_k{k}"
    argv = ["generate", "-k", str(k)] + CASES[case]
    sidecar = tmp_path / "sidecar"
    if case.startswith("pc"):
        argv += ["--sidecar", str(sidecar)]
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    out.flush()
    assert _sha(raw.getvalue()) == DIGESTS[name]
    if case.startswith("pc"):
        assert _sha(sidecar.read_bytes()) == DIGESTS[name + ".sidecar"]


@pytest.mark.parametrize("host", SEED_NAMES)
@pytest.mark.parametrize("op", OPERATION_NAMES)
def test_apply_output_matches_digest(op, host, capsysbinary):
    code = main(["apply", "--op", op, "--seed", host])
    out, err = capsysbinary.readouterr()
    if (op, host) in APPLY_ERRORS:
        assert (code, out, err.decode()) == (2, b"", APPLY_ERRORS[op, host])
    else:
        assert (code, err) == (0, b"")
        assert _sha(out) == DIGESTS[f"apply_{op}_{host}"]
